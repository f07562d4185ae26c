"""Smoke runs of the timing tools, some of which call private refdec and
bicm functions: one cheap run each, so that a change to the functions a tool
calls cannot break it unnoticed.  The load_tool fixture is in conftest.py."""


def test_osd_phases(load_tool, capsys):
    tool = load_tool("osd_phases")
    assert tool.main(["--runs", "polar_16_8:2", "--repeats", "1"]) == 0
    header, row = capsys.readouterr().out.splitlines()[-2:]
    assert header.split()[-6:] == ["tie", "frames", "frames", "at", "order",
                                   "0/1/..."]
    fields = row.split()
    assert fields[:2] == ["polar_16_8", "2"]
    assert len(fields) == 2 + len(tool.PHASES) + 3
    assert int(fields[-2]) >= 0
    # the frames at effective orders 0, 1 and 2 make up the chunk
    assert sum(map(int, fields[-1].split("/"))) == tool.FRAMES


def test_transmit_phases(load_tool, capsys):
    tool = load_tool("transmit_phases")
    assert tool.main(["--runs", "osd2-qpsk", "--repeats", "1"]) == 0
    header, row, mib = (line.split()
                        for line in capsys.readouterr().out.splitlines()[-3:])
    assert header[-2:] == ["total", "faults"]
    assert row[0] == "osd2-qpsk" and len(row) == 1 + len(tool.STAGES) + 2
    assert int(row[-1]) >= 0
    assert mib[0] == "MiB" and len(mib) == len(row) and mib[-1] == "-"
    peaks = [float(p) for p in mib[1:-1]]
    # the chunk's peak is its largest stage's and holds the returned batch:
    # a 2048-frame polar_64_32 batch is 2.19 MiB
    assert peaks[-1] == max(peaks[:-1]) >= 2.19


def test_predict_scaling(load_tool, capsys):
    tool = load_tool("predict_scaling")
    assert tool.main(["--presets", "desk-transformer",
                      "--codes", "polar_16_8"]) == 0
    header, row = (line.split()
                   for line in capsys.readouterr().out.splitlines()[-3:-1])
    assert header == ["preset", "code", "r", "ms/frame", "ms/predict",
                      "peak", "MB"]
    assert row[:3] == ["desk-transformer", "polar_16_8", "24"]
    assert len(row) == 6
    assert float(row[3]) > 0 and float(row[4]) > 0
    assert float(row[5]) >= 0
