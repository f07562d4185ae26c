"""Smoke runs of the timing tools, which call private refdec and bicm
functions: one cheap run each, so that a change to those functions cannot
break a tool unnoticed.  The load_tool fixture is in conftest.py."""


def test_osd_phases(load_tool, capsys):
    tool = load_tool("osd_phases")
    assert tool.main(["--runs", "polar_16_8:2", "--repeats", "1"]) == 0
    header, row = capsys.readouterr().out.splitlines()[-2:]
    assert header.split()[-2:] == ["tie", "frames"]
    fields = row.split()
    assert fields[:2] == ["polar_16_8", "2"]
    assert len(fields) == 2 + len(tool.PHASES) + 2
    assert int(fields[-1]) >= 0


def test_transmit_phases(load_tool, capsys):
    tool = load_tool("transmit_phases")
    assert tool.main(["--runs", "osd2-qpsk", "--repeats", "1"]) == 0
    header, row = (line.split()
                   for line in capsys.readouterr().out.splitlines()[-2:])
    assert header[-2:] == ["total", "faults"]
    assert row[0] == "osd2-qpsk" and len(row) == 1 + len(tool.STAGES) + 2
    assert int(row[-1]) >= 0
