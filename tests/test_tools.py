"""Smoke runs of the timing tools, some of which call or wrap private
refdec and bicm functions: one cheap run each, so that a change to the
functions a tool calls cannot break it unnoticed.  The load_tool fixture is
in conftest.py."""

import pytest


def test_phases_osd(load_tool, capsys):
    tool = load_tool("phases")
    assert tool.main(["osd", "--runs", "polar_16_8:2", "--repeats", "1"]) == 0
    header, row, mib = (line.split()
                        for line in capsys.readouterr().out.splitlines()[-3:])
    assert header == ["run", "rank", "eliminate", "discrepancy", "score",
                      "re-encode", "other", "total", "faults", "tie",
                      "frames", "frames", "at", "order", "0/1/..."]
    assert row[0] == "polar_16_8:2" and len(row) == 1 + 7 + 3
    assert int(row[-3]) >= 0 and int(row[-2]) >= 0
    # the frames at effective orders 0, 1 and 2 make up the chunk
    by_order = [int(f) for f in row[-1].split("/")]
    assert len(by_order) == 3 and sum(by_order) == tool.FRAMES
    assert mib[0] == "MiB" and len(mib) == 1 + 7 + 1 and mib[-1] == "-"
    peaks = [float(p) for p in mib[1:-1]]
    assert peaks[-1] == max(peaks[:-1]) > 0


def test_phases_transmit(load_tool, capsys):
    tool = load_tool("phases")
    assert tool.main(["transmit", "--runs", "osd2-qpsk", "--repeats", "1"]) == 0
    header, row, mib = (line.split()
                        for line in capsys.readouterr().out.splitlines()[-3:])
    assert header == ["run", "encode", "perms", "interleave", "modulate",
                      "awgn", "demap", "clamp", "deinterleave", "other",
                      "total", "faults"]
    assert row[0] == "osd2-qpsk" and len(row) == len(header)
    assert int(row[-1]) >= 0
    assert mib[0] == "MiB" and len(mib) == len(row) and mib[-1] == "-"
    peaks = [float(p) for p in mib[1:-1]]
    # the chunk's peak is its largest stage's and holds the returned batch:
    # a 2048-frame polar_64_32 batch is 2.19 MiB
    assert peaks[-1] == max(peaks[:-1]) >= 2.19


def test_phases_puts_every_stage_back(load_tool, capsys):
    tool = load_tool("phases")
    targets = [t for stages in tool.STAGES.values() for t in stages]
    originals = [getattr(owner, attr) for owner, attr, _ in targets]

    def wrapped():
        return [getattr(owner, attr) is not fn
                for (owner, attr, _), fn in zip(targets, originals)]

    assert tool.main(["osd", "--runs", "polar_16_8:1", "--repeats", "1"]) == 0
    assert tool.main(["transmit", "--runs", "osd2-qpsk", "--repeats", "1"]) == 0
    assert not any(wrapped())

    seen = []

    def call():
        seen.extend(wrapped())
        tool.bicm.interleave(None, None)    # raises inside its wrapper

    with pytest.raises(AttributeError):
        tool.staged_call(call, targets)
    assert seen == [True] * len(targets)
    assert not any(wrapped())


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
