"""Smoke runs of tools/phases.py, which calls or wraps private refdec and
bicm functions and network layers: one cheap run per mode, so that a change
to the functions it calls cannot break it unnoticed, and its refusals of bad
arguments.  The load_tool fixture is in conftest.py."""

import tracemalloc

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
    assert tool.main(["predict", "--runs", "desk-transformer:polar_16_8",
                      "--repeats", "1"]) == 0
    assert not any(wrapped())

    seen = []

    def call():
        seen.extend(wrapped())
        tool.bicm.interleave(None, None)    # raises inside its wrapper

    with pytest.raises(AttributeError):
        tool.staged_call(call, targets)
    assert seen == [True] * len(targets)
    assert not any(wrapped())


def test_phases_predict(load_tool, capsys):
    tool = load_tool("phases")
    assert tool.main(["predict", "--runs", "desk-transformer:polar_16_8",
                      "desk-rnn:polar_16_8", "desk-rnn:polar_32_16",
                      "--repeats", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    header, *rows = (line.split() for line in lines[1:8])
    assert header == ["run", "attention", "layernorm", "dense", "gru",
                      "other", "total", "faults", "r"]
    assert [row[0] for row in rows] == [
        "desk-transformer:polar_16_8", "MiB", "desk-rnn:polar_16_8", "MiB",
        "desk-rnn:polar_32_16", "MiB"]
    assert [row[-1] for row in rows[::2]] == ["24", "24", "48"]
    for row, mib in zip(rows[::2], rows[1::2]):
        ms = [float(c) for c in row[1:7]]
        # one call: other is the total less the stages
        assert ms[-1] == pytest.approx(sum(ms[:-1]), abs=0.03)
        assert mib[-1] == "-" and len(mib) == 1 + 6 + 1
        peaks = [float(p) for p in mib[1:-1]]
        assert peaks[-1] == max(peaks[:-1]) > 0
    # the transformer runs no GRU, and the rnn no attention or layernorm
    assert float(rows[0][4]) == 0 and float(rows[0][1]) > 0
    assert [float(c) for c in rows[2][1:3]] == [0, 0]
    assert float(rows[2][4]) > 0
    # one exponent for the preset with two codes (a noisy single call may
    # give it either sign), then the peak RSS
    assert lines[8].startswith("desk-rnn time ~ r^") and len(lines) == 10
    float(lines[8].split("^")[1])
    assert lines[9].startswith("process peak RSS ")


def test_phases_predict_traces_only_the_predict(load_tool):
    # the stage timer keeps no record per span: an r = 48 transformer
    # predict makes over 1500 stage calls, and its traced peak is still its
    # own tracemalloc peak, within 16 KiB
    tool = load_tool("phases")
    call, _ = tool.make_call("predict", "desk-transformer:polar_32_16", 0, 0)
    targets = tool.STAGES["predict"]
    got = tool.traced(call, targets, [stage for _, _, stage in targets])[-1]
    tracemalloc.start()
    try:
        call()
        want = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert got == pytest.approx(want, abs=1 / 64)


@pytest.mark.parametrize("argv, message", [
    (["osd", "--runs", "polar_16_8:1", "polar_64_32"],
     "osd run 'polar_64_32' is not code:order"),
    (["osd", "--runs", "polar_16_8:x"], "osd run 'polar_16_8:x' is not"),
    (["osd", "--runs", "polar_16_8:9"], "osd run 'polar_16_8:9' is not"),
    (["osd", "--runs", "polar_99:1"], "osd run 'polar_99:1' is not"),
    (["transmit", "--runs", "qam16"], "transmit run 'qam16' is not one of"),
    (["predict", "--runs", "polar_16_8:desk-rnn"],
     "predict run 'polar_16_8:desk-rnn' is not preset:code"),
    (["predict", "--runs", "desk-rnn:polar_99"],
     "predict run 'desk-rnn:polar_99' is not"),
    (["transmit", "--ebn0-db", "4"], "--ebn0-db is for osd runs only"),
    (["predict", "--ebn0-db", "0"], "--ebn0-db is for osd runs only"),
    (["osd", "--runs", "polar_128_64:5"], "osd run 'polar_128_64:5': OSD "
     "order 5 at k = 64 has 8303633 test patterns, more than 4194304"),
    (["osd", "--runs", "polar_16_8:1", "--ebn0-db", "4000"],
     "osd run 'polar_16_8:1': Eb/N0 4000 dB gives no finite noise variance"),
], ids=["no-order", "bad-order", "order-above-k", "osd-code", "transmit-name",
        "swapped", "predict-code", "ebn0-transmit", "ebn0-predict",
        "too-many-patterns", "ebn0-no-noise"])
def test_phases_refuses_bad_arguments_before_any_call(load_tool, capsys,
                                                       monkeypatch, argv,
                                                       message):
    tool = load_tool("phases")
    monkeypatch.setattr(tool, "make_call",
                        lambda *a: pytest.fail("a run was called"))
    with pytest.raises(SystemExit) as exc:
        tool.main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"error: {message}" in err.splitlines()[-1]
