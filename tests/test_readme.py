"""README's examples against the code: every repository path it names
exists, and every `bicmlab` and `tools/phases.py` command line it shows
parses and passes the checks that run before any work.  Nothing runs a
sweep or writes a file."""

import io
import re
import shlex
from pathlib import Path

from bicmlab import cli, harness

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")
# a path under one of these directories, then any ::Class::name parts
PATH = re.compile(r"(?<![\w./-])((?:bench|src|tests|tools)/[\w./-]*[\w/])"
                  r"((?:::\w+)*)")


def command_lines(prefix: str) -> list[str]:
    """README's lines that start with prefix, continuation lines joined."""
    lines = README.replace("\\\n", " ").splitlines()
    return [line.strip() for line in lines if line.strip().startswith(prefix)]


def example_config() -> str:
    """The block under "Experiment config format"."""
    return README.split("### Experiment config format")[1].split("```")[1]


def test_named_paths_exist():
    named = PATH.findall(README)
    assert len(named) >= 10
    assert sorted({path for path, _ in named
                   if not (ROOT / path).exists()}) == []
    for path, nodes in named:
        text = (ROOT / path).read_text(encoding="utf-8") if nodes else ""
        for name in nodes.split("::")[1:]:
            assert re.search(rf"^\s*(class|def) {name}\b", text, re.M), (
                f"{path}{nodes}")


def test_example_config_parses():
    cfg = harness.ExperimentConfig(**harness.config_kwargs(
        harness.ExperimentConfig, harness.parse_config_text(example_config())))
    assert (cfg.code, cfg.decoder, cfg.workers) == ("polar_64_32", "osd", 4)


def test_command_lines_build_their_configs(monkeypatch):
    # each line through the CLI's own parser and the config its command
    # reads; --config experiment.cfg reads the example config block
    def read(path, *_, **__):
        assert path == "experiment.cfg", path
        return io.StringIO(example_config())

    monkeypatch.setattr(cli, "open", read, raising=False)
    lines = command_lines("bicmlab ")
    assert len(lines) >= 7
    parser = cli._parser()
    for line in lines:
        args = cli._parse_args(parser, shlex.split(line)[1:])
        if hasattr(args, "cls"):
            assert isinstance(cli._config(args), args.cls), line


def test_phases_lines_pass_the_tools_checks(load_tool):
    # parse_args exits with status 2 on an argparse error or a refusal
    tool = load_tool("phases")
    lines = command_lines("python3 tools/phases.py ")
    assert len(lines) >= 3
    for line in lines:
        tool.parse_args(shlex.split(line)[2:])
