"""The JSON configs under README's command-line headings run as written.

Each block is the first JSON block under its `### <command>` heading; its
`out` is pointed at a temporary directory and the command is run in
process, as `tests/test_workloads.py` runs the benchmark's configs.
"""

import json
import re
from pathlib import Path

import pytest

from fracteig.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _example(command: str) -> dict:
    """The first JSON block between `### {command}` and the next heading."""
    text = README.read_text(encoding="utf-8")
    section = re.split(r"\n#+ ", text.split(f"\n### {command}\n", 1)[1], maxsplit=1)[0]
    return json.loads(re.search(r"```json\n(.*?)```", section, re.S).group(1))


@pytest.mark.parametrize("command", ["eig", "sweep", "infinity", "verify1d"])
def test_readme_example_runs(tmp_path, command):
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "out"
    cfg.write_text(json.dumps({**_example(command), "out": str(out)}), encoding="utf-8")
    assert main([command, "--config", str(cfg)]) == 0
    assert json.loads((out / "report.json").read_text(encoding="utf-8"))["command"] == command
