"""README's library tour and example config file, run as written, so the
README cannot drift from the code."""

import json
import re
from pathlib import Path

from splaysim.cli import EXIT_OK, main

README = Path(__file__).resolve().parents[1] / "README.md"


def _block(language: str, after: str) -> str:
    """The first fenced block of the language past the text `after`."""
    text = README.read_text(encoding="utf-8")
    return re.compile(rf"```{language}\n(.*?)```", re.S).search(text, text.index(after)).group(1)


def test_library_tour_prints_what_its_comments_say(capsys):
    block = _block("python", "## Library tour")
    namespace: dict = {}
    exec(compile(block, str(README), "exec"), namespace)
    reason, v, monotone = capsys.readouterr().out.split()
    assert reason == namespace["arc"].stop_reason == "stop-rule"
    assert float(v) < 1e-6
    assert f"# {float(v):.3e}" in block  # the value its comment quotes
    assert monotone == "True"


def test_example_config_simulates(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(_block("json", "A config file looks like"))
    assert json.loads(config.read_text())["schema"] == "simconfig/1"
    assert main(["simulate", str(config), "--out", str(tmp_path / "out")]) == EXIT_OK
    assert "stop reason:" in capsys.readouterr().out
    assert (tmp_path / "out" / "trajectory.csv").is_file()
