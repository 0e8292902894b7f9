"""README's library tour and example config file, run as written, and the
names its prose gives, resolved, so the README cannot drift from the code."""

import dataclasses
import importlib
import inspect
import json
import re
from pathlib import Path

import splaysim
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


#: the package's modules, as README names them
MODULES = ("circle", "model", "sim", "analysis", "prc", "experiments", "cli")


def _readme_names() -> set[str]:
    """Every backticked dotted name of the prose, a trailing () dropped."""
    prose = re.sub(r"```.*?```", "", README.read_text(encoding="utf-8"), flags=re.S)
    return set(re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)(?:\(\))?`", prose))


def _resolves(obj, parts: list[str]) -> bool:
    """Whether obj has the attribute chain parts; the last may also be a
    dataclass field without a default, which the class does not hold."""
    for k, part in enumerate(parts):
        if hasattr(obj, part):
            obj = getattr(obj, part)
        else:
            return (k == len(parts) - 1 and dataclasses.is_dataclass(obj)
                    and part in {f.name for f in dataclasses.fields(obj)})
    return True


def test_readme_names_resolve():
    """Each backticked dotted name under splaysim, one of its modules or
    one of its classes names something the package defines, so README
    cannot keep a name the code has dropped."""
    modules = {name: importlib.import_module(f"splaysim.{name}") for name in MODULES}
    roots = {"splaysim": splaysim, **modules,
             **{name: obj for module in modules.values() for name, obj in vars(module).items()
                if inspect.isclass(obj) and obj.__module__.startswith("splaysim.")}}
    names = sorted(name for name in _readme_names() if name.split(".")[0] in roots)
    assert len(names) >= 20  # the prose names that many; fewer means the pattern broke
    split = [name.split(".") for name in names]
    assert [".".join(parts) for parts in split if not _resolves(roots[parts[0]], parts[1:])] == []
