"""Tests of the benchmark itself.

    python3 -m pytest splaybench/test_splaybench.py -q
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import splaysim  # noqa: E402
import tracing  # noqa: E402
from splaysim import circle, model, sim  # noqa: E402
from splaysim.prc import paper_prc  # noqa: E402


class Ticks:
    """A clock that advances by one on every reading."""

    def __init__(self):
        self.now = -1.0

    def __call__(self):
        self.now += 1.0
        return self.now


@pytest.fixture
def fake_package(monkeypatch):
    """fakepkg.mod with outer() calling inner() twice; fakepkg re-exports inner."""
    pkg = types.ModuleType("fakepkg")
    mod = types.ModuleType("fakepkg.mod")

    def inner():
        return 1

    def outer():
        return mod.inner() + mod.inner()

    def countdown(k):
        return k if k == 0 else mod.countdown(k - 1)

    mod.inner, mod.outer, mod.countdown = inner, outer, countdown
    pkg.inner = inner
    monkeypatch.setitem(sys.modules, "fakepkg", pkg)
    monkeypatch.setitem(sys.modules, "fakepkg.mod", mod)
    return pkg, mod


def test_self_time_of_synthetic_nested_call(fake_package):
    _, mod = fake_package
    tracer = tracing.Tracer("fakepkg", {"mod": ("outer", "inner")}, clock=Ticks())
    tracer.install()
    tracer.enabled = True
    try:
        assert mod.outer() == 2
    finally:
        tracer.uninstall()
    spans, _ = tracer.drain()
    # outer [0, 5] holds inner [1, 2] and inner [3, 4]
    assert spans == [("mod.outer", 0.0, 5.0, -1), ("mod.inner", 1.0, 2.0, 0),
                     ("mod.inner", 3.0, 4.0, 0)]
    assert tracing.layer_times(spans) == {"mod.outer": (1, 5.0, 3.0),
                                          "mod.inner": (2, 2.0, 2.0)}


def test_recursion_is_counted_once_in_total(fake_package):
    _, mod = fake_package
    tracer = tracing.Tracer("fakepkg", {"mod": ("countdown",)}, clock=Ticks())
    tracer.install()
    tracer.enabled = True
    try:
        mod.countdown(2)
    finally:
        tracer.uninstall()
    spans, _ = tracer.drain()
    # countdown(2) [0, 5] > countdown(1) [1, 4] > countdown(0) [2, 3]
    assert tracing.layer_times(spans) == {"mod.countdown": (3, 5.0, 5.0)}


def test_disabled_tracer_records_nothing(fake_package):
    _, mod = fake_package
    tracer = tracing.Tracer("fakepkg", {"mod": ("outer", "inner")}, clock=Ticks())
    tracer.install()
    try:
        mod.outer()
    finally:
        tracer.uninstall()
    assert tracer.drain()[0] == []


def _bindings():
    """Every (namespace, attribute) of splaysim that holds a traced object."""
    originals = {}
    for mod, names in tracing.TRACED.items():
        module = importlib.import_module(f"splaysim.{mod}")
        for name in names:
            owner, _, attr = name.rpartition(".")
            originals[f"{mod}.{name}"] = (getattr(module, owner).__dict__[attr] if owner
                                          else getattr(module, attr))
    found = {}
    for modname, module in list(sys.modules.items()):
        if modname == "splaysim" or modname.startswith("splaysim."):
            for attr, value in vars(module).items():
                for label, original in originals.items():
                    if value is original:
                        found[(modname, attr)] = label
    return originals, found


def test_rebinding_reaches_from_imports_and_restores():
    originals, bindings = _bindings()
    # sim imports jump_map with `from .model import ...`; the package re-exports it
    assert bindings[("splaysim.sim", "jump_map")] == "model.jump_map"
    assert bindings[("splaysim", "jump_map")] == "model.jump_map"
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert sim.jump_map is model.jump_map is splaysim.jump_map
        assert sim.jump_map is not originals["model.jump_map"]
        assert sim.jump_map.__wrapped__ is originals["model.jump_map"]
        assert sim.as_phases is circle.as_phases is not originals["circle.as_phases"]
        assert sim.Perturbation.__dict__["sample"] is not originals["sim.Perturbation.sample"]
        tracer.enabled = True
        cfg = sim.SimConfig(prc=paper_prc(3), x0=np.array([0.1, 2.0, 4.0]), horizon=10.0)
        pert = sim.Perturbation.sinusoidal(0.03, 0.5, (0.0, 1.0, 2.0))
        arc = sim.run(cfg)
        pert.sample(np.array([0.0, 1.0]), 3)
        tracer.enabled = False
    finally:
        tracer.uninstall()
    spans, counters = tracer.drain()
    names = [s[0] for s in spans]
    run_index = names.index("sim.run")
    assert any(name == "model.jump_map" and parent == run_index
               for name, _, _, parent in spans)
    assert "sim.Perturbation.sample" in names
    assert counters.jumps == arc.jumps > 0
    assert counters.samples == len(arc.ts)
    assert counters.validated_ns == [3]
    _, restored = _bindings()
    assert restored == bindings
    assert sim.Perturbation.__dict__["sample"] is originals["sim.Perturbation.sample"]


def _spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {key: {m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer")}


def test_host_scale_brings_times_to_reference_speed():
    import run

    ref = run.REFERENCE_SAMPLE_S
    assert run.host_scale([2 * ref, 2 * ref]) == pytest.approx(0.5)
    assert run.host_scale([0.25 * ref, 0.75 * ref]) == pytest.approx(2.0)
    # each operation is scaled by the samples taken right after it
    passed = {"latencies_s": [1.0, 3.0], "reference_s": [2 * ref, 0.5 * ref]}
    assert run.scaled_latencies(passed) == pytest.approx([0.5, 6.0])


def test_worker_samples_host_speed_after_every_operation(tmp_path):
    import worker
    import workloads

    passed = worker.run_pass(workloads.WORKLOADS["large_n"](3, tmp_path, "tiny"), None)
    assert len(passed["reference_s"]) == len(passed["latencies_s"]) == passed["attempted"]
    assert all(t > 0 for t in passed["reference_s"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["corpus", "perturbed_cli", "large_n"])
def test_tiny_pass_emits_every_metric_with_its_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = _spec()["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    for name, unit in expected.items():
        assert name in proc.stdout and unit in proc.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"), "--workload", "corpus",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
