"""The benchmark's workloads against the package: one small pass of each
runs, and every operation's own output check passes.  The checks read
arc.events (t and post) and the events CSV, so a change to either that
breaks the benchmark fails here."""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "splaybench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("splaybench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the class is built
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.mark.parametrize("name", ["corpus", "perturbed_cli", "large_n"])
def test_a_tiny_pass_of_each_workload_checks_ok(workloads, tmp_path, name):
    workload = workloads.WORKLOADS[name](0, tmp_path, "tiny")
    workload.begin_pass()
    checks = {label: check(call()) for label, call, check in workload.operations()}
    assert checks
    assert {label: c.detail for label, c in checks.items() if not c.ok} == {}
