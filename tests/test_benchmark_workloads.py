"""The benchmark's workloads against the package: one small pass of each
runs, and every operation's own output check passes.  The checks read
arc.events (t and post) and the events CSV, so a change to either that
breaks the benchmark fails here, and one that moves a bit of what they
digest fails on the pinned digests."""

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


#: the output digest of each seed-0 tiny pass: corpus digests its CSV bytes,
#: large_n its event times and post states.  perturbed_cli has none here, as
#: its arcs go through np.sin, whose last bit differs between platforms.
TINY_DIGESTS = {
    "corpus": "1c0cbb5e3ab1a2d9c91deda1501d6002fb5ae0b5962f6773f0c97c98a4d95e79",
    "large_n": "ee0734d1629523ddf5ff36896f6b057021f85ac6f296aacc8bb16d9107949c23",
}


@pytest.mark.parametrize("name", ["corpus", "perturbed_cli", "large_n"])
def test_a_tiny_pass_of_each_workload_checks_ok(workloads, tmp_path, name):
    workload = workloads.WORKLOADS[name](0, tmp_path, "tiny")
    workload.begin_pass()
    checks = {label: check(call()) for label, call, check in workload.operations()}
    assert checks
    assert {label: c.detail for label, c in checks.items() if not c.ok} == {}
    if name in TINY_DIGESTS:
        assert workload.digest.hexdigest() == TINY_DIGESTS[name]
