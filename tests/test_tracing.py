"""The benchmark tracer against the package: every traced name exists,
installing then uninstalling the tracer leaves every binding as it was, and
the traced layers see every call they stand for."""

import importlib.util
import sys
from pathlib import Path

import numpy as np

from splaysim import sim
from splaysim.prc import paper_prc

TRACING = Path(__file__).resolve().parents[1] / "splaybench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("splaybench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings():
    """Every attribute of every loaded splaysim module and of its classes."""
    out = {}
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "splaysim" or name.startswith("splaysim.")):
            continue
        for attr, value in vars(module).items():
            out[name, attr] = value
            if isinstance(value, type):
                for key, member in vars(value).items():
                    out[name, attr, key] = member
    return out


def test_traced_names_resolve_and_uninstall_restores_every_binding():
    tracing = _load_tracing()
    targets = {}
    for mod, names in tracing.TRACED.items():
        module = importlib.import_module(f"splaysim.{mod}")
        for name in names:
            owner_name, _, attr = name.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            assert attr in vars(owner), f"splaysim.{mod}.{name} is traced but not defined"
            targets[f"{mod}.{name}"] = (owner, attr, vars(owner)[attr])
            assert callable(vars(owner)[attr]), f"{mod}.{name}"
    before = _bindings()

    tracer = tracing.Tracer()
    tracer.install()
    try:
        for label, (owner, attr, original) in targets.items():
            assert vars(owner)[attr].__wrapped__ is original, label
    finally:
        tracer.uninstall()

    after = _bindings()
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []


def test_sample_spans_count_every_custom_disturbance_evaluation():
    # a custom disturbance is evaluated only through Perturbation.sample, so
    # the benchmark's sample layer sees each call of its func
    sizes = []

    def func(ts):
        sizes.append(ts.size)
        return 0.04 * np.column_stack([np.cos(ts), np.sin(2.0 * ts), -np.cos(0.3 * ts)])

    cfg = sim.SimConfig(prc=paper_prc(3), x0=np.array([0.3, 2.0, 4.1]),
                        perturbation=sim.Perturbation.custom(func, bound=0.04),
                        horizon=40.0, stop_v_threshold=None)
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        tracer.enabled = True
        arc = sim.run(cfg)
    finally:
        tracer.enabled = False
        tracer.uninstall()
    spans, _ = tracer.drain()
    assert arc.jumps > 10
    assert sum(name == "sim.Perturbation.sample" for name, *_ in spans) == len(sizes) > 0
