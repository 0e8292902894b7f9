"""Event-driven execution: exact nominal and perturbed flow,
guards, stop rules, and the CSV round trip."""

import dataclasses
import functools
import hashlib
import itertools
import math
import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from splaysim import analysis, circle, cli, sim
from splaysim.analysis import lyapunov, verify_monotone, vtilde
from splaysim.circle import TWO_PI, splay_arc_length
from splaysim.experiments import (PERTURBED_X0, corpus_run_config, draw_start, fig2_config,
                                  perturbed_config)
from splaysim.model import (FIRING_TOL, InvalidPhaseResponseError, PhaseResponse,
                            firing_indices, in_jump_set, in_splay_set, jump_map)
from splaysim.prc import broken_zero, paper_prc, prc_from_spec
from splaysim.sim import (
    HybridArc,
    JumpEvent,
    Perturbation,
    SimConfig,
    ZenoViolationError,
    flow_to_next_event,
    read_trajectory_csv,
    run,
    write_events_csv,
    write_trajectory_csv,
)


def splay_vector(n, rotation=0.0):
    return (np.arange(n) * TWO_PI / n + rotation) % TWO_PI


# -- configuration validation --------------------------------------------------

def test_config_infers_and_checks_n():
    # n is the length of x0, not a field, and the response must be built for it
    cfg = SimConfig(prc=paper_prc(3), x0=np.array([1.0, 2.0, 3.0]))
    assert cfg.n == 3
    assert "n" not in {f.name for f in dataclasses.fields(SimConfig)}
    with pytest.raises(TypeError):
        SimConfig(prc=paper_prc(3), x0=np.array([1.0, 2.0, 3.0]), n=3)
    with pytest.raises(ValueError, match="built for n=4, run has n=3"):
        SimConfig(prc=paper_prc(4), x0=np.array([1.0, 2.0, 3.0]))


@pytest.mark.parametrize("bad", [
    dict(omega=0.0),
    dict(omega=-1.0),
    dict(horizon=0.0),
    dict(horizon=math.nan),
    dict(max_jumps=0),
    dict(max_jumps=2.5),
    dict(max_jumps=math.nan),
    dict(sample_dt=0.0),
    dict(sample_dt=1e-15),
    dict(sample_dt=math.nan),
    dict(policy="sometimes"),
    dict(stop_v_threshold=-1e-6),
    dict(stop_v_threshold=math.nan),
    dict(seed="abc"),
    dict(seed=3.7),
    dict(seed=-1),
    dict(seed=None),
    dict(prc=None),
    dict(prc="paper"),
    dict(perturbation=None),
    dict(perturbation=0.03),
    *(dict([(name, value)]) for name in ("omega", "horizon", "max_jumps", "stop_v_threshold",
                                         "seed", "sample_dt") for value in (True, False, "5", [5])),
    dict(max_jumps=3.0),
    dict(seed=3.0),
    dict(x0=[True, 2.0, 3.0]),
    dict(x0=np.array([True, False, True])),
    dict(x0=["1.0", 2.0, 3.0]),
    dict(x0=np.array(["1.0", "2.0", "3.0"])),
])
def test_config_rejects_bad_parameters(bad):
    with pytest.raises(ValueError, match=next(iter(bad))):
        SimConfig(**{"prc": paper_prc(3), "x0": np.array([1.0, 2.0, 3.0]), **bad})


@pytest.mark.parametrize("name", ["omega", "horizon", "max_jumps", "stop_v_threshold", "seed",
                                  "sample_dt"])
def test_config_message_starts_with_a_mistyped_number_field(name):
    # the message starts with the field, as the CLI's config errors do
    with pytest.raises(ValueError, match=f"^{name}: '5' is not "):
        SimConfig(prc=paper_prc(3), x0=np.array([1.0, 2.0, 3.0]), **{name: "5"})


def test_config_stores_numbers_as_python_floats_and_ints():
    cfg = SimConfig(prc=paper_prc(3), x0=[1, np.float32(2.0), 3.0], omega=np.float32(1.0),
                    horizon=2, max_jumps=np.int64(7), stop_v_threshold=np.float32(0.5),
                    seed=np.uint32(3), sample_dt=1)
    for name, kind, value in (("omega", float, 1.0), ("horizon", float, 2.0),
                              ("max_jumps", int, 7), ("stop_v_threshold", float, 0.5),
                              ("seed", int, 3), ("sample_dt", float, 1.0)):
        assert type(getattr(cfg, name)) is kind and getattr(cfg, name) == value, name
    assert cfg.x0.dtype == np.float64 and cfg.x0.tolist() == [1.0, 2.0, 3.0]
    # only the stop rule can be turned off; a run is always seeded
    unset = SimConfig(prc=paper_prc(3), x0=[1.0, 2.0, 3.0], stop_v_threshold=None)
    assert unset.stop_v_threshold is None and unset.seed == 0
    with pytest.raises(ValueError, match="^seed: None is not an integer$"):
        SimConfig(prc=paper_prc(3), x0=[1.0, 2.0, 3.0], seed=None)


#: every place the band or the guard could once be set, as (name, call with
#: the keyword arguments given)
_REMOVED_TOLERANCES = {
    "SimConfig.firing_tol": ("firing_tol", lambda **kw: SimConfig(
        prc=paper_prc(3), x0=[1.0, 2.0, 3.0], **kw)),
    "SimConfig.min_dwell": ("min_dwell", lambda **kw: SimConfig(
        prc=paper_prc(3), x0=[1.0, 2.0, 3.0], **kw)),
    "in_jump_set.tol": ("tol", lambda **kw: in_jump_set([TWO_PI, 1.0], **kw)),
    "firing_indices.tol": ("tol", lambda **kw: firing_indices([TWO_PI, 1.0], **kw)),
    "jump_map.tol": ("tol", lambda **kw: jump_map([TWO_PI, 1.0, 2.0], paper_prc(3), **kw)),
    "flow_to_next_event.firing_tol": ("firing_tol", lambda **kw: flow_to_next_event(
        [0.3, 2.0, 4.1], 1.0, None, 0.0, **kw)),
}


@pytest.mark.parametrize("value", [1e-9, math.nan], ids=["old-default", "nan"])
@pytest.mark.parametrize("entry", _REMOVED_TOLERANCES)
def test_the_firing_band_and_the_zeno_guard_are_not_settable(entry, value):
    # refused by the signature whatever the value, the old default too: no
    # value check runs that could accept it or blame the value instead
    name, call = _REMOVED_TOLERANCES[entry]
    with pytest.raises(TypeError, match=f"unexpected keyword argument '{name}'"):
        call(**{name: value})


@pytest.mark.parametrize("omega", [math.inf, math.nan])
def test_omega_must_be_positive_and_finite(omega):
    # an infinite rate makes omega * (t - t0) = inf * 0 = nan at every
    # crossing, and the run never ends
    with pytest.raises(ValueError, match="omega must be positive and finite"):
        SimConfig(prc=paper_prc(3), x0=np.array([0.5, 1.5, 3.0]), omega=omega)
    with pytest.raises(ValueError, match="omega must be positive and finite"):
        flow_to_next_event(np.array([0.5, 1.5, 3.0]), omega, None, 0.0, 10.0)


def test_config_rejects_disturbance_at_or_above_rate():
    pert = Perturbation.sinusoidal(1.0, 0.5, (0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        SimConfig(prc=paper_prc(3), x0=np.array([1.0, 2.0, 3.0]),
                  omega=1.0, perturbation=pert)
    # and offset count must match the network size
    pert = Perturbation.sinusoidal(0.05, 0.5, (0.0, 1.0))
    with pytest.raises(ValueError):
        SimConfig(prc=paper_prc(3), x0=np.array([1.0, 2.0, 3.0]),
                  perturbation=pert)


def test_flow_to_next_event_checks_the_offset_count_as_the_config_does():
    pert = Perturbation.sinusoidal(0.1, 0.5, (0, 1))
    with pytest.raises(ValueError, match=r"perturbation has 2 phase offsets for n=3"):
        flow_to_next_event([0.3, 2.0, 4.1], 1.0, pert, 0.0, 10.0)


def test_config_rejects_out_of_box_start():
    with pytest.raises(ValueError):
        SimConfig(prc=paper_prc(3), x0=np.array([1.0, 2.0, 7.0]))


# -- nominal flow exactness -----------------------------------------------------

def test_flow_to_next_event_closed_form():
    x0 = np.array([1.0, 2.0, 3.0])
    t, x, fired = flow_to_next_event(x0, omega=2.0, perturbation=None,
                                     t0=0.0, horizon=50.0)
    assert fired
    assert t == pytest.approx((TWO_PI - 3.0) / 2.0, abs=1e-15)
    assert x[2] == TWO_PI  # assigned exactly, not approximately
    np.testing.assert_allclose(x[:2], x0[:2] + 2.0 * t, atol=1e-12)


def test_flow_returns_horizon_segment_when_nothing_fires():
    x0 = np.array([1.0, 2.0, 3.0])
    t, x, fired = flow_to_next_event(x0, omega=1.0, perturbation=None,
                                     t0=0.0, horizon=0.5)
    assert not fired
    assert t == 0.5
    np.testing.assert_allclose(x, x0 + 0.5, atol=1e-15)
    with pytest.raises(ValueError):
        flow_to_next_event(np.array([TWO_PI, 1.0]), omega=1.0,
                           perturbation=None, t0=0.0, horizon=1.0)


@pytest.mark.parametrize("t0, horizon, match", [
    (10.0, 5.0, "must not be earlier than t0"),  # would flow backwards, out of the box
    (math.nan, 5.0, "t0 must be finite"),
    (math.inf, math.inf, "t0 must be finite"),
    (0.0, math.nan, "must not be earlier than t0"),
])
def test_flow_to_next_event_rejects_a_bad_time_span(t0, horizon, match):
    with pytest.raises(ValueError, match=match):
        flow_to_next_event([0.3, 2.0, 4.1], 1.0, None, t0=t0, horizon=horizon)


@given(arrays(float, 3, elements=st.floats(0.0, TWO_PI - 1e-3, allow_nan=False)),
       st.floats(0.1, 10.0, allow_nan=False))
def test_nominal_samples_sit_on_the_exact_ray(x0, omega):
    cfg = SimConfig(prc=paper_prc(3), x0=x0, omega=omega, horizon=10.0,
                    max_jumps=20, stop_v_threshold=None)
    try:
        arc = run(cfg)
    except ZenoViolationError:
        return  # coincident phases can pile up firings; not this test's topic
    for t_start, _, j in arc.intervals:
        mask = arc.js == j
        ts = arc.ts[mask]
        xs = arc.states[mask]
        expect = xs[0] + omega * (ts[:, None] - ts[0])
        inside = ~(arc.kinds[mask] == "pre-jump")
        np.testing.assert_allclose(xs[inside], expect[inside], atol=1e-12)
        assert ts[0] >= t_start - 1e-12


def test_crossing_coordinate_is_exactly_two_pi(fig2_arc):
    for event in fig2_arc.events:
        assert event.pre.max() == TWO_PI


def test_interior_samples_sit_on_the_global_grid(fig2_arc):
    mask = fig2_arc.kinds == "flow"
    ts = fig2_arc.ts[mask]
    ts = ts[(ts > 0) & (ts < fig2_arc.ts[-1])]
    k = ts / 0.01
    np.testing.assert_allclose(k, np.round(k), atol=1e-6)


# -- behaviour from special starts ----------------------------------------------

@pytest.mark.parametrize("n", [2, 3, 5])
def test_splay_start_is_invariant(n):
    cfg = SimConfig(prc=paper_prc(n), x0=splay_vector(n), horizon=40.0,
                    stop_v_threshold=None)
    arc = run(cfg)
    assert lyapunov(arc.states).max() <= 1e-9
    assert all(in_splay_set(e.post, tol=1e-9) for e in arc.events)
    # equal firing separation: every dwell is one n-th of a revolution
    np.testing.assert_allclose(arc.dwells(), TWO_PI / n, atol=1e-9)


def test_synchronised_start_never_separates():
    x0 = np.full(3, 1.0)
    cfg = SimConfig(prc=paper_prc(3), x0=x0, horizon=30.0)
    arc = run(cfg)
    assert arc.stop_reason == "horizon"
    # all three fire together and reset together, forever
    for e in arc.events:
        assert e.firers == (0, 1, 2)
    assert lyapunov(arc.final_state) == pytest.approx(splay_arc_length(3))


def test_immediate_jump_when_started_on_the_jump_set():
    x0 = np.array([TWO_PI, 1.0, 2.0])
    arc = run(SimConfig(prc=paper_prc(3), x0=x0, horizon=5.0,
                        stop_v_threshold=None))
    assert arc.events[0].t == 0.0
    assert arc.kinds[0] == "pre-jump"


def test_zeno_guard_trips_on_the_zero_response():
    # the drawn branch keeps a firer at 2*pi as a listener, which the zero
    # response leaves there: the post state fires again after no flow
    cfg = SimConfig(prc=broken_zero(3), x0=[TWO_PI, TWO_PI, 1.0], policy="enumerate", seed=1,
                    stop_v_threshold=None)
    with pytest.raises(ZenoViolationError) as exc:
        run(cfg)
    err = exc.value
    assert (err.t, err.j, err.dwell) == (0.0, 2, 0.0)
    assert err.guard == FIRING_TOL


@pytest.mark.parametrize("omega", [1e-10, 0.5, 1.0, 3.0, 1e10])
@pytest.mark.parametrize("share", [0.0, 0.25])
def test_zeno_guard_is_the_flow_time_of_the_firing_band(omega, share):
    # the amplitude is a share of omega, which it must stay below
    amplitude = share * omega
    cfg = SimConfig(prc=broken_zero(3), x0=[TWO_PI, TWO_PI, 1.0], omega=omega, policy="enumerate",
                    seed=1, perturbation=Perturbation.sinusoidal(amplitude))
    with pytest.raises(ZenoViolationError) as exc:
        run(cfg)
    assert exc.value.guard == FIRING_TOL / (omega + amplitude)


def test_rescaling_time_leaves_a_run_unchanged():
    # omega and every time scaled together give the same firings at times
    # scaled by 1 / omega: the firing band is a phase and the Zeno guard
    # its flow time, so neither depends on the unit of time
    def scaled(omega):
        horizon = 200 * TWO_PI / omega
        arc = run(fig2_config(omega=omega, horizon=horizon, sample_dt=horizon / 1000))
        assert arc.stop_reason == "stop-rule"
        return arc

    nominal = scaled(1.0)
    times = np.array([t for t, _, _ in nominal.firings])
    for omega in (1e-10, 1e10):
        arc = scaled(omega)
        assert [f[1:] for f in arc.firings] == [f[1:] for f in nominal.firings]
        np.testing.assert_allclose([t * omega for t, _, _ in arc.firings], times,
                                   rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("omega", [1e-10, 1e-5, 1e5, 1e10])
@pytest.mark.parametrize("n", [3, 5, 8, 12])
def test_rescaling_time_leaves_a_drawn_start_unchanged(n, omega):
    # the same invariance from drawn starts at several n; the firing times
    # round independently at each firing, so they are compared within a few
    # units in the last place of the final firing time
    x0 = draw_start(np.random.default_rng(n), n)

    def scaled(omega):
        horizon = 200 * TWO_PI / omega
        arc = run(SimConfig(prc=paper_prc(n), x0=x0, omega=omega, horizon=horizon,
                            sample_dt=horizon / 1000))
        assert arc.stop_reason == "stop-rule"
        return arc

    nominal, arc = scaled(1.0), scaled(omega)
    times = np.array([t for t, _, _ in nominal.firings])
    assert [f[1:] for f in arc.firings] == [f[1:] for f in nominal.firings]
    np.testing.assert_allclose([t * omega for t, _, _ in arc.firings], times,
                               rtol=0.0, atol=16 * np.spacing(times[-1]))


def _scaled_disturbance(kind, s):
    """The disturbance of one kind with time measured in units of 1 / s:
    every rate times s, as a function of s times the time."""
    if kind == "custom":
        return Perturbation.custom(lambda ts: s * _wobble(s * ts), bound=0.04 * s)
    return Perturbation.sinusoidal(0.05 * s, {"f0.5": 0.5, "f0": 0.0}[kind] * s)


@pytest.mark.parametrize("s", [1e-10, 1e-5, 1e5, 1e10])
@pytest.mark.parametrize("kind", ["f0.5", "f0", "custom"])
def test_rescaling_time_leaves_a_perturbed_run_unchanged(kind, s):
    # omega, the amplitude and the frequency scaled by s, the horizon and
    # the grid by 1 / s: the same firers at times scaled by 1 / s.  The
    # crossing solver stops within a few ulps of max(t, 2*pi / omega),
    # which scales with the time unit
    def scaled(s):
        return run(SimConfig(prc=paper_prc(3), x0=np.array([0.3, 2.0, 4.1]), omega=s,
                             perturbation=_scaled_disturbance(kind, s), horizon=120.0 / s,
                             sample_dt=0.12 / s, stop_v_threshold=None))

    unscaled, arc = scaled(1.0), scaled(s)
    times = np.array([t for t, _, _ in unscaled.firings])
    assert unscaled.jumps > 50
    assert [f[1:] for f in arc.firings] == [f[1:] for f in unscaled.firings]
    np.testing.assert_allclose([t * s for t, _, _ in arc.firings], times,
                               rtol=0.0, atol=16 * np.spacing(times[-1]))


# -- the per-jump path: branch draws, the box check, boundary validation -------------

@pytest.mark.parametrize("m", [2, 3, 7, 12])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_enumerate_draw_builds_the_branch_jump_map_lists(m, seed):
    # run builds only the drawn branch; it is the one that picking
    # rng.integers(2**m) from jump_map's full list gives
    n = m + 2
    x0 = np.concatenate([np.full(m, TWO_PI), [1.0, 2.0]])
    arc = run(SimConfig(prc=paper_prc(n), x0=x0, policy="enumerate", seed=seed,
                        max_jumps=1))
    k = int(np.random.default_rng(seed).integers(2**m))
    expected = jump_map(x0, paper_prc(n), policy="enumerate")[k]
    event = arc.events[0]
    assert (event.firers, event.branch) == (expected.firers, expected.branch)
    assert event.post.tobytes() == expected.post.tobytes()


@pytest.mark.parametrize("m", [40, 70])
def test_enumerate_with_many_firers_builds_one_branch(m):
    # 2**m branches could never be listed; m = 70 is past the int64 draw,
    # so its branch bits are drawn one by one
    cfg = SimConfig(prc=paper_prc(m), x0=np.full(m, TWO_PI), policy="enumerate",
                    horizon=20.0, stop_v_threshold=None)
    t0 = time.perf_counter()
    arc = run(cfg)
    wall = time.perf_counter() - t0
    assert wall < 1.0
    first = arc.events[0]
    bits = first.branch.removeprefix("enumerate:")
    assert len(bits) == m and set(bits) <= {"0", "1"}
    reset = np.array([b == "1" for b in bits])
    assert np.all(first.post[reset] == 0.0)
    assert np.all(first.post[~reset] == TWO_PI + paper_prc(m)(TWO_PI))


def nan_above_five(n):
    return PhaseResponse("nan-above-5", lambda z: np.where(z > 5.0, np.nan, 0.0), n)


def test_nan_response_fails_the_box_check_in_run():
    # the listener at 5.5 fires on the first jump, at t = 0
    cfg = SimConfig(prc=nan_above_five(3), x0=[1.0, 5.5, TWO_PI], stop_v_threshold=None)
    with pytest.raises(InvalidPhaseResponseError, match=r"branch 'single' produced .*nan"):
        run(cfg)


@pytest.mark.parametrize("x0, policy, branch", [
    ([1.0, 4.5, 5.0], "all-zero", "single"),
    ([TWO_PI, TWO_PI, 4.5], "all-zero", "all-zero"),
    ([TWO_PI, TWO_PI, 4.5], "enumerate", "enumerate:11"),
    # the listener stays in the box; a firer kept as a listener does not
    ([TWO_PI, TWO_PI, 1.0], "enumerate", "enumerate:10"),
])
def test_run_raises_when_a_jump_leaves_the_box(x0, policy, branch):
    # slope 20 throws a listener above the corner far below 0
    cfg = SimConfig(prc=prc_from_spec("linear:20", 3), x0=x0, policy=policy,
                    stop_v_threshold=None)
    with pytest.raises(InvalidPhaseResponseError, match=f"branch '{branch}'"):
        run(cfg)


def test_range_checks_stay_at_the_boundary(monkeypatch):
    # SimConfig validates x0; the firing loop itself re-validates nothing,
    # so a run's range checks do not grow with its jumps
    configs = [SimConfig(prc=paper_prc(5), x0=[0.3, 1.0, 2.2, 4.0, 5.1], horizon=1e4,
                         sample_dt=1.0, max_jumps=jumps, stop_v_threshold=1e-300)
               for jumps in (10, 1000)]
    calls = []
    check_range = circle._check_range

    def counted(arr):
        calls.append(arr.size)
        check_range(arr)

    monkeypatch.setattr(circle, "_check_range", counted)
    counts = []
    for cfg in configs:
        calls.clear()
        arc = run(cfg)
        assert arc.jumps == cfg.max_jumps
        counts.append(len(calls))
    assert counts[0] == counts[1], counts


def reference_run(cfg):
    """The arc's events rebuilt from the public, validating functions
    alone: (events, stop reason, final j), each event (t, firers, branch, post).

    A plain per-firing loop: the stop rule is checked after every firing,
    so it is also the oracle for run's stop rule read off batches of firings."""
    x, t, j = cfg.x0, 0.0, 0
    rng = np.random.default_rng(cfg.seed)
    events, hold_since = [], None
    guard = FIRING_TOL / (cfg.omega + cfg.perturbation.amplitude)
    while True:
        if in_jump_set(x):
            if j >= cfg.max_jumps:
                return events, "max-jumps", j
            if events and t - events[-1][0] < guard:
                raise ZenoViolationError(t, j + 1, t - events[-1][0], guard)
            branches = jump_map(x, cfg.prc, cfg.policy)
            b = branches[0] if len(branches) == 1 else branches[int(rng.integers(len(branches)))]
            events.append((t, b.firers, b.branch, b.post))
            j += 1
            x = b.post
            if cfg.stop_v_threshold is None or not lyapunov(x) < cfg.stop_v_threshold:
                hold_since = None
            elif hold_since is None:
                hold_since = t
            elif t - hold_since >= TWO_PI / cfg.omega:
                return events, "stop-rule", j
            continue
        t, x, fired = flow_to_next_event(x, cfg.omega, cfg.perturbation, t, cfg.horizon)
        if not fired:
            return events, "horizon", j


REFERENCE_CONFIGS = {
    "n2": lambda: SimConfig(prc=paper_prc(2), x0=[0.5, 3.0]),
    "n3-v": lambda: fig2_config(),
    "n5-all-zero": lambda: SimConfig(prc=paper_prc(5), x0=[TWO_PI, TWO_PI, 1.0, 3.0, 5.0],
                                     policy="all-zero", horizon=60.0),
    "n5-enumerate": lambda: SimConfig(prc=paper_prc(5), x0=[TWO_PI, 1.0, TWO_PI, 3.0, TWO_PI],
                                      policy="enumerate", seed=4, horizon=60.0),
    "n50-max-jumps": lambda: SimConfig(prc=paper_prc(50),
                                       x0=draw_start(np.random.default_rng(5), 50),
                                       max_jumps=400),
    "n3-perturbed": lambda: perturbed_config(0.05),
}


# each case with the default chunks, then with chunks of 1 and of 2 firings,
# so that the rows run reuses turn over at every firing or every other one
@pytest.mark.parametrize("name, per_chunk", [
    *((name, None) for name in REFERENCE_CONFIGS),
    *((name, k) for k in (1, 2) for name in REFERENCE_CONFIGS),
], ids=[*REFERENCE_CONFIGS, *(f"{name}-chunk-{k}" for k in (1, 2) for name in REFERENCE_CONFIGS)])
def test_run_matches_the_public_function_reference(monkeypatch, name, per_chunk):
    cfg = REFERENCE_CONFIGS[name]()
    if per_chunk is None:
        assert_matches_reference(run(cfg), cfg)
        return
    expected = run(cfg)
    monkeypatch.setattr(circle, "_BLOCK_FLOATS", cfg.n * per_chunk)
    assert sim._Firings(cfg).per_chunk == per_chunk
    arc = run(cfg)
    assert_matches_reference(arc, cfg)
    assert _arc_digests(arc) == _arc_digests(expected)


def assert_matches_reference(arc, cfg):
    events, reason, final_j = reference_run(cfg)
    assert (arc.stop_reason, arc.final_time.j) == (reason, final_j)
    assert len(arc.events) == len(events)
    for e, (t, firers, branch, post) in zip(arc.events, events):
        assert (e.t, e.firers, e.branch) == (t, firers, branch)
        assert e.post.tobytes() == post.tobytes()


# -- run writes in place, and only into its own rows -------------------------------

@pytest.mark.parametrize("make_config", [
    fig2_config,
    lambda: SimConfig(prc=paper_prc(5), x0=[TWO_PI, 1.0, TWO_PI, 3.0, TWO_PI],
                      policy="enumerate", seed=4, horizon=60.0),
    lambda: SimConfig(prc=paper_prc(5), x0=[TWO_PI, TWO_PI, 1.0, 3.0, 5.0], max_jumps=7),
    lambda: perturbed_config(0.05),
], ids=["stop-rule", "enumerate-horizon", "max-jumps", "perturbed"])
def test_run_writes_into_no_array_of_its_caller(monkeypatch, make_config):
    cfg = make_config()
    x0 = cfg.x0.copy()
    handed_out = []
    rows = sim._Firings.rows
    monkeypatch.setattr(sim._Firings, "rows",
                        lambda self: handed_out.append(rows(self)) or handed_out[-1])
    arc = run(cfg)
    assert cfg.x0.tobytes() == x0.tobytes()
    assert len(handed_out) >= arc.jumps > 0
    # the final state is a row of the arc's own samples, not of the record
    assert arc.final_state.base is arc.states
    assert not any(np.shares_memory(arc.final_state, row)
                   for pair in handed_out for row in pair)


def test_public_steps_leave_their_input_alone():
    for x, policy in itertools.product([[0.3, 2.0, TWO_PI], [TWO_PI, 2.0, TWO_PI]],
                                       ["all-zero", "enumerate"]):
        x = np.array(x)
        kept = x.copy()
        for branch in jump_map(x, paper_prc(3), policy):
            assert not np.shares_memory(branch.post, x)
        assert x.tobytes() == kept.tobytes()
    start = np.array([0.3, 2.0, 4.1])
    for pert in (Perturbation.none(), Perturbation.sinusoidal(0.05)):
        for horizon in (math.inf, 0.5):  # a crossing, and the horizon first
            _, at, _ = flow_to_next_event(start, 1.0, pert, 0.0, horizon)
            assert not np.shares_memory(at, start)
    assert start.tobytes() == np.array([0.3, 2.0, 4.1]).tobytes()


# -- stop conditions -------------------------------------------------------------

def test_horizon_stop_records_the_final_state():
    cfg = SimConfig(prc=paper_prc(3), x0=np.array([0.0, 1.0, 2.0]), horizon=0.5)
    arc = run(cfg)
    assert arc.stop_reason == "horizon"
    assert arc.final_time.t == 0.5
    np.testing.assert_allclose(arc.final_state, [0.5, 1.5, 2.5], atol=1e-15)


def test_max_jumps_stop():
    cfg = SimConfig(prc=paper_prc(3), x0=fig2_config().x0, max_jumps=3,
                    stop_v_threshold=None)
    arc = run(cfg)
    assert arc.stop_reason == "max-jumps"
    assert arc.jumps == 3


def test_stop_rule_requires_a_sustained_revolution(fig2_arc):
    assert fig2_arc.stop_reason == "stop-rule"
    assert lyapunov(fig2_arc.final_state) < 1e-6
    below = lyapunov(fig2_arc.states) < 1e-6
    first_below_t = fig2_arc.ts[np.flatnonzero(below)[0]]
    assert fig2_arc.final_time.t - first_below_t >= TWO_PI - 1e-9


# -- the stop rule read off batches of firings -------------------------------------
#
# run evaluates the stop rule once per batch of min(n, firings per chunk)
# firings, so it may fire up to n - 1 times past the firing at which the rule
# holds; it must still end exactly where a check after every firing ends.

#: n = 5 starts, and the index of the firing at which the stop rule (V below
#: 1e-6) has held a revolution: the first, a middle and the last firing of a
#: batch of five
LOOKAHEAD_STARTS = {
    "first": ([1.6, 1.9, 5.1, 0.6, 3.8], 90),
    "middle": ([5.9, 3.2, 6.1, 0.5, 3.8], 87),
    "last": ([3.4, 2.2, 2.3, 2.4, 6.2], 84),
}
LOOKAHEAD_RULES = {
    "v": dict(stop_v_threshold=1e-6),
}


def _lookahead_config(where, rule, **overrides):
    return SimConfig(**{"prc": paper_prc(5), "x0": LOOKAHEAD_STARTS[where][0],
                        "horizon": 300.0, **LOOKAHEAD_RULES[rule], **overrides})


#: the stop firing's index within its batch, by batch size: in batches of
#: four the three starts stop at a middle, the last and the first firing
LOOKAHEAD_POSITIONS = {
    5: {"first": 0, "middle": 2, "last": 4},
    4: {"first": 2, "middle": 3, "last": 0},
}


@pytest.mark.parametrize("block_floats", [None, 20, 70], ids=["default", "chunk-4", "chunk-10"])
@pytest.mark.parametrize("rule", LOOKAHEAD_RULES)
@pytest.mark.parametrize("where", LOOKAHEAD_STARTS)
def test_batched_stop_rule_stops_where_a_per_firing_check_does(monkeypatch, where, rule,
                                                              block_floats):
    cfg = _lookahead_config(where, rule)
    stop = LOOKAHEAD_STARTS[where][1]
    _, reason, final_j = reference_run(cfg)
    assert (reason, final_j) == ("stop-rule", stop + 1)
    expected = run(cfg)
    if block_floats:
        # chunks of 4 or 10 firings: batches of 4, or two batches of 5 per chunk
        monkeypatch.setattr(circle, "_BLOCK_FLOATS", block_floats)
    batch = sim._Firings(cfg).batch
    assert stop % batch == LOOKAHEAD_POSITIONS[batch][where]
    arc = run(cfg)
    assert_matches_reference(arc, cfg)
    assert _arc_digests(arc) == _arc_digests(expected)


def test_a_chunk_holds_whole_stop_rule_batches(monkeypatch):
    # no batch straddles two chunks, so run settles a batch on one condition
    configs = [SimConfig(prc=paper_prc(n), x0=np.linspace(0.0, 1.0, n)) for n in range(2, 301)]
    for block_floats in (circle._BLOCK_FLOATS, 1, 7, 150, 1_000):
        monkeypatch.setattr(circle, "_BLOCK_FLOATS", block_floats)
        for cfg in configs:
            record, fits = sim._Firings(cfg), max(1, block_floats // cfg.n)
            assert record.batch == min(cfg.n, fits)
            assert record.per_chunk % record.batch == 0
            assert 0 <= fits - record.per_chunk < record.batch


def _response_failing_from(call, fail):
    """The reference response for its first `call` calls (one per firing),
    then fail(z, q) of the state z and the reference increments q."""
    paper, calls = paper_prc(5), itertools.count()

    def func(z):
        q = paper.func(z)
        return fail(z, q) if next(calls) >= call else q

    return PhaseResponse("fails-late", func, 5)


def _lift_top_listener(z, q):
    """Lift the highest listener into the firing band: it fires again after
    no flow, a dwell of 0."""
    listeners = np.flatnonzero(z < TWO_PI - FIRING_TOL)
    top = listeners[np.argmax(z[listeners])]
    q[top] = TWO_PI - FIRING_TOL / 2 - z[top]
    return q


def _zero_disturbance_until(t_fail):
    def func(ts):
        if (ts > t_fail).any():
            raise ValueError(f"no disturbance past t={t_fail!r}")
        return np.zeros((ts.size, 5))

    return Perturbation.custom(func, bound=0.0)


def _failing_past_the_stop(where, rule, failure):
    """(a maker of fresh configs, their stateful parts included, that meet a
    failure at the firing after the stop firing; the same config without
    the failure; the error the failure raises)."""
    stop = LOOKAHEAD_STARTS[where][1]
    if failure == "nan-response":
        return (lambda **kw: _lookahead_config(
                    where, rule, prc=_response_failing_from(stop + 1, lambda z, q: q * np.nan),
                    **kw),
                _lookahead_config(where, rule), InvalidPhaseResponseError)
    if failure == "min-dwell":
        return (lambda **kw: _lookahead_config(
                    where, rule, prc=_response_failing_from(stop + 1, _lift_top_listener), **kw),
                _lookahead_config(where, rule), ZenoViolationError)
    # a custom disturbance that raises halfway between the stop firing and the next
    free = run(_lookahead_config(where, rule, stop_v_threshold=None, max_jumps=stop + 2))
    t_fail = 0.5 * (free.events[stop].t + free.events[stop + 1].t)
    return (lambda **kw: _lookahead_config(
                where, rule, perturbation=_zero_disturbance_until(t_fail), **kw),
            _lookahead_config(where, rule, perturbation=_zero_disturbance_until(math.inf)),
            ValueError)


@pytest.mark.parametrize("failure", ["nan-response", "min-dwell", "custom-disturbance"])
@pytest.mark.parametrize("rule", LOOKAHEAD_RULES)
@pytest.mark.parametrize("where", LOOKAHEAD_STARTS)
def test_a_failure_past_the_stop_firing_never_surfaces(where, rule, failure):
    make_failing, clean, error = _failing_past_the_stop(where, rule, failure)
    # the failure is real: without a stop rule the run meets it
    with pytest.raises(error):
        run(make_failing(stop_v_threshold=None))
    arc = run(make_failing())
    assert arc.stop_reason == "stop-rule"
    assert arc.jumps == LOOKAHEAD_STARTS[where][1] + 1
    assert _arc_digests(arc) == _arc_digests(run(clean))
    assert_matches_reference(arc, make_failing())


@pytest.mark.parametrize("extra", [0, 1, 2])
@pytest.mark.parametrize("rule", LOOKAHEAD_RULES)
@pytest.mark.parametrize("where", LOOKAHEAD_STARTS)
def test_jump_budget_next_to_the_stop_firing(where, rule, extra):
    # a budget of stop + 1 jumps or more reaches the stop firing, and the
    # stop rule ends the run there; one less ends it on the budget
    stop = LOOKAHEAD_STARTS[where][1]
    cfg = _lookahead_config(where, rule, max_jumps=stop + extra)
    arc = run(cfg)
    assert arc.stop_reason == ("max-jumps" if extra == 0 else "stop-rule")
    assert arc.jumps == stop + min(extra, 1)
    assert_matches_reference(arc, cfg)


@pytest.mark.parametrize("pert", [
    Perturbation.none(),
    Perturbation.sinusoidal(0.1, 0.5, (0.0, 1.0, 2.0)),
    Perturbation.custom(lambda ts: np.outer(0.1 * np.sin(ts), np.ones(3)), 0.1),
], ids=["none", "sinusoidal", "custom"])
@pytest.mark.parametrize("method", ["sample", "displacement", "displacement-row-t0"])
def test_perturbation_of_no_times_is_an_empty_block(pert, method):
    if method == "sample":
        out = pert.sample(np.empty(0), 3)
    elif method == "displacement":
        out = pert.displacement(1.0, np.empty(0), 3)
    else:
        out = pert.displacement(np.empty(0), np.empty(0), 3)
    assert out.shape == (0, 3)


@pytest.mark.parametrize("pert", [
    Perturbation.none(),
    Perturbation.sinusoidal(0.1, 0.5, (0.0, 1.0, 2.0)),
    Perturbation.sinusoidal(0.1, 0.0, (0.5, 1.5, 4.0)),
    Perturbation.custom(lambda ts: 0.04 * np.column_stack(
        [np.cos(ts), np.sin(2.0 * ts), -np.ones_like(ts)]), 0.04),
], ids=["none", "sinusoidal", "sinusoid-f0", "custom"])
def test_displacement_with_a_start_per_row_is_row_by_row(pert):
    # a new start on every row: each row is the scalar-t0 call of its own
    t0 = np.array([0.0, 2.5, 0.3, 4.0, 2.5])
    ts = np.array([0.1, 3.9, 2.6, 4.0, 2.6])
    rows = pert.displacement(t0, ts, 3)
    assert rows.shape == (5, 3)
    expected = np.concatenate([pert.displacement(a, [b], 3) for a, b in zip(t0, ts)])
    assert rows.tobytes() == expected.tobytes()
    # rows that share a start are row by row too, sorted or not, and so is
    # a scalar t0: the second run is unsorted with a repeated time, and the
    # first start comes back after the others
    t0 = np.array([0.0, 0.0, 0.0, 2.5, 2.5, 2.5, 2.5, 4.0, 0.0])
    ts = np.array([0.1, 0.7, 2.5, 3.9, 2.6, 3.1, 2.6, 4.0, 0.3])
    expected = np.concatenate([pert.displacement(a, [b], 3) for a, b in zip(t0, ts)])
    assert pert.displacement(t0, ts, 3).tobytes() == expected.tobytes()
    expected = np.concatenate([pert.displacement(2.5, [b], 3) for b in ts])
    assert pert.displacement(2.5, ts, 3).tobytes() == expected.tobytes()


def test_custom_bound_must_be_finite():
    for bound in (math.nan, math.inf):
        with pytest.raises(ValueError, match="must be finite and nonnegative"):
            Perturbation.custom(lambda t: np.zeros(3), bound)


@pytest.mark.parametrize("func, match", [
    (lambda ts: np.zeros((ts.size, 4)), r"t=\[0\.5 1\.5\] has shape \(2, 4\), not \(2, 3\)"),
    (lambda ts: np.zeros(3), r"t=\[0\.5 1\.5\] has shape \(3,\), not \(2, 3\)"),
    (lambda ts: 0.01, r"t=\[0\.5 1\.5\] has shape \(\), not \(2, 3\)"),
    (lambda ts: np.where(ts > 1.0, np.nan, 0.0)[:, None] * np.ones(3),
     r"t=1\.5 is not finite: .*nan"),
    (lambda ts: np.where(ts > 1.0, -0.05, 0.04)[:, None] * np.ones(3),
     r"t=1\.5 exceeds its bound 0\.04: .*-0\.05"),
], ids=["length", "one-time", "scalar", "nan", "over-bound"])
def test_custom_disturbance_values_are_checked(func, match):
    pert = Perturbation.custom(func, 0.04)
    with pytest.raises(ValueError, match=match):
        pert.sample(np.array([0.5, 1.5]), 3)
    # a run fails with the same error, not a reshape or an empty reduction
    cfg = SimConfig(prc=paper_prc(3), x0=np.array([0.3, 2.0, 4.1]), perturbation=pert,
                    horizon=10.0, stop_v_threshold=None)
    with pytest.raises(ValueError, match="custom disturbance at t="):
        run(cfg)


# -- hybrid domain structure ------------------------------------------------------

def test_intervals_tile_the_domain(fig2_arc):
    at_two_pi = SimConfig(prc=paper_prc(3), x0=np.array([1.0, 3.0, TWO_PI]),
                          horizon=20.0, stop_v_threshold=None)
    arcs = [
        (fig2_arc, "stop-rule"),
        (run(fig2_config(max_jumps=5)), "max-jumps"),
        (run(fig2_config(horizon=10.0)), "horizon"),
        (run(at_two_pi), "horizon"),
        (_enumerate_arc(), "horizon"),
    ]
    for arc, stop_reason in arcs:
        assert arc.stop_reason == stop_reason
        intervals = arc.intervals
        assert intervals[0][0] == 0.0
        for (t0, t1, j), (s0, s1, k) in zip(intervals, intervals[1:]):
            assert t1 == s0  # tiles abut at the jump times
            assert k == j + 1
            assert t1 >= t0
        assert intervals[-1][1] == arc.final_time.t
        assert [j for _, _, j in intervals] == list(range(len(intervals)))
        # the domain is fixed by the firings: tile k starts at event k - 1,
        # where tile k - 1 ends
        assert len(intervals) == arc.jumps + 1
        for k, event in enumerate(arc.events, start=1):
            assert intervals[k][0] == event.t
            assert intervals[k - 1][1] == event.t


@pytest.mark.parametrize("make_config, stop_reason, last_kind", [
    (lambda: SimConfig(prc=paper_prc(3), x0=[TWO_PI, 1.0, 2.0], horizon=5.0,
                       stop_v_threshold=None), "horizon", "flow"),
    # in the firing band, below 2*pi: the pre-jump row keeps x0's value
    (lambda: SimConfig(prc=paper_prc(3), x0=[1.0, TWO_PI - FIRING_TOL / 2, 2.0], horizon=5.0,
                       stop_v_threshold=None), "horizon", "flow"),
    (lambda: fig2_config(), "stop-rule", "post-jump"),
    (lambda: fig2_config(horizon=10.0), "horizon", "flow"),
    (lambda: fig2_config(max_jumps=5), "max-jumps", "flow"),
    # the drawn branch keeps one firer at 2*pi, so the post state fires again
    (lambda: SimConfig(prc=broken_zero(3), x0=[TWO_PI, TWO_PI, 1.0], policy="enumerate",
                       seed=1, max_jumps=1), "max-jumps", "post-jump"),
    (lambda: perturbed_config(0.05), "horizon", "flow"),
], ids=["jump-set-start", "band-start", "stop-rule", "horizon", "max-jumps-after-crossing",
        "max-jumps-after-jump", "perturbed"])
def test_samples_correspond_to_events(make_config, stop_reason, last_kind):
    cfg = make_config()
    arc = run(cfg)
    assert arc.stop_reason == stop_reason
    # each firing is a pre-jump row at (t, j) and then a post-jump row at
    # (t, j + 1), and the event's states are read-only views of those rows
    # (also when a post state fires again at once, as under broken_zero)
    pre = np.flatnonzero(arc.kinds == "pre-jump")
    post = np.flatnonzero(arc.kinds == "post-jump")
    assert len(pre) == len(post) == arc.jumps
    np.testing.assert_array_equal(post, pre + 1)
    for e, a, b in zip(arc.events, pre, post):
        assert (arc.ts[a], arc.js[a], arc.ts[b], arc.js[b]) == (e.t, e.j, e.t, e.j + 1)
        assert arc.states[a].tobytes() == e.pre.tobytes()
        assert arc.states[b].tobytes() == e.post.tobytes()
        assert np.shares_memory(e.pre, arc.states[a]) and np.shares_memory(e.post, arc.states[b])
        assert not (e.pre.flags.writeable or e.post.flags.writeable)
    # the first row is x0 at t = 0, a flow row unless x0 is on the jump set
    on_jump_set = in_jump_set(cfg.x0)
    assert (arc.ts[0], arc.js[0]) == (0.0, 0)
    assert arc.kinds[0] == ("pre-jump" if on_jump_set else "flow")
    assert arc.states[0].tobytes() == cfg.x0.tobytes()
    # the last row is the last post-jump row when the run ended on a jump,
    # else a flow row at the final j: at the horizon, or on the jump set
    # at the firing the jump budget did not take
    assert arc.kinds[-1] == last_kind
    final_on_jump_set = in_jump_set(arc.final_state)
    assert final_on_jump_set == (stop_reason == "max-jumps")
    if last_kind == "post-jump":
        assert post[-1] == arc.ts.size - 1
    else:
        assert arc.js[-1] == arc.jumps
        if stop_reason == "horizon":
            assert arc.ts[-1] == cfg.horizon
    # every other flow row sits on the global grid k * sample_dt, strictly
    # inside its segment, at consecutive k
    flow = np.flatnonzero(arc.kinds == "flow")
    inner = flow[(flow > 0) & (flow < arc.ts.size - 1)]
    ts, js = arc.ts[inner], arc.js[inner]
    k = np.round(ts / cfg.sample_dt)
    np.testing.assert_array_equal(ts, cfg.sample_dt * k)
    bounds = np.array([0.0, *(e.t for e in arc.events), arc.ts[-1]])
    assert np.all((bounds[js] < ts) & (ts < bounds[js + 1]))
    assert np.all(np.diff(k)[np.diff(js) == 0] == 1)


def reference_row_layout(cfg, firings, t_end, on_jump):
    """ts, js and kinds of a run's samples, built a row at a time in Python
    lists.  Segment j runs from firing j - 1 (t = 0 for j = 0) to firing j
    (t_end for the last).  It opens with x0's flow row (j = 0, x0 below the
    firing band) or firing j - 1's post-jump row, has a flow row at each
    grid time k * sample_dt strictly inside it, to within 1e-9 of a step,
    and closes with firing j's pre-jump row, or, the last segment, with a
    flow row unless the run ended on a jump."""
    dt, m = cfg.sample_dt, len(firings)
    bounds = [0.0, *(t for t, _, _ in firings), t_end]
    ts, js, kinds = [], [], []
    for j in range(m + 1):
        start, end = bounds[j], bounds[j + 1]
        rows = []
        if j:
            rows.append((start, "post-jump"))
        elif cfg.x0.max() < TWO_PI - FIRING_TOL:
            rows.append((start, "flow"))
        grid = range(math.floor(start / dt + 1e-9) + 1, math.ceil(end / dt - 1e-9))
        rows += [(dt * k, "flow") for k in grid]
        if j < m:
            rows.append((end, "pre-jump"))
        elif not on_jump:
            rows.append((end, "flow"))
        for t, kind in rows:
            ts.append(t)
            js.append(j)
            kinds.append(kind)
    return np.array(ts), np.array(js), np.array(kinds, dtype="<U9")


#: arcs of every layout: a start on the jump set, each way to end, no
#: firing, several firers at once under 'enumerate', a perturbed flow
ROW_LAYOUT_CONFIGS = {
    "jump-set-start": lambda: SimConfig(prc=paper_prc(3), x0=[TWO_PI, 1.0, 2.0], horizon=5.0,
                                        stop_v_threshold=None),
    "stop-rule": fig2_config,
    "horizon": lambda: fig2_config(horizon=10.0),
    "max-jumps-after-crossing": REFERENCE_CONFIGS["n50-max-jumps"],
    "perturbed-max-jumps-after-crossing": lambda: perturbed_config(0.05, max_jumps=7),
    "max-jumps-in-the-band": lambda: SimConfig(
        prc=_response_failing_from(0, _lift_top_listener), x0=LOOKAHEAD_STARTS["first"][0],
        max_jumps=1),
    "max-jumps-in-the-band-enumerate": lambda: SimConfig(
        prc=broken_zero(3), x0=[TWO_PI, TWO_PI, 1.0], policy="enumerate", seed=1, max_jumps=1),
    "no-firing": lambda: SimConfig(prc=paper_prc(3), x0=[0.0, 1.0, 2.0], horizon=0.5),
    "enumerate": REFERENCE_CONFIGS["n5-enumerate"],
    # from the jump set to the stop rule, so the last row is a post-jump one
    "jump-set-start-enumerate-stop-rule": lambda: SimConfig(
        prc=paper_prc(3), x0=[TWO_PI, 1.0, 2.0], policy="enumerate", seed=3, horizon=200.0),
    "perturbed": lambda: perturbed_config(0.05),
}


@pytest.mark.parametrize("name", ROW_LAYOUT_CONFIGS)
def test_rows_match_the_list_built_reference(monkeypatch, name):
    cfg = ROW_LAYOUT_CONFIGS[name]()
    seen = []
    sampled_arc = sim._sampled_arc

    def spy(config, firings, chunks, v_chunks, t_end, x_end, on_jump, stop_reason):
        seen.append((list(firings), t_end, on_jump))
        return sampled_arc(config, firings, chunks, v_chunks, t_end, x_end, on_jump, stop_reason)

    monkeypatch.setattr(sim, "_sampled_arc", spy)
    arc = run(cfg)
    verify_monotone(arc)
    assert "kinds" not in vars(arc)  # read off js, and only when asked for
    (firings, t_end, on_jump), = seen
    assert firings == arc.firings
    assert (len(firings) == 0) == (name == "no-firing")
    assert arc.kinds is arc.kinds and not arc.kinds.flags.writeable
    for got, want in zip((arc.ts, arc.js, arc.kinds),
                         reference_row_layout(cfg, firings, t_end, on_jump)):
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("x0", [LOOKAHEAD_STARTS["first"][0], [TWO_PI, 1.0, 2.0, 3.0, 4.0]],
                         ids=["crossing", "jump-set-start"])
def test_a_listener_lifted_into_the_band_is_refused_before_it_fires(monkeypatch, x0):
    """Only firing 0 can start its segment on the jump set: a later firing
    at its segment's start would follow the last one after no flow, and the
    Zeno guard refuses it before it is recorded.  The sampler relies on it."""
    records = []
    rows = sim._Firings.rows
    monkeypatch.setattr(sim._Firings, "rows", lambda self: records.append(self) or rows(self))
    with pytest.raises(ZenoViolationError) as exc:
        run(SimConfig(prc=_response_failing_from(0, _lift_top_listener), x0=x0,
                      stop_v_threshold=None))
    (t, firers, _), = records[-1].facts
    assert (exc.value.t, exc.value.j, exc.value.dwell) == (t, 2, 0.0)
    assert (t == 0.0) == (firers == (0,))


@pytest.mark.parametrize("name", ["jump-set-start", "stop-rule", "horizon",
                                  "max-jumps-after-crossing", "no-firing"])
@pytest.mark.parametrize("block_floats", [None, 150])
def test_a_nominal_run_flows_a_row_block_at_a_time(monkeypatch, name, block_floats):
    # a nominal crossing adds the common shift in place: _flow runs on the
    # sampler's row blocks and, for a scalar time, at the horizon only
    if block_floats:
        monkeypatch.setattr(circle, "_BLOCK_FLOATS", block_floats)
    _assert_flows_row_blocks(monkeypatch, ROW_LAYOUT_CONFIGS[name]())


@pytest.mark.parametrize("make_config", [
    lambda: _fast_sinusoid_config(0.5), lambda: _fast_sinusoid_config(0.0),
    lambda: _custom_config(),
], ids=["sinusoid-f0.5", "sinusoid-f0", "custom"])
@pytest.mark.parametrize("block_floats", [None, 150])
def test_a_perturbed_run_flows_a_row_block_at_a_time(monkeypatch, make_config, block_floats):
    # _flow runs once per crossing and at the horizon for a scalar time,
    # and otherwise on the sampler's row blocks only
    if block_floats:
        monkeypatch.setattr(circle, "_BLOCK_FLOATS", block_floats)
    cfg = make_config()
    assert cfg.horizon == 40.0 and cfg.stop_v_threshold is None
    arc = _assert_flows_row_blocks(monkeypatch, cfg)
    assert arc.stop_reason == "horizon" and arc.jumps > 10


def _assert_flows_row_blocks(monkeypatch, cfg):
    """Run cfg, counting _flow's calls for a scalar time, one per perturbed
    crossing and one at the horizon, and one pass of row blocks over the
    flowed pre-jump and grid rows."""
    rows_per_call = []
    flow = sim._flow

    def counted(x0, t0, t, *args, **kwargs):
        rows_per_call.append(np.size(t) if np.ndim(t) else None)
        return flow(x0, t0, t, *args, **kwargs)

    monkeypatch.setattr(sim, "_flow", counted)
    arc = run(cfg)
    flowed_pre = arc.jumps - in_jump_set(cfg.x0)
    crossings = flowed_pre if arc.perturbed else 0
    assert rows_per_call.count(None) == crossings + (arc.stop_reason == "horizon")
    grid = np.count_nonzero(arc.kinds[1:-1] == "flow")
    block_rows = [rows for rows in rows_per_call if rows is not None]
    assert len(block_rows) == len(list(circle._row_blocks(0, flowed_pre + grid, cfg.n)))
    assert sum(block_rows) == flowed_pre + grid
    return arc


def test_only_an_enumerate_run_builds_a_generator(monkeypatch):
    # 'enumerate' arcs keep their drawn branches: see PINNED_ARCS["enumerate-n5"]
    seeds = []
    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda seed: seeds.append(seed) or
                        default_rng(seed))
    for name in ("n5-all-zero", "n3-v", "n3-perturbed"):
        run(REFERENCE_CONFIGS[name]())
    assert seeds == []
    run(REFERENCE_CONFIGS["n5-enumerate"]())
    assert seeds == [4]


def test_an_arc_holds_each_state_once(tmp_path):
    """Memory gate, from tracemalloc on n=200, horizon 60, sample_dt 0.1
    (states 7.1 MB): run peaks at 1.51x states.nbytes while its record of
    one post-jump row per firing lives next to the samples (1.95x when the
    record held each pre-jump row too), it keeps 1.04x, and verify_monotone
    peaks at 1.22x with the arc alive.  Holding each event's pre and post
    apart from the samples is 2.0x, and a whole-batch sort and gap array in
    verify_monotone is 4.0x.  Each CSV writer formats a block of rows at a
    time (0.31x for the trajectory, 0.29x for the events, mostly the float
    kernel's arrays for a block); the events file held as one string with
    a list of its lines was 6.0x."""
    cfg = SimConfig(prc=paper_prc(200), x0=draw_start(np.random.default_rng(0), 200),
                    horizon=60.0, sample_dt=0.1)
    run(cfg)  # first-call set-up stays out of the measurement
    tracemalloc.start()
    try:
        arc = run(cfg)
        held, run_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        assert verify_monotone(arc).passed
        peak = tracemalloc.get_traced_memory()[1]
        writer_peaks = []
        for write in (write_trajectory_csv, write_events_csv):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            write(arc, tmp_path / "arc.csv")
            writer_peaks.append(tracemalloc.get_traced_memory()[1] - before)
    finally:
        tracemalloc.stop()
    assert arc.jumps > 1000
    assert held <= 1.5 * arc.states.nbytes
    assert run_peak <= 1.6 * arc.states.nbytes
    assert peak <= 2.0 * arc.states.nbytes
    assert max(writer_peaks) <= 0.5 * arc.states.nbytes


@pytest.mark.parametrize("make_config", [fig2_config, lambda: perturbed_config(0.05)],
                         ids=["nominal", "sinusoidal"])
def test_event_times_are_python_floats(make_config):
    arc = run(make_config())
    assert arc.jumps > 0
    assert all(type(e.t) is float for e in arc.events)


@pytest.mark.parametrize("make_config", [fig2_config, lambda: perturbed_config(0.05)],
                         ids=["nominal", "sinusoidal"])
def test_jump_events_are_built_only_when_read(tmp_path, monkeypatch, make_config):
    built = []

    def counted(*fields):
        built.append(fields)
        return JumpEvent(*fields)

    monkeypatch.setattr(sim, "JumpEvent", counted)
    arc = run(make_config())
    verify_monotone(arc)
    write_events_csv(arc, tmp_path / "events.csv")
    assert arc.jumps > 0 and built == []
    events = arc.events
    assert len(built) == len(events) == arc.jumps
    assert [(e.t, e.j, e.firers, e.branch) for e in events] == [
        (t, j, firers, branch) for j, (t, firers, branch) in enumerate(arc.firings)]


@pytest.mark.parametrize("source", ["loaded", "horizon-before-first-firing"])
def test_an_arc_without_firings_has_no_events(tmp_path, fig2_arc, source):
    """jumps, events and dwells come from the firing table, which only a
    run makes; the jump rows come from the samples' j, so a loaded arc
    keeps them, and verify_monotone checks its jumps, but no events CSV can
    be written of it."""
    if source == "loaded":
        write_trajectory_csv(fig2_arc, tmp_path / "trajectory.csv")
        arc = read_trajectory_csv(tmp_path / "trajectory.csv")
        assert arc.jump_rows.tobytes() == fig2_arc.jump_rows.tobytes()
        assert verify_monotone(arc).trace.jump_deltas.tobytes() == (
            verify_monotone(fig2_arc).trace.jump_deltas.tobytes())
        for write in (lambda: write_events_csv(arc, tmp_path / "events.csv"),
                      lambda: write_trajectory_csv(arc, tmp_path / "again.csv",
                                                   tmp_path / "events.csv")):
            with pytest.raises(ValueError, match=(
                    f"^arc has {fig2_arc.jumps} jumps in its samples but no firing table")):
                write()
            assert sorted(p.name for p in tmp_path.iterdir()) == ["trajectory.csv"]
    else:
        arc = run(fig2_config(horizon=0.1))
        assert arc.stop_reason == "horizon"
        assert arc.jump_rows.size == 0
        assert verify_monotone(arc).trace.jump_deltas.size == 0
        write_events_csv(arc, tmp_path / "events.csv")
        assert (tmp_path / "events.csv").read_text() == (
            "t,j,firers,branch,pre_1,pre_2,pre_3,post_1,post_2,post_3\n")
    assert arc.jumps == 0
    assert arc.events == []
    assert arc.dwells().size == 0
    assert math.isnan(arc.min_dwell_after_first())


@pytest.mark.parametrize("js, firings, message", [
    ([0, 0, 1, 1], [(1.0, (0,), "single")] * 2, "arc has 2 events but 1 jumps in its samples"),
    ([0, 0, 0, 0], [(1.0, (0,), "single")], "arc has 1 events but 0 jumps in its samples"),
], ids=["count", "no-jumps"])
def test_firings_that_do_not_match_their_rows_raise(tmp_path, js, firings, message):
    """A jump is a change of j, so only the count can disagree with the
    firing table; a file's events that disagree with j are refused as it
    is read (test_trajectory_events_must_be_the_kinds_j_gives)."""
    m = len(js)
    arc = HybridArc(ts=np.arange(m, dtype=float), js=np.array(js),
                    states=np.tile([1.0, 3.0, 5.0], (m, 1)),
                    firings=firings, perturbed=False, stop_reason="horizon")
    with pytest.raises(ValueError, match=message):
        verify_monotone(arc)
    with pytest.raises(ValueError, match=message):
        arc.events
    with pytest.raises(ValueError, match=message):
        write_events_csv(arc, tmp_path / "events.csv")


def test_dwell_bookkeeping(fig2_arc):
    d = fig2_arc.dwells()
    assert d.size == fig2_arc.jumps - 1
    assert np.all(d > 0.0)
    assert fig2_arc.min_dwell_after_first() == pytest.approx(d.min())


def test_samples_are_ordered_by_hybrid_time(fig2_arc):
    order = np.lexsort((fig2_arc.ts, fig2_arc.js))
    assert np.all(np.diff(fig2_arc.js[order]) >= 0)
    np.testing.assert_array_equal(order, np.arange(len(fig2_arc.ts)))


# -- perturbed flow ----------------------------------------------------------------

def closed_form_perturbed(x0, omega, amp, freq, offs, t):
    # integral of amp*sin(freq s + off) from 0 to t
    integral = (amp / freq) * (np.cos(offs) - np.cos(freq * t + offs))
    return x0 + omega * t + integral


def test_perturbed_flow_matches_the_closed_form_integral():
    x0 = np.array([0.5, 1.5, 2.5])
    offs = np.array([0.0, 2.0, 4.0])
    pert = Perturbation.sinusoidal(0.05, 0.5, tuple(offs))
    cfg = SimConfig(prc=paper_prc(3), x0=x0, perturbation=pert, horizon=2.0,
                    stop_v_threshold=None)
    arc = run(cfg)
    assert arc.jumps == 0  # nothing reaches the top within 2 s
    for i, t in enumerate(arc.ts):
        expect = closed_form_perturbed(x0, 1.0, 0.05, 0.5, offs, t)
        np.testing.assert_allclose(arc.states[i], expect, atol=1e-10)


def test_perturbed_firing_time_matches_the_closed_form():
    x0 = np.array([0.1, 1.0, 6.0])
    offs = np.array([0.0, 2.0, 4.0])
    pert = Perturbation.sinusoidal(0.05, 0.5, tuple(offs))
    cfg = SimConfig(prc=paper_prc(3), x0=x0, perturbation=pert, horizon=5.0,
                    max_jumps=1, stop_v_threshold=None)
    arc = run(cfg)
    t_fire = arc.events[0].t
    # the crossing solves x_3(t) = 2*pi in closed form
    residual = closed_form_perturbed(x0, 1.0, 0.05, 0.5, offs, t_fire)[2] - TWO_PI
    assert abs(residual) <= 1e-12
    assert arc.events[0].pre[2] == TWO_PI  # still assigned exactly


def test_zero_amplitude_perturbation_equals_nominal():
    x0 = np.array([0.5, 1.5, 5.5])
    pert = Perturbation.sinusoidal(0.0, 0.5, (0.0, 2.0, 4.0))
    nominal = run(SimConfig(prc=paper_prc(3), x0=x0, horizon=20.0))
    degenerate = run(SimConfig(prc=paper_prc(3), x0=x0, perturbation=pert,
                               horizon=20.0))
    assert not degenerate.perturbed
    np.testing.assert_array_equal(nominal.ts, degenerate.ts)
    np.testing.assert_array_equal(nominal.states, degenerate.states)


def test_custom_perturbation_is_supported():
    pert = Perturbation.custom(lambda ts: np.tile([0.01, -0.01, 0.0], (ts.size, 1)), bound=0.01)
    cfg = SimConfig(prc=paper_prc(3), x0=np.array([0.0, 1.0, 2.0]),
                    perturbation=pert, horizon=1.0, stop_v_threshold=None)
    arc = run(cfg)
    np.testing.assert_allclose(
        arc.final_state, [1.01, 1.99, 3.0], atol=1e-10)


def test_perturbation_constructors_validate():
    with pytest.raises(ValueError):
        Perturbation.sinusoidal(-0.1, 0.5, (0.0,))
    with pytest.raises(ValueError):
        Perturbation.custom(lambda t: np.zeros(3), bound=-1.0)
    # the constructors pass their values on as given, so a value of the
    # wrong shape meets the dataclass's named check rather than a cast
    with pytest.raises(ValueError, match=r"^amplitude: \[0\.1\] is not a number$"):
        Perturbation.sinusoidal([0.1])
    with pytest.raises(ValueError, match="offsets must be a sequence of numbers, got 1.0"):
        Perturbation.sinusoidal(0.1, 0.5, 1.0)
    with pytest.raises(ValueError, match="offsets must be a sequence of numbers, got '012'"):
        Perturbation.sinusoidal(0.1, 0.5, "012")
    with pytest.raises(ValueError, match="^amplitude: '0.1' is not a number$"):
        Perturbation.custom(_wobble, bound="0.1")


def test_perturbation_stores_floats():
    pert = Perturbation.sinusoidal(np.float32(0.5), 1, np.array([0, 2, 4]))
    assert pert == Perturbation(0.5, 1.0, (0.0, 2.0, 4.0))
    assert type(pert.amplitude) is float and type(pert.frequency) is float
    assert type(pert.offsets) is tuple and all(type(o) is float for o in pert.offsets)
    assert type(Perturbation.custom(_wobble, 1).amplitude) is float


@pytest.mark.parametrize("values, match", [
    (dict(amplitude=-0.5), "amplitude must be finite and nonnegative, got -0.5"),
    (dict(amplitude=math.nan), "amplitude must be finite and nonnegative, got nan"),
    (dict(amplitude=math.inf), "amplitude must be finite and nonnegative, got inf"),
    (dict(amplitude="0.1"), "^amplitude: '0.1' is not a number$"),
    (dict(amplitude=0.1, frequency=math.nan), "frequency must be finite, got nan"),
    (dict(amplitude=0.1, frequency=-math.inf), "frequency must be finite, got -inf"),
    (dict(amplitude=0.1, offsets=(0.0, math.inf, 1.0)), r"offsets must be finite, got \(0\.0, inf"),
    (dict(amplitude=True), "^amplitude: True is not a number$"),
    (dict(amplitude=0.1, frequency=False), "^frequency: False is not a number$"),
    (dict(amplitude=0.1, offsets=(0.0, True, 1.0)), "^offsets: True is not a number$"),
    (dict(amplitude=10**400), "^amplitude: int too large to convert to float$"),
], ids=["amplitude-negative", "amplitude-nan", "amplitude-inf", "amplitude-string",
        "frequency-nan", "frequency-inf", "offset-inf", "amplitude-true", "frequency-false",
        "offset-true", "amplitude-beyond-float"])
def test_perturbation_checks_its_values_however_built(values, match):
    # the dataclass and a field replaced on either kind meet the check the
    # constructors meet
    with pytest.raises(ValueError, match=match):
        Perturbation(**values)
    for pert in (Perturbation.sinusoidal(0.1), Perturbation.custom(_wobble, 0.04)):
        with pytest.raises(ValueError, match=match):
            dataclasses.replace(pert, **values)


def test_dataclass_sinusoid_is_bracketed_by_its_amplitude():
    # the rate bound is the amplitude however the sinusoid is built, so the
    # two are one disturbance and fire where the sinusoid fires
    x0 = np.array([0.3, 2.0, 4.1])
    plain = Perturbation(amplitude=0.5)
    assert plain == Perturbation.sinusoidal(0.5)
    t, x, fired = flow_to_next_event(x0, 1.0, plain, 0.0)
    assert fired and t == 3.6466733475729938 and x[2] == TWO_PI
    arc = run(SimConfig(prc=paper_prc(3), x0=x0, perturbation=plain, horizon=20.0,
                        stop_v_threshold=None))
    assert arc.firings[1][0] == 4.913948320030789


def test_custom_disturbance_is_held_to_its_declared_bound():
    x0 = np.array([0.3, 2.0, 4.1])

    def push(ts):
        return np.full((ts.size, 3), 0.5)

    # declared 0, the bracket would pin the crossing to the nominal 2.1832
    with pytest.raises(ValueError, match=r"exceeds its bound 0\.0: array\(\[0\.5, 0\.5, 0\.5\]\)"):
        flow_to_next_event(x0, 1.0, Perturbation.custom(push, 0.0), 0.0)
    # declared 0.5, it fires at the closed-form time of the rate 1.5
    t, _, fired = flow_to_next_event(x0, 1.0, Perturbation.custom(push, 0.5), 0.0)
    assert fired and t == pytest.approx((TWO_PI - 4.1) / 1.5, abs=1e-12)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("param", ["amplitude", "frequency", "offset"])
def test_sinusoid_rejects_non_finite_parameters(param, value):
    args = {"amplitude": 0.03, "frequency": 0.5, "offsets": [0.0, 2.0, 4.0]}
    if param == "offset":
        args["offsets"][1] = value
    else:
        args[param] = value
    with pytest.raises(ValueError, match="must be finite"):
        Perturbation.sinusoidal(**args)


@pytest.mark.parametrize("bound", [1.0, 1.5])
def test_flow_to_next_event_rejects_disturbance_at_or_above_rate(bound):
    pert = Perturbation.sinusoidal(bound, 0.5, (0.0, 2.0, 4.0))
    with pytest.raises(ValueError, match="must stay below omega"):
        flow_to_next_event(np.array([0.5, 1.5, 2.5]), omega=1.0, perturbation=pert,
                           t0=0.0, horizon=10.0)


def _wobble(ts):
    return 0.04 * np.column_stack([np.cos(ts), np.sin(2.0 * ts), -np.cos(0.3 * ts)])


def _wobble_integral(t0, t):
    """Integral of _wobble over [t0, t], by hand."""
    def primitive(s):
        return 0.04 * np.array([np.sin(s), -0.5 * np.cos(2.0 * s), -np.sin(0.3 * s) / 0.3])
    return primitive(t) - primitive(t0)


def _sinusoid_integral(pert):
    amp, freq = pert.amplitude, pert.frequency
    # unset offsets are the study's 2*pi*k/3
    offs = TWO_PI * np.arange(3) / 3 if pert.offsets is None else np.asarray(pert.offsets)
    if freq == 0.0:  # a constant rate offset
        return lambda t0, t: amp * np.sin(offs) * (t - t0)
    return lambda t0, t: -(amp / freq) * (np.cos(freq * t + offs) - np.cos(freq * t0 + offs))


def _n8_config():
    return SimConfig(
        prc=paper_prc(8), x0=np.array([0.2, 0.9, 1.1, 2.0, 3.7, 4.0, 5.2, 5.9]),
        perturbation=Perturbation.sinusoidal(0.05, 0.7, tuple(TWO_PI * k / 8 for k in range(8))),
        horizon=40.0, stop_v_threshold=None)


def _zero_frequency_config():
    return SimConfig(
        prc=paper_prc(3), x0=np.array([0.3, 2.0, 4.1]),
        perturbation=Perturbation.sinusoidal(0.05, 0.0, (0.5, 1.5, 4.0)),
        horizon=40.0, stop_v_threshold=None)


def _custom_config(func=_wobble):
    return SimConfig(
        prc=paper_prc(3), x0=np.array([0.3, 2.0, 4.1]),
        perturbation=Perturbation.custom(func, bound=0.04),
        horizon=40.0, stop_v_threshold=None)


def _closed_form_mismatch(arc, x0, omega, integral):
    """Largest distance of any flow or pre-jump sample from the closed-form
    flow out of the preceding post-jump state (x0 at t = 0), and the largest
    distance of an event's earliest firer from 2*pi in that flow."""
    start_t, start_x = 0.0, np.asarray(x0, dtype=float)
    events = iter(arc.events)
    worst_sample = worst_firer = 0.0
    for t, j, x, kind in zip(arc.ts, arc.js, arc.states, arc.kinds):
        if kind == "post-jump":
            start_t, start_x = t, x
            continue
        expect = start_x + omega * (t - start_t) + integral(start_t, t)
        if kind == "flow":
            worst_sample = max(worst_sample, float(np.max(np.abs(x - expect))))
            continue
        event = next(events)
        firers = list(event.firers)
        assert event.t == t and event.j == j
        assert np.all(x[firers] == TWO_PI)  # assigned exactly
        others = np.setdiff1d(np.arange(x.size), firers)
        worst_sample = max(worst_sample, float(np.max(np.abs(x[others] - expect[others]),
                                                      initial=0.0)))
        worst_firer = max(worst_firer, float(np.min(np.abs(expect[firers] - TWO_PI))))
    return worst_sample, worst_firer


CLOSED_FORM_ARCS = {
    "sinusoid-0.03": lambda: perturbed_config(0.03),
    "sinusoid-0.05": lambda: perturbed_config(0.05),
    "sinusoid-0.2": lambda: perturbed_config(0.2),
    "sinusoid-n8": _n8_config,
    "sinusoid-f0": _zero_frequency_config,
    "custom": _custom_config,
}


@pytest.mark.parametrize("make_config", CLOSED_FORM_ARCS.values(), ids=CLOSED_FORM_ARCS.keys())
def test_perturbed_events_match_the_closed_form_flow(make_config):
    cfg = make_config()
    pert = cfg.perturbation
    integral = _sinusoid_integral(pert) if pert.func is None else _wobble_integral
    arc = run(cfg)
    assert arc.jumps > 10
    worst_sample, worst_firer = _closed_form_mismatch(arc, cfg.x0, cfg.omega, integral)
    assert worst_sample <= 1e-12
    assert worst_firer <= 1e-12


PRE_ROW_ARCS = {
    "nominal": fig2_config,
    "sinusoid-n8": _n8_config,
    "sinusoid-f0": _zero_frequency_config,
    "custom": _custom_config,
    # one firer inside the firing band but below 2*pi, which the loop keeps
    "enumerate-on-jump-set": lambda: SimConfig(
        prc=paper_prc(5), x0=[TWO_PI, 1.0, TWO_PI - 5e-10, 3.0, TWO_PI], policy="enumerate",
        seed=4, horizon=60.0),
}


# the record keeps no pre-jump row: each is rebuilt from the flow, in row
# blocks as small as the chunks of 1 and of 2 firings, and must be the
# state the public step functions reach, bit for bit
@pytest.mark.parametrize("name, per_chunk", [
    *((name, None) for name in PRE_ROW_ARCS),
    *((name, k) for k in (1, 2) for name in PRE_ROW_ARCS),
], ids=[*PRE_ROW_ARCS, *(f"{name}-chunk-{k}" for k in (1, 2) for name in PRE_ROW_ARCS)])
def test_each_pre_jump_row_is_the_flow_from_its_segment_start(monkeypatch, name, per_chunk):
    cfg = PRE_ROW_ARCS[name]()
    if per_chunk is not None:
        monkeypatch.setattr(circle, "_BLOCK_FLOATS", cfg.n * per_chunk)
        assert sim._Firings(cfg).per_chunk == per_chunk
    arc = run(cfg)
    assert arc.jumps > 10
    start_t, start_x, copied = 0.0, cfg.x0, 0
    for e in arc.events:
        if in_jump_set(start_x):  # no flow: the start fires at once
            t, expect = start_t, start_x
            copied += 1
        else:
            t, expect, fired = flow_to_next_event(start_x, cfg.omega, cfg.perturbation, start_t)
            assert fired
        assert e.t == t
        assert e.pre.tobytes() == expect.tobytes()
        start_t, start_x = e.t, e.post
    assert (copied > 0) == (name == "enumerate-on-jump-set")


def test_custom_func_is_called_on_arrays_of_times():
    # one call per Newton step and per row block (173 on this arc); one call
    # per quadrature node would make tens of thousands
    sizes = []

    def counted(ts):
        sizes.append(ts.size)
        return _wobble(ts)

    arc = run(_custom_config(counted))
    assert arc.jumps > 10
    assert len(sizes) <= 500
    assert _arc_digests(arc) == _arc_digests(run(_custom_config()))


@pytest.mark.parametrize("block_floats", [1, 150, 3_000])
def test_custom_arc_is_unchanged_by_the_row_blocks(monkeypatch, block_floats):
    # the grid rows are flowed in row blocks, which may cut a segment; the
    # custom integral is one panel per row, so no sample may move
    expected = run(_custom_config())
    monkeypatch.setattr(circle, "_BLOCK_FLOATS", block_floats)
    arc = run(_custom_config())
    assert arc.ts.tobytes() == expected.ts.tobytes()
    assert arc.states.tobytes() == expected.states.tobytes()


def _fast_sinusoid_config(frequency, **overrides):
    offsets = tuple(TWO_PI * k / 3 for k in range(3))
    return perturbed_config(0.04, **{
        "x0": np.array([0.3, 2.0, 4.1]), "horizon": 40.0,
        "perturbation": Perturbation.sinusoidal(0.04, frequency, offsets), **overrides})


@pytest.mark.parametrize("make_config, atol", [
    # the study's slow sinusoid: measured error 8.9e-16
    (lambda **kw: perturbed_config(0.05, **kw), 1e-10),
    # frequencies 3 and 5 put about 1 and 2 periods of d in a crossing's
    # one 8-node panel: measured errors 1.53e-10 and 8.07e-8, set by the
    # event times
    (lambda **kw: _fast_sinusoid_config(3.0, **kw), 3e-10),
    (lambda **kw: _fast_sinusoid_config(5.0, **kw), 1.6e-7),
], ids=["f0.5", "f3", "f5"])
def test_custom_sinusoid_reproduces_the_sinusoidal_arc(make_config, atol):
    cfg = make_config()
    pert = cfg.perturbation
    custom = Perturbation.custom(lambda ts: pert.sample(ts, 3), bound=pert.amplitude)
    arc = run(cfg)
    ref = run(make_config(perturbation=custom))
    assert arc.jumps == ref.jumps > 10
    np.testing.assert_array_equal(arc.js, ref.js)
    np.testing.assert_array_equal(arc.kinds, ref.kinds)
    np.testing.assert_allclose(arc.ts, ref.ts, rtol=0.0, atol=atol)
    np.testing.assert_allclose(arc.states, ref.states, rtol=0.0, atol=atol)
    assert [e.firers for e in arc.events] == [e.firers for e in ref.events]


@pytest.mark.parametrize("freq", [0.05, 0.5, 3.0, 20.0])
def test_disturbance_near_the_rate_runs_to_the_horizon(freq):
    pert = Perturbation.sinusoidal(0.99, freq, (0.0, 2.0, 4.0))
    cfg = SimConfig(prc=paper_prc(3), x0=np.array([0.3, 2.0, 4.1]), perturbation=pert,
                    horizon=60.0, stop_v_threshold=None)
    arc = run(cfg)
    assert arc.stop_reason == "horizon" and arc.final_time.t == 60.0
    assert arc.jumps > 10
    # an unconverged crossing would fire past its root, away from the closed form
    _, worst_firer = _closed_form_mismatch(arc, cfg.x0, cfg.omega, _sinusoid_integral(pert))
    assert worst_firer <= 1e-12


def test_crossing_fires_at_or_past_its_root_when_newton_runs_out(monkeypatch):
    monkeypatch.setattr(sim, "_NEWTON_ITERS", 1)
    cfg = perturbed_config(0.05, horizon=40.0)
    integral = _sinusoid_integral(cfg.perturbation)
    arc = run(cfg)
    assert arc.stop_reason == "horizon" and arc.jumps > 10
    start_t, start_x = 0.0, cfg.x0
    for e in arc.events:
        expect = start_x + cfg.omega * (e.t - start_t) + integral(start_t, e.t)
        assert np.all(e.pre[list(e.firers)] == TWO_PI)
        assert expect.max() >= TWO_PI - 1e-12  # the earliest root is not skipped
        start_t, start_x = e.t, e.post


def reference_earliest_root(x0, t0, omega, pert, candidates=None):
    """The crossing solver as whole-array numpy: the same bracket and
    candidates, then bracketed Newton on all candidates at once, the
    disturbance evaluated by displacement and sample on every coordinate.
    The number of candidates is appended to the list candidates."""
    n = x0.size
    rest = TWO_PI - x0
    lo = t0 + rest / (omega + pert.amplitude)
    hi = t0 + rest / (omega - pert.amplitude)
    cand = np.flatnonzero(lo <= hi.min())
    if candidates is not None:
        candidates.append(cand.size)
    rest, lo, hi = rest[cand], lo[cand], hi[cand]
    rows = np.arange(cand.size)
    t = t0 + rest / omega
    tol = 4.0 * np.spacing(np.maximum(hi, TWO_PI / omega))
    for _ in range(sim._NEWTON_ITERS):
        g = omega * (t - t0) + pert.displacement(t0, t, n)[rows, cand] - rest
        lo = np.where(g < 0.0, t, lo)
        hi = np.where(g > 0.0, t, hi)
        t_new = t - g / (omega + pert.sample(t, n)[rows, cand])
        t_new = np.where((t_new >= lo) & (t_new <= hi), t_new, 0.5 * (lo + hi))
        done = np.abs(t_new - t) <= tol
        t = t_new
        if done.all():
            return float(t.min())
    return float(hi.min())


def _sinusoid_at(n, eps, freq):
    x0 = np.array([0.3, 2.0, 4.1]) if n == 3 else draw_start(np.random.default_rng(n), n)
    return lambda: SimConfig(prc=paper_prc(n), x0=x0, horizon=40.0, stop_v_threshold=None,
                             perturbation=Perturbation.sinusoidal(eps, freq))


def _wide_custom_config():
    """A custom disturbance of bound 0.6 at n = 5, whose wide brackets leave
    two or more candidates at many crossings."""
    offsets = TWO_PI * np.arange(5) / 5

    def wide(ts):
        return 0.6 * np.sin(1.3 * ts[:, None] + offsets)

    return SimConfig(prc=paper_prc(5), x0=np.array([0.3, 1.2, 2.0, 4.1, 5.0]),
                     perturbation=Perturbation.custom(wide, bound=0.6),
                     horizon=40.0, stop_v_threshold=None)


REFERENCE_ROOT_CONFIGS = {
    **{f"sinusoid-n{n}-eps{eps}-f{freq:g}": _sinusoid_at(n, eps, freq)
       for n in (3, 8, 20) for eps in (0.03, 0.05, 0.2, 0.99) for freq in (0.0, 0.5, 3.0, 20.0)},
    "custom": _custom_config,
    "custom-wide": _wide_custom_config,
}


def _recorded(make_config):
    """A config whose custom func, if any, records the bytes of the times
    of each call in the list it returns beside the config."""
    cfg, calls = make_config(), []
    func = cfg.perturbation.func
    if func is None:
        return cfg, calls

    def recording(ts):
        calls.append(ts.tobytes())
        return func(ts)

    return dataclasses.replace(
        cfg, perturbation=Perturbation.custom(recording, cfg.perturbation.amplitude)), calls


#: configs rerun with Newton capped at 1 and at 2 iterations
CAPPED_ROOT_CONFIGS = ("sinusoid-n3-eps0.05-f0.5", "sinusoid-n8-eps0.2-f3",
                       "sinusoid-n3-eps0.99-f0", "custom", "custom-wide")


@pytest.mark.parametrize("name, iters", [
    *((name, None) for name in REFERENCE_ROOT_CONFIGS),
    *((name, k) for k in (1, 2) for name in CAPPED_ROOT_CONFIGS),
], ids=[*REFERENCE_ROOT_CONFIGS, *(f"{name}-iters-{k}" for k in (1, 2)
                                   for name in CAPPED_ROOT_CONFIGS)])
def test_crossings_match_the_whole_array_reference_bit_for_bit(monkeypatch, name, iters):
    # the solver runs Newton candidate by candidate in Python floats; it
    # must locate every crossing as the whole-array solver does, bit for
    # bit, and call a custom func on the same times in the same order
    if iters is not None:
        monkeypatch.setattr(sim, "_NEWTON_ITERS", iters)
    make_config = REFERENCE_ROOT_CONFIGS[name]
    cfg, calls = _recorded(make_config)
    arc = run(cfg)
    assert arc.jumps > 5
    starts = [(0.0, cfg.x0), *((e.t, e.post) for e in arc.events[:8] if not in_jump_set(e.post))]
    steps = [flow_to_next_event(x, cfg.omega, cfg.perturbation, t) for t, x in starts]
    candidates = []
    monkeypatch.setattr(sim, "_earliest_root", functools.partial(
        reference_earliest_root, candidates=candidates))
    ref_cfg, ref_calls = _recorded(make_config)
    ref = run(ref_cfg)
    assert _arc_digests(arc) == _arc_digests(ref)
    assert arc.firings == ref.firings
    for (t, x), (t_fire, x_fire, fired) in zip(starts, steps):
        ref_t, ref_x, ref_fired = flow_to_next_event(x, cfg.omega, ref_cfg.perturbation, t)
        assert (t_fire.hex(), fired) == (ref_t.hex(), ref_fired)
        assert x_fire.tobytes() == ref_x.tobytes()
    assert calls == ref_calls
    if name == "custom-wide":
        assert max(candidates) >= 2


def test_flow_to_next_event_without_a_horizon_finds_the_firing():
    x0 = np.array([0.3, 2.0, 4.1])
    pert = Perturbation.sinusoidal(0.99, 0.5, (0.0, 2.0, 4.0))
    t, x, fired = flow_to_next_event(x0, omega=1.0, perturbation=pert, t0=0.0,
                                     horizon=math.inf)
    assert fired and math.isfinite(t)
    expect = x0 + t + _sinusoid_integral(pert)(0.0, t)
    firer = int(np.argmax(expect))
    assert x[firer] == TWO_PI and abs(expect[firer] - TWO_PI) <= 1e-12
    others = np.arange(3) != firer
    np.testing.assert_allclose(x[others], expect[others], rtol=0.0, atol=1e-12)


# -- pinned nominal arcs ---------------------------------------------------------------

def _arc_digests(arc):
    """SHA-256 of an arc's samples and of its events, laid out the same on
    every platform: little-endian floats and integers, text as UTF-8."""
    samples = hashlib.sha256()
    for part in (arc.ts.astype("<f8"), arc.js.astype("<i8"), arc.states.astype("<f8")):
        samples.update(part.tobytes())
    samples.update("\n".join(arc.kinds.tolist()).encode())
    events = hashlib.sha256()
    for e in arc.events:
        events.update(np.array([e.t], "<f8").tobytes()
                      + np.array([e.j, len(e.firers), *e.firers], "<i8").tobytes()
                      + e.branch.encode() + b"\0"
                      + e.pre.astype("<f8").tobytes() + e.post.astype("<f8").tobytes())
    return samples.hexdigest(), events.hexdigest()


PINNED_ARCS = {
    "fig2": (lambda: fig2_config(),
             "08afa3a40f0868f02d023dcd1ed8111beadc39fc4d2d08d1010eb4610e6e434b",
             "aaae9e8ea383a3df16106640edf2fc124f740f2f69258b123d6ec9ad40ff0fad"),
    "enumerate-n5": (lambda: SimConfig(prc=paper_prc(5), x0=[TWO_PI, TWO_PI, TWO_PI, 1.0, 2.0],
                                       policy="enumerate", seed=4, horizon=40.0),
                     "c2718d8280ff577e3a36d56fe24790c17c4cdec9d0f773f31368385ad33dab0f",
                     "7c681a29d52346f6279ab133e4338f0b48036922929b03760037c8b3492c4de7"),
    # a wide state through the firing loop: 408 firings, each with its box check
    "paper-n64": (lambda: SimConfig(prc=paper_prc(64), horizon=40.0,
                                    x0=draw_start(np.random.default_rng(64), 64)),
                  "291ca80aedac60f2146f2ef904e57438e6fb4377dc6a2c9b2b5f23b658be229a",
                  "93705d5eb69cc9ad82814c4e29232056e1921d988e813d786d8f190aa74c2b8d"),
}


@pytest.mark.parametrize("name", PINNED_ARCS)
def test_nominal_arcs_keep_their_bytes(name):
    """Nominal arcs use only IEEE +, -, *, /, sorting and min/max, so their
    bytes are the same on every platform; a change to the engine that moves
    one bit of a sample or an event fails here.  (Sinusoidal arcs go through
    np.sin, whose last bit may differ between platforms, and are left out.)"""
    make_config, samples, events = PINNED_ARCS[name]
    assert _arc_digests(run(make_config())) == (samples, events)


#: SHA-256 of the trajectory and events CSVs of each pinned arc; n < 8 keeps
#: numpy's row sums in the Vtilde column sequential, so the nominal digests
#: hold everywhere.  The n=3 arc at the CLI defaults (sample_dt 0.01) has
#: long runs of equal V; the sinusoidal one has almost none, so the writer
#: formats its V and Vtilde value by value.  That arc goes through np.sin,
#: and its digest holds where np.sin rounds as on x86-64 with numpy 2.4.
PINNED_CSVS = {
    "fig2": (PINNED_ARCS["fig2"][0],
             "f3992db3e513a5b8565d078986ae9d0fca6b1e792ee8f05adfcb0419550f9e0b",
             "49984c841104f27c6c556665498f4cf3c35ddb0ad3ea278a13e5181b885365fd"),
    "enumerate-n5": (PINNED_ARCS["enumerate-n5"][0],
                     "f7d5d8df58a57461b3fdc5ff730492ddcb78d2b33cbd139045c5c7b5db2e622f",
                     "c009114cae98685f4156e47958515030dfc961afc9a5fd107fad9ab589854903"),
    "cli-defaults-n3": (lambda: SimConfig(prc=paper_prc(3), x0=PERTURBED_X0),
                        "6af9c12b91213327327423783ba120284812887151921c1a69cb1e47d2413b7e",
                        "5c14230c14c9c9f29a0ab38f3e56f42e1df50a7374edf6eb252d5e975675f370"),
    "perturbed-0.05": (lambda: perturbed_config(0.05),
                       "96085f2630b452b28f661b49b1603e267e4eac85315e336b795c95bd223b6306",
                       "d4e7c906a072d7c848b3f11bfcddbd58cb34970e9221596b1ac4696e34469f5d"),
}


@pytest.mark.parametrize("name", PINNED_CSVS)
def test_nominal_csv_files_keep_their_bytes(tmp_path, name):
    make_config, *digests = PINNED_CSVS[name]
    arc = run(make_config())
    write_trajectory_csv(arc, tmp_path / "trajectory.csv")
    write_events_csv(arc, tmp_path / "events.csv")
    assert [hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
            for f in ("trajectory.csv", "events.csv")] == digests


@pytest.mark.parametrize("cells", [1, 50])
def test_csv_bytes_do_not_depend_on_the_block_size(tmp_path, monkeypatch, cells):
    """One row or a few per block write the bytes pinned above, and the
    reader takes the file back in blocks of a line or a few, each passing
    the block checks."""
    make_config, *digests = PINNED_CSVS["perturbed-0.05"]
    arc = run(make_config())
    monkeypatch.setattr(sim, "_CSV_CELLS", cells)
    monkeypatch.setattr(sim, "_CSV_CHARS", cells)
    monkeypatch.setattr(sim, "_parse_row_by_row", None)
    write_trajectory_csv(arc, tmp_path / "trajectory.csv")
    write_events_csv(arc, tmp_path / "events.csv")
    assert [hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
            for f in ("trajectory.csv", "events.csv")] == digests
    loaded = read_trajectory_csv(tmp_path / "trajectory.csv")
    for field in ("ts", "js", "states", "kinds"):
        np.testing.assert_array_equal(getattr(loaded, field), getattr(arc, field))


@pytest.mark.parametrize("cells", [1, 50, sim._CSV_CELLS])
@pytest.mark.parametrize("name", PINNED_CSVS)
def test_one_pass_writes_both_files_as_the_two_writers_do(tmp_path, monkeypatch, name, cells):
    """The events rows take their cells from the trajectory's blocks, and
    the files are the bytes the two writers alone give, pinned above; at
    one cell a block a block ends after every pre-jump row but for the
    post-jump row it takes along."""
    make_config, *digests = PINNED_CSVS[name]
    arc = run(make_config())
    monkeypatch.setattr(sim, "_CSV_CELLS", cells)
    write_trajectory_csv(arc, tmp_path / "trajectory.csv", tmp_path / "events.csv")
    assert [hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
            for f in ("trajectory.csv", "events.csv")] == digests


@pytest.mark.parametrize("files", [("trajectory.csv",), ("events.csv",),
                                   ("trajectory.csv", "events.csv")],
                         ids=["trajectory", "events", "one-pass"])
def test_a_failed_write_removes_every_file_it_opened(tmp_path, monkeypatch, fig2_arc, files):
    """The float kernel fails on its second call, a block into each file;
    the files opened go, a file the writer did not open stays."""
    real, opened = sim._float_cells, []

    def failing(values):
        if opened:
            raise OSError(28, "No space left on device")
        opened.extend(sorted(p.name for p in tmp_path.iterdir()))
        return real(values)

    monkeypatch.setattr(sim, "_float_cells", failing)
    monkeypatch.setattr(sim, "_CSV_CELLS", 50)  # several blocks in each file
    (tmp_path / "keep.txt").write_text("kept")
    paths = [tmp_path / name for name in files]
    with pytest.raises(OSError, match="No space left"):
        if files == ("events.csv",):
            write_events_csv(fig2_arc, *paths)
        else:
            write_trajectory_csv(fig2_arc, *paths)
    assert opened == sorted(["keep.txt", *files])
    assert [p.name for p in tmp_path.iterdir()] == ["keep.txt"]


@pytest.mark.parametrize("cells", [1, 50, sim._CSV_CELLS])
@pytest.mark.parametrize("name", PINNED_CSVS)
def test_the_events_file_alone_formats_only_the_firings_rows(tmp_path, monkeypatch, name,
                                                             cells):
    """Written alone, the events file formats t and the phases of each
    firing's two rows, at most 2 m (n + 1) floats, and no grid or flow
    row; its bytes are the pinned ones."""
    make_config, _, digest = PINNED_CSVS[name]
    arc = run(make_config())
    real, formatted = sim._float_cells, []

    def counted(values):
        formatted.append(values.size)
        return real(values)

    monkeypatch.setattr(sim, "_float_cells", counted)
    monkeypatch.setattr(sim, "_CSV_CELLS", cells)
    write_events_csv(arc, tmp_path / "events.csv")
    assert arc.jumps > 0
    assert sum(formatted) <= 2 * arc.jumps * (arc.n + 1) < arc.ts.size * (arc.n + 1)
    assert hashlib.sha256((tmp_path / "events.csv").read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("n", range(2, 13))
def test_an_arc_computes_v_vtilde_and_its_jump_rows_once(n):
    """arc.v and arc.vtilde are lyapunov and vtilde of the samples to the
    bit, and so are their entries at the jump rows, which the corpus reads
    in place of the functions of the gathered rows."""
    arc = run(dataclasses.replace(
        corpus_run_config(n, draw_start(np.random.default_rng(n), n), seed=n), horizon=60.0))
    assert arc.jumps > 0
    assert arc.v.tobytes() == lyapunov(arc.states).tobytes()
    assert arc.vtilde.tobytes() == vtilde(arc.states).tobytes()
    for rows in (arc.jump_rows, arc.jump_rows + 1):
        assert arc.v[rows].tobytes() == lyapunov(arc.states[rows]).tobytes()
        assert arc.vtilde[rows].tobytes() == vtilde(arc.states[rows]).tobytes()
    assert arc.v[-1] == lyapunov(arc.final_state)
    for name in ("v", "vtilde", "jump_rows", "kinds"):
        cached = getattr(arc, name)
        assert getattr(arc, name) is cached
        assert not cached.flags.writeable
    assert verify_monotone(arc).trace.values is arc.v


#: runs whose arc.v must equal lyapunov(arc.states): (config, stop reason)
V_RUNS = {
    "stop-rule-mid-batch": (lambda **kw: _lookahead_config("middle", "v", **kw), "stop-rule"),
    "horizon": (lambda **kw: SimConfig(prc=paper_prc(8), horizon=60.0,
                                       x0=draw_start(np.random.default_rng(8), 8), **kw),
                "horizon"),
    "max-jumps": (lambda **kw: SimConfig(prc=paper_prc(8),
                                         x0=draw_start(np.random.default_rng(8), 8),
                                         max_jumps=50, **kw), "max-jumps"),
    "no-stop-rule": (lambda **kw: _lookahead_config("middle", "v", stop_v_threshold=None,
                                                    horizon=60.0, **kw), "horizon"),
    "enumerate": (lambda **kw: dataclasses.replace(PINNED_ARCS["enumerate-n5"][0](), **kw),
                  "horizon"),
    "sinusoidal": (lambda **kw: perturbed_config(0.05, stop_v_threshold=1e-6, horizon=60.0, **kw),
                   "horizon"),
    "ends-on-a-post-jump-row": (lambda **kw: SimConfig(prc=broken_zero(3),
                                                       x0=[TWO_PI, TWO_PI, 1.0],
                                                       policy="enumerate", seed=1,
                                                       max_jumps=1, **kw), "max-jumps"),
}


@pytest.mark.parametrize("sample_dt", [0.01, 5.0], ids=["dense-grid", "coarse-grid"])
@pytest.mark.parametrize("name", V_RUNS)
def test_arc_v_is_lyapunov_of_the_samples_bit_for_bit(monkeypatch, name, sample_dt):
    """The V a run computes of each row as it makes the samples is
    lyapunov(arc.states) to the bit, cached read-only, whatever the row
    blocks and chunks: a dense grid makes most rows flow rows, a coarse one
    most rows jump rows."""
    make_config, reason = V_RUNS[name]
    cfg = make_config(sample_dt=sample_dt)
    arc = run(cfg)
    assert arc.stop_reason == reason and arc.jumps > 0
    if name == "stop-rule-mid-batch":
        assert arc.jumps % cfg.n != 0  # the stop firing is not the last of its batch
    expected = lyapunov(arc.states)
    assert arc.v.tobytes() == expected.tobytes()
    assert arc.v is arc.v and not arc.v.flags.writeable
    monkeypatch.setattr(circle, "_BLOCK_FLOATS", 7 * cfg.n)  # blocks and chunks of 7 rows
    blocked = run(cfg)
    assert blocked.states.tobytes() == arc.states.tobytes()
    assert blocked.v.tobytes() == expected.tobytes()


@pytest.mark.parametrize("sample_dt", [0.01, 5.0], ids=["dense-grid", "coarse-grid"])
@pytest.mark.parametrize("name", V_RUNS)
def test_a_run_computes_each_samples_v_once(monkeypatch, name, sample_dt):
    """run feeds V's row kernel each sample once, a bounded row block at a
    time, plus the firings it ran past a stop (at most n - 1); reading arc.v
    and checking the arc then feed it nothing."""
    make_config, reason = V_RUNS[name]
    cfg = make_config(sample_dt=sample_dt)
    kernel, rows = analysis._lyapunov, []

    def counted(arr):
        rows.append(arr.shape[0])
        return kernel(arr)

    monkeypatch.setattr(analysis, "_lyapunov", counted)
    monkeypatch.setattr(circle, "_BLOCK_FLOATS", 7 * cfg.n)  # blocks and chunks of 7 rows
    arc = run(cfg)
    if reason == "stop-rule":
        assert arc.ts.size <= sum(rows) <= arc.ts.size + cfg.n - 1
    else:
        assert sum(rows) == arc.ts.size
    assert max(rows) <= 7
    rows.clear()
    assert verify_monotone(arc).trace.values is arc.v
    assert rows == []


@pytest.mark.parametrize("sample_dt", [0.01, 5.0], ids=["dense-grid", "coarse-grid"])
def test_a_replaced_or_hand_built_arc_computes_v_of_its_own_states(sample_dt):
    """The V a run computes stays with the arc it made: it is not a
    constructor argument, so dataclasses.replace and a hand-built arc
    compute v of their own states, and a state outside the box raises as
    lyapunov does."""
    arc = run(V_RUNS["stop-rule-mid-batch"][0](sample_dt=sample_dt))
    assert arc.v.tobytes() == lyapunov(arc.states).tobytes()
    assert [f.name for f in dataclasses.fields(HybridArc)] == [
        "ts", "js", "states", "firings", "perturbed", "stop_reason"]
    states = arc.states[::-1].copy()
    moved = dataclasses.replace(arc, states=states)
    assert moved.v.tobytes() == lyapunov(states).tobytes()
    assert moved.v[moved.jump_rows + 1].tobytes() != arc.v[arc.jump_rows + 1].tobytes()
    built = HybridArc(ts=arc.ts, js=arc.js, states=states,
                      firings=arc.firings, perturbed=False, stop_reason="stop-rule")
    assert built.v.tobytes() == lyapunov(states).tobytes()
    states = states.copy()
    states[arc.jump_rows[0] + 1, 0] = np.nan
    with pytest.raises(ValueError):
        dataclasses.replace(arc, states=states).v
    with pytest.raises(TypeError):
        HybridArc(ts=arc.ts, js=arc.js, states=arc.states,
                  firings=arc.firings, perturbed=False, stop_reason="stop-rule", v=arc.v)
    with pytest.raises(TypeError):
        HybridArc(ts=arc.ts, js=arc.js, states=arc.states, kinds=arc.kinds,
                  firings=arc.firings, perturbed=False, stop_reason="stop-rule")


@pytest.mark.parametrize("policy", ["all-zero", "enumerate"])
def test_run_calls_the_response_once_per_firing(policy):
    """A firing evaluates the response's func once, on the pre-jump state."""
    make_config = PINNED_ARCS["enumerate-n5"][0]
    base, calls = paper_prc(5), []

    def func(z):
        assert type(z) is np.ndarray and z.dtype == float and z.shape == (5,)
        calls.append(z.copy())
        return base.func(z)

    counted = dataclasses.replace(base, func=func)
    for reason, fields in (("horizon", {"stop_v_threshold": None}),
                           ("max-jumps", {"max_jumps": 10})):
        calls.clear()
        arc = run(dataclasses.replace(make_config(), prc=counted, policy=policy, **fields))
        assert arc.stop_reason == reason and arc.jumps >= 10
        assert len(calls) == arc.jumps
        for z, row in zip(calls, arc.jump_rows):
            assert z.tobytes() == arc.states[row].tobytes()


# -- CSV round trip ------------------------------------------------------------------

def test_trajectory_round_trip(tmp_path, fig2_arc):
    path = tmp_path / "traj.csv"
    write_trajectory_csv(fig2_arc, path)
    loaded = read_trajectory_csv(path)
    np.testing.assert_array_equal(loaded.ts, fig2_arc.ts)
    np.testing.assert_array_equal(loaded.js, fig2_arc.js)
    np.testing.assert_array_equal(loaded.states, fig2_arc.states)
    np.testing.assert_array_equal(loaded.kinds, fig2_arc.kinds)
    assert loaded.stop_reason == "loaded"
    assert [j for _, _, j in loaded.intervals] == [j for _, _, j in fig2_arc.intervals]


def reference_intervals(arc):
    """One (t_min, t_max, j) tile per distinct j, from a mask per j."""
    tiles = []
    for j in np.unique(arc.js):
        mask = arc.js == j
        tiles.append((float(arc.ts[mask].min()), float(arc.ts[mask].max()), int(j)))
    return tiles


def test_perturbed_trajectory_round_trip(tmp_path):
    arc = run(perturbed_config(0.05))
    path = tmp_path / "traj.csv"
    write_trajectory_csv(arc, path)
    loaded = read_trajectory_csv(path)
    np.testing.assert_array_equal(loaded.ts, arc.ts)
    np.testing.assert_array_equal(loaded.js, arc.js)
    np.testing.assert_array_equal(loaded.states, arc.states)
    np.testing.assert_array_equal(loaded.kinds, arc.kinds)
    assert loaded.intervals == reference_intervals(loaded)
    assert [j for _, _, j in loaded.intervals] == [j for _, _, j in arc.intervals]
    # rewriting the loaded arc reproduces the file byte for byte
    write_trajectory_csv(loaded, tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()


def _trajectory_text(rows):
    """Rows are (t, j) or (t, j, event kind); the kind defaults to flow."""
    return "t,j,x_1,x_2,V,Vtilde,event\n" + "".join(
        f"{t},{j},1.0,2.0,0.5,0.5,{kind[0] if kind else 'flow'}\n" for t, j, *kind in rows)


@pytest.mark.parametrize("rows, lineno", [
    ([("0.0", "0"), ("0.5", "1"), ("1.0", "0")], 4),
    ([("0.0", "0"), ("0.5", "1.0")], 3),
    ([("0.0", "0"), ("0.5", "one")], 3),
    ([("0.0", "")], 2),
    ([("0.0", "0"), ("0.5", "0", "garbage")], 3),
    ([("0.0", "0"), ("0.5", "100000000000000000000")], 3),
], ids=["decreasing", "float", "word", "empty", "unknown-kind", "beyond-int64"])
def test_trajectory_jump_index_must_be_an_ordered_integer(tmp_path, rows, lineno):
    path = tmp_path / "bad.csv"
    path.write_text(_trajectory_text(rows))
    with pytest.raises(ValueError, match=f"bad.csv:{lineno}: "):
        read_trajectory_csv(path)


@pytest.mark.parametrize("rows, lineno, reason", [
    (["0.0,-3,1.0,2.0", "0.5,-3,1.0,2.0"], 2, "jump index -3 is negative"),
    (["0.0,0,1.0,2.0", "nan,0,1.0,2.0"], 3, "time nan is not finite"),
    (["0.0,0,1.0,2.0", "inf,1,1.0,2.0"], 3, "time inf is not finite"),
    (["0.0,0,1.0,2.0", "0.5,0,nan,2.0"], 3, "phase nan lies outside [0, 2*pi]"),
    (["0.0,0,1.0,2.0", "0.5,0,1.0,9.0"], 3, "phase 9.0 lies outside [0, 2*pi]"),
    (["0.0,0,1.0,2.0", "0.5,0,-0.25,2.0"], 3, "phase -0.25 lies outside [0, 2*pi]"),
    (["0.0,0,1.0,2.0", "0.5,0,1.0,2.0", "", "0.4,0,1.0,2.0"], 5,
     "time 0.4 follows 0.5 within jump index 0"),
], ids=["negative-j", "nan-time", "inf-time", "nan-phase", "above-box", "below-box",
        "time-decreases"])
def test_trajectory_samples_must_be_finite_in_the_box_and_ordered(tmp_path, rows, lineno,
                                                                  reason):
    path = tmp_path / "bad.csv"
    path.write_text("t,j,x_1,x_2,V,Vtilde,event\n"
                    + "".join(f"{row},0.5,0.5,flow\n" if row else "\n" for row in rows))
    with pytest.raises(ValueError, match=f"bad.csv:{lineno}: {re.escape(reason)}"):
        read_trajectory_csv(path)


def test_trajectory_unparseable_number_names_the_file(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(_trajectory_text([("0.0", "0"), ("zero", "0")]))
    with pytest.raises(ValueError, match="bad.csv:3: .*zero"):
        read_trajectory_csv(path)


def test_trajectory_blank_lines_are_skipped(tmp_path):
    path = tmp_path / "gaps.csv"
    path.write_text(_trajectory_text([("0.0", "0", "pre-jump")]) + "\n   \n"
                    + _trajectory_text([("0.5", "1", "post-jump")]).split("\n", 1)[1])
    arc = read_trajectory_csv(path)
    np.testing.assert_array_equal(arc.ts, [0.0, 0.5])
    assert arc.intervals == [(0.0, 0.0, 0), (0.5, 0.5, 1)]


@pytest.mark.parametrize("js, events, lineno, gives", [
    ([0, 0, 1, 1], ["flow"] * 4, 3, "pre-jump"),
    ([0, 0, 0, 0], ["flow", "pre-jump", "flow", "flow"], 3, "flow"),
    ([0, 0, 1, 1], ["flow", "pre-jump", "flow", "post-jump"], 4, "post-jump"),
    ([0, 0, 1, 1], ["flow", "post-jump", "pre-jump", "flow"], 3, "pre-jump"),
    ([0, 0, 1, 2, 2], ["flow", "pre-jump", "post-jump", "post-jump", "flow"], 4,
     "post-jump and pre-jump"),
], ids=["all-flow-across-a-jump", "pre-jump-inside-a-run", "apart", "swapped", "lone-sample"])
def test_trajectory_events_must_be_the_kinds_j_gives(tmp_path, capsys, js, events, lineno,
                                                     gives):
    """The last sample of each j but the last is a pre-jump one, the first
    of each j but the first a post-jump one, and any other a flow one; a
    lone sample between two jumps would be both, which no event is.  The
    reader stores no event: it refuses the first row whose event is not the
    kind its j gives."""
    path = tmp_path / "bad.csv"
    path.write_text(_trajectory_text([(repr(0.5 * k), str(j), event)
                                      for k, (j, event) in enumerate(zip(js, events))]))
    message = f"{path}:{lineno}: event {events[lineno - 2]!r} where its j gives {gives}"
    for read in (read_trajectory_csv, reference_read_trajectory_csv):
        with pytest.raises(ValueError) as info:
            read(path)
        assert str(info.value) == message
    assert cli.main(["closeness", str(path), str(path), "--tau", "5.0"]) == cli.EXIT_USAGE
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_trajectory_header_is_strict(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time,jumps,x\n0,0,1\n")
    with pytest.raises(ValueError):
        read_trajectory_csv(path)
    path.write_text("")
    with pytest.raises(ValueError):
        read_trajectory_csv(path)
    path.write_text("t,j,x_1,x_2,V,Vtilde,event\n0.0,0\n")
    with pytest.raises(ValueError):
        read_trajectory_csv(path)


def test_trajectory_of_one_oscillator_is_rejected(tmp_path):
    path = tmp_path / "single.csv"
    path.write_text("t,j,x_1,V,Vtilde,event\n0.0,0,1.0,0.0,0.0,flow\n")
    with pytest.raises(ValueError, match="single.csv: need at least 2 oscillators, got 1$"):
        read_trajectory_csv(path)


def test_trajectory_without_samples_is_rejected(tmp_path):
    path = tmp_path / "bare.csv"
    for text in ("t,j,x_1,x_2,V,Vtilde,event\n", "t,j,x_1,x_2,V,Vtilde,event\n\n  \n"):
        path.write_text(text)
        with pytest.raises(ValueError, match="bare.csv: no samples$"):
            read_trajectory_csv(path)


_REFERENCE_KINDS = frozenset(sim._KINDS)
_J_MIN, _J_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)


def reference_read_trajectory_csv(path) -> HybridArc:
    """Line by line: column count, int(j) within int64 and the event kind
    per line, then the numbers in one np.loadtxt and the sample checks."""
    text = path.read_text().splitlines()
    if not text:
        raise ValueError(f"{path}: empty trajectory file")
    header = text[0].split(",")
    if (len(header) < 6 or header[:2] != ["t", "j"]
            or header[-3:] != ["V", "Vtilde", "event"]):
        raise ValueError(f"{path}: not a trajectory CSV (header {text[0]!r})")
    n = len(header) - 5
    if header[2:2 + n] != [f"x_{i + 1}" for i in range(n)]:
        raise ValueError(f"{path}: unexpected state columns in header {text[0]!r}")
    if n < 2:
        raise ValueError(f"{path}: need at least 2 oscillators, got {n}")
    rows, js, kinds = [], [], []
    for lineno, line in enumerate(text[1:], start=2):
        if not line.strip():
            continue
        if line.count(",") != len(header) - 1:
            raise ValueError(f"{path}:{lineno}: expected {len(header)} columns")
        cut = line.index(",")
        field = line[cut + 1:line.index(",", cut + 1)]
        try:
            j = int(field)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: jump index {field!r} is not an integer") from None
        if not _J_MIN <= j <= _J_MAX:
            raise ValueError(f"{path}:{lineno}: jump index {field!r} is out of range")
        kind = line[line.rindex(",") + 1:]
        if kind not in _REFERENCE_KINDS:
            raise ValueError(f"{path}:{lineno}: unknown event kind {kind!r}")
        rows.append(line)
        js.append(j)
        kinds.append(kind)
    values = np.empty((0, 1 + n))
    if rows:
        try:
            values = np.loadtxt(rows, delimiter=",", usecols=(0, *range(2, 2 + n)),
                                comments=None, ndmin=2)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    ts, js = values[:, 0].copy(), np.asarray(js, dtype=np.int64)
    states = np.ascontiguousarray(values[:, 1:])
    linenos = [k for k, line in enumerate(text[1:], start=2) if line.strip()]
    bad = analysis._first_bad_sample(ts, js, states)
    if bad is not None:
        row, why = bad
        raise ValueError(f"{path}:{linenos[row]}: {why}")
    for row, (lineno, kind) in enumerate(zip(linenos, kinds)):
        gives = reference_kind(js.tolist(), row)
        if kind != gives:
            raise ValueError(f"{path}:{lineno}: event {kind!r} where its j gives {gives}")
    return HybridArc(ts=ts, js=js, states=states, firings=[], perturbed=False,
                     stop_reason="loaded")


def reference_kind(js, row):
    """The kind j gives sample row: post-jump after a change of j, pre-jump
    before one, both for a lone sample between two changes, else flow."""
    post = row > 0 and js[row - 1] != js[row]
    pre = row < len(js) - 1 and js[row + 1] != js[row]
    return {(False, False): "flow", (True, False): "post-jump", (False, True): "pre-jump",
            (True, True): "post-jump and pre-jump"}[post, pre]


@st.composite
def trajectory_files(draw, cells=("0.5", "", "nan", "V", "0.5\0")):
    """(text, row lines) of a valid trajectory CSV in the formats a reader
    may meet: numbers with surrounding spaces, j with a sign or leading
    zeros and steps of 1 or 2, each event the kind its j gives, V and
    Vtilde from `cells`, blank and whitespace-only lines, LF or CRLF line
    ends, with or without a final one."""
    n = draw(st.integers(2, 4))
    # samples per j: one or more at the first and the last j, two or more
    # between, where the first is a post-jump sample and the last a pre-jump one
    runs = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    runs = [runs[0], *(max(k, 2) for k in runs[1:-1]), runs[-1]][:len(runs)]
    steps = draw(st.lists(st.sampled_from([1, 2]), min_size=len(runs) - 1,
                          max_size=len(runs) - 1))
    js = np.repeat(draw(st.integers(0, 2)) + np.cumsum([0, *steps]), runs)
    m = js.size
    ts = sorted(draw(st.lists(st.floats(-1e9, 1e9), min_size=m, max_size=m)))
    number = st.sampled_from([repr, "{!r} ".format, " {:.17g}".format])
    jump = st.sampled_from([str, "+{}".format, "0{}".format, " {} ".format])
    cell = st.sampled_from(cells)
    lines = ["t,j," + ",".join(f"x_{i + 1}" for i in range(n)) + ",V,Vtilde,event"]
    rows = []
    for row, (t, j) in enumerate(zip(ts, js.tolist())):
        lines.extend(draw(st.lists(st.sampled_from(["", "  ", "\t "]), max_size=2)))
        phases = draw(st.lists(st.floats(0.0, TWO_PI), min_size=n, max_size=n))
        rows.append(len(lines) + 1)
        lines.append(",".join([draw(number)(t), draw(jump)(j),
                               *(draw(number)(x) for x in phases),
                               draw(cell), draw(cell), reference_kind(js.tolist(), row)]))
    lines.extend(draw(st.lists(st.sampled_from(["", " "]), max_size=2)))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + draw(st.sampled_from(["", end])), rows


#: reader block sizes in characters: a block is then one line, a few lines
#: or the whole file
BLOCK_CHARS = st.sampled_from([1, 40, 120, sim._CSV_CHARS])


@settings(max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(trajectory_files(), BLOCK_CHARS)
def test_reader_matches_the_line_by_line_reference(tmp_path, file, chars):
    path = tmp_path / "traj.csv"
    path.write_bytes(file[0].encode())
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sim, "_CSV_CHARS", chars)
        arc = read_trajectory_csv(path)
    reference = reference_read_trajectory_csv(path)
    for field in ("ts", "js", "states", "kinds"):
        np.testing.assert_array_equal(getattr(arc, field), getattr(reference, field))
    assert arc.js.dtype == reference.js.dtype and arc.states.shape == reference.states.shape


def _rejected_line(read, path):
    """The line a reader names when it rejects the file.  The reference
    names none for a number loadtxt cannot parse, only its row among the
    nonblank ones."""
    with pytest.raises(ValueError) as info:
        read(path)
    message = str(info.value)
    named = re.match(rf"{re.escape(str(path))}:(\d+): ", message)
    if named:
        return int(named[1])
    row = int(re.search(r"at row (\d+)", message)[1])
    return [k for k, line in enumerate(path.read_text().splitlines()[1:], start=2)
            if line.strip()][row]


#: each mutation rewrites the fields of one row
ROW_MUTATIONS = {
    "extra-column": lambda f: [*f, "0.5"],
    "missing-column": lambda f: f[:-2] + f[-1:],
    **{f"j={j!r}": (lambda f, j=j: [f[0], j, *f[2:]])
       for j in ["1.0", "one", "", "9223372036854775808", "-9223372036854775809"]},
    **{f"kind={k!r}": (lambda f, k=k: [*f[:-1], k])
       for k in ["garbage", "flow ", "post-jumpX", "post-jumpXY", "flow\0", ""]},
    # a known kind, but not the one the row's j gives
    "kind-another": lambda f: [*f[:-1], sim._KINDS[(sim._KINDS.index(f[-1]) + 1) % 3]],
    "t='zero'": lambda f: ["zero", *f[1:]],
}


@settings(max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(trajectory_files(cells=("0.5", "", "nan", "V")), st.sampled_from(sorted(ROW_MUTATIONS)),
       BLOCK_CHARS, st.data())
def test_reader_rejects_a_mutated_row_where_the_reference_does(tmp_path, file, mutation, chars,
                                                               data):
    # no NUL in the other cells: a file with one is checked row by row
    # throughout, which would hide a fault of the block checks
    text, rows = file
    lines = text.splitlines(keepends=True)
    at = data.draw(st.sampled_from(rows)) - 1
    body = lines[at].rstrip("\r\n")
    lines[at] = ",".join(ROW_MUTATIONS[mutation](body.split(","))) + lines[at][len(body):]
    path = tmp_path / "bad.csv"
    path.write_bytes("".join(lines).encode())
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sim, "_CSV_CHARS", chars)
        assert _rejected_line(read_trajectory_csv, path) == at + 1
    assert _rejected_line(reference_read_trajectory_csv, path) == at + 1


@pytest.mark.parametrize("j", ["1_0", "١", "１"], ids=["underscore", "arabic-indic", "fullwidth"])
def test_jump_index_is_ascii_digits_only(tmp_path, j):
    """int() accepted these jump indices and the line-by-line reader loaded
    them; the block parse takes plain ASCII digits only."""
    path = tmp_path / "bad.csv"
    path.write_text(_trajectory_text([("0.0", "0", "pre-jump"), ("0.5", j, "post-jump")]))
    assert reference_read_trajectory_csv(path).js.tolist() == [0, int(j)]
    with pytest.raises(ValueError, match=f"bad.csv:3: .*{re.escape(repr(j))}.*jump index"):
        read_trajectory_csv(path)


def test_unknown_event_kind_is_reported_as_written(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(_trajectory_text([("0.0", "0"), ("0.5", "0", "post-jumpXY")]))
    with pytest.raises(ValueError) as info:
        read_trajectory_csv(path)
    assert str(info.value) == f"{path}:3: unknown event kind 'post-jumpXY'"


def _cell_text(cells):
    """Each row of a float cell matrix as text, its NUL padding dropped."""
    return [row.tobytes().rstrip(b"\0").decode() for row in cells]


@settings(max_examples=300)
@given(st.lists(st.floats(), max_size=40))
def test_float_cells_match_repr(values):
    """NaN, infinities, subnormals and both zeros included."""
    cells = sim._float_cells(np.array(values, dtype=float))
    assert cells.shape == (len(values), 24) and cells.dtype == np.uint8
    assert _cell_text(cells) == [repr(v) for v in values]


def _float_sweep():
    """Over 10**6 floats where shortest digits are easy to get wrong."""
    rng = np.random.default_rng(2024)
    scale = 10.0 ** rng.integers(0, 8, 60_000)
    short = np.round(rng.uniform(-1e4, 1e4, scale.size) * scale) / scale
    specials = np.concatenate([2.0 ** np.arange(-30, 60), [float(f"1e{p}") for p in range(-6, 18)],
                               [1e-4, 1e15, 1e16, 9999999999999998.0]])
    near = [short, specials]
    for direction in (np.inf, -np.inf):
        step = short, specials
        for _ in range(2):  # one and two ulps away
            step = tuple(np.nextafter(v, direction) for v in step)
            near.extend(step)
    return np.concatenate([
        rng.uniform(0.0, TWO_PI, 300_000),
        *(dt * np.arange(100_000) for dt in (0.1, 0.01, 0.05)),
        *near, -specials,
        rng.integers(0, 2**64, 200_000, dtype=np.uint64).view(float),
    ])


def test_float_cells_match_repr_on_a_sweep(monkeypatch):
    """Uniform phases, grid times k * dt, short decimals and powers of 2 and
    10 with their neighbours one and two ulps away, the ends of repr's fixed
    notation, and random bit patterns.  Both the exact path and repr itself
    format some of them."""
    values = _float_sweep()
    left = []
    monkeypatch.setattr(sim, "repr", lambda v: left.append(v) or repr(v), raising=False)
    cells = sim._float_cells(values)
    monkeypatch.undo()
    expected = np.array([repr(v) for v in values.tolist()], dtype="S24")
    wrong = np.flatnonzero(cells.view("S24")[:, 0] != expected)
    assert values.size >= 10**6
    assert not wrong.size, [(repr(values[i]), bytes(cells[i])) for i in wrong[:5]]
    assert 0 < len(left) < values.size // 2


@pytest.mark.parametrize("column", [
    [], [0.0, -0.0, -0.0, 1.5, 1.5, 1.5, math.nan, math.nan, -0.0],
    [1.0, 2.0, 3.0, 3.0, 4.0], [0.1 * k for k in range(7)],
], ids=["empty", "runs", "mostly-distinct", "distinct"])
def test_repr_runs_formats_each_value(column):
    """A column formatted once per run of equal bit patterns and repeated,
    as the writer does V and Vtilde: -0.0 and 0.0 stay apart."""
    col = np.array(column, dtype=float)
    first, lengths = sim._runs(col)
    cells = np.repeat(sim._float_cells(first), lengths, axis=0)
    assert _cell_text(cells) == [repr(float(v)) for v in col]


def test_csv_files_are_deterministic(tmp_path):
    cfg_a = fig2_config()
    cfg_b = fig2_config()
    arc_a, arc_b = run(cfg_a), run(cfg_b)
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    write_trajectory_csv(arc_a, pa)
    write_trajectory_csv(arc_b, pb)
    assert pa.read_bytes() == pb.read_bytes()
    ea, eb = tmp_path / "ea.csv", tmp_path / "eb.csv"
    write_events_csv(arc_a, ea)
    write_events_csv(arc_b, eb)
    assert ea.read_bytes() == eb.read_bytes()


def test_events_csv_schema(tmp_path, fig2_arc):
    path = tmp_path / "events.csv"
    write_events_csv(fig2_arc, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,j,firers,branch,pre_1,pre_2,pre_3,post_1,post_2,post_3"
    assert len(lines) == 1 + fig2_arc.jumps
    first = lines[1].split(",")
    assert first[1] == "0"
    assert first[3] == "single"


def _fmt(v):
    return repr(float(v))


def reference_trajectory_csv(arc, path):
    """Cell-by-cell writer: each numpy scalar formatted on its own."""
    v = lyapunov(arc.states)
    vt = vtilde(arc.states)
    lines = ["t,j," + ",".join(f"x_{i + 1}" for i in range(arc.n)) + ",V,Vtilde,event"]
    for i in range(len(arc.ts)):
        coords = ",".join(_fmt(c) for c in arc.states[i])
        lines.append(f"{_fmt(arc.ts[i])},{int(arc.js[i])},{coords},"
                     f"{_fmt(v[i])},{_fmt(vt[i])},{arc.kinds[i]}")
    path.write_text("\n".join(lines) + "\n", newline="\n")


def reference_events_csv(arc, path):
    n = arc.n
    lines = ["t,j,firers,branch," + ",".join(f"pre_{i + 1}" for i in range(n)) + ","
             + ",".join(f"post_{i + 1}" for i in range(n))]
    for e in arc.events:
        pre = ",".join(_fmt(c) for c in e.pre)
        post = ",".join(_fmt(c) for c in e.post)
        firers = ";".join(str(i) for i in e.firers)
        lines.append(f"{_fmt(e.t)},{e.j},{firers},{e.branch},{pre},{post}")
    path.write_text("\n".join(lines) + "\n", newline="\n")


def _enumerate_arc():
    cfg = SimConfig(prc=paper_prc(3), x0=np.full(3, 1.0), policy="enumerate",
                    seed=1, horizon=40.0)
    arc = run(cfg)
    assert any(len(e.firers) > 1 for e in arc.events)
    return arc


@pytest.mark.parametrize("make_arc", [
    lambda: run(fig2_config()),
    lambda: run(perturbed_config(0.03)),
    _enumerate_arc,
], ids=["fig2", "perturbed-0.03", "enumerate"])
def test_writers_match_the_cell_by_cell_reference(tmp_path, make_arc):
    arc = make_arc()
    for write, reference in ((write_trajectory_csv, reference_trajectory_csv),
                             (write_events_csv, reference_events_csv)):
        write(arc, tmp_path / "new.csv")
        reference(arc, tmp_path / "ref.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
