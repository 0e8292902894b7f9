"""Lyapunov functionals, monotonicity verdicts, and hybrid closeness."""

import dataclasses
import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from splaysim import analysis, circle
from splaysim.analysis import (
    ClosenessReport,
    closeness,
    distance_to_splay,
    lyapunov,
    verify_monotone,
    vtilde,
)
from splaysim.circle import TWO_PI, splay_arc_length
from splaysim.experiments import fig2_config, perturbed_config
from splaysim.model import in_splay_set
from splaysim.sim import (HybridArc, Perturbation, SimConfig, read_trajectory_csv, run,
                          write_trajectory_csv)
from splaysim.prc import paper_prc

phase_values = st.floats(min_value=0.0, max_value=TWO_PI, allow_nan=False)


def phase_vectors(min_n=2, max_n=5):
    return st.integers(min_n, max_n).flatmap(
        lambda n: arrays(float, n, elements=phase_values)
    )


def splay_vector(n, rotation=0.0):
    return (np.arange(n) * TWO_PI / n + rotation) % TWO_PI


# -- V ------------------------------------------------------------------------

@given(phase_vectors(max_n=8))
def test_lyapunov_is_bounded(x):
    v = lyapunov(x)
    assert 0.0 <= v <= splay_arc_length(x.size) + 1e-12


@pytest.mark.parametrize("n", range(2, 9))
def test_lyapunov_vanishes_exactly_on_splay(n):
    for rot in (0.0, 0.7, 3.9):
        assert lyapunov(splay_vector(n, rot)) <= 1e-9
    assert lyapunov(np.zeros(n) + 1.0) == pytest.approx(splay_arc_length(n))


@given(phase_vectors())
def test_lyapunov_positive_away_from_splay(x):
    # push one gap well off the even spacing, then V must be positive
    if lyapunov(x) == 0.0:
        x = x.copy()
        x[0] = (x[0] + np.pi / x.size) % TWO_PI
    prof_dev = abs(lyapunov(x))
    assert prof_dev >= 0.0  # smoke: no nan/negative from the clip


def test_lyapunov_batch_matches_single():
    rng = np.random.default_rng(3)
    xs = rng.uniform(0.0, TWO_PI, size=(40, 4))
    batch = lyapunov(xs)
    np.testing.assert_array_equal(batch, [lyapunov(row) for row in xs])


@pytest.mark.parametrize("n", [3, 200])
def test_batch_kernels_match_row_by_row_across_blocks(n):
    # three full row blocks and one more row, splay rows among them for the clip
    m = 3 * (circle._BLOCK_FLOATS // n) + 1
    xs = np.random.default_rng(n).uniform(0.0, TWO_PI, size=(m, n))
    xs[::97] = splay_vector(n, 0.4)
    for kernel in (lyapunov, vtilde, distance_to_splay):
        rows = np.array([kernel(x) for x in xs])
        assert kernel(xs).tobytes() == rows.tobytes()


def test_row_blocks_are_bounded_slices_in_order(monkeypatch):
    monkeypatch.setattr(circle, "_BLOCK_FLOATS", 10)  # five rows of two floats
    assert [(b.start, b.stop) for b in circle._row_blocks(2, 13, 2)] == [(2, 7), (7, 12),
                                                                        (12, 13)]


# -- splay distances -----------------------------------------------------------

@pytest.mark.parametrize("n", range(2, 6))
def test_splay_distances_vanish_on_splay(n):
    x = splay_vector(n, 1.3)
    assert distance_to_splay(x) == pytest.approx(0.0, abs=1e-9)
    assert vtilde(x) == pytest.approx(0.0, abs=1e-9)


@given(phase_vectors())
def test_clamped_distance_dominates_unclamped(x):
    # restricting the offset parameter can only push the distance up
    assert distance_to_splay(x) >= vtilde(x) - 1e-12


@given(phase_vectors())
def test_distance_permutation_and_rotation_invariance(x):
    base = vtilde(x)
    perm = np.roll(np.arange(x.size), 1)
    assert vtilde(x[perm]) == pytest.approx(base, abs=1e-9)
    rotated = (x + 0.37) % TWO_PI
    assert vtilde(rotated) == pytest.approx(base, abs=1e-9)


@given(phase_vectors(max_n=4))
def test_distance_to_splay_agrees_with_membership(x):
    # zero distance exactly characterises membership at matching tolerance
    d = distance_to_splay(x)
    if d <= 1e-9:
        assert in_splay_set(x, tol=1e-6)
    if not in_splay_set(x, tol=1e-6):
        assert d > 1e-9


def splay_line_oracle(xs, clamp, chunk=64):
    """Distance to the splay lines by direct enumeration of all n!
    permutations of the offsets, with the offset parameter a the (clamped)
    mean of x - v_sigma.  Factorial in n; an independent cross-check for
    the sort-based vtilde and distance_to_splay."""
    n = xs.shape[1]
    offsets = np.asarray(list(itertools.permutations(np.arange(n) * (TWO_PI / n))))
    out = np.empty(xs.shape[0])
    for start in range(0, xs.shape[0], chunk):
        diff = xs[start:start + chunk, None, :] - offsets[None, :, :]
        a = diff.mean(axis=2)
        if clamp:
            a = np.clip(a, 0.0, TWO_PI / n)
        resid = diff - a[:, :, None]
        out[start:start + chunk] = np.sqrt(np.sum(resid * resid, axis=2)).min(axis=1)
    return out


@pytest.mark.parametrize("n", range(2, 8))
def test_splay_distances_match_the_enumeration_oracle(n):
    rng = np.random.default_rng(100 + n)
    xs = rng.uniform(0.0, TWO_PI, size=(1000, n))
    # near-splay rows put the optimal offset at and beyond the clamp bounds
    near = (np.arange(n) * TWO_PI / n + rng.uniform(0.0, TWO_PI / n, size=(200, 1))
            + rng.normal(0.0, 0.05, size=(200, n)))
    xs = np.vstack([xs, np.clip(near, 0.0, TWO_PI)])
    np.testing.assert_allclose(vtilde(xs), splay_line_oracle(xs, clamp=False),
                               rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(distance_to_splay(xs), splay_line_oracle(xs, clamp=True),
                               rtol=0.0, atol=1e-12)


def test_splay_distances_are_defined_for_large_networks():
    rng = np.random.default_rng(50)
    x = rng.uniform(0.0, TWO_PI, size=50)
    perm = rng.permutation(50)
    for f in (vtilde, distance_to_splay):
        d = f(x)
        assert np.isfinite(d) and d > 0.0
        assert f(x[perm]) == d


def test_vtilde_can_exceed_v_and_vice_versa():
    # the two functionals measure different things: neither dominates
    a = np.array([0.0, 0.1, 4.0])
    b = splay_vector(3, 0.5)
    assert vtilde(a) > lyapunov(b)
    assert lyapunov(a) > vtilde(b)


# -- monotonicity verdict -------------------------------------------------------

def test_monotone_verdict_on_the_study_arc(fig2_arc):
    verdict = verify_monotone(fig2_arc)
    assert verdict.passed
    assert not verdict.informational
    assert verdict.max_flow_oscillation <= 1e-9
    assert verdict.max_jump_delta <= 1e-9
    assert verdict.trace.values.size == len(fig2_arc.ts)
    assert verdict.trace.jump_deltas.size == fig2_arc.jumps
    assert "pass" in str(verdict)


def test_monotone_verdict_is_informational_for_perturbed_arcs():
    arc = run(perturbed_config(0.05, horizon=30.0))
    verdict = verify_monotone(arc)
    assert verdict.informational
    assert verdict.passed  # vacuously: the hypothesis of the check fails
    assert "informational" in str(verdict)


def steep_witness_arc():
    """The steep response (c = 1.5, n = 4) from its constructed start: V
    rises across some of its jumps."""
    from splaysim.experiments import STEEP_WITNESS_X0
    from splaysim.prc import broken_steep

    return run(SimConfig(prc=broken_steep(4), x0=np.asarray(STEEP_WITNESS_X0),
                         horizon=20.0, stop_v_threshold=None))


def test_monotone_verdict_flags_an_increase():
    verdict = verify_monotone(steep_witness_arc())
    assert not verdict.passed
    assert verdict.max_jump_delta > analysis.MONOTONE_TOL
    assert verdict.worst_jump is not None


def test_monotone_verdict_compares_with_monotone_tol(monkeypatch):
    """MONOTONE_TOL is the one tolerance: raised to the largest jump
    increase, the steep witness passes."""
    arc = steep_witness_arc()
    delta = verify_monotone(arc).max_jump_delta
    monkeypatch.setattr(analysis, "MONOTONE_TOL", delta)
    assert verify_monotone(arc).passed
    monkeypatch.setattr(analysis, "MONOTONE_TOL", np.nextafter(delta, 0.0))
    assert not verify_monotone(arc).passed


def test_monotone_verdict_of_a_loaded_arc_checks_its_jumps(tmp_path):
    """A trajectory CSV keeps each jump's pre-jump and post-jump rows, so
    the loaded steep witness fails with the same jump deltas, bit for bit."""
    arc = steep_witness_arc()
    write_trajectory_csv(arc, tmp_path / "trajectory.csv")
    verdict = verify_monotone(arc)
    loaded = verify_monotone(read_trajectory_csv(tmp_path / "trajectory.csv"))
    assert not verdict.passed and not loaded.passed
    assert loaded.max_jump_delta.hex() == verdict.max_jump_delta.hex()
    assert loaded.worst_jump == verdict.worst_jump
    assert loaded.trace.jump_deltas.tobytes() == verdict.trace.jump_deltas.tobytes()


def test_a_loaded_perturbed_arc_is_judged_as_nominal(tmp_path):
    """A trajectory CSV does not record the disturbance, so the arc read
    back is judged as a nominal one: the perturbed run's verdict is
    informational and passes, the loaded arc's fails on the same flow
    oscillation.  A format that records the disturbance flips this test."""
    arc = run(perturbed_config(0.05, horizon=30.0))
    write_trajectory_csv(arc, tmp_path / "trajectory.csv")
    loaded_arc = read_trajectory_csv(tmp_path / "trajectory.csv")
    verdict, loaded = verify_monotone(arc), verify_monotone(loaded_arc)
    assert arc.perturbed and not loaded_arc.perturbed
    assert verdict.informational and verdict.passed
    assert not loaded.informational and not loaded.passed
    assert loaded.max_flow_oscillation > analysis.MONOTONE_TOL
    assert loaded.max_flow_oscillation.hex() == verdict.max_flow_oscillation.hex()
    assert loaded.worst_flow_interval == verdict.worst_flow_interval
    assert loaded.trace.jump_deltas.tobytes() == verdict.trace.jump_deltas.tobytes()
    assert loaded.max_jump_delta <= analysis.MONOTONE_TOL


def reference_oscillations(arc):
    """Largest |V - V(first sample)| per listed interval, from a mask per j."""
    values = lyapunov(arc.states)
    out = []
    for _, _, j in arc.intervals:
        mask = arc.js == j
        vj = values[mask]
        out.append(float(np.max(np.abs(vj - vj[0]))) if vj.size else 0.0)
    return np.asarray(out, dtype=float)


def test_flow_oscillations_match_the_per_interval_reference(fig2_arc):
    perturbed = run(perturbed_config(0.05, horizon=40.0))
    for arc in (fig2_arc, perturbed):
        verdict = verify_monotone(arc)
        ref = reference_oscillations(arc)
        np.testing.assert_array_equal(verdict.trace.flow_oscillation, ref)
        assert verdict.worst_flow_interval == int(ref.argmax())
    # the stop rule closes the domain with a (t, t, j) tile
    assert fig2_arc.stop_reason == "stop-rule"
    t, t_end, _ = fig2_arc.intervals[-1]
    assert t == t_end


def test_monotone_verdict_rejects_unordered_jump_indices(fig2_arc):
    js = fig2_arc.js.copy()
    js[[10, -10]] = js[[-10, 10]]
    with pytest.raises(ValueError, match="jump index decreases"):
        verify_monotone(dataclasses.replace(fig2_arc, js=js))


# -- closeness -------------------------------------------------------------------

def reference_one_sided(a, b, tau):
    """Sample by sample: each within-tau sample of a against b's j-interval."""
    b_index = {int(j): (b.ts[b.js == j], b.states[b.js == j]) for j in np.unique(b.js)}
    worst = 0.0
    worst_t = float(a.ts[0]) if len(a.ts) else 0.0
    worst_j = int(a.js[0]) if len(a.js) else 0
    within = (a.ts + a.js) <= tau + 1e-12
    for t, j, x in zip(a.ts[within], a.js[within], a.states[within]):
        entry = b_index.get(int(j))
        if entry is None:
            return float("inf"), float(t), int(j)
        ts, xs = entry
        gap_t = np.abs(ts - t)
        gap_x = np.sqrt(np.sum((xs - x) ** 2, axis=1))
        best = float(np.minimum.reduce(np.maximum(gap_t, gap_x)))
        s = min(max(float(t), float(ts[0])), float(ts[-1]))
        xi = np.asarray([np.interp(s, ts, xs[:, k]) for k in range(xs.shape[1])])
        cand = max(abs(t - s), float(np.sqrt(np.sum((xi - x) ** 2))))
        best = min(best, cand)
        if best > worst:
            worst, worst_t, worst_j = best, float(t), int(j)
    return worst, worst_t, worst_j


def reference_closeness(arc1, arc2, tau):
    e1, t1, j1 = reference_one_sided(arc1, arc2, tau)
    e2, t2, j2 = reference_one_sided(arc2, arc1, tau)
    if e1 >= e2:
        return ClosenessReport(tau, e1, t1, j1, "first-vs-second")
    return ClosenessReport(tau, e2, t2, j2, "second-vs-first")


@pytest.fixture(scope="module")
def perturbed_trio():
    return [run(perturbed_config(eps)) for eps in (0.0, 0.03, 0.05)]


@pytest.mark.parametrize("tau", [0.5, 40.0, 200.0])
def test_closeness_matches_the_sample_by_sample_reference(perturbed_trio, tau):
    nominal, low, high = perturbed_trio
    # tau 0.5 and 40 stop inside a flow interval of the nominal arc (t + j
    # crosses tau mid-way), tau 200 takes the whole arc
    cut = int(np.flatnonzero((nominal.ts + nominal.js) <= tau + 1e-12)[-1]) + 1
    assert cut == nominal.ts.size if tau == 200.0 else nominal.js[cut] == nominal.js[cut - 1]
    for a, b in ((nominal, low), (nominal, high), (high, low), (low, low)):
        assert closeness(a, b, tau) == reference_closeness(a, b, tau)


def test_closeness_of_wide_networks_matches_the_reference():
    pert = Perturbation.sinusoidal(0.05, 0.7, tuple(TWO_PI * k / 8 for k in range(8)))
    x0 = np.array([0.2, 0.9, 1.1, 2.0, 3.7, 4.0, 5.2, 5.9])
    a = run(SimConfig(prc=paper_prc(8), x0=x0, horizon=30.0, stop_v_threshold=None))
    b = run(SimConfig(prc=paper_prc(8), x0=x0, horizon=30.0, stop_v_threshold=None,
                      perturbation=pert))
    assert closeness(a, b, 25.0) == reference_closeness(a, b, 25.0)


def test_closeness_missing_interval_matches_the_reference(fig2_arc):
    flat = run(fig2_config(horizon=0.1, stop_v_threshold=None))
    for a, b in ((fig2_arc, flat), (flat, fig2_arc)):
        report = closeness(a, b, tau=30.0)
        assert report == reference_closeness(a, b, 30.0)
    assert closeness(fig2_arc, flat, tau=30.0).eps_star == np.inf


def loaded_arc(ts, states):
    """A one-interval arc, as read_trajectory_csv would rebuild it."""
    ts = np.asarray(ts, dtype=float)
    return HybridArc(ts=ts, js=np.zeros(ts.size, dtype=int), states=np.asarray(states, dtype=float),
                     kinds=np.full(ts.size, "flow"), firings=[], perturbed=False,
                     stop_reason="loaded")


def test_closeness_witness_is_the_first_of_tied_maxima(monkeypatch):
    a = loaded_arc([0.0, 1.0, 2.0, 3.0], [[1.0, 1.0], [1.0, 1.5], [1.0, 1.0], [1.0, 1.5]])
    b = loaded_arc([0.0, 1.0, 2.0, 3.0], [[1.0, 1.0]] * 4)
    expected = ClosenessReport(5.0, 0.5, 1.0, 0, "first-vs-second")
    assert reference_closeness(a, b, 5.0) == expected
    assert closeness(a, b, 5.0) == expected
    monkeypatch.setattr(circle, "_BLOCK_FLOATS", 1)  # one sample per block
    assert closeness(a, b, 5.0) == expected


def test_closeness_holds_the_other_interval_at_its_end():
    # a outlasts b's interval by 2 s with the same state: the time gap counts
    a = loaded_arc([0.0, 1.0, 3.0], [[1.0, 1.0]] * 3)
    b = loaded_arc([0.0, 1.0], [[1.0, 1.0]] * 2)
    expected = ClosenessReport(5.0, 2.0, 3.0, 0, "first-vs-second")
    assert reference_closeness(a, b, 5.0) == expected
    assert closeness(a, b, 5.0) == expected


@pytest.mark.parametrize("budget", [1, 3_000, 20_000])
def test_closeness_is_unchanged_by_the_chunk_size(monkeypatch, perturbed_trio, budget):
    nominal, _, high = perturbed_trio
    expected = reference_closeness(nominal, high, 40.0)
    monkeypatch.setattr(circle, "_BLOCK_FLOATS", budget)
    assert closeness(nominal, high, 40.0) == expected


@st.composite
def sampled_arcs(draw, n):
    """A multi-interval arc on a coarse grid, so that sample times repeat,
    steps are uneven, states tie and some jump indices are skipped."""
    steps = st.sampled_from([0.0, 0.25, 1.0]) | st.floats(0.0, 2.0)
    ts, js = [], []
    t = draw(st.sampled_from([0.0, 0.5]))
    for j in draw(st.lists(st.integers(0, 4), min_size=1, max_size=4, unique=True)
                  .map(sorted)):
        for dt in [0.0] + draw(st.lists(steps, max_size=7)):
            t += dt
            ts.append(t)
            js.append(j)
    phases = st.sampled_from([0.0, 1.0, 1.5, TWO_PI]) | st.floats(0.0, TWO_PI)
    states = draw(arrays(float, (len(ts), n), elements=phases))
    return HybridArc(ts=np.asarray(ts), js=np.asarray(js), states=states,
                     kinds=np.full(len(ts), "flow"), firings=[], perturbed=False,
                     stop_reason="loaded")


@settings(max_examples=300, deadline=None)
# the bound at t = 1.0 is 0.1, and 1.0 - 0.1 rounds up onto the sample at
# 0.9, which lies 0.09999999999999998 from t: a screen that leaves out the
# sample at the bound's rounded edge misses the least value
@example(arcs=(loaded_arc([1.0], [[1.0, 0.0]]),
               loaded_arc([0.9, 1.0], [[1.0, 0.0], [1.0, 0.1]])), tau=3.0)
# the least value at t = 0 is at the last sample within the bound
@example(arcs=(loaded_arc([0.0], [[0.0, 0.0]]),
               loaded_arc([0.0, 0.25], [[1.0, 0.0], [0.0, 0.0]])), tau=0.5)
@given(st.sampled_from([2, 3, 8]).flatmap(
           lambda n: st.tuples(sampled_arcs(n), sampled_arcs(n) | st.none())),
       st.sampled_from([0.5, 3.0, 40.0]))
def test_closeness_window_matches_the_sample_by_sample_reference(arcs, tau):
    a, b = arcs
    b = a if b is None else b  # an arc against itself: every bound is 0
    expected = reference_closeness(a, b, tau)
    for budget in (circle._BLOCK_FLOATS, 1):
        with mock.patch.object(circle, "_BLOCK_FLOATS", budget):
            assert closeness(a, b, tau) == expected


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([2, 3, 8]).flatmap(lambda n: st.tuples(sampled_arcs(n), sampled_arcs(n))),
       st.data())
def test_closeness_finds_the_least_requirement_of_each_sample(arcs, data):
    """One sample against the other arc: the one-sided report is that
    sample's own least requirement, which a report over many samples
    shows only for its worst one."""
    a, b = arcs
    k = data.draw(st.integers(0, a.ts.size - 1))
    one = HybridArc(ts=a.ts[k:k + 1], js=a.js[k:k + 1], states=a.states[k:k + 1],
                    kinds=a.kinds[k:k + 1], firings=[], perturbed=False,
                    stop_reason="loaded")
    assert analysis._one_sided(one, b, np.inf) == reference_one_sided(one, b, np.inf)


@pytest.mark.parametrize("field, row, value, reason", [
    ("ts", 3, np.nan, "time nan is not finite"),
    ("ts", 3, np.inf, "time inf is not finite"),
    ("states", 3, 7.0, "phase 7.0 lies outside"),
    ("states", 3, np.nan, "phase nan lies outside"),
    ("ts", 3, 0.0, "time 0.0 follows"),
], ids=["nan-time", "inf-time", "outside-box", "nan-phase", "time-decreases"])
def test_closeness_rejects_arcs_it_cannot_window(fig2_arc, field, row, value, reason):
    bad = {"ts": fig2_arc.ts.copy(), "states": fig2_arc.states.copy()}
    if field == "ts":
        bad["ts"][row] = value
    else:
        bad["states"][row, 1] = value
    other = dataclasses.replace(fig2_arc, **bad)
    with pytest.raises(ValueError, match=f"second arc, sample {row}: {reason}"):
        closeness(fig2_arc, other, tau=5.0)


def test_closeness_of_an_arc_with_itself(fig2_arc):
    report = closeness(fig2_arc, fig2_arc, tau=20.0)
    assert report.eps_star == 0.0
    assert report.tau == 20.0


def test_closeness_is_symmetric(fig2_arc):
    other = run(fig2_config(x0=np.asarray([5.6, 6.0, 3.44])))
    r1 = closeness(fig2_arc, other, tau=15.0)
    r2 = closeness(other, fig2_arc, tau=15.0)
    assert r1.eps_star == pytest.approx(r2.eps_star, abs=1e-12)


def test_closeness_grows_with_start_distance(fig2_arc):
    near = run(fig2_config(x0=np.asarray([5.5978, 6.0274, 3.4383])))
    far = run(fig2_config(x0=np.asarray([5.8, 6.1, 3.0])))
    r_near = closeness(fig2_arc, near, tau=10.0)
    r_far = closeness(fig2_arc, far, tau=10.0)
    assert 0.0 < r_near.eps_star < r_far.eps_star


def test_closeness_rejects_mismatched_sizes(fig2_arc):
    other = run(SimConfig(prc=paper_prc(4),
                          x0=np.asarray([0.5, 1.0, 2.0, 4.0]), horizon=5.0))
    with pytest.raises(ValueError):
        closeness(fig2_arc, other, tau=5.0)
    for tau in (-1.0, np.nan):
        with pytest.raises(ValueError, match="tau must be nonnegative"):
            closeness(fig2_arc, fig2_arc, tau=tau)
    assert closeness(fig2_arc, fig2_arc, tau=np.inf).eps_star == 0.0


def test_closeness_missing_interval_is_infinite(fig2_arc):
    # a flow-only arc lacks every jump index the study arc reaches
    flat = run(fig2_config(horizon=0.1, stop_v_threshold=None))
    assert flat.jumps == 0
    report = closeness(fig2_arc, flat, tau=30.0)
    assert report.eps_star == np.inf


def test_closeness_respects_tau(fig2_arc):
    # tiny tau admits only the first samples, which agree trivially
    other = run(fig2_config(x0=np.asarray([5.5977, 6.0274, 3.4384])))
    small = closeness(fig2_arc, other, tau=0.5).eps_star
    large = closeness(fig2_arc, other, tau=40.0).eps_star
    assert small <= large
