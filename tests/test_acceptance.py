"""Release acceptance suite.

Ten checks gate the package, each printed as a single line of the form
``ACCEPTANCE k: PASS/FAIL - measured values``.  Tolerances and budgets are
pinned release numbers and must not be loosened here; a criterion
that the implemented dynamics genuinely cannot meet fails with its measured
values in the message rather than being weakened.
"""

import time

import numpy as np
import pytest

from splaysim import analysis
from splaysim.circle import (
    TWO_PI,
    min_pairwise_geodesic,
    shortest_arc_length,
    shortest_arc_oracle,
)
from splaysim.experiments import (
    fig2_config,
    run_perturbed,
    steep_v_increase_witness,
    theorem1_corpus,
)
from splaysim.model import in_splay_set, validate_prc
from splaysim.prc import broken_step, broken_steep, broken_zero
from splaysim.sim import run


def report(k: int, passed: bool, detail: str) -> str:
    line = f"ACCEPTANCE {k}: {'PASS' if passed else 'FAIL'} - {detail}"
    print(line)
    return line


@pytest.fixture(scope="module")
def pinned_nominal():
    """The nominal reference run at its pinned 80 s budget, with wall time."""
    config = fig2_config(horizon=80.0)
    start = time.perf_counter()
    arc = run(config)
    wall = time.perf_counter() - start
    return arc, wall


def test_01_arc_length_matches_oracle():
    rng = np.random.default_rng(1)
    start = time.perf_counter()
    worst = 0.0
    for n in range(2, 9):
        xs = rng.uniform(0.0, TWO_PI, size=(10_000, n))
        gap = np.abs(shortest_arc_length(xs) - shortest_arc_oracle(xs))
        worst = max(worst, float(gap.max()))
    wall = time.perf_counter() - start
    line = report(1, worst <= 1e-12 and wall < 5.0,
                  f"max |fast - oracle| {worst:.3e}, {wall:.2f} s")
    assert worst <= 1e-12, line
    assert wall < 5.0, line


def test_02_arc_length_never_exceeds_bound():
    rng = np.random.default_rng(2)
    start = time.perf_counter()
    violations = 0
    worst_margin = np.inf
    for n in range(2, 9):
        xs = rng.uniform(0.0, TWO_PI, size=(100_000, n))
        margin = (TWO_PI - TWO_PI / n) - shortest_arc_length(xs)
        violations += int(np.count_nonzero(margin < 0.0))
        worst_margin = min(worst_margin, float(margin.min()))
    wall = time.perf_counter() - start
    line = report(2, violations == 0 and wall < 10.0,
                  f"{violations} violations, slack >= {worst_margin:.3e}, "
                  f"{wall:.2f} s")
    assert violations == 0, line
    assert wall < 10.0, line


def test_03_lyapunov_vanishes_exactly_on_splay_states():
    rng = np.random.default_rng(3)
    worst_v = 0.0
    for i in range(1_000):
        n = 2 + i % 7
        base = (np.arange(n) * TWO_PI / n + rng.uniform(0.0, TWO_PI)) % TWO_PI
        x = rng.permutation(base)
        v = analysis.lyapunov(x)
        worst_v = max(worst_v, float(v))
        assert in_splay_set(x), f"constructed splay state rejected: {x}"

    positives = 0
    candidates = 0
    for n in range(2, 9):
        xs = rng.uniform(0.0, TWO_PI, size=(100_000 // 7 + 1, n))
        srt = np.sort(xs, axis=1)
        gaps = np.column_stack([np.diff(srt, axis=1),
                                TWO_PI - srt[:, -1] + srt[:, 0]])
        deviating = np.abs(gaps - TWO_PI / n).max(axis=1) > 1e-3
        vs = analysis.lyapunov(xs[deviating])
        candidates += int(np.count_nonzero(deviating))
        positives += int(np.count_nonzero(vs > 0.0))
    line = report(3, worst_v <= 1e-9 and positives == candidates,
                  f"splay max V {worst_v:.3e}; {positives}/{candidates} "
                  f"off-splay points had V > 0")
    assert worst_v <= 1e-9, line
    assert positives == candidates, line


def test_04_nominal_run_converges_within_pinned_budget(pinned_nominal):
    arc, wall = pinned_nominal
    verdict = analysis.verify_monotone(arc)
    terminal_v = float(analysis.lyapunov(arc.final_state))
    passed = (verdict.passed and terminal_v < 1e-6 and wall < 1.0)
    line = report(
        4, passed,
        f"flow oscillation {verdict.max_flow_oscillation:.3e}, "
        f"worst jump delta {verdict.max_jump_delta:.3e}, "
        f"terminal V {terminal_v:.6e} at t={arc.final_time.t:g} "
        f"({arc.jumps} jumps), {wall:.2f} s")
    assert verdict.passed, line
    assert wall < 1.0, line
    assert terminal_v < 1e-6, (
        f"{line}; with exact event times V first falls below 1e-6 at t=84.03, "
        f"two firings (4.03 s, less than one revolution) after this budget ends")


def test_05_corpus_always_converges_monotonically(corpus_result):
    records, wall = corpus_result
    bad = [r for r in records
           if not (r.converged and r.monotone_passed
                   and r.min_jump_geodesic > 0.0)]
    worst_v = max(r.terminal_v for r in records)
    line = report(5, not bad and wall < 60.0,
                  f"{len(records) - len(bad)}/{len(records)} runs converged "
                  f"monotonically (worst terminal V {worst_v:.3e}), "
                  f"{wall:.1f} s")
    assert not bad, f"{line}; failing runs {[r.index for r in bad]}"
    assert wall < 60.0, line


def test_06_unclamped_distance_is_not_a_lyapunov_function(pinned_nominal):
    arc, _ = pinned_nominal
    pre = np.stack([e.pre for e in arc.events])
    post = np.stack([e.post for e in arc.events])
    deltas = analysis.vtilde(post) - analysis.vtilde(pre)
    increases = int(np.count_nonzero(deltas > 1e-9))
    terminal = float(analysis.vtilde(arc.final_state))
    line = report(6, increases >= 1 and terminal < 1e-3,
                  f"{increases}/{deltas.size} jumps increased the comparator "
                  f"(max delta {deltas.max():.3e}); terminal {terminal:.3e}")
    assert increases >= 1, line
    assert terminal < 1e-3, line


def test_07_corpus_respects_dwell_guard(corpus_result):
    records, _ = corpus_result
    min_dwell = min(r.min_dwell for r in records)
    finished = all(r.stop_reason in {"stop-rule", "horizon", "max-jumps"}
                   for r in records)
    line = report(7, min_dwell > 1e-6 and finished,
                  f"min inter-firing dwell {min_dwell:.4f} s across "
                  f"{len(records)} runs; no dwell guard trips")
    assert min_dwell > 1e-6, line
    assert finished, line


def test_08_disturbance_ordering(tmp_path):
    start = time.perf_counter()
    rep = run_perturbed(tmp_path)
    wall = time.perf_counter() - start
    d = rep.details
    s = (d["s_nominal"], d["s_eps_0.03"], d["s_eps_0.05"])
    e = (d["eps_star_0.03"], d["eps_star_0.05"])
    s_ordered = s[0] < s[1] < s[2]
    e_ordered = e[0] < e[1]
    line = report(8, s_ordered and e_ordered and wall < 10.0,
                  f"S {s[0]:.3e} < {s[1]:.3e} < {s[2]:.3e}: "
                  f"{'yes' if s_ordered else 'no'}; eps_star {e[0]:.4f} < "
                  f"{e[1]:.4f}: {'yes' if e_ordered else 'no'}; {wall:.2f} s")
    assert s_ordered, line
    assert wall < 10.0, line
    assert e_ordered, (
        f"{line}; both disturbance amplitudes exceed the firing-order swap "
        f"threshold (~0.015) for this tightly packed start, so both arcs "
        f"converge to a label-permuted schedule and the measured closeness "
        f"saturates near the permutation distance for each")


def test_09_broken_responses_fail_validation_with_witnesses():
    failing = {}
    for make in (broken_zero, broken_steep, broken_step):
        prc = make(3)
        rep = validate_prc(prc.func, prc.n)
        witnesses = [c for c in rep.failures() if c.witness is not None]
        failing[prc.name] = (not rep.passed, len(witnesses))
    witness = steep_v_increase_witness()
    all_fail = all(flag and nw > 0 for flag, nw in failing.values())
    line = report(9, all_fail and witness is not None,
                  f"validation failures {failing}; steep run V increase "
                  f"{witness[1]:.3e} at jump {witness[0]}"
                  if witness else f"validation failures {failing}; "
                  f"steep run produced no V increase")
    assert all_fail, line
    assert witness is not None, line
    assert witness[1] > 1e-9, line


def test_10_corpus_outputs_are_byte_identical(tmp_path):
    first = tmp_path / "first"
    second = tmp_path / "second"
    a = theorem1_corpus(runs=100, out_dir=first)
    b = theorem1_corpus(runs=100, out_dir=second)
    assert a == b
    names_a = sorted(p.name for p in first.iterdir())
    names_b = sorted(p.name for p in second.iterdir())
    assert names_a == names_b and names_a
    differing = [name for name in names_a
                 if (first / name).read_bytes() != (second / name).read_bytes()]
    line = report(10, not differing,
                  f"{len(names_a)} files compared byte for byte, "
                  f"{len(differing)} differ")
    assert not differing, f"{line}: {differing[:5]}"
