"""Functionals over phase configurations and verdicts over simulated arcs.

The central quantity is the Lyapunov functional V: the headroom between
the shortest containing arc and its largest possible value 2*pi*(n-1)/n.
V vanishes exactly on the splay set, is constant along nominal flow and
never increases across firings for a validated response function.  A
Euclidean comparator (distance to the splay lines, without clamping) is
provided because it looks like a natural candidate but fails the jump
condition; verify_monotone and closeness turn recorded arcs into verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .circle import (TWO_PI, _in_box, _on_phases, _outside, _row_blocks, _shortest_arc,
                     check_number)

if TYPE_CHECKING:  # pragma: no cover
    from .sim import HybridArc


def lyapunov(x):
    """V(x) = 2*pi*(n-1)/n - shortest_arc_length(x), clipped at 0.

    Nonnegative, at most 2*pi*(n-1)/n, and zero exactly when the phases are
    evenly spaced.  Accepts a single vector or an (m, n) batch.  The clip
    only ever removes rounding residue of order 1e-16: the shortest
    containing arc of n phases cannot exceed 2*pi*(n-1)/n.
    """
    return _on_phases(_lyapunov, x)


def _lyapunov(arr: np.ndarray) -> np.ndarray:
    """V of each row of a batch of validated phases, lyapunov's row kernel.
    The simulator calls it unchecked on each row block of the samples it
    makes, the post-jump rows of one chunk among them, so a run computes
    each sample's V once."""
    return np.maximum(TWO_PI * (arr.shape[1] - 1) / arr.shape[1] - _shortest_arc(arr), 0.0)


def _splay_line_distance(arr: np.ndarray, clamp: bool) -> np.ndarray:
    """Min over permutations sigma of the distance from each row of arr to
    {a * 1 + v_sigma}, with a free (clamp=False) or restricted so the
    splay point stays inside the box (clamp=True).

    For any fixed a, |x - a * 1 - v_sigma|^2 is smallest when sigma pairs
    the sorted phases with the ascending offsets 2*pi*k/n (rearrangement
    inequality), so no permutation needs enumerating: the residual of the
    sorted row against those offsets, minus its (clamped) mean, is the
    optimum for every a at once.  O(n log n) per row.
    """
    n = arr.shape[1]
    diff = np.sort(arr, axis=1) - np.arange(n) * (TWO_PI / n)
    a = diff.mean(axis=1)
    if clamp:
        a = np.clip(a, 0.0, TWO_PI / n)
    resid = diff - a[:, None]
    return np.sqrt(np.sum(resid * resid, axis=1))


def distance_to_splay(x):
    """Euclidean distance from x to the splay set inside the box.

    The splay set is the union over permutations sigma of the segments
    {a * 1 + v_sigma : 0 <= a <= 2*pi/n} where v_sigma permutes
    (0, 2*pi/n, ..., 2*pi*(n-1)/n); the common-offset parameter a is the
    clamped mean of x - v_sigma.  Accepts a vector or an (m, n) batch.
    """
    return _on_phases(lambda arr: _splay_line_distance(arr, clamp=True), x)


def vtilde(x):
    """Distance from x to the splay lines, without box clamping.

    Equals distance_to_splay whenever the projected offset lands inside
    [0, 2*pi/n].  Looks like a Lyapunov candidate but is not: it can grow
    across a firing even for a validated response function.
    """
    return _on_phases(lambda arr: _splay_line_distance(arr, clamp=False), x)


@dataclass(frozen=True)
class LyapunovTrace:
    """V along an arc: per-sample values, per-jump deltas V(post) - V(pre),
    and the largest |V - V(start)| within each flow interval."""

    values: np.ndarray
    jump_deltas: np.ndarray
    flow_oscillation: np.ndarray


@dataclass(frozen=True)
class MonotoneVerdict:
    """Did V behave like a Lyapunov functional along the arc?

    For a nominal arc, passed requires V constant along every flow interval
    and nonincreasing across every jump, both within MONOTONE_TOL.  For a
    perturbed arc neither is checked and the jump deltas are informational
    only, so passed is vacuously True and `informational` is set.
    """

    passed: bool
    informational: bool
    max_flow_oscillation: float
    worst_flow_interval: int | None
    max_jump_delta: float
    worst_jump: int | None
    trace: LyapunovTrace

    def __str__(self) -> str:  # convenient for CLI/report lines
        status = "pass" if self.passed else "FAIL"
        if self.informational:
            status += " (informational: perturbed arc)"
        return (
            f"monotone {status}: max flow oscillation {self.max_flow_oscillation:.3e}, "
            f"max jump delta {self.max_jump_delta:.3e}"
        )


#: how far V may move along a flow interval, or rise across a jump, of a
#: nominal arc that verify_monotone passes; a caller with another tolerance
#: compares it with the verdict's max_flow_oscillation and max_jump_delta
MONOTONE_TOL = 1e-9


def verify_monotone(arc: "HybridArc") -> MonotoneVerdict:
    """Check V's flow-constancy and jump-monotonicity over a recorded arc,
    within MONOTONE_TOL.  The jumps are the arc's pre-jump and post-jump
    row pairs (arc.jump_rows), so a loaded arc's jumps are checked too.

    The trace's values are the arc's cached arc.v, computed once per arc in
    row blocks, so apart from the trace's per-sample arrays the check
    allocates nothing the size of arc.states.

    Theorem 1's monotonicity holds for starts off the bad set, where no
    two phases coincide.  From a bad-set start under policy 'enumerate' a
    drawn branch can raise V by a model-level amount, not a rounding one,
    and the verdict then fails: tests/test_event_map.py::
    test_enumerate_can_raise_v_from_a_bad_set_start has such runs."""
    values = arc.v
    rows = arc.jump_rows
    deltas = values[rows + 1] - values[rows]

    # largest |V - V(first sample)| per j-run, that is per tile of arc.intervals
    starts, ends = _j_runs(arc.js)
    first = np.repeat(values[starts], ends - starts)
    oscillations = np.maximum.reduceat(np.abs(values - first), starts)

    max_osc = float(oscillations.max()) if oscillations.size else 0.0
    worst_interval = int(oscillations.argmax()) if oscillations.size else None
    max_delta = float(deltas.max()) if deltas.size else 0.0
    worst_jump = int(deltas.argmax()) + 1 if deltas.size else None

    return MonotoneVerdict(
        passed=bool(arc.perturbed) or (max_osc <= MONOTONE_TOL and max_delta <= MONOTONE_TOL),
        informational=bool(arc.perturbed),
        max_flow_oscillation=max_osc,
        worst_flow_interval=worst_interval,
        max_jump_delta=max_delta,
        worst_jump=worst_jump,
        trace=LyapunovTrace(values=values, jump_deltas=deltas,
                            flow_oscillation=oscillations),
    )


@dataclass(frozen=True)
class ClosenessReport:
    """Hybrid closeness of two arcs up to hybrid time tau.

    The arcs are (tau, eps)-close for every eps > eps_star as far as the
    recorded samples witness; eps_star is attained at sample (witness_t,
    witness_j) of the arc named by witness_direction.  Because both the
    supremum over one arc and the infimum over the other are evaluated on
    recorded samples (with linear interpolation in t), eps_star is accurate
    to about one sampling step.
    """

    tau: float
    eps_star: float
    witness_t: float
    witness_j: int
    witness_direction: str


def closeness(arc1: "HybridArc", arc2: "HybridArc", tau: float) -> ClosenessReport:
    """Compare two recorded arcs in the hybrid (tau, eps) sense.

    For every sample (t, j, x) of one arc with t + j <= tau there must be a
    time s in the other arc's j-th interval with |t - s| and the Euclidean
    state mismatch both below eps; eps_star is the largest such requirement
    over both directions.  A jump index missing entirely from the other arc
    yields eps_star = inf.

    Each sample's requirement is the least of max(|t - s|, |x - x(s)|) over
    the other interval's samples s and the interpolated point s = t (held
    at the interval's ends), whose value c bounds it from above.  A row
    block screens all of the interval's samples at once by their squared
    requirement max((t - s)^2, |x|^2 + |y|^2 - 2 x.y), the state part from
    one matrix product.  That expansion is off from the exact squared
    distance by at most (n + 3) eps (|x|^2 + |y|^2), and squaring a float
    by one relative rounding; _EXPANSION_ERR and _SQ_REL exceed both by
    orders of magnitude.  So a sample whose screened value, less those
    margins, exceeds c^2 or the least screened value plus the margins
    cannot give the least requirement; only the others are compared, with
    the exact formula of a sample-by-sample scan.  The report is thus the
    one a comparison with every sample gives, witness included, at a cost
    that does not depend on how far apart the arcs are.

    Both arcs must have finite times, states in [0, 2*pi]^n and times that
    never decrease within a run of equal j; ValueError names the arc and
    the first sample that breaks this, or a tau that is not a number >= 0.
    """
    if arc1.n != arc2.n:
        raise ValueError(f"arcs have different network sizes: {arc1.n} vs {arc2.n}")
    tau = check_number("tau", tau, "nonnegative")
    for name, arc in (("first", arc1), ("second", arc2)):
        bad = _first_bad_sample(arc.ts, arc.js, arc.states)
        if bad is not None:
            raise ValueError(f"{name} arc, sample {bad[0]}: {bad[1]}")
    e1, t1, j1 = _one_sided(arc1, arc2, tau)
    e2, t2, j2 = _one_sided(arc2, arc1, tau)
    if e1 >= e2:
        return ClosenessReport(tau, e1, t1, j1, "first-vs-second")
    return ClosenessReport(tau, e2, t2, j2, "second-vs-first")


def _first_bad_sample(ts: np.ndarray, js: np.ndarray,
                      states: np.ndarray) -> tuple[int, str] | None:
    """Row and reason of the first sample of an arc that breaks what
    closeness relies on, or None: jump indices nonnegative and
    nondecreasing, times finite, states in [0, 2*pi]^n, times
    nondecreasing within each run of equal j.  Checked in that order, one
    vectorised pass each; read_trajectory_csv applies the same checks."""
    step_j = np.diff(js)
    if step_j.size and step_j.min() < 0:
        k = int(np.argmax(step_j < 0)) + 1
        return k, f"jump index {js[k]} follows {js[k - 1]}"
    if js.size and js[0] < 0:
        return 0, f"jump index {js[0]} is negative"
    finite = np.isfinite(ts)
    if not finite.all():
        k = int(np.argmin(finite))
        return k, f"time {ts[k].item()!r} is not finite"
    if states.size and not _in_box(states):
        k = int(np.argmax(_outside(states).any(axis=1)))
        return k, f"phase {states[k][_outside(states[k])][0].item()!r} lies outside [0, 2*pi]"
    back = (np.diff(ts) < 0) & (step_j == 0)
    if back.any():
        k = int(np.argmax(back)) + 1
        return k, f"time {ts[k].item()!r} follows {ts[k - 1].item()!r} within jump index {js[k]}"
    return None


def _j_runs(js: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start and end (exclusive) of each run of equal j in a nondecreasing
    jump-index array; raises ValueError if j ever decreases."""
    step = np.diff(js)
    if np.any(step < 0):
        raise ValueError(f"jump index decreases after sample {int(np.argmax(step < 0))}")
    changes = np.flatnonzero(step) + 1
    if not js.size:
        return changes, changes
    return np.concatenate(([0], changes)), np.concatenate((changes, [js.size]))


def _interval_index(arc: "HybridArc") -> dict[int, tuple[np.ndarray, np.ndarray]]:
    starts, ends = _j_runs(arc.js)
    return {j: (arc.ts[s:e], arc.states[s:e])
            for j, s, e in zip(arc.js[starts].tolist(), starts.tolist(), ends.tolist())}


#: margins of the screen in closeness: absolute, per (n + 3)(|x|^2 + |y|^2),
#: and relative
_EXPANSION_ERR = 1e-13
_SQ_REL = 1e-9


def _one_sided(a: "HybridArc", b: "HybridArc", tau: float) -> tuple[float, float, int]:
    b_index = _interval_index(b)
    worst = 0.0
    worst_t = float(a.ts[0]) if len(a.ts) else 0.0
    worst_j = int(a.js[0]) if len(a.js) else 0
    within = (a.ts + a.js) <= tau + 1e-12
    a_ts, a_js, a_xs = a.ts[within], a.js[within], a.states[within]
    n = a_xs.shape[1]
    starts, ends = _j_runs(a_js)
    for j, start, end in zip(a_js[starts].tolist(), starts.tolist(), ends.tolist()):
        entry = b_index.get(j)
        if entry is None:
            return float("inf"), float(a_ts[start]), j
        ts, xs = entry
        yy = np.sum(xs * xs, axis=1)
        for rows in _row_blocks(start, end, ts.size):
            t, x = a_ts[rows], a_xs[rows]
            # interpolated candidate at s = t clamped into the interval
            s = np.minimum(np.maximum(t, ts[0]), ts[-1])
            xi = np.stack([np.interp(s, ts, xs[:, k]) for k in range(n)], axis=1)
            best = np.maximum(np.abs(t - s), np.sqrt(np.sum((xi - x) ** 2, axis=1)))
            # every sample's squared requirement to within err (see closeness)
            xx = np.sum(x * x, axis=1)
            err = _EXPANSION_ERR * (n + 3) * (xx.max() + yy.max())
            sq = np.matmul(x, xs.T)
            sq *= -2.0
            sq += xx[:, None]
            sq += yy
            gap = t[:, None] - ts
            gap *= gap
            np.maximum(sq, gap, out=sq)
            cap = np.minimum(best * best, sq.min(axis=1) * (1.0 + _SQ_REL) + err)
            # the samples that can beat it, compared exactly
            r, k = np.nonzero(sq <= ((cap + err) / (1.0 - _SQ_REL))[:, None])
            np.minimum.at(best, r, np.maximum(np.abs(ts[k] - t[r]),
                                              np.sqrt(np.sum((xs[k] - x[r]) ** 2, axis=1))))
            # first strict maximum, as a sample-by-sample scan would keep it
            top = np.fmax.reduce(best)
            if top > worst:
                k = int(np.argmax(best == top))
                worst, worst_t = float(top), float(t[k])
                worst_j = j
    return worst, worst_t, worst_j
