"""Event-driven execution of the pulse-coupled network.

Between firings every phase flows by x' = omega + d(t), and the right-hand
side does not depend on the state, so the flow is the exact expression
x(t) = x0 + omega * (t - t0) + D(t0, t), D the integral of the disturbance
(zero on nominal runs, closed form for a sinusoid, one Gauss-Legendre
panel over [t0, t] per row for a custom disturbance).  One elementwise
function, _flow, with a start (x0, t0) per row, gives every flow state of
a run: each crossing, the horizon and all grid samples.  Nominal firing
times are closed-form too.  Under a disturbance each coordinate rises at a
rate within omega -/+ bound, which brackets its crossing of 2*pi; Newton
inside that bracket finds it to a few ulps and the earliest crossing
fires.  Either way the crossing coordinates are assigned exactly 2*pi
rather than accumulated.

A run writes each firing once: (time, firers, branch) in a list, and its
pre and post states into two rows of fixed-size chunks.  The stop rule is
read off those rows a batch of about one revolution at a time, and a run
still ends at the very firing where the rule first holds.  From the
firings, the final (t, x) and the stop reason the HybridArc's samples,
indexed by (t, j), are derived on the global grid in bounded row blocks.
The arc keeps the (time, firers, branch) list as its firing table, builds
JumpEvents from it and their rows only when arc.events is read, and reads
the hybrid time domain off the samples.  An arc thus holds each state
once.  Runs are deterministic given the configuration, including the
seed that resolves set-valued jumps.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import analysis, model
from .circle import TWO_PI, _splay_gap_deviation, as_phases
from .model import ALL_ZERO, DEFAULT_FIRING_TOL, POLICIES, PhaseResponse

FLOW = "flow"
PRE_JUMP = "pre-jump"
POST_JUMP = "post-jump"
_KINDS = (FLOW, PRE_JUMP, POST_JUMP)
#: the event field of a trajectory CSV row as parsed: one character wider
#: than the longest kind, so that no value truncated to it equals a kind
_KIND_FIELD = f"U{max(map(len, _KINDS)) + 1}"
#: about the most cells a CSV writer formats, and the most characters the
#: trajectory reader splits into lines, at a time: the Python strings
#: of a block fit in memory the allocator keeps, where a whole file's
#: would be mapped and unmapped afresh on every call
_CSV_CELLS = 8_192
_CSV_CHARS = 65_536

#: cap on the Newton iterations that locate one perturbed crossing
_NEWTON_ITERS = 64
#: nodes per Gauss-Legendre panel in the integral of a custom disturbance
_GAUSS_ORDER = 8
#: cap on horizon / sample_dt, the flow samples of one run (studies need 1.2e4)
MAX_GRID_POINTS = 1_000_000


class ZenoViolationError(RuntimeError):
    """Two consecutive firings were separated by less flow time than the
    configured dwell guard; the execution is aborted instead of chattering."""

    def __init__(self, t: float, j: int, dwell: float, min_dwell: float):
        super().__init__(f"dwell {dwell!r} s between jumps {j - 1} and {j} at t={t!r} "
                         f"is below the guard {min_dwell!r} s")
        self.t = t
        self.j = j
        self.dwell = dwell
        self.min_dwell = min_dwell


class HybridTime(NamedTuple):
    """A point (t, j) of a hybrid time domain; tuple order is lexicographic,
    which matches the ordering of hybrid time."""

    t: float
    j: int


@dataclass(frozen=True)
class Perturbation:
    """Additive rate disturbance d(t) applied to every oscillator: the
    sinusoid amplitude * sin(frequency * t + offsets[i]) unless func is set.
    Perturbation() (amplitude 0) is nominal.  bound is the declared
    per-coordinate sup of |d_i(t)|; it must stay below the nominal rate so
    every phase rises at a rate between omega - bound and omega + bound,
    which brackets each crossing time.  Use the constructors: none(),
    sinusoidal(), custom().
    """

    amplitude: float = 0.0
    frequency: float = 0.5
    offsets: tuple[float, ...] | None = None
    func: Callable[[np.ndarray], np.ndarray] | None = None
    bound: float = 0.0

    @staticmethod
    def none() -> "Perturbation":
        return Perturbation()

    @staticmethod
    def sinusoidal(amplitude: float, frequency: float = 0.5,
                   offsets=None) -> "Perturbation":
        """d_i(t) = amplitude * sin(frequency * t + offsets[i]), offsets
        2*pi*i/n when None; every parameter must be finite and the
        amplitude nonnegative."""
        amplitude, frequency = float(amplitude), float(frequency)
        offsets = None if offsets is None else tuple(map(float, offsets))
        if not all(map(math.isfinite, (amplitude, frequency, *(offsets or ())))):
            raise ValueError(f"sinusoid parameters must be finite, got amplitude={amplitude!r}, "
                             f"frequency={frequency!r}, offsets={offsets!r}")
        if amplitude < 0.0:
            raise ValueError(f"amplitude must be nonnegative, got {amplitude!r}")
        return Perturbation(amplitude, frequency, offsets, bound=amplitude)

    @staticmethod
    def custom(func: Callable[[np.ndarray], np.ndarray], bound: float) -> "Perturbation":
        """Arbitrary disturbance with declared sup bound: func maps an array
        of times ts to d at each, an array of shape (len(ts), n).

        Its integral over [t0, t] is taken by one fixed-order Gauss-Legendre
        panel without error control, which is exact to rounding for a func
        that is smooth on the scale of one inter-firing interval; a
        discontinuous func loses accuracy."""
        bound = float(bound)
        if not (math.isfinite(bound) and bound >= 0.0):
            raise ValueError(f"bound must be finite and nonnegative, got {bound!r}")
        return Perturbation(func=func, bound=bound)

    @property
    def is_none(self) -> bool:
        return self.func is None and self.amplitude == 0.0

    def _offsets(self, n: int) -> np.ndarray:
        return _splay_offsets(n) if self.offsets is None else np.asarray(self.offsets)

    def sample(self, ts: np.ndarray, n: int) -> np.ndarray:
        """Evaluate d on an array of times; returns shape (len(ts), n).

        A custom func is called once on the whole array and must give that
        shape, all finite; ValueError names the shape it gave, or the first
        time at which a value is not finite."""
        ts = np.asarray(ts, dtype=float)
        if self.func is None:
            return self.amplitude * np.sin(self.frequency * ts[:, None] + self._offsets(n))
        out = np.asarray(self.func(ts), dtype=float)
        if out.shape != (ts.size, n):
            raise ValueError(f"custom disturbance at t={np.array2string(ts, threshold=6)} "
                             f"has shape {out.shape}, not ({ts.size}, {n})")
        bad = np.flatnonzero(~np.isfinite(out).all(axis=1))
        if bad.size:
            raise ValueError(f"custom disturbance at t={ts[bad[0]].item()!r} is not "
                             f"finite: {out[bad[0]]!r}")
        return out

    def displacement(self, t0, ts: np.ndarray, n: int) -> np.ndarray:
        """D(t0, t), the integral of d over [t0, t], for an array of times;
        returns shape (len(ts), n).  t0 is one start time for every row, or
        an array with one per row.

        Exact for a sinusoid: -(a/f) [cos(f t + o) - cos(f t0 + o)], written
        as a product of sines so that short intervals and small f lose no
        digits, and a sin(o) (t - t0) when f = 0; both are elementwise in
        (t0, t).  A custom disturbance is integrated by one Gauss-Legendre
        panel over [t0, t] per row, so it is elementwise too: each row gets
        the floats of a one-row call with its own t0 and t.
        """
        ts = np.asarray(ts, dtype=float)
        if self.func is None:
            offs = self._offsets(n)
            if self.frequency == 0.0:
                return self.amplitude * np.sin(offs)[None, :] * (ts - t0)[:, None]
            half = 0.5 * self.frequency
            return ((2.0 * self.amplitude / self.frequency)
                    * np.sin(half * (ts + t0)[:, None] + offs[None, :])
                    * np.sin(half * (ts - t0))[:, None])
        unit_nodes, weights = _gauss_legendre()
        mid = 0.5 * (ts + t0)
        half = 0.5 * (ts - t0)
        nodes = mid[:, None] + half[:, None] * unit_nodes[None, :]
        d = self.sample(nodes.ravel(), n).reshape(ts.size, _GAUSS_ORDER, n)
        return half[:, None] * np.einsum("k,mkn->mn", weights, d)


@functools.cache
def _splay_offsets(n: int) -> np.ndarray:
    """2*pi*i/n for i < n, a sinusoid's default offsets: one read-only array per n."""
    offsets = TWO_PI * np.arange(n) / n
    offsets.flags.writeable = False
    return offsets


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the Gauss-Legendre rule on [-1, 1].  Imported on
    first use: numpy.polynomial is not loaded with numpy and would add to
    the start-up time and memory of every run without a custom disturbance."""
    from numpy.polynomial.legendre import leggauss
    return leggauss(_GAUSS_ORDER)


def _check_perturbation(pert: Perturbation, omega: float, n: int) -> None:
    """One offset per oscillator, and a bound below omega so every crossing is bracketed."""
    if pert.offsets is not None and len(pert.offsets) != n:
        raise ValueError(f"perturbation has {len(pert.offsets)} phase offsets for n={n}")
    if not pert.is_none and not pert.bound < omega:
        raise ValueError(f"perturbation bound {pert.bound!r} must stay below "
                         f"omega={omega!r} so phases keep advancing")


@dataclass
class SimConfig:
    """Everything that determines one run, seed included."""

    prc: PhaseResponse
    x0: np.ndarray
    n: int | None = None
    omega: float = 1.0
    perturbation: Perturbation = field(default_factory=Perturbation.none)
    horizon: float = 80.0
    max_jumps: int = 100_000
    firing_tol: float = DEFAULT_FIRING_TOL
    min_dwell: float = 1e-9
    stop_v_threshold: float | None = 1e-6
    stop_splay_tol: float | None = None
    policy: str = ALL_ZERO
    seed: int | None = 0
    sample_dt: float = 0.01

    def __post_init__(self):
        for f in fields(self):  # True and False would pass as the numbers 1 and 0
            if isinstance(getattr(self, f.name), bool):
                raise ValueError(f"{f.name} must not be a boolean, got {getattr(self, f.name)!r}")
        self.x0 = as_phases(self.x0).copy()
        if self.n is None:
            self.n = self.x0.size
        if self.n != self.x0.size:
            raise ValueError(f"n={self.n} does not match x0 of length {self.x0.size}")
        if self.prc.n != self.n:
            raise ValueError(f"response function was built for n={self.prc.n}, "
                             f"run has n={self.n}")
        if not 0.0 < self.omega < math.inf:
            raise ValueError(f"omega must be positive and finite, got {self.omega!r}")
        if not self.horizon > 0.0:
            raise ValueError(f"horizon must be positive, got {self.horizon!r}")
        if not (isinstance(self.max_jumps, numbers.Integral) and self.max_jumps >= 1):
            raise ValueError(f"max_jumps must be an integer of at least 1, got {self.max_jumps!r}")
        if not 0.0 < self.firing_tol < math.inf:
            raise ValueError(f"firing_tol must be positive and finite, got {self.firing_tol!r}")
        if not 0.0 <= self.min_dwell < math.inf:
            raise ValueError(f"min_dwell must be nonnegative and finite, got {self.min_dwell!r}")
        if not self.sample_dt > 0.0:
            raise ValueError(f"sample_dt must be positive, got {self.sample_dt!r}")
        if not self.horizon / self.sample_dt <= MAX_GRID_POINTS:
            raise ValueError(f"horizon / sample_dt must be at most {MAX_GRID_POINTS}, "
                             f"got {self.horizon / self.sample_dt!r}")
        if self.policy not in POLICIES:
            raise ValueError(f"unknown policy {self.policy!r}, expected one of {POLICIES}")
        for name in ("stop_v_threshold", "stop_splay_tol"):
            val = getattr(self, name)
            if val is not None and not (isinstance(val, numbers.Real) and val >= 0.0):
                raise ValueError(f"{name} must be a nonnegative number or None, got {val!r}")
        if self.seed is not None and (not isinstance(self.seed, numbers.Integral)
                                      or self.seed < 0):
            raise ValueError(f"seed must be a nonnegative integer or None, got {self.seed!r}")
        _check_perturbation(self.perturbation, self.omega, self.n)


@dataclass(frozen=True)
class JumpEvent:
    """One firing: the pre state at jump index j maps to the post state at
    j + 1.  firers are the coordinates at 2*pi; branch records how the
    set-valued cases were resolved.  HybridArc.events builds them with pre
    and post as read-only views of the arc's pre-jump and post-jump rows."""

    t: float
    j: int
    firers: tuple[int, ...]
    branch: str
    pre: np.ndarray
    post: np.ndarray


@dataclass
class HybridArc:
    """A recorded execution.

    ts, js, states and kinds are parallel arrays of samples ordered by
    hybrid time; kinds are 'flow', 'pre-jump' or 'post-jump'.  firings
    is the firing table, one (t, firers, branch) per firing; a loaded arc
    has none.  Firing j's states are its pre-jump row and the post-jump
    row after it (jump_rows), so the arc's memory is its samples plus the
    table, and events builds JumpEvents from the two when read.  The
    hybrid time domain is not stored: intervals reads it off the samples.
    """

    ts: np.ndarray
    js: np.ndarray
    states: np.ndarray
    kinds: np.ndarray
    firings: list[tuple[float, tuple[int, ...], str]]
    omega: float | None
    perturbed: bool
    stop_reason: str

    @property
    def intervals(self) -> list[tuple[float, float, int]]:
        """The hybrid time domain as (t_start, t_end, j) tiles, one per run
        of equal j, spanning that run's sample times.  On a simulated arc
        tile k runs from the k-th firing to the next (from t = 0 for k = 0,
        to the final time for the last tile)."""
        starts, _ = analysis._j_runs(self.js)
        return list(zip(np.minimum.reduceat(self.ts, starts).tolist(),
                        np.maximum.reduceat(self.ts, starts).tolist(),
                        self.js[starts].tolist()))

    @property
    def n(self) -> int:
        return self.states.shape[1]

    @property
    def jumps(self) -> int:
        return len(self.firings)

    def jump_rows(self) -> np.ndarray:
        """Each firing's pre-jump row; its post-jump row is the next one.
        An arc without firings has none, whatever its kinds.  ValueError
        when the pre-jump and post-jump rows do not pair up with the
        firings."""
        if not self.firings:
            return np.empty(0, dtype=np.intp)
        pre = np.flatnonzero(self.kinds == PRE_JUMP)
        post = np.flatnonzero(self.kinds == POST_JUMP)
        if not pre.size == post.size == len(self.firings):
            raise ValueError(f"arc has {len(self.firings)} events but {pre.size} pre-jump and "
                             f"{post.size} post-jump samples")
        if not np.array_equal(post, pre + 1):
            raise ValueError("arc has a pre-jump sample not followed by its post-jump sample")
        return pre

    @property
    def events(self) -> list[JumpEvent]:
        """One JumpEvent per firing, built on each read, with pre and post
        read-only views of the firing's rows of states."""
        frozen = self.states.view()
        frozen.flags.writeable = False
        return [JumpEvent(t, j, firers, branch, frozen[row], frozen[row + 1])
                for j, (row, (t, firers, branch))
                in enumerate(zip(self.jump_rows().tolist(), self.firings))]

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    @property
    def final_time(self) -> HybridTime:
        return HybridTime(float(self.ts[-1]), int(self.js[-1]))

    def dwells(self) -> np.ndarray:
        """Flow time between consecutive firings (length jumps - 1)."""
        return np.diff([t for t, _, _ in self.firings])

    def min_dwell_after_first(self) -> float:
        """Shortest flow time separating consecutive firings, nan if fewer
        than two firings occurred."""
        d = self.dwells()
        return float(d.min()) if d.size else float("nan")


def _flow(x0: np.ndarray, t0, t, omega: float, pert: Perturbation) -> np.ndarray:
    """The exact flow x(t) = x0 + omega * (t - t0) + D(t0, t), D the
    disturbance integral, clamped at 2*pi.

    A scalar t gives the state of shape (n,).  An array of times gives one
    state per time, shape (len(t), n), row i flowing from x0[i] at t0[i];
    a single x0 of shape (n,), or a scalar t0, serves every row."""
    shift = omega * (t - t0)
    x = x0 + (shift[:, None] if np.ndim(shift) else shift)
    if not pert.is_none:
        x += pert.displacement(t0, np.atleast_1d(t), x.shape[-1]).reshape(x.shape)
    return np.minimum(x, TWO_PI, out=x)


def _first_crossing(x0: np.ndarray, t0: float, omega: float, pert: Perturbation,
                    horizon: float, firing_tol: float):
    """(t, x, firers) at the first firing of the flow from x0 at t0, or
    (horizon, x, None) when the horizon comes first.

    The located crossing sits within a few ulps of 2*pi, and any coordinate
    that reaches the firing band with it fires too; all are assigned exactly
    2*pi, so the jump map sees an exact firing.
    """
    if pert.is_none:
        # the bracket of _earliest_root collapses onto this closed form
        t_fire = t0 + (TWO_PI - float(x0.max())) / omega
    else:
        t_fire = _earliest_root(x0, t0, omega, pert)
    if t_fire > horizon:
        return horizon, _flow(x0, t0, horizon, omega, pert), None
    x = _flow(x0, t0, t_fire, omega, pert)
    firers = (x >= TWO_PI - firing_tol).nonzero()[0]
    x[firers] = TWO_PI
    return t_fire, x, firers


def _earliest_root(x0: np.ndarray, t0: float, omega: float, pert: Perturbation) -> float:
    """Earliest time a coordinate of the flow from x0 at t0 reaches 2*pi,
    by bracketed Newton.

    Each coordinate rises at a rate within omega -/+ bound, so its root
    lies in [lo, hi] below; only coordinates whose lo is not past the
    smallest hi can fire first.  Newton starts at the nominal time and
    falls back to bisection whenever its step leaves the bracket.
    """
    n = x0.size
    rest = TWO_PI - x0
    lo = t0 + rest / (omega + pert.bound)
    hi = t0 + rest / (omega - pert.bound)
    cand = np.flatnonzero(lo <= hi.min())
    rest, lo, hi = rest[cand], lo[cand], hi[cand]
    rows = np.arange(cand.size)
    t = t0 + rest / omega
    # a few ulps of the time, or of one period near t = 0
    tol = 4.0 * np.spacing(np.maximum(hi, TWO_PI / omega))
    for _ in range(_NEWTON_ITERS):
        g = omega * (t - t0) + pert.displacement(t0, t, n)[rows, cand] - rest
        lo = np.where(g < 0.0, t, lo)
        hi = np.where(g > 0.0, t, hi)
        t_new = t - g / (omega + pert.sample(t, n)[rows, cand])
        t_new = np.where((t_new >= lo) & (t_new <= hi), t_new, 0.5 * (lo + hi))
        done = np.abs(t_new - t) <= tol
        t = t_new
        if done.all():
            return float(t.min())
    # out of iterations: hi is at or past each root, so a coordinate fires there
    return float(hi.min())


def flow_to_next_event(x, omega: float, perturbation: Perturbation | None,
                       t0: float, horizon: float = math.inf,
                       firing_tol: float = DEFAULT_FIRING_TOL):
    """Flow from x at t0 until the first phase reaches 2*pi.

    Returns (t_fire, x_at_fire, True) at a crossing, with the crossing
    coordinates clamped exactly to 2*pi, or (horizon, x_at_horizon, False)
    when no phase fires before the horizon.  x must be in the box with no
    coordinate already at 2*pi, omega positive and finite, t0 finite and the
    horizon not before t0.
    """
    arr = as_phases(x)
    if not 0.0 < omega < math.inf:
        raise ValueError(f"omega must be positive and finite, got {omega!r}")
    if not math.isfinite(t0):
        raise ValueError(f"t0 must be finite, got {t0!r}")
    if not horizon >= t0:
        raise ValueError(f"horizon {horizon!r} must not be earlier than t0={t0!r}")
    if arr.max() >= TWO_PI - firing_tol:
        raise ValueError("flow_to_next_event requires a state strictly below 2*pi")
    pert = perturbation or Perturbation.none()
    _check_perturbation(pert, omega, arr.size)
    t, x, firers = _first_crossing(arr, t0, omega, pert, horizon, firing_tol)
    return t, x, firers is not None


class _Firings:
    """The firings of one run, each written once: (t, firers, branch) in a
    list, and the pre and post states in rows 2i and 2i + 1 of fixed-size
    chunks of analysis._BLOCK_FLOATS // (2n) firings, so no array is ever
    regrown.

    The stop rule (V below threshold and/or splay membership, held for a
    full nominal revolution) is read off the post rows a batch at a time,
    once min(n, firings per chunk) firings are pending or their chunk is
    full, and by settle() before the run ends.  When it has held at firing
    k, the firings past k are dropped: the record is the one a check after
    every firing would have left, and at most n - 1 firings run ahead.
    """

    def __init__(self, config: SimConfig):
        self.config = config
        self.facts: list[tuple[float, tuple[int, ...], str]] = []
        self.chunks: list[np.ndarray] = []
        self.per_chunk = max(1, analysis._BLOCK_FLOATS // (2 * config.n))
        self.batch = min(config.n, self.per_chunk)
        self.period = TWO_PI / config.omega
        self.checks = config.stop_v_threshold is not None or config.stop_splay_tol is not None
        self.settled = 0  # firings the stop rule has seen
        self.hold_since: float | None = None
        self.stopped = False

    def add(self, t: float, firers: np.ndarray, branch: str, pre: np.ndarray,
            post: np.ndarray) -> None:
        m = len(self.facts)
        row = 2 * (m % self.per_chunk)
        if not row:
            self.chunks.append(np.empty((2 * self.per_chunk, self.config.n)))
        chunk = self.chunks[-1]
        chunk[row] = pre
        chunk[row + 1] = post
        self.facts.append((t, tuple(firers.tolist()), branch))
        if m + 1 - self.settled == self.batch or row + 2 == chunk.shape[0]:
            self.settle()

    def post(self, k: int) -> np.ndarray:
        """The post state of firing k, a view of its chunk row."""
        return self.chunks[k // self.per_chunk][2 * (k % self.per_chunk) + 1]

    def settle(self) -> bool:
        """Hold the stop rule over the pending firings, which share a chunk;
        whether it has fired."""
        lo, hi = self.settled, len(self.facts)
        self.settled = hi
        if self.stopped or lo == hi or not self.checks:
            return self.stopped
        cfg = self.config
        at = 2 * (lo % self.per_chunk)
        posts = self.chunks[lo // self.per_chunk][at + 1:at + 2 * (hi - lo):2]
        hits = np.zeros(hi - lo, dtype=bool)
        if cfg.stop_v_threshold is not None:
            hits |= analysis._lyapunov(posts) < cfg.stop_v_threshold
        if cfg.stop_splay_tol is not None:
            hits |= _splay_gap_deviation(posts) <= cfg.stop_splay_tol
        if not hits.any():
            self.hold_since = None
            return False
        for k, hit in enumerate(hits.tolist(), start=lo):
            t = self.facts[k][0]
            if not hit:
                self.hold_since = None
            elif self.hold_since is None:
                self.hold_since = t
            elif t - self.hold_since >= self.period:
                del self.facts[k + 1:]
                self.stopped = True
                break
        return self.stopped


def run(config: SimConfig) -> HybridArc:
    """Execute the network and record the arc.

    Jumps are taken whenever a phase sits at 2*pi (within the firing
    tolerance); otherwise the state flows to the next firing or to the
    horizon.  Stops on the horizon, on the jump budget, or once the
    configured stop rule (V below threshold and/or splay membership) has
    held for a full nominal revolution.  Raises ZenoViolationError when
    consecutive firings are closer than the dwell guard.

    The loop writes each firing once into a _Firings record: (t, firers,
    branch) in a list, the pre and post states into two rows of a
    preallocated chunk.  The stop rule is evaluated on batches of those
    rows, so the loop may run up to n - 1 firings past the firing at which
    it holds; the pending firings are settled before the loop exits by
    horizon or jump budget and before any exception from the loop is
    re-raised, and a stop among them ends the run there with that firing's
    post state.  A run thus ends exactly where a check after every firing
    would end it.  _sampled_arc turns the record, the final (t, x) and the
    stop reason into the samples and the arc.

    Validation happens at the boundary: SimConfig has checked x0, and
    the post-jump box check keeps every state the loop makes in the box,
    so the loop calls the private kernels behind jump_map, lyapunov and
    in_splay_set instead of the re-validating public functions.  A
    crossing hands over its firers; a post-jump state is scanned for
    firers once.  Under 'enumerate' only the drawn branch is built.
    """
    x = config.x0.copy()
    t = 0.0
    rng = np.random.default_rng(config.seed)
    record = _Firings(config)
    facts = record.facts
    fire_at = TWO_PI - config.firing_tol

    on_jump = False  # whether x is the post state of the last firing
    firers = (x >= fire_at).nonzero()[0]
    try:
        while not record.stopped:
            if firers.size:
                if len(facts) >= config.max_jumps:
                    stop_reason = "max-jumps"
                    break
                if facts and t - facts[-1][0] < config.min_dwell:
                    raise ZenoViolationError(t, len(facts) + 1, t - facts[-1][0],
                                             config.min_dwell)
                label, x_post = model._jump(x, firers, config.prc, config.policy, rng)[0]
                record.add(t, firers, label, x, x_post)
                x, on_jump = x_post, True
                firers = (x >= fire_at).nonzero()[0]
                continue

            t, x, firers = _first_crossing(x, t, config.omega, config.perturbation,
                                           config.horizon, config.firing_tol)
            on_jump = False
            if firers is None:
                stop_reason = "horizon"
                break
    except Exception:
        # a failure past the firing at which the stop rule held never happened
        if not record.settle():
            raise
    else:
        record.settle()
    if record.stopped:
        stop_reason, on_jump = "stop-rule", True
        t, x = facts[-1][0], record.post(len(facts) - 1)
    return _sampled_arc(config, facts, record.chunks, t, x, on_jump, stop_reason)


def _sampled_arc(config: SimConfig, firings: list, chunks: list, t_end: float,
                 x_end: np.ndarray, on_jump: bool, stop_reason: str) -> HybridArc:
    """The arc of a run, its samples derived in one pass from its firings
    (t, firers, branch), the chunks that hold their pre and post states in
    consecutive rows, its final time and state (on_jump when that state is
    the last firing's post state), and the global grid k * sample_dt.

    Segment k runs from firing k - 1 (x0 at t = 0 for k = 0) to firing k
    (t_end for the last).  Its rows, at j = k: its start ('flow' at t = 0
    unless x0 is on the jump set, else 'post-jump'), its exact flow on the
    grid strictly inside it, and its end ('pre-jump', or a last 'flow' row
    unless the run ended on a jump).  Each chunk's pre and post rows are
    copied into their rows with two assignments and the chunk is dropped.
    The grid rows of all segments are then flowed, each from its segment's
    start row, in bounded row blocks.
    """
    m, dt = len(firings), config.sample_dt
    starts = np.array([0.0, *(f[0] for f in firings)])
    ends = np.append(starts[1:], t_end)
    # grid indices strictly inside each segment, to within 1e-9 of a step
    k0 = np.floor(starts / dt + 1e-9).astype(int) + 1
    counts = np.maximum(np.ceil(ends / dt - 1e-9).astype(int) - k0, 0)
    # rows in each segment's (start, grid, end) pieces
    reps = np.ones((m + 1, 3), dtype=int)
    reps[:, 1] = counts
    reps[0, 0] = config.x0.max() < TWO_PI - config.firing_tol
    reps[-1, 2] = not on_jump
    js = np.repeat(np.arange(m + 1), reps.sum(axis=1))
    reps = reps.ravel()
    piece_at = np.cumsum(reps) - reps
    ts = np.repeat(np.column_stack([starts, starts, ends]).ravel(), reps)
    kinds = np.repeat(np.array([FLOW, FLOW, *[PRE_JUMP, POST_JUMP, FLOW] * m, FLOW]), reps)
    states = np.empty((ts.size, config.n))
    # whatever their kinds, the first row holds x0 and the last x_end
    states[0], states[-1] = config.x0, x_end
    pre_rows = piece_at[2:-1:3]  # each firing's post-jump row follows its pre-jump row
    done = 0
    while chunks:
        chunk = chunks.pop(0)
        rows = pre_rows[done:done + chunk.shape[0] // 2]
        states[rows] = chunk[0:2 * rows.size:2]
        states[rows + 1] = chunk[1:2 * rows.size:2]
        done += rows.size
    # the rows of each segment's grid piece, and the first of them; a
    # segment with grid rows has its start row just above them
    grid = np.flatnonzero(np.repeat(np.arange(reps.size) % 3 == 1, reps))
    first = piece_at[1::3]
    for block in analysis._row_blocks(0, grid.size, config.n):
        at = grid[block]
        seg = js[at]
        ts[at] = dt * (k0[seg] + (at - first[seg]))
        states[at] = _flow(states[first[seg] - 1], starts[seg], ts[at],
                           config.omega, config.perturbation)
    return HybridArc(ts=ts, js=js, states=states, kinds=kinds, firings=firings,
                     omega=config.omega, perturbed=not config.perturbation.is_none,
                     stop_reason=stop_reason)


# -- CSV persistence ---------------------------------------------------------
#
# Trajectory schema: t,j,x_1..x_n,V,Vtilde,event   (event in flow|pre-jump|post-jump)
# Events schema:     t,j,firers,branch,pre_1..pre_n,post_1..post_n
#
# Floats are written with repr (of the Python floats that tolist() yields)
# so rereading reproduces them bit for bit and rerunning the same
# configuration reproduces the file byte for byte.  V and Vtilde stay fixed
# between nominal firings, so their columns are formatted once per run.


def write_trajectory_csv(arc: HybridArc, path) -> None:
    """Write the sampled arc with V and Vtilde per sample, one row each."""
    v, vt = analysis.lyapunov(arc.states), analysis.vtilde(arc.states)
    _write_csv(path, ["t", "j", *(f"x_{i + 1}" for i in range(arc.n)), "V", "Vtilde", "event"],
               arc.ts.size, lambda rows: [
                   map(repr, arc.ts[rows].tolist()), map(repr, arc.js[rows].tolist()),
                   *(map(repr, col) for col in arc.states[rows].T.tolist()),
                   _repr_runs(v[rows]), _repr_runs(vt[rows]), arc.kinds[rows].tolist()])


def write_events_csv(arc: HybridArc, path) -> None:
    """Write one row per firing: t, j, firers, branch, pre and post state."""
    pre_rows = arc.jump_rows()

    def columns(rows: slice) -> list:
        firings, at = arc.firings[rows], pre_rows[rows]
        states = np.hstack((arc.states[at], arc.states[at + 1]))
        return [[repr(float(t)) for t, _, _ in firings], map(str, range(pre_rows.size)[rows]),
                [";".join(map(str, firers)) for _, firers, _ in firings],
                [branch for _, _, branch in firings],
                *(map(repr, col) for col in states.T.tolist())]
    _write_csv(path, ["t", "j", "firers", "branch", *(f"pre_{i + 1}" for i in range(arc.n)),
                      *(f"post_{i + 1}" for i in range(arc.n))], pre_rows.size, columns)


def _write_csv(path, names: list[str], rows: int, columns: Callable[[slice], list]) -> None:
    """Write the header and then the rows, columns(block) giving each
    column's cells for a slice of about _CSV_CELLS cells' rows at a time."""
    step = max(1, _CSV_CELLS // len(names))
    with open(path, "w") as f:
        f.write(",".join(names) + "\n")
        for block in map(slice, range(0, rows, step), range(step, rows + step, step)):
            f.write("".join(map("{}\n".format, map(",".join, zip(*columns(block))))))


def _repr_runs(col: np.ndarray):
    """Lazy repr of each value of a float column, formatted once per run of
    equal bit patterns (-0.0 and 0.0 apart) unless most values are distinct."""
    bits = col.view(np.int64)
    starts = np.flatnonzero(np.diff(bits, prepend=~bits[:1]))  # ~b never equals b
    if 2 * starts.size > col.size:
        return map(repr, col.tolist())
    lengths = np.diff(starts, append=col.size)
    return itertools.chain.from_iterable(
        map(itertools.repeat, map(repr, col[starts].tolist()), lengths.tolist()))


def read_trajectory_csv(path) -> HybridArc:
    """Rebuild an arc from a trajectory CSV (samples only; the firing table
    is empty and flow metadata is unknown).

    The rows are parsed a block of whole lines at a time.  ValueError names
    `<path>:` for a file with no samples or fewer than 2 oscillators, and
    `<path>:<line>:` for the first row with the wrong column count, a number
    that does not parse (a jump index that is not an int64 included), an
    unknown event kind, a negative or decreasing jump index, a time that is
    not finite, a phase outside [0, 2*pi] (NaN included) or a time that
    decreases within a run of equal j."""
    with open(path) as f:
        # each block ends at a newline, so splitting the blocks splits the file
        blocks = iter(lambda: f.read(_CSV_CHARS) + f.readline(), "")
        block = next(blocks, "")
        lines = block.splitlines()
        if not lines:
            raise ValueError(f"{path}: empty trajectory file")
        header = lines[0].split(",")
        if (len(header) < 6 or header[:2] != ["t", "j"]
                or header[-3:] != ["V", "Vtilde", "event"]):
            raise ValueError(f"{path}: not a trajectory CSV (header {lines[0]!r})")
        n = len(header) - 5
        if header[2:2 + n] != [f"x_{i + 1}" for i in range(n)]:
            raise ValueError(f"{path}: unexpected state columns in header {lines[0]!r}")
        if n < 2:
            raise ValueError(f"{path}: need at least 2 oscillators, got {n}")
        commas = len(header) - 1
        # V and Vtilde are skipped; a row short of the event column raises
        parse = functools.partial(
            np.loadtxt, dtype=[("t", float), ("j", np.int64), ("x", float, (n,)),
                               ("event", _KIND_FIELD)],
            delimiter=",", comments=None, ndmin=1, usecols=(*range(2 + n), commas))
        tables, lineno, skip = [], 2, 1  # the header line
        while block:
            rows = list(filter(str.strip, lines[skip:]))
            table = None
            try:
                if rows:
                    table = parse(rows)
                # blank lines hold no commas; a NUL would vanish from the
                # end of a parsed event kind
                ok = (block.count(",") - skip * commas == len(rows) * commas
                      and "\0" not in block
                      and (table is None or np.isin(table["event"], _KINDS).all()))
            except ValueError:
                ok = False
            if not ok:  # the first failing row, parsed on its own
                table = _parse_row_by_row(path, parse, commas, lines[skip:], lineno)
            if table is not None:
                tables.append(table)
            lineno += len(lines) - skip
            block, skip = next(blocks, ""), 0
            lines = block.splitlines()
    if not tables:
        raise ValueError(f"{path}: no samples")
    ts, js, states, kinds = (np.concatenate([table[name] for table in tables])
                             for name in ("t", "j", "x", "event"))
    bad = analysis._first_bad_sample(ts, js, states)
    if bad is not None:
        row, why = bad
        lines = Path(path).read_text().splitlines()
        lineno = [k for k, line in enumerate(lines[1:], start=2) if line.strip()][row]
        raise ValueError(f"{path}:{lineno}: {why}")
    return HybridArc(ts=ts, js=js, states=states, kinds=kinds,
                     firings=[], omega=None, perturbed=False, stop_reason="loaded")


def _parse_row_by_row(path, parse, commas: int, lines: list, lineno: int):
    """Raise `<path>:<line>:` for the first of these trajectory CSV lines
    (the first on file line `lineno`) whose row fails on its own, by column
    count, parse or event kind; parse them all if none does."""
    rows = []
    for lineno, line in enumerate(lines, start=lineno):
        if not line.strip():
            continue
        if line.count(",") != commas:
            raise ValueError(f"{path}:{lineno}: expected {commas + 1} columns")
        try:
            parse([line])
        except ValueError as exc:
            why = str(exc).replace(" at row 0, column 2.", " (jump index)")
            raise ValueError(f"{path}:{lineno}: {why.replace(' at row 0,', ' in')}") from None
        kind = line[line.rindex(",") + 1:]
        if kind not in _KINDS:
            raise ValueError(f"{path}:{lineno}: unknown event kind {kind!r}")
        rows.append(line)
    return parse(rows) if rows else None
