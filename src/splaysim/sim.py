"""Event-driven execution of the pulse-coupled network.

Between firings every phase flows by x' = omega + d(t), and the right-hand
side does not depend on the state, so the flow is the exact expression
x(t) = x0 + omega * (t - t0) + D(t0, t), D the integral of the disturbance
(zero on nominal runs, closed form for a sinusoid, one Gauss-Legendre
panel over [t0, t] per row for a custom disturbance).  One elementwise
function, _flow, with a start (x0, t0) per row, gives every flow state of
a run: each crossing, the horizon and all grid samples.  Nominal firing
times are closed-form too.  Under a disturbance each coordinate rises at a
rate within omega -/+ amplitude, which brackets its crossing of 2*pi.  Only
the few coordinates whose bracket reaches below every other one's end can
cross first; Newton inside their brackets, in Python floats with the
disturbance evaluated at those coordinates alone, finds each crossing to a
few ulps and the earliest fires.  Either way the crossing coordinates are
assigned exactly 2*pi rather than accumulated.

A run records one row per firing, in place: the crossing flows into one
reused scratch row (a nominal one adds the common shift there, without a
call of _flow), the jump map writes the post-jump state into the next row
of fixed-size chunks, and (time, firers, branch) then goes into a list.  A
firing pays for little besides its numpy arithmetic: the loop reads the
config once, the response's func is called directly, and the box check
reads the post state's extremes by argmax and argmin, not through numpy's
reduction wrapper.  A pre-jump state is not recorded, since the exact flow
rebuilds it from the previous post-jump state and the firing time; only
the post-jump state, made by the response function, carries what the flow
cannot.  Only firing 0 can fire from its segment's start, a start x0 on
the jump set, whose pre-jump state is x0 itself: a later firing there
would follow the previous one after no flow, and the Zeno guard refuses it
before it is recorded.  The V of the post-jump rows is computed a batch of
about one revolution at a time, beside them, and the stop rule is read off
it; a run still ends at the very firing where the rule first holds.  From
the firings, the final (t, x) and the stop reason the HybridArc's samples,
indexed by (t, j), are derived: the post-jump rows are copied with their
V, and every other row is flowed from its segment's start in one pass of
bounded row blocks, with its V computed on the block just made, so a run
computes each sample's V once.  The arc keeps the (time, firers, branch)
list as its firing table, builds JumpEvents from it and their rows only
when arc.events is read, and reads the hybrid time domain off the
samples.  An arc thus holds each state once; its jump rows and the
Vtilde of its samples are computed on first read and cached for every
later reader, as V is for an arc that no run made.
Runs are deterministic given the configuration, including the seed that
resolves set-valued jumps.
"""

from __future__ import annotations

import contextlib
import functools
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import analysis, circle, model
from .circle import TWO_PI, as_phases, check_number, check_numbers
from .model import ALL_ZERO, ENUMERATE, FIRING_TOL, PhaseResponse, check_policy

FLOW = "flow"
PRE_JUMP = "pre-jump"
POST_JUMP = "post-jump"
_KINDS = (FLOW, PRE_JUMP, POST_JUMP)
#: the event field of a trajectory CSV row as parsed: one character wider
#: than the longest kind, so that no value truncated to it equals a kind
_KIND_FIELD = f"U{max(map(len, _KINDS)) + 1}"
#: about the most cells a CSV writer formats, and the most characters the
#: trajectory reader splits into lines, at a time: a block's arrays and
#: strings stay small however long the arc, where a whole file's would be
#: mapped and unmapped afresh on every call
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
    guard, the least in which a phase below the firing band can reach
    2*pi: FIRING_TOL / (omega + amplitude).  Only a response that lifted
    a listener into the band gives such a dwell, and the execution is
    aborted instead of chattering."""

    def __init__(self, t: float, j: int, dwell: float, guard: float):
        super().__init__(f"dwell {dwell!r} s between jumps {j - 1} and {j} at t={t!r} "
                         f"is below the guard {guard!r} s")
        self.t = t
        self.j = j
        self.dwell = dwell
        self.guard = guard


class HybridTime(NamedTuple):
    """A point (t, j) of a hybrid time domain; tuple order is lexicographic,
    which matches the ordering of hybrid time."""

    t: float
    j: int


@dataclass(frozen=True)
class Perturbation:
    """Additive rate disturbance d(t) applied to every oscillator: the
    sinusoid amplitude * sin(frequency * t + offsets[i]) unless func is set.
    Perturbation() is nominal.  amplitude is the per-coordinate sup of
    |d_i(t)|, exact for the sinusoid and declared for a func; below omega it
    brackets each crossing, every phase rising at a rate within omega -/+
    amplitude.  It must be finite and nonnegative, the frequency and offsets
    finite; each is stored as a float, the offsets as a tuple of them."""

    amplitude: float = 0.0
    frequency: float = 0.5
    offsets: tuple[float, ...] | None = None
    func: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if self.offsets is not None and np.ndim(self.offsets) != 1:
            raise ValueError(f"offsets must be a sequence of numbers, got {self.offsets!r}")
        for name, rule in (("amplitude", "finite and nonnegative"), ("frequency", "finite")):
            object.__setattr__(self, name, check_number(name, getattr(self, name), rule))
        if self.offsets is not None:  # None: the splay offsets of the run's n
            object.__setattr__(self, "offsets", check_numbers("offsets", self.offsets, "finite"))

    @staticmethod
    def none() -> "Perturbation":
        return Perturbation()

    @staticmethod
    def sinusoidal(amplitude: float, frequency: float = 0.5,
                   offsets=None) -> "Perturbation":
        """d_i(t) = amplitude * sin(frequency * t + offsets[i]), offsets
        2*pi*i/n when None."""
        return Perturbation(amplitude, frequency, offsets)

    @staticmethod
    def custom(func: Callable[[np.ndarray], np.ndarray], bound: float) -> "Perturbation":
        """Arbitrary disturbance: func maps an array of times ts to d at each,
        an array of shape (len(ts), n), every |d_i| within bound, the amplitude.

        Its integral over [t0, t] is taken by one fixed-order Gauss-Legendre
        panel without error control, which is exact to rounding for a func
        that is smooth on the scale of one inter-firing interval; a
        discontinuous func loses accuracy."""
        return Perturbation(bound, func=func)

    @property
    def is_none(self) -> bool:
        return self.func is None and self.amplitude == 0.0

    def _offsets(self, n: int) -> np.ndarray:
        return _splay_offsets(n) if self.offsets is None else np.asarray(self.offsets)

    def sample(self, ts: np.ndarray, n: int) -> np.ndarray:
        """Evaluate d on an array of times; returns shape (len(ts), n).

        A custom func is called once on the whole array and must give that
        shape, every value finite and within the amplitude; ValueError names
        the shape it gave, or the first time at which a value is not finite
        or exceeds the amplitude."""
        ts = np.asarray(ts, dtype=float)
        if self.func is None:
            return _sine_rate(self.amplitude, self.frequency, ts[:, None], self._offsets(n))
        out = np.asarray(self.func(ts), dtype=float)
        if out.shape != (ts.size, n):
            raise ValueError(f"custom disturbance at t={np.array2string(ts, threshold=6)} "
                             f"has shape {out.shape}, not ({ts.size}, {n})")
        bad = np.flatnonzero(~(np.abs(out) <= self.amplitude).all(axis=1))  # NaN included
        if bad.size:
            row = out[bad[0]]
            why = (f"exceeds its bound {self.amplitude!r}" if np.isfinite(row).all()
                   else "is not finite")
            raise ValueError(f"custom disturbance at t={ts[bad[0]].item()!r} {why}: {row!r}")
        return out

    def displacement(self, t0, ts: np.ndarray, n: int) -> np.ndarray:
        """D(t0, t), the integral of d over [t0, t], for an array of times;
        returns shape (len(ts), n).  t0 is one start time for every row, or
        an array with one per row.

        Exact for a sinusoid (_sine_integral), elementwise in (t0, t).  A
        custom disturbance is integrated by one Gauss-Legendre panel over
        [t0, t] per row, so it is elementwise too: each row gets the floats
        of a one-row call with its own t0 and t.
        """
        ts = np.asarray(ts, dtype=float)
        if self.func is None:
            return _sine_integral(self.amplitude, self.frequency, np.asarray(t0)[..., None],
                                  ts[:, None], self._offsets(n))
        unit_nodes, weights = _gauss_legendre()
        mid = 0.5 * (ts + t0)
        half = 0.5 * (ts - t0)
        nodes = mid[:, None] + half[:, None] * unit_nodes[None, :]
        d = self.sample(nodes.ravel(), n).reshape(ts.size, _GAUSS_ORDER, n)
        return half[:, None] * np.einsum("k,mkn->mn", weights, d)

    def _at_coordinates(self, t0: float, ts: list, cand: np.ndarray, n: int) -> tuple[list, list]:
        """D(t0, t) and d(t) of coordinate cand[k] at time ts[k], for each k,
        as two lists of Python floats: entry [k, cand[k]] of
        displacement(t0, ts, n) and of sample(ts, n), bit for bit.  A
        sinusoid is evaluated at those entries alone, by the same functions,
        _sine_integral and _sine_rate, on one float at a time; a custom func
        is called as displacement and sample call it, once each on all of ts."""
        if self.func is not None:
            ts, rows = np.array(ts), np.arange(len(ts))
            return (self.displacement(t0, ts, n)[rows, cand].tolist(),
                    self.sample(ts, n)[rows, cand].tolist())
        amp, freq = self.amplitude, self.frequency
        offs = self._offsets(n)[cand].tolist()
        return ([float(_sine_integral(amp, freq, t0, t, o)) for t, o in zip(ts, offs)],
                [float(_sine_rate(amp, freq, t, o)) for t, o in zip(ts, offs)])


def _sine_rate(amp: float, freq: float, t, o):
    """amp * sin(freq * t + o), elementwise on arrays that broadcast or on floats."""
    return amp * np.sin(freq * t + o)


def _sine_integral(amp: float, freq: float, t0, t, o):
    """The integral of _sine_rate over [t0, t], elementwise as it is: a
    product of sines, so short intervals and small freq lose no digits."""
    if freq == 0.0:
        return amp * np.sin(o) * (t - t0)
    half = 0.5 * freq
    return (2.0 * amp / freq) * np.sin(half * (t + t0) + o) * np.sin(half * (t - t0))


def _read_only(arr: np.ndarray) -> np.ndarray:
    """arr, made read-only: it is cached and handed to every caller."""
    arr.flags.writeable = False
    return arr


@functools.cache
def _splay_offsets(n: int) -> np.ndarray:
    """2*pi*i/n for i < n, a sinusoid's default offsets: one read-only array per n."""
    return _read_only(TWO_PI * np.arange(n) / n)


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the Gauss-Legendre rule on [-1, 1].  Imported on
    first use: numpy.polynomial is not loaded with numpy and would add to
    the start-up time and memory of every run without a custom disturbance."""
    from numpy.polynomial.legendre import leggauss
    return leggauss(_GAUSS_ORDER)


def _check_flow(pert: Perturbation, omega: float, n: int) -> None:
    """One offset per oscillator, and an amplitude below omega (a checked
    positive finite float) so every crossing is bracketed."""
    if pert.offsets is not None and len(pert.offsets) != n:
        raise ValueError(f"perturbation has {len(pert.offsets)} phase offsets for n={n}")
    if not pert.is_none and not pert.amplitude < omega:
        raise ValueError(f"perturbation amplitude {pert.amplitude!r} must stay below "
                         f"omega={omega!r} so phases keep advancing")


def _start(x0) -> np.ndarray:
    """x0 as a phase vector of its own, each entry checked as a float field
    is: numpy alone would take True as 1.0 and "1.0" as its value."""
    entries = x0 if isinstance(x0, np.ndarray) else np.asarray(x0, dtype=object)
    if entries.dtype.kind not in "iuf":
        entries = np.reshape(check_numbers("x0", entries.flat), entries.shape)
    return as_phases(np.array(entries, dtype=float))


#: SimConfig's number fields, each with its kind and range rule (see
#: circle.check_number); stop_v_threshold may also be None
_NUMBERS = {"omega": (float, "positive and finite"), "horizon": (float, "positive"),
            "max_jumps": (int, "at least 1"), "stop_v_threshold": (float, "nonnegative"),
            "seed": (int, "nonnegative"), "sample_dt": (float, "positive")}


@dataclass
class SimConfig:
    """Everything that determines one run, seed included; n is len(x0).
    Every field is checked, each number stored as a Python float or int.
    The firing band and the Zeno guard are not settable: the band is
    model.FIRING_TOL and run derives the guard from it."""

    prc: PhaseResponse
    x0: np.ndarray
    omega: float = 1.0
    perturbation: Perturbation = field(default_factory=Perturbation.none)
    horizon: float = 80.0
    max_jumps: int = 100_000
    stop_v_threshold: float | None = 1e-6
    policy: str = ALL_ZERO
    seed: int = 0
    sample_dt: float = 0.01

    def __post_init__(self):
        for name, kind in (("prc", PhaseResponse), ("perturbation", Perturbation)):
            if not isinstance(getattr(self, name), kind):
                raise ValueError(f"{name} must be a {kind.__name__}, got {getattr(self, name)!r}")
        for name, (kind, rule) in _NUMBERS.items():
            value = getattr(self, name)
            if value is not None or name != "stop_v_threshold":
                setattr(self, name, check_number(name, value, rule, kind))
        self.x0 = _start(self.x0)
        if self.prc.n != self.n:
            raise ValueError(f"response function was built for n={self.prc.n}, "
                             f"run has n={self.n}")
        if not self.horizon / self.sample_dt <= MAX_GRID_POINTS:
            raise ValueError(f"horizon / sample_dt must be at most {MAX_GRID_POINTS}, "
                             f"got {self.horizon / self.sample_dt!r}")
        check_policy(self.policy)
        _check_flow(self.perturbation, self.omega, self.n)

    @property
    def n(self) -> int:
        return self.x0.size


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

    jump_rows, v and vtilde (V and Vtilde of each sample) are computed on
    first read and cached as read-only arrays, so the checks, the studies
    and the CSV writers that read them share one computation per arc; an
    arc's samples are not to be changed once they have been read.  run
    fills v's cache with the V it computed of each row as it made it, so
    only a hand-built, loaded or dataclasses.replace'd arc computes v.
    """

    ts: np.ndarray
    js: np.ndarray
    states: np.ndarray
    kinds: np.ndarray
    firings: list[tuple[float, tuple[int, ...], str]]
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

    @functools.cached_property
    def jump_rows(self) -> np.ndarray:
        """Each jump's pre-jump row, read off kinds; its post-jump row is
        the next one.  A loaded arc has them too, though no firing table.
        ValueError when a pre-jump row is not followed by a post-jump row,
        or when the arc has a firing table and the rows are not one pair
        per firing."""
        pre = np.flatnonzero(self.kinds == PRE_JUMP)
        post = np.flatnonzero(self.kinds == POST_JUMP)
        if self.firings and not pre.size == post.size == len(self.firings):
            raise ValueError(f"arc has {len(self.firings)} events but {pre.size} pre-jump and "
                             f"{post.size} post-jump samples")
        if not np.array_equal(post, pre + 1):
            raise ValueError("arc has a pre-jump sample not followed by its post-jump sample")
        return _read_only(pre)

    @functools.cached_property
    def v(self) -> np.ndarray:
        """V of each sample, analysis.lyapunov of states."""
        return _read_only(analysis.lyapunov(self.states))

    @functools.cached_property
    def vtilde(self) -> np.ndarray:
        """Vtilde of each sample, analysis.vtilde of states."""
        return _read_only(analysis.vtilde(self.states))

    @property
    def events(self) -> list[JumpEvent]:
        """One JumpEvent per firing, built on each read, with pre and post
        read-only views of the firing's rows of states."""
        frozen = self.states.view()
        frozen.flags.writeable = False
        return [JumpEvent(t, j, firers, branch, frozen[row], frozen[row + 1])
                for j, (row, (t, firers, branch))
                in enumerate(zip(self.jump_rows.tolist(), self.firings))]

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


def _flow(x0: np.ndarray, t0, t, omega: float, pert: Perturbation,
          out: np.ndarray | None = None) -> np.ndarray:
    """The exact flow x(t) = x0 + omega * (t - t0) + D(t0, t), D the
    disturbance integral, clamped at 2*pi, written into out (a fresh array
    when None).  A flow that ends at a firing has its firing band set to
    exactly 2*pi by its caller; every value the clamp lowers lies in the
    band, so clamping first changes no float there.

    A scalar t gives the state of shape (n,).  An array of times gives one
    state per time, shape (len(t), n), row i flowing from x0[i] at t0[i];
    a single x0 of shape (n,), or a scalar t0, serves every row."""
    shift = omega * (t - t0)
    # getattr, not np.ndim, which costs more than the add for a Python float
    x = np.add(x0, shift[:, None] if getattr(shift, "ndim", 0) else shift, out=out)
    if not pert.is_none:
        x += pert.displacement(t0, np.atleast_1d(t), x.shape[-1]).reshape(x.shape)
    return np.minimum(x, TWO_PI, out=x)


def _first_crossing(x0: np.ndarray, top: float, t0: float, omega: float, pert: Perturbation,
                    horizon: float, out: np.ndarray | None = None):
    """(t, x, firers) at the first firing of the flow from x0 at t0, or
    (horizon, x, None) when the horizon comes first; top is x0's max, and
    x is written into out (a fresh array when None).

    The located crossing sits within a few ulps of 2*pi, and any coordinate
    that reaches the firing band with it fires too; all are assigned exactly
    2*pi, so the jump map sees an exact firing.  A nominal crossing is x0
    plus the common shift (once the band is set, the floats _flow gives),
    added into out without a call of _flow, as run pays for each firing.

    x0 must be below the band: a crossing takes flow time, and a state on
    the jump set fires where it is.  In a run that is only ever the start,
    at firing 0; a later post state in the band would fire after no flow,
    which the Zeno guard refuses.
    """
    nominal = pert.is_none
    # the bracket of _earliest_root collapses onto this closed form
    t_fire = t0 + (TWO_PI - top) / omega if nominal else _earliest_root(x0, t0, omega, pert)
    if t_fire > horizon:
        return horizon, _flow(x0, t0, horizon, omega, pert, out), None
    if nominal:  # _flow's floats, the common shift alone, without its call per firing
        x = np.add(x0, omega * (t_fire - t0), out=out)
    else:
        x = _flow(x0, t0, t_fire, omega, pert, out)
    firers = (x >= TWO_PI - FIRING_TOL).nonzero()[0]
    x[firers] = TWO_PI
    return t_fire, x, firers


def _earliest_root(x0: np.ndarray, t0: float, omega: float, pert: Perturbation) -> float:
    """Earliest time a coordinate of the flow from x0 at t0 reaches 2*pi,
    by bracketed Newton.

    Each coordinate rises at a rate within omega -/+ amplitude, so its root
    lies in [lo, hi] below; only coordinates whose lo is not past the
    smallest hi can fire first, and these candidates (one to a few) are
    found on the whole state.  Newton then runs on the candidates in
    lockstep, in Python floats: numpy's per-call cost would dwarf the
    arithmetic on so few entries.  Each step evaluates D and d at the
    candidates alone (Perturbation._at_coordinates), moves each bracket to
    the sign of its residual, takes the Newton step or bisects when the
    step leaves the bracket, and stops once every step is within tol.  These
    are the operations of the same solve on numpy arrays, in the same
    order, so the crossing is that solve's float, bit for bit.
    """
    n = x0.size
    rest = TWO_PI - x0
    lo = t0 + rest / (omega + pert.amplitude)
    hi = t0 + rest / (omega - pert.amplitude)
    cand = np.flatnonzero(lo <= hi.min())
    rest, lo, hi = rest[cand], lo[cand], hi[cand]
    t = t0 + rest / omega
    # a few ulps of the time, or of one period near t = 0
    tol = 4.0 * np.spacing(np.maximum(hi, TWO_PI / omega))
    rest, lo, hi, t, tol = rest.tolist(), lo.tolist(), hi.tolist(), t.tolist(), tol.tolist()
    for _ in range(_NEWTON_ITERS):
        disp, rate = pert._at_coordinates(t0, t, cand, n)
        done = True
        for k, t_k in enumerate(t):
            g = omega * (t_k - t0) + disp[k] - rest[k]
            if g < 0.0:
                lo[k] = t_k
            elif g > 0.0:
                hi[k] = t_k
            t_new = t_k - g / (omega + rate[k])
            if not lo[k] <= t_new <= hi[k]:
                t_new = 0.5 * (lo[k] + hi[k])
            done = done and abs(t_new - t_k) <= tol[k]
            t[k] = t_new
        if done:
            return min(t)
    # out of iterations: hi is at or past each root, so a coordinate fires there
    return min(hi)


def flow_to_next_event(x, omega: float, perturbation: Perturbation | None,
                       t0: float, horizon: float = math.inf):
    """Flow from x at t0 until the first phase reaches 2*pi.

    Returns (t_fire, x_at_fire, True) at a crossing, with every coordinate
    in the firing band (model.FIRING_TOL) set exactly to 2*pi, or
    (horizon, x_at_horizon, False) when no phase fires before the horizon.
    x must be in the box with no coordinate already in the band, omega
    positive and finite, t0 finite and the horizon a number not before t0.
    """
    arr = as_phases(x)
    omega = check_number("omega", omega, "positive and finite")
    t0 = check_number("t0", t0, "finite")
    horizon = check_number("horizon", horizon)
    if not horizon >= t0:
        raise ValueError(f"horizon {horizon!r} must not be earlier than t0={t0!r}")
    top = float(arr.max())
    if top >= TWO_PI - FIRING_TOL:
        raise ValueError("flow_to_next_event requires a state strictly below 2*pi")
    pert = perturbation or Perturbation.none()
    _check_flow(pert, omega, arr.size)
    t, x, firers = _first_crossing(arr, top, t0, omega, pert, horizon)
    return t, x, firers is not None


class _Firings:
    """The firings of one run, each written once: (t, firers, branch) in a
    list, and the post state in row i of chunks of whole stop-rule batches,
    about circle._BLOCK_FLOATS // n firings, its V in entry i of an array
    beside each chunk, so no array is ever regrown and no batch straddles
    two chunks.  The pre state is not kept: _sampled_arc flows it from the
    previous post state.  rows() hands out one reused scratch row, which
    the crossing flows into and the jump reads, and the next firing's post
    row, which the jump writes into.  run appends the firing to facts once
    its post row holds the jump's result, and post rows handed out but
    never appended to are left out of the record.

    settle() computes the V of the post rows a batch at a time, once a
    batch of min(n, circle._BLOCK_FLOATS // n) firings is pending (run
    calls it then), and before the run ends, and then reads the stop
    rule (V below stop_v_threshold, held for a full nominal revolution)
    off it when the run has one.  When the rule has held at firing k, the
    firings past k are dropped: the record is the one a check after every
    firing would have left, and at most n - 1 firings run ahead.
    """

    def __init__(self, config: SimConfig):
        self.config = config
        self.facts: list[tuple[float, tuple[int, ...], str]] = []
        self.chunks: list[np.ndarray] = []
        self.v_chunks: list[np.ndarray] = []  # the V of each chunk's post rows
        fits = max(1, circle._BLOCK_FLOATS // config.n)
        self.batch = min(config.n, fits)
        self.per_chunk = fits - fits % self.batch
        self.period = TWO_PI / config.omega
        self.pre = np.empty(config.n)
        self.settled = 0  # firings whose V is computed
        self.hold_since: float | None = None
        self.stopped = False

    def rows(self) -> tuple[np.ndarray, np.ndarray]:
        """The scratch pre row and the next firing's post row, a view of
        its chunk, which is allocated on first use."""
        k, i = divmod(len(self.facts), self.per_chunk)
        if k == len(self.chunks):
            self.chunks.append(np.empty((self.per_chunk, self.config.n)))
            self.v_chunks.append(np.empty(self.per_chunk))
        return self.pre, self.chunks[k][i]

    def post(self, k: int) -> np.ndarray:
        """The post state of firing k, a view of its chunk row."""
        return self.chunks[k // self.per_chunk][k % self.per_chunk]

    def settle(self) -> bool:
        """Compute the V of the pending firings' post rows, which share a
        chunk, and hold the stop rule over them; whether it has fired."""
        lo, hi = self.settled, len(self.facts)
        self.settled = hi
        if self.stopped or lo == hi:
            return self.stopped
        k, at = divmod(lo, self.per_chunk)
        v = self.v_chunks[k][at:at + hi - lo]
        v[...] = analysis._lyapunov(self.chunks[k][at:at + hi - lo])
        threshold = self.config.stop_v_threshold
        if threshold is None:
            return False
        hits = v < threshold
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


#: the firers of a state known to be below the firing band
_NO_FIRERS = np.empty(0, dtype=np.intp)


def run(config: SimConfig) -> HybridArc:
    """Execute the network and record the arc.

    Jumps are taken whenever a phase sits at 2*pi (within the firing band
    model.FIRING_TOL); otherwise the state flows to the next firing or to
    the horizon.  Stops on the horizon, on the jump budget, or once V has
    stayed below stop_v_threshold (unless that is None) for a full nominal
    revolution.  Raises ZenoViolationError when consecutive firings are
    closer than FIRING_TOL / (omega + amplitude), the least flow time in
    which a phase below the band can reach 2*pi: a non-firer ends a firing
    below the band unless the response lifted it there, so only such a
    response makes a shorter dwell.  The guard scales with the time unit,
    so rescaling omega and the times together leaves a run unchanged.

    Each step of the loop is one firing written in place into a _Firings
    record: the crossing flows into the scratch pre row it hands out, the
    jump writes into the post row, and (t, firers, branch) is appended to
    the record's list; no state is built elsewhere and copied in, and the
    pre row is rebuilt from the flow when the samples are made.  The loop
    reads config's fields once, checks the Zeno guard against the last
    firing's time, held in a local, and builds a random generator only
    under 'enumerate', the one policy whose jumps draw.  The stop rule is
    evaluated on batches of the post rows, so the loop may run up to n - 1
    firings past the firing at which it holds; the pending firings are
    settled before the loop exits by horizon or jump budget and before any
    exception from the loop is re-raised, and a stop among them ends the
    run there with that firing's post state.  A run thus ends exactly
    where a check after every firing would end it.  _sampled_arc turns the
    record, the final (t, x) and the stop reason into the samples, their
    V and the arc.

    Validation happens at the boundary: SimConfig has checked x0, and
    the post-jump box check keeps every state the loop makes in the box,
    so the loop calls the private kernels behind jump_map and lyapunov
    instead of the re-validating public functions.  A crossing hands over
    its firers.  The box check hands over the post state's max: below the
    firing band it is the next nominal crossing's, and no firer scan runs;
    otherwise the post state is scanned for firers.  Under 'enumerate'
    only the drawn branch is built.  config.x0 is only read.
    """
    x, t, top = config.x0, 0.0, float(config.x0.max())
    omega, pert, horizon = config.omega, config.perturbation, config.horizon
    prc, policy, max_jumps = config.prc, config.policy, config.max_jumps
    # only an 'enumerate' jump draws, and a generator costs about a firing to build
    rng = np.random.default_rng(config.seed) if policy == ENUMERATE else None
    record = _Firings(config)
    facts, batch = record.facts, record.batch
    fire_at = TWO_PI - FIRING_TOL
    guard = FIRING_TOL / (omega + pert.amplitude)

    last = -math.inf  # the time of the last firing
    on_jump = False  # whether x is the post state of the last firing
    firers = (x >= fire_at).nonzero()[0]
    try:
        while True:
            pre, post = record.rows()
            if firers.size:  # x, the start or the last post state, is on the jump set
                pre[...] = x
            else:
                t, x, firers = _first_crossing(x, top, t, omega, pert, horizon, out=pre)
                on_jump = False
                if firers is None:
                    stop_reason = "horizon"
                    break
            if len(facts) >= max_jumps:
                stop_reason = "max-jumps"
                break
            if t - last < guard:
                raise ZenoViolationError(t, len(facts) + 1, t - last, guard)
            label, _, top = model._jump(pre, firers, prc, policy, rng, out=post)[0]
            facts.append((t, tuple(firers.tolist()), label))
            last, x, on_jump = t, post, True
            firers = _NO_FIRERS if top < fire_at else (x >= fire_at).nonzero()[0]
            if not len(facts) % batch and record.settle():
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
    return _sampled_arc(config, facts, record.chunks, record.v_chunks, t, x, on_jump,
                        stop_reason)


def _sampled_arc(config: SimConfig, firings: list, chunks: list, v_chunks: list,
                 t_end: float, x_end: np.ndarray, on_jump: bool,
                 stop_reason: str) -> HybridArc:
    """The arc of a run, its samples and their V derived in one pass from
    its firings (t, firers, branch), the chunks that hold their post states
    in consecutive rows and the arrays that hold those states' V, its final
    time and state (on_jump when that state is the last firing's post
    state), and the global grid k * sample_dt.

    Segment k runs from firing k - 1 (x0 at t = 0 for k = 0) to firing k
    (t_end for the last).  Its rows, at j = k: its start ('flow' at t = 0
    unless x0 is on the jump set, else 'post-jump'), its exact flow on the
    grid strictly inside it, and its end ('pre-jump', or a last 'flow' row
    unless the run ended on a jump).  One int8 code per row, an index into
    the three names, gives the kinds, the rows to flow and the rows whose
    firing band is set.  Each chunk's post rows and their V are copied and
    the chunk dropped.  Every other row but the first, x0 (a flow by 0 s
    would turn -0.0 into 0.0), and the last, x_end (which carries the band
    after a crossing cut by max_jumps), is then its segment's start row
    flowed to its own time, in bounded row blocks: the grid rows, then the
    pre-jump rows, whose band is set to exactly 2*pi as the loop set it.
    For x0 on the jump set the first row is firing 0's pre-jump row; a
    later firing at its segment's start would have had zero dwell, which
    the loop refuses.  Each block's V is computed before it is scattered,
    as is that of the first row and of a last flow row; the V of every row
    fills the arc's cached v.
    """
    m, dt = len(firings), config.sample_dt
    starts = np.array([0.0] + [t for t, _, _ in firings])
    ends = np.append(starts[1:], t_end)
    # grid indices strictly inside each segment, to within 1e-9 of a step
    k0 = np.floor(starts / dt + 1e-9).astype(int) + 1
    counts = np.maximum(np.ceil(ends / dt - 1e-9).astype(int) - k0, 0)
    # rows in each segment's (start, grid, end) pieces
    fire_at = TWO_PI - FIRING_TOL
    reps = np.ones((m + 1, 3), dtype=int)
    reps[:, 1] = counts
    reps[0, 0] = config.x0.max() < fire_at
    reps[-1, 2] = not on_jump
    js = np.repeat(np.arange(m + 1), reps.sum(axis=1))
    reps = reps.ravel()
    piece_at = np.cumsum(reps) - reps
    ts = np.repeat(np.column_stack([starts, starts, ends]).ravel(), reps)
    # each row's kind as an index into _KINDS: post-jump, flow, pre-jump by
    # piece, but flow for the first start and the last end; an arc without
    # firings has flow rows alone, of the dtype of FLOW
    codes = np.tile(np.array([2, 0, 1], dtype=np.int8), m + 1)
    codes[0] = codes[-1] = 0
    codes = np.repeat(codes, reps)
    kinds = np.array(_KINDS[:3 if m else 1])[codes]
    states, v = np.empty((ts.size, config.n)), np.empty(ts.size)
    states[0], states[-1] = config.x0, x_end
    edges = [0, -1] if reps[-1] else [0]
    v[edges] = analysis._lyapunov(states[edges])
    post_rows = piece_at[3::3]  # the start row of each segment after a firing
    done = 0
    while chunks:
        chunk, chunk_v = chunks.pop(0), v_chunks.pop(0)
        rows = post_rows[done:done + chunk.shape[0]]
        states[rows], v[rows] = chunk[:rows.size], chunk_v[:rows.size]
        done += rows.size
    seg_start = piece_at[::3]  # x0's row or a post-jump row, made above
    grid_k = k0 - piece_at[1::3]  # a grid row's index on the grid, less the row
    codes[[0, -1]] = 2  # made above, as the post-jump rows are
    flowed = np.flatnonzero(codes == 0)
    grid = flowed.size
    flowed = np.append(flowed, np.flatnonzero(codes == 1))  # grid rows, then pre-jump rows
    for block in circle._row_blocks(0, flowed.size, config.n):
        at = flowed[block]
        seg = js[at]
        g = max(grid - block.start, 0)  # the block's grid rows, before its pre-jump rows
        t = ends[seg]
        t[:g] = dt * (grid_k[seg[:g]] + at[:g])
        x = _flow(states[seg_start[seg]], starts[seg], t, config.omega, config.perturbation)
        pre = x[g:]
        pre[pre >= fire_at] = TWO_PI
        ts[at], states[at], v[at] = t, x, analysis._lyapunov(x)
    arc = HybridArc(ts=ts, js=js, states=states, kinds=kinds, firings=firings,
                    perturbed=not config.perturbation.is_none, stop_reason=stop_reason)
    vars(arc)["v"] = _read_only(v)  # the cache of HybridArc.v
    return arc


# -- CSV persistence ---------------------------------------------------------
#
# Trajectory schema: t,j,x_1..x_n,V,Vtilde,event   (event in flow|pre-jump|post-jump)
# Events schema:     t,j,firers,branch,pre_1..pre_n,post_1..post_n
#
# Every float cell holds the bytes of repr(float(v)), so rereading
# reproduces the value bit for bit and rerunning the same configuration
# reproduces the file byte for byte.  The writers format all the floats of
# a block of rows in one _float_cells call and write the block's bytes at
# once.  V and Vtilde are the arc's cached arc.v and arc.vtilde; they are
# constant between nominal firings only in exact arithmetic (flowed phases
# round), so they, j and the event kind are formatted once per run of
# equal values (of equal bit patterns for floats) and repeated.
# Both writers are one block pass, _write_arc: an events row is the cells
# of a firing's pre-jump row and the post-jump row after it, which one
# block always holds together, so the same float gives the same cell in
# both files, formatted once.  _write_csvs writes the blocks of one file
# or two through binary handles, so lines end in LF on every platform, and
# removes every file it opened when a write fails.

#: 10**k for k = 0..20, exact (10**22 is the largest power of ten a double
#: holds), and its Veltkamp halves of at most 26 significant bits each
_TENS = np.cumprod(np.full(21, 10.0)) / 10.0
_TENS_HI = _TENS * 134217729.0 - (_TENS * 134217729.0 - _TENS)
_TENS_LO = _TENS - _TENS_HI
#: 10**p for p = -4..17 at index p + 4; repr writes 1e-4 <= |x| < 1e16 in
#: fixed notation
_DECADES = np.concatenate((1.0 / _TENS[4:0:-1], _TENS[:18]))
#: bytes per float cell: no repr of a float64 is longer
_CELL = 24


def _words(table) -> np.ndarray:
    """Rows of bytes as rows of 8-byte words, for bitwise work on bytes."""
    table = np.ascontiguousarray(table, dtype=np.uint8)
    return table.reshape(-1, table.shape[-1]).view(np.uint64)


def _quad_tables() -> tuple[np.ndarray, np.ndarray]:
    """The ASCII of each 4-digit group 0000..9999 as one 4-byte word, and
    the group's trailing zeros (4 for 0000)."""
    quads = np.arange(10_000)
    ascii_ = np.zeros((10_000, 4), np.uint8)
    zeros = np.zeros(10_000, np.int8)
    for place in range(4):
        ascii_[:, 3 - place] = quads // 10 ** place % 10 + 48
        zeros += quads % 10 ** (place + 1) == 0
    return ascii_.view(np.uint32)[:, 0], zeros


def _cell_masks() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """As words, by sign * 25 + point: 0xFF over the digits before the
    point, bytes [sign, point), and the marks, '-' at 0 when negative and
    '.' at the point; by point * 25 + end: 0xFF over the digits after the
    point, bytes (point, end)."""
    col, sign, point = np.arange(_CELL), np.arange(2)[:, None, None], np.arange(25)[:, None]
    before = (col >= sign) & (col < point)
    marks = np.where(col == point, 46, np.where(col < sign, 45, 0))
    after = (col > point[:, None]) & (col < point)
    return (_words(before.reshape(50, _CELL) * 255), _words(marks.reshape(50, _CELL)),
            _words(after.reshape(625, _CELL) * 255))


_QUAD_ASCII, _QUAD_ZEROS = _quad_tables()
_INT_MASK, _MARKS, _FRAC_MASK = _cell_masks()
#: the cells of 0.0 and -0.0
_ZEROS = _words(np.array([b"0.0", b"-0.0"], dtype=f"S{_CELL}").view(np.uint8).reshape(2, _CELL))


def _float_cells(values) -> np.ndarray:
    """(m, _CELL) uint8: row i holds the ASCII of repr(float(values[i])),
    padded with NULs.

    repr writes the shortest digits that read back as the value, the
    nearest to it among them, in fixed notation for 1e-4 <= |x| < 1e16.
    There _shortest_digits finds them with exact arithmetic and
    _fixed_notation lays them out.  What the exact test cannot certify is
    left to repr itself, value by value: a value on the edge of its
    rounding interval or midway between two candidates, a power of two
    (whose interval is lopsided), a magnitude repr writes with an exponent,
    inf and nan.  Zeros are written directly.
    """
    x = np.asarray(values, dtype=float).ravel()
    if not x.size:
        return np.zeros((0, _CELL), np.uint8)
    a = np.abs(x)
    certain = (a >= _DECADES[0]) & (a < 1e16)
    np.copyto(a, 1.0, where=~certain)  # a stand-in for the values left to repr
    p, w = _shortest_digits(a, certain)
    sign = np.signbit(x).astype(np.intp)
    cells = _fixed_notation(sign, p, w).view(np.uint8)
    zero = x == 0
    slow = np.flatnonzero(~(certain | zero))
    zero = np.flatnonzero(zero)
    if zero.size:
        cells[zero] = _ZEROS[sign[zero]].view(np.uint8)
    if slow.size:
        cells[slow] = np.array([repr(v) for v in x[slow].tolist()], f"S{_CELL}").view(
            np.uint8).reshape(-1, _CELL)
    return cells


def _shortest_digits(a: np.ndarray, certain: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The decade p of each a in [1e-4, 1e16), 10**p <= a < 10**(p + 1),
    and repr's digits of a as an integer w of 17 digits, padded with zeros;
    certain is cleared where the test below cannot decide.

    a * 10**k, k = 16 - p, is y + frac exactly (_times_power_of_ten).
    Rounded to 15, 16 or 17 digits it reads back as a when it stays within
    half of a's ulp, scaled by 10**k (exact: a power of two times 10**k),
    and the fewest digits that do win (Adams, Ryu, PLDI 2018).  Each test
    compares frac with a bound computed without rounding.  At most one
    15-digit candidate fits the interval, and the nearest 16- or 17-digit
    one fits whenever any does; a 17-digit one always does.
    """
    mant, e = np.frexp(a)
    # (e - 1) * 78913 >> 18 is floor((e - 1) * log10(2)) here, p or p - 1.
    # The double nearest 10**p lies on it or above it, so comparing with it
    # gives p exactly, and no rounding reaches 10**(p + 1) below it.
    p = ((e - 1) * 78913 >> 18).astype(np.intp)
    p += a >= _DECADES.take(p + 5)
    k = 16 - p
    y, frac = _times_power_of_ten(a, k)
    half = np.ldexp(_TENS.take(k), e - 54)
    r100 = y - y // 100 * 100
    r10 = r100 % 10
    # y + frac is within half of a multiple of 100 (of 10) iff frac lies
    # below half - r or above (100 - r) - half
    r100f, r10f = r100.astype(float), r10.astype(float)
    below15, above15 = half - r100f, (100.0 - r100f) - half
    below16, above16 = half - r10f, (10.0 - r10f) - half
    in15 = (frac < below15) | (frac > above15)
    in16 = (frac < below16) | (frac > above16)
    # powers of two, ties and values on an interval edge go to repr
    certain &= (mant != 0.5) & (frac != 0.5) & ((frac != 0) | (r10 != 5))
    certain &= (frac != below15) & (frac != above15) & (frac != below16) & (frac != above16)
    w = np.where(in15, y - r100 + 100 * (r100 >= 50),
                 np.where(in16, y - r10 + 10 * (r10 >= 5), y + (frac > 0.5)))
    return p, w


def _times_power_of_ten(a: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The integer y and the fraction frac with a * 10**k = y + frac
    exactly, for a * 10**k in [1e16, 1e17).

    10**k is exact, and Dekker's product (Numer. Math. 18, 1971) gives
    a * 10**k = hi + lo exactly from the Veltkamp halves of a and 10**k.
    hi >= 1e16 > 2**53 is an integer, so y = hi + floor(lo) and frac =
    lo - floor(lo) are exact."""
    ten, ten_hi, ten_lo = _TENS.take(k), _TENS_HI.take(k), _TENS_LO.take(k)
    hi = a * ten
    split = a * 134217729.0  # 2**27 + 1
    a_hi = split - (split - a)
    a_lo = a - a_hi
    lo = ((a_hi * ten_hi - hi) + a_hi * ten_lo + a_lo * ten_hi) + a_lo * ten_lo
    whole = np.floor(lo)
    return hi.astype(np.int64) + whole.astype(np.int64), lo - whole


def _fixed_notation(sign: np.ndarray, p: np.ndarray, w: np.ndarray) -> np.ndarray:
    """(m, 3) words: the cells of the values with the given signs, decades
    and 17-digit integers of digits, laid out as repr's fixed notation.

    A cell is the sign, the digits before the point (one '0' when p < 0),
    '.', the -p - 1 zeros after it when p < 0, then the digits to the last
    nonzero one, or one '0'.  Each value's digit row holds '0's and then
    its 17 digits from byte 7 on; the cell's bytes before the point are the
    row's from byte 7 - sign - lead on, those after it from one byte
    earlier, and masks cut both."""
    m = w.size
    digits, tail = _digit_rows(w)
    lead = np.maximum(-p, 0)
    point = sign + np.maximum(p + 1, 1)
    end = np.maximum(sign + lead + 17 - tail, point + 1) + 1
    # every run of _CELL bytes of the digit rows, as one record
    flat = digits.view(np.uint8).ravel()
    windows = np.ndarray((flat.size - _CELL + 1,), f"V{_CELL}", flat, strides=(1,))
    start = np.arange(7, 32 * m, 32) - sign - lead
    at_point = sign * 25 + point
    cells = windows[start].view(np.uint64).reshape(m, 3)
    cells &= _INT_MASK.take(at_point, axis=0)
    after = windows[start - 1].view(np.uint64).reshape(m, 3)
    after &= _FRAC_MASK.take(point * 25 + end, axis=0)
    cells |= after
    cells |= _MARKS.take(at_point, axis=0)
    return cells


def _digit_rows(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(m, 8) uint32 rows of ASCII, '0000', '000', the 17 digits of w and
    '00000000', and the number of trailing zeros of w."""
    top = w // 10**8
    low = w - top * 10**8
    g0 = top // 10**8
    top -= g0 * 10**8
    g1 = top // 10**4
    g2 = top - g1 * 10**4
    g3 = low // 10**4
    g4 = low - g3 * 10**4
    digits = np.full((w.size, 8), _QUAD_ASCII[0])
    for col, group in enumerate((g0, g1, g2, g3, g4), start=1):
        digits[:, col] = _QUAD_ASCII.take(group)
    tail = _QUAD_ZEROS.take(g4) + (g4 == 0) * (_QUAD_ZEROS.take(g3) + (g3 == 0) * (
        _QUAD_ZEROS.take(g2) + (g2 == 0) * _QUAD_ZEROS.take(g1)))
    return digits, tail


def _runs(col: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The first entry of each run of equal entries in a column (floats by
    bit pattern, so -0.0 and 0.0 apart) and the runs' lengths."""
    same = col.view(np.int64) if col.dtype.kind == "f" else col
    starts = np.ones(col.size, dtype=bool)
    starts[1:] = same[1:] != same[:-1]
    starts = np.flatnonzero(starts)
    return col[starts], np.diff(starts, append=col.size)


def _text_cells(strings) -> np.ndarray:
    """(m, 1, width) uint8: the ASCII of each string, padded with NULs."""
    text = np.array(list(strings), dtype="S")
    return text.view(np.uint8).reshape(text.size, 1, text.itemsize)


def write_trajectory_csv(arc: HybridArc, path, events=None) -> None:
    """Write the sampled arc with V and Vtilde per sample (arc.v and
    arc.vtilde), one row each, and, when events is a path, the events CSV
    there in the same block pass."""
    _write_arc(arc, path, events)


def write_events_csv(arc: HybridArc, path) -> None:
    """Write one row per firing: t, j, firers, branch, pre and post state,
    t and pre from the firing's pre-jump row and post from the row after
    it.  An arc with jump rows but no firing table (a loaded arc) raises
    ValueError and writes nothing."""
    _write_arc(arc, None, path)


def _write_arc(arc: HybridArc, trajectory, events) -> None:
    """Write the trajectory CSV to trajectory and the events CSV to events,
    each when it is not None, in one pass over blocks of rows: slices of
    the arc's rows with a trajectory, else runs of the firings' pre-jump
    rows, each with the post-jump row after it.  A block's t, phases and
    the first trajectory V and Vtilde of each run of equal bit patterns
    are formatted in one _float_cells call; j and the event kind once per
    run.  An events row takes t and pre from its pre-jump row's cells and
    post from the next row's, so a block never ends on a pre-jump row.
    ValueError, before any file is opened, for events of an arc whose
    samples hold jumps but which has no firing table (a loaded arc)."""
    n = arc.n
    names = ["t", "j", *(f"x_{i + 1}" for i in range(n)), "V", "Vtilde", "event"]
    step = max(1, _CSV_CELLS // len(names))
    pre_rows = np.empty(0, dtype=np.intp) if events is None else arc.jump_rows
    if pre_rows.size and not arc.firings:
        raise ValueError(f"arc has {pre_rows.size} jumps in its samples but no firing table "
                         "to write events from")
    tables, size = [(trajectory, names)], arc.ts.size
    if trajectory is None:  # each firing's two rows, pre_rows their places in rows_of
        rows_of = np.stack((pre_rows, pre_rows + 1), axis=1).ravel()
        tables, size, pre_rows = [], rows_of.size, np.arange(0, rows_of.size, 2)
    if events is not None:
        tables.append((events, ["t", "j", "firers", "branch", *(f"pre_{i + 1}" for i in range(n)),
                                *(f"post_{i + 1}" for i in range(n))]))

    def blocks():
        lo = fired = 0  # the block's first row, and its first firing
        while lo < size:
            hi = min(lo + step, size)
            end = int(np.searchsorted(pre_rows, hi))  # the firings up to the block's end
            if end and pre_rows[end - 1] == hi - 1:
                hi += 1  # the post-jump row goes with its pre-jump row
            rows = slice(lo, hi) if trajectory is not None else rows_of[lo:hi]
            ts = arc.ts[rows]
            floats = [ts, arc.states[rows].ravel()]
            if trajectory is not None:
                (v_at, v_len), (vt_at, vt_len) = _runs(arc.v[rows]), _runs(arc.vtilde[rows])
                floats += [v_at, vt_at]
            t_cells, x_cells, *v_cells = np.split(
                _float_cells(np.concatenate(floats))[:, None],
                np.cumsum([part.size for part in floats[:-1]]))
            x_cells = x_cells.reshape(ts.size, n, _CELL)
            block = []
            if trajectory is not None:
                (j_at, j_len), (kind_at, kind_len) = _runs(arc.js[rows]), _runs(arc.kinds[rows])
                block.append([t_cells, np.repeat(_text_cells(map(str, j_at.tolist())), j_len, 0),
                              x_cells, np.repeat(v_cells[0], v_len, axis=0),
                              np.repeat(v_cells[1], vt_len, axis=0),
                              np.repeat(_text_cells(kind_at.tolist()), kind_len, axis=0)])
            if events is not None:
                at, table = pre_rows[fired:end] - lo, arc.firings[fired:end]
                block.append([t_cells[at], _text_cells(map(str, range(fired, end))),
                              _text_cells(";".join(map(str, firers)) for _, firers, _ in table),
                              _text_cells(branch for _, _, branch in table),
                              x_cells[at], x_cells[at + 1]])
            lo, fired = hi, end
            yield block
    _write_csvs(tables, blocks())


def _write_csvs(tables: list, blocks) -> None:
    """Write each (path, names) of tables, the header and then the rows a
    block at a time, through a binary handle.  Each of blocks holds, for
    each table, the cells of its block's rows as (rows, k, width)
    NUL-padded bytes for k consecutive columns; they fill one byte matrix
    with a ',' after each cell and a newline after the last, whose non-NUL
    bytes are written at once.  When anything fails, an interrupt too,
    every file opened is removed before the error goes on, so a failed
    write leaves no partial CSV."""
    opened = []
    try:
        with contextlib.ExitStack() as stack:
            files = []
            for path, names in tables:
                files.append(stack.enter_context(open(path, "wb")))
                opened.append(path)
                files[-1].write(",".join(names).encode() + b"\n")
            for block in blocks:
                for f, parts in zip(files, block):
                    f.write(_csv_lines(parts))
    except BaseException:
        for path in opened:
            Path(path).unlink(missing_ok=True)
        raise


def _csv_lines(parts: list) -> np.ndarray:
    """The bytes of the rows whose cells parts holds (see _write_csvs)."""
    widths = [part.shape[1] * (part.shape[2] + 1) for part in parts]
    lines = np.empty((parts[0].shape[0], sum(widths)), np.uint8)
    for part, at, width in zip(parts, np.cumsum([0, *widths]).tolist(), widths):
        cells = lines[:, at:at + width].reshape(part.shape[:2] + (part.shape[2] + 1,))
        cells[:, :, :-1] = part
        cells[:, :, -1] = ord(",")
    lines[:, -1] = ord("\n")
    lines = lines.ravel()
    return lines[lines != 0]  # boolean indexing: faster than compress on bytes


def read_trajectory_csv(path) -> HybridArc:
    """Rebuild an arc from a trajectory CSV (samples only; the firing table
    is empty and flow metadata is unknown).  The file does not record the
    disturbance, so the arc has perturbed=False: verify_monotone judges a
    loaded perturbed arc as a nominal one, and its flow checks fail where
    the run's arc was judged informational.

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
                     firings=[], perturbed=False, stop_reason="loaded")


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
