"""Circle geometry for phase configurations.

Angles are in radians on the circle of circumference 2*pi, with 0 and
2*pi identified.  A phase configuration is a plain float vector with
entries in the closed interval [0, 2*pi] and at least two entries.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

TWO_PI: float = 2.0 * np.pi

#: check_number's range rules, keyed by the words its message gives them
_RULES: dict[str, Callable[[float], bool]] = {
    "finite": lambda v: -math.inf < v < math.inf, "positive": lambda v: v > 0,
    "positive and finite": lambda v: 0 < v < math.inf, "nonnegative": lambda v: v >= 0,
    "finite and nonnegative": lambda v: 0 <= v < math.inf, "at least 1": lambda v: v >= 1,
    "at least 2": lambda v: v >= 2, "in [0, 2*pi]": lambda v: 0.0 <= v <= TWO_PI}


def check_number(name: str, value, rule: str | None = None, kind: type = float,
                 ok: Callable[[float], bool] | None = None):
    """value as a Python float, or an int when kind is int: the one check of
    every scalar number a public function takes.  A boolean, a string, a
    non-real, a non-integral value for an int and an integer beyond the
    float range raise ValueError('<name>: <value!r> is not a number' or
    'an integer', or what float() says); a value that fails ok, by default
    _RULES[rule], raises ValueError('<name> must be <rule>, got <value!r>')."""
    if isinstance(value, bool) or not isinstance(
            value, numbers.Integral if kind is int else numbers.Real):
        raise ValueError(f"{name}: {value!r} is not {'an integer' if kind is int else 'a number'}")
    try:
        number = float(value)  # an integer beyond the float range overflows
    except OverflowError as exc:
        raise ValueError(f"{name}: {exc}") from None
    number = int(value) if kind is int else number
    if rule is not None and not (ok or _RULES[rule])(number):
        raise ValueError(f"{name} must be {rule}, got {value!r}")
    return number


def check_numbers(name: str, values, rule: str | None = None) -> tuple[float, ...]:
    """check_number on each of values, as a tuple; a rule breach shows all."""
    floats = tuple(check_number(name, v) for v in values)
    if rule is not None and not all(map(_RULES[rule], floats)):
        raise ValueError(f"{name} must be {rule}, got {values!r}")
    return floats


def as_phases(x) -> np.ndarray:
    """Validate and return a phase vector (1-D, n >= 2, entries in [0, 2*pi])."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"phase vector must be 1-D, got shape {arr.shape}")
    if arr.size < 2:
        raise ValueError(f"need at least 2 oscillators, got {arr.size}")
    _check_range(arr)
    return arr


def _in_box(v: np.ndarray) -> bool:
    """Whether every entry lies in [0, 2*pi]; NaN fails both comparisons.
    Two reductions and no temporary; v must not be empty."""
    return bool(v.min() >= 0.0 and v.max() <= TWO_PI)


def _outside(v: np.ndarray) -> np.ndarray:
    """Mask of the entries outside [0, 2*pi], NaN included."""
    return ~((v >= 0.0) & (v <= TWO_PI))


def _check_range(arr: np.ndarray) -> None:
    """Raise naming the first entry of arr outside [0, 2*pi], NaN included;
    the mask is built only once an entry is known to be outside."""
    if arr.size and not _in_box(arr):
        raise ValueError(f"phases must lie in [0, 2*pi], got {arr[_outside(arr)][0].item()!r}")


def _as_phase_batch(x) -> tuple[np.ndarray, bool]:
    """Normalise input to shape (m, n); second value tells whether it was 1-D."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 1:
        return as_phases(arr)[None, :], True
    if arr.ndim != 2:
        raise ValueError(f"expected a vector or a batch of vectors, got shape {arr.shape}")
    if arr.shape[1] < 2:
        raise ValueError(f"need at least 2 oscillators, got {arr.shape[1]}")
    _check_range(arr)
    return arr, False


def geodesic(a: float, b: float) -> float:
    """Geodesic distance between two angles of [0, 2*pi], in [0, pi]."""
    diff = abs(check_number("a", a, "in [0, 2*pi]") - check_number("b", b, "in [0, 2*pi]"))
    return min(diff, TWO_PI - diff)


@dataclass(frozen=True)
class GapProfile:
    """Phases in ascending order and the circular gap after each one.

    gaps[i] is the counterclockwise distance from sorted[i] to its circular
    successor, so the gaps are nonnegative and sum to 2*pi.
    """

    sorted: np.ndarray
    gaps: np.ndarray


def _circular_gaps(srt: np.ndarray) -> np.ndarray:
    """Gap after each phase of a sorted vector or row-sorted (m, n) batch,
    wrap-around last."""
    gaps = np.empty_like(srt)
    np.subtract(srt[..., 1:], srt[..., :-1], out=gaps[..., :-1])  # no (m, n - 1) temporary
    gaps[..., -1] = TWO_PI - srt[..., -1] + srt[..., 0]
    return gaps


def gap_profile(x) -> GapProfile:
    """Sorted phases of x together with the circular gaps between neighbours."""
    srt = np.sort(as_phases(x))
    return GapProfile(sorted=srt, gaps=_circular_gaps(srt))


def shortest_arc_length(x):
    """Length of the shortest closed circular arc containing every phase.

    Equals 2*pi minus the largest circular gap between consecutive sorted
    phases.  Accepts a single vector or a batch of shape (m, n); returns a
    float or an array of m floats accordingly.
    """
    arr, single = _as_phase_batch(x)
    gamma = _shortest_arc(arr)
    return float(gamma[0]) if single else gamma


def _shortest_arc(arr: np.ndarray):
    """shortest_arc_length of a vector or of each row of a batch, for
    phases already validated."""
    return TWO_PI - _circular_gaps(np.sort(arr, axis=-1)).max(axis=-1)


def shortest_arc_oracle(x):
    """Shortest containing arc found by direct enumeration.

    A shortest containing arc can always be chosen to begin at one of the
    phases, so every phase is tried as the start: the candidate arc sweeps
    counterclockwise to the farthest of the phases, and the minimum over
    starts wins.  Quadratic in n; kept as an independent cross-check for
    shortest_arc_length.
    """
    arr, single = _as_phase_batch(x)
    # offsets[k, i, p] = counterclockwise distance from phase i to phase p
    offsets = (arr[:, None, :] - arr[:, :, None]) % TWO_PI
    gamma = offsets.max(axis=2).min(axis=1)
    return float(gamma[0]) if single else gamma


def min_pairwise_geodesic(x):
    """Smallest geodesic distance between any two phases of x.

    The closest pair is circularly adjacent, so only sorted neighbours need
    checking; each adjacent pair is geodesically min(gap, 2*pi - gap) apart.
    Accepts a single vector or a batch of shape (m, n); returns a float or
    an array of m floats accordingly.
    """
    arr, single = _as_phase_batch(x)
    gaps = _circular_gaps(np.sort(arr, axis=1))
    d = np.min(np.minimum(gaps, TWO_PI - gaps), axis=1)
    return float(d[0]) if single else d


def splay_gap_deviation(x):
    """Largest deviation of the geodesic distances between circularly
    adjacent phases from the splay spacing 2*pi/n; zero exactly on splay
    states.  Near them it brackets the Lyapunov function V, the largest
    gap's excess over 2*pi/n: V <= deviation <= (n-1)*V.  Accepts a single
    vector or a batch of shape (m, n); returns a float or an array of m
    floats accordingly."""
    arr, single = _as_phase_batch(x)
    gaps = _circular_gaps(np.sort(arr, axis=1))
    adjacent = np.minimum(gaps, TWO_PI - gaps)
    dev = np.max(np.abs(adjacent - TWO_PI / arr.shape[1]), axis=1)
    return float(dev[0]) if single else dev


def splay_arc_length(n: int) -> float:
    """Shortest containing arc of n evenly spaced phases: 2*pi*(n-1)/n."""
    if n < 2:
        raise ValueError(f"need at least 2 oscillators, got {n}")
    return TWO_PI * (n - 1) / n
