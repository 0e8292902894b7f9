"""Hybrid model of the all-to-all pulse-coupled network.

State space is the box [0, 2*pi]^n.  Between firings every phase advances
at the common rate; when some phase reaches 2*pi the network jumps: each
firer resets to 0 and every listener is shifted by the response function.
This module holds the set memberships, the (possibly set-valued) jump map,
and the validator that checks a response function against the design
conditions under which the evenly spaced configuration attracts.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .circle import (TWO_PI, _in_box, _outside, as_phases, check_number, min_pairwise_geodesic,
                     splay_arc_length, splay_gap_deviation)

ALL_ZERO = "all-zero"
ENUMERATE = "enumerate"
POLICIES = (ALL_ZERO, ENUMERATE)

#: the firing band: a phase within it of 2*pi fires.  The model's jump set
#: is max_i x_i = 2*pi exactly; the band absorbs the rounding of a located
#: crossing, and every entry point reads this one value
FIRING_TOL = 1e-9
DEFAULT_SPLAY_TOL = 1e-6
DEFAULT_BAD_TOL = 1e-12
#: cap on validate_prc's grid, 10x the default; peak memory is linear in it (40 MiB at the cap)
MAX_VALIDATION_GRID = 1_000_000

# Tolerance for conditions that are exact in real arithmetic (Q == 0 on the
# flat sector, range containment) but evaluated in floating point.
_EXACT_TOL = 1e-12


class InvalidPhaseResponseError(RuntimeError):
    """A reset produced a phase outside [0, 2*pi]."""


@dataclass(frozen=True)
class CheckResult:
    """Outcome of a single validator check; witness is a phase where the
    condition fails (None when it holds everywhere sampled)."""

    name: str
    passed: bool
    witness: float | None = None
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    n: int
    grid: int
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def summary(self) -> str:
        lines = [f"response function checks (n={self.n}, grid={self.grid}):"]
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            line = f"  {c.name:<20} {status}"
            if not c.passed and c.witness is not None:
                line += f"  witness z={c.witness!r}"
            if c.detail:
                line += f"  ({c.detail})"
            lines.append(line)
        return "\n".join(lines)


@dataclass(frozen=True)
class PhaseResponse:
    """A response function descriptor.

    func maps a phase (or array of phases) in [0, 2*pi] to the increment
    added to a listener when another oscillator fires; it must accept numpy
    arrays.  The descriptor is tied to a network size n because the sector
    corner 2*pi*(n-1)/n depends on it.
    """

    name: str
    func: Callable[[np.ndarray], np.ndarray]
    n: int
    validation: ValidationReport | None = None

    def __call__(self, z):
        return self.func(np.asarray(z, dtype=float))

    @property
    def validated(self) -> bool:
        return self.validation is not None and self.validation.passed


@dataclass(frozen=True)
class JumpBranch:
    """One admissible post-firing state.

    firers are the indices at 2*pi before the jump; branch is 'single' for
    a lone firer, 'all-zero' when every simultaneous firer resets, or
    'enumerate:<bits>' with one bit per firer (1 = reset to zero, 0 = treat
    as listener).
    """

    firers: tuple[int, ...]
    branch: str
    post: np.ndarray


def in_flow_set(x) -> bool:
    """Membership in the box [0, 2*pi]^n."""
    return not _outside(np.asarray(x, dtype=float)).any()


def in_jump_set(x) -> bool:
    """True when some phase has reached 2*pi (within FIRING_TOL)."""
    return bool(firing_indices(x).size)


def firing_indices(x) -> np.ndarray:
    """Indices of the phases at 2*pi (within FIRING_TOL)."""
    return np.flatnonzero(as_phases(x) >= TWO_PI - FIRING_TOL)


def check_policy(policy: str) -> None:
    """ValueError unless policy is one of POLICIES."""
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}, expected one of {POLICIES}")


def jump_map(x, prc: PhaseResponse, policy: str = ALL_ZERO) -> list[JumpBranch]:
    """All admissible post-firing states from x.

    A lone firer always resets to 0 while every listener moves to
    z + Q(z); that case yields exactly one branch regardless of policy.
    With m >= 2 simultaneous firers the map is set-valued: each firer may
    either reset or be treated as a listener.  Policy 'all-zero' keeps the
    single branch where every firer resets; 'enumerate' returns all 2**m
    selections in a fixed order (all-reset first).  The firers are the
    phases within FIRING_TOL of 2*pi.

    Raises InvalidPhaseResponseError if any branch leaves the box (a NaN
    response counts as leaving it), which is the runtime symptom of a
    response function violating the range condition.
    """
    arr = as_phases(x)
    check_policy(policy)
    firers = firing_indices(arr)
    if firers.size == 0:
        raise ValueError("jump_map requires at least one phase at 2*pi")
    who = tuple(firers.tolist())
    return [JumpBranch(who, label, post) for label, post, _ in _jump(arr, firers, prc, policy)]


def _jump(arr: np.ndarray, firers: np.ndarray, prc: PhaseResponse, policy: str,
          rng: np.random.Generator | None = None,
          out: np.ndarray | None = None) -> list[tuple[str, np.ndarray, float]]:
    """The jump map from a state in the box whose firers are known.

    Calls the response's func once, writing z + Q(z) into out (a fresh
    array when None; never arr), builds the post states as (branch label,
    post, max of post) and checks the box; arr is not modified.  A response
    that raises TypeError or ValueError, or whose result does not convert
    to floats or broadcast to one increment per phase, raises the
    ValueError validate_prc raises for it.  With one firer or under
    'all-zero' the one branch is out itself.  Every firing of a run takes
    this path, so its box check reads the extremes as out[out.argmax()] and
    out[out.argmin()]: argmax and argmin are direct methods, while max and
    min go through numpy's reduction wrapper, which at the size of a state
    costs more than the reduction itself.  Both return the first NaN, so a
    NaN still fails, and item() gives Python floats, which compare faster
    than numpy scalars.  Under 'enumerate' with m >= 2 firers it returns
    every branch in jump_map's order, each a copy, or with rng one branch
    drawn uniformly among them (_draw_selection) and built alone in out.
    Every branch stays in the box iff every listener does and, under
    'enumerate', every firer kept as a listener does; that takes one O(n)
    check of z + Q(z), and a failure names the first failing branch of
    jump_map's order.
    """
    try:  # arr is a float array already: PhaseResponse.__call__ would only rewrap it
        moved = np.add(arr, np.asarray(prc.func(arr), dtype=float),
                       out=np.empty_like(arr) if out is None else out)
    except (TypeError, ValueError) as exc:
        raise _contract_error(exc) from exc
    m = firers.size
    if m == 1 or policy == ALL_ZERO:
        moved[firers] = 0.0
        label = "single" if m == 1 else ALL_ZERO
        top = moved.item(moved.argmax())
        if not (moved.item(moved.argmin()) >= 0.0 and top <= TWO_PI):
            raise _box_error(moved, label)
        return [(label, moved, top)]
    if not _in_box(moved):
        # a failing listener fails the all-reset branch, which comes first;
        # otherwise the first failure keeps only the last failing firer
        bits = [1] * m
        label, post, _ = _select(moved.copy(), firers, bits)
        if _in_box(post):
            bits[np.flatnonzero(_outside(moved[firers]))[-1]] = 0
            label, post, _ = _select(moved.copy(), firers, bits)
        raise _box_error(post, label)
    if rng is None:
        return [_select(moved.copy(), firers, bits)
                for bits in itertools.product((1, 0), repeat=m)]
    return [_select(moved, firers, _draw_selection(rng, m))]


def _contract_error(exc: Exception) -> ValueError:
    """The error for a response function that does not map an array of
    phases to one increment per phase, naming what it raised."""
    return ValueError("a response function must map an array of phases to an array "
                      f"of one increment per phase: {type(exc).__name__}: {exc}")


def _draw_selection(rng: np.random.Generator, m: int) -> list[int]:
    """Bits of one 'enumerate' branch of an m-firer jump, uniformly drawn.

    While 2**m fits the int64 draw (m <= 63) this is the branch at index
    rng.integers(2**m) of jump_map's order, the draw that picking from the
    full list makes, without building the list.  Beyond that the m bits
    are drawn directly, one rng.integers(2) each.
    """
    if m > 63:
        return rng.integers(2, size=m).tolist()
    k = int(rng.integers(2**m))
    # jump_map's order counts through the selections with 1 before 0
    return [1 - ((k >> (m - 1 - i)) & 1) for i in range(m)]


def _select(post: np.ndarray, firers: np.ndarray, bits) -> tuple[str, np.ndarray, float]:
    """The 'enumerate' branch with one bit per firer (1 = reset to zero),
    built in post, which holds z + Q(z), and its max."""
    post[firers[np.asarray(bits, dtype=bool)]] = 0.0
    return "enumerate:" + "".join(map(str, bits)), post, post.item(post.argmax())


def _box_error(post: np.ndarray, label: str) -> InvalidPhaseResponseError:
    """The error for a branch post that left the box [0, 2*pi], naming the
    branch and its first entry outside (NaN included)."""
    bad = post[_outside(post)][0]
    return InvalidPhaseResponseError(
        f"reset left the box [0, 2*pi]: branch {label!r} produced {bad!r}"
    )


def validate_prc(func, n: int, grid: int = 100_000,
                 lipschitz: float = 10.0) -> ValidationReport:
    """Check a response function against the design conditions.

    The function is sampled on `grid` evenly spaced points of [0, 2*pi]
    plus the exact sector corner.  Checks, each reported with a witness
    phase on failure:

      range        z + Q(z) stays in [0, 2*pi]
      continuity   |Q(z') - Q(z)| <= lipschitz * |z' - z| between neighbours
                   (a sampled surrogate for continuity; it refutes jumps but
                   cannot prove smoothness between grid points)
      reset-at-top Q(2*pi) finite and != 0: no accumulation of firings
      sector-flat  Q == 0 on [0, 2*pi*(n-1)/n]
      sector-pull  2*pi*(n-1)/n - z < Q(z) < 0 strictly above the corner
      monotone     z + Q(z) increasing on the grid, allowing no decrease
                   beyond the 1e-12 exactness floor (an injectivity
                   surrogate: listeners can never swap or merge)

    Sampling can only refute, never prove; integers n >= 2 and 10_000 <=
    grid <= MAX_VALIDATION_GRID and a positive finite lipschitz are
    required so the surrogates are meaningful.  func is called once on the
    array of phases, as a run calls it, and must give one increment per phase.
    """
    n = check_number("n", n, "at least 2", int)
    grid = check_number("grid", grid, f"between 10000 and {MAX_VALIDATION_GRID} points", int,
                        ok=lambda g: 10_000 <= g <= MAX_VALIDATION_GRID)
    lipschitz = check_number("lipschitz", lipschitz, "positive and finite")
    corner = splay_arc_length(n)
    zs = _validation_grid(corner, grid)
    try:
        qs = np.broadcast_to(np.asarray(func(zs), dtype=float), zs.shape)
    except (TypeError, ValueError) as exc:  # a scalar-only body, or a wrong shape
        raise _contract_error(exc) from exc
    moved = zs + qs
    checks: list[CheckResult] = []

    ok = (moved >= -_EXACT_TOL) & (moved <= TWO_PI + _EXACT_TOL)
    checks.append(_check("range", ok, zs, "z + Q(z) must stay in [0, 2*pi]"))

    with np.errstate(invalid="ignore"):  # an infinite response's inf - inf is NaN, and fails
        steps = np.abs(np.diff(qs)) <= lipschitz * np.diff(zs) + _EXACT_TOL
    checks.append(_check("continuity", steps, zs[1:],
                         f"increment bound with constant {lipschitz:g}"))

    q_top = float(qs[-1])
    resets = math.isfinite(q_top) and q_top != 0.0
    checks.append(CheckResult("reset-at-top", resets, None if resets else TWO_PI,
                              f"Q(2*pi)={q_top!r}"))

    flat = zs <= corner
    ok = np.abs(qs[flat]) <= _EXACT_TOL
    checks.append(_check("sector-flat", ok, zs[flat],
                         "Q must vanish at and below the sector corner"))

    above = ~flat
    ok = (qs[above] < 0.0) & (qs[above] > corner - zs[above])
    checks.append(_check("sector-pull", ok, zs[above],
                         "above the corner Q must pull back, not past the corner"))

    with np.errstate(invalid="ignore"):
        ok = np.diff(moved) > -_EXACT_TOL
    checks.append(_check("monotone", ok, zs[1:],
                         "z + Q(z) must be increasing"))

    return ValidationReport(n=n, grid=grid, checks=tuple(checks))


def _validation_grid(corner: float, grid: int) -> np.ndarray:
    """validate_prc's phases: grid evenly spaced points of [0, 2*pi], the
    sector corner inserted in order.  The corner can land on a lattice point
    or within one ulp of one; the later of the two is then left out, so no
    check compares values across rounding noise.  No other pair is that
    close: the lattice's steps are at least 2*pi / MAX_VALIDATION_GRID."""
    zs = np.linspace(0.0, TWO_PI, grid)
    at = int(np.searchsorted(zs, corner))  # zs[at - 1] < corner <= zs[at], as 0 < corner < 2*pi
    if zs[at] - corner <= _EXACT_TOL:
        zs[at] = corner
    elif corner - zs[at - 1] > _EXACT_TOL:
        zs = np.insert(zs, at, corner)
    return zs


def _check(name: str, ok: np.ndarray, zs: np.ndarray, detail: str) -> CheckResult:
    if bool(np.all(ok)):
        return CheckResult(name, True, None, detail)
    witness = float(zs[~ok][0])
    return CheckResult(name, False, witness, detail)


def in_splay_set(x, tol: float = DEFAULT_SPLAY_TOL) -> bool:
    """True iff the phases are evenly spaced: every circularly adjacent pair
    is geodesically 2*pi/n apart, within tol (finite and nonnegative)."""
    return splay_gap_deviation(x) <= check_number("tol", tol, "finite and nonnegative")


def in_bad_set(x, tol: float = DEFAULT_BAD_TOL) -> bool:
    """True iff two phases coincide on the circle (0 identified with 2*pi),
    within tol (finite and nonnegative).

    Coinciding phases listen to each other's firings identically and can
    never separate, so no trajectory from here reaches the splay set.
    """
    return min_pairwise_geodesic(x) <= check_number("tol", tol, "finite and nonnegative")
