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
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .circle import TWO_PI, as_phases, min_pairwise_geodesic, splay_gap_deviation

ALL_ZERO = "all-zero"
ENUMERATE = "enumerate"
POLICIES = (ALL_ZERO, ENUMERATE)

DEFAULT_FIRING_TOL = 1e-9
DEFAULT_SPLAY_TOL = 1e-6
DEFAULT_BAD_TOL = 1e-12

# Tolerance for conditions that are exact in real arithmetic (Q == 0 on the
# flat sector, range containment) but evaluated in floating point.
_EXACT_TOL = 1e-12


class InvalidPhaseResponseError(RuntimeError):
    """A reset produced a phase outside [0, 2*pi]."""


def knee(n: int) -> float:
    """Corner of the response sector, 2*pi*(n-1)/n: phases at or below it
    must be left alone, phases above it must be pulled back."""
    if n < 2:
        raise ValueError(f"need at least 2 oscillators, got {n}")
    return TWO_PI * (n - 1) / n


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
    arr = np.asarray(x, dtype=float)
    return bool(np.all((arr >= 0.0) & (arr <= TWO_PI)))


def in_jump_set(x, tol: float = DEFAULT_FIRING_TOL) -> bool:
    """True when some phase has reached 2*pi (within tol)."""
    arr = as_phases(x)
    return bool(arr.max() >= TWO_PI - tol)


def firing_indices(x, tol: float = DEFAULT_FIRING_TOL) -> np.ndarray:
    """Indices of the phases at 2*pi (within tol)."""
    arr = as_phases(x)
    return np.flatnonzero(arr >= TWO_PI - tol)


def jump_map(x, prc: PhaseResponse, policy: str = ALL_ZERO,
             tol: float = DEFAULT_FIRING_TOL) -> list[JumpBranch]:
    """All admissible post-firing states from x.

    A lone firer always resets to 0 while every listener moves to
    z + Q(z); that case yields exactly one branch regardless of policy.
    With m >= 2 simultaneous firers the map is set-valued: each firer may
    either reset or be treated as a listener.  Policy 'all-zero' keeps the
    single branch where every firer resets; 'enumerate' returns all 2**m
    selections in a fixed order (all-reset first).

    Raises InvalidPhaseResponseError if any branch leaves the box, which is
    the runtime symptom of a response function violating the range
    condition.
    """
    arr = as_phases(x)
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}, expected one of {POLICIES}")
    firers = np.flatnonzero(arr >= TWO_PI - tol)
    if firers.size == 0:
        raise ValueError("jump_map requires at least one phase at 2*pi")
    moved = arr + np.asarray(prc(arr), dtype=float)

    branches: list[JumpBranch] = []
    if firers.size == 1:
        post = moved.copy()
        post[firers[0]] = 0.0
        branches.append(JumpBranch((int(firers[0]),), "single", post))
    elif policy == ALL_ZERO:
        post = moved.copy()
        post[firers] = 0.0
        branches.append(JumpBranch(tuple(int(i) for i in firers), ALL_ZERO, post))
    else:
        for bits in itertools.product((1, 0), repeat=firers.size):
            post = moved.copy()
            for i, bit in zip(firers, bits):
                if bit:
                    post[i] = 0.0
            label = "enumerate:" + "".join(str(b) for b in bits)
            branches.append(JumpBranch(tuple(int(i) for i in firers), label, post))

    for b in branches:
        if not in_flow_set(b.post):
            bad = b.post[(b.post < 0.0) | (b.post > TWO_PI)][0]
            raise InvalidPhaseResponseError(
                f"reset left the box [0, 2*pi]: branch {b.branch!r} produced {bad!r}"
            )
    return branches


def _eval_response(func, zs: np.ndarray) -> np.ndarray:
    """Evaluate a response function on an array, tolerating scalar-only callables."""
    try:
        out = np.asarray(func(zs), dtype=float)
        if out.shape == zs.shape:
            return out
    except (TypeError, ValueError):
        pass
    return np.asarray([float(func(float(z))) for z in zs])


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
      reset-at-top Q(2*pi) != 0, which rules out accumulation of firings
      sector-flat  Q == 0 on [0, 2*pi*(n-1)/n]
      sector-pull  2*pi*(n-1)/n - z < Q(z) < 0 strictly above the corner
      monotone     z + Q(z) increasing on the grid, allowing no decrease
                   beyond the 1e-12 exactness floor (an injectivity
                   surrogate: listeners can never swap or merge)

    Sampling can only refute, never prove; grid >= 10_000 is required so the
    surrogates are meaningful.
    """
    if n < 2:
        raise ValueError(f"need at least 2 oscillators, got {n}")
    if grid < 10_000:
        raise ValueError(f"grid must be at least 10000 points, got {grid}")
    corner = knee(n)
    zs = np.union1d(np.linspace(0.0, TWO_PI, int(grid)), [0.0, corner, TWO_PI])
    # the corner can land within one ulp of a lattice point; collapse any
    # sub-resolution pair so no check compares values across rounding noise
    zs = zs[np.concatenate(([True], np.diff(zs) > _EXACT_TOL))]
    qs = _eval_response(func, zs)
    moved = zs + qs
    checks: list[CheckResult] = []

    ok = (moved >= -_EXACT_TOL) & (moved <= TWO_PI + _EXACT_TOL)
    checks.append(_check("range", ok, zs, "z + Q(z) must stay in [0, 2*pi]"))

    steps = np.abs(np.diff(qs)) <= lipschitz * np.diff(zs) + _EXACT_TOL
    checks.append(_check("continuity", steps, zs[1:],
                         f"increment bound with constant {lipschitz:g}"))

    q_top = float(qs[-1])
    checks.append(CheckResult("reset-at-top", q_top != 0.0,
                              None if q_top != 0.0 else TWO_PI,
                              f"Q(2*pi)={q_top!r}"))

    flat = zs <= corner
    ok = np.abs(qs[flat]) <= _EXACT_TOL
    checks.append(_check("sector-flat", ok, zs[flat],
                         "Q must vanish at and below the sector corner"))

    above = ~flat
    ok = (qs[above] < 0.0) & (qs[above] > corner - zs[above])
    checks.append(_check("sector-pull", ok, zs[above],
                         "above the corner Q must pull back, not past the corner"))

    ok = np.diff(moved) > -_EXACT_TOL
    checks.append(_check("monotone", ok, zs[1:],
                         "z + Q(z) must be increasing"))

    return ValidationReport(n=n, grid=int(grid), checks=tuple(checks))


def _check(name: str, ok: np.ndarray, zs: np.ndarray, detail: str) -> CheckResult:
    if bool(np.all(ok)):
        return CheckResult(name, True, None, detail)
    witness = float(zs[~ok][0])
    return CheckResult(name, False, witness, detail)


def in_splay_set(x, tol: float = DEFAULT_SPLAY_TOL) -> bool:
    """True iff the phases are evenly spaced: every circularly adjacent pair
    is geodesically 2*pi/n apart, within tol."""
    return splay_gap_deviation(x) <= tol


def in_bad_set(x, tol: float = DEFAULT_BAD_TOL) -> bool:
    """True iff two phases coincide on the circle (0 identified with 2*pi).

    Coinciding phases listen to each other's firings identically and can
    never separate, so no trajectory from here reaches the splay set.
    """
    return min_pairwise_geodesic(x) <= tol
