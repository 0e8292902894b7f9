"""Built-in response functions.

The shipped family is piecewise linear: identically zero up to the sector
corner 2*pi*(n-1)/n and a straight pull-back with slope -c above it, so a
phase z above the corner moves to corner + (1-c)*(z - corner).  Any
c in (0, 1) passes validation.  A catalog of deliberately broken functions
is included for negative tests, plus an interpolated form loadable from a
breakpoint table.
"""

from __future__ import annotations

import dataclasses
import functools
from pathlib import Path

import numpy as np

from .circle import TWO_PI, check_number, splay_arc_length
from .model import PhaseResponse, validate_prc

REFERENCE_SLOPE = 0.7


def piecewise_linear(n: int, c: float, name: str | None = None) -> PhaseResponse:
    """Raw piecewise-linear response with slope -c above the corner.

    No range check on c and no validation report: this is the constructor
    used for negative tests and for probing arbitrary slopes.  Use
    linear_family for the checked version.  n must be an integer of at
    least 2 and c finite (circle.check_number).
    """
    n = check_number("n", n, "at least 2", int)
    corner = splay_arc_length(n)
    c = check_number("c", c, "finite")

    def q(z):
        z = np.asarray(z, dtype=float)
        return c * np.minimum(corner - z, 0.0)

    return PhaseResponse(name=name or f"linear:{c:g}", func=q, n=n)


def linear_family(n: int, c: float, grid: int = 100_000) -> PhaseResponse:
    """Validated piecewise-linear response; requires 0 < c < 1 strictly.

    Validation samples the response on `grid` points, which costs more
    than a short run, so results are cached (the last 256 distinct
    (n, c, grid)): a repeated one is validated once per process.  The
    returned descriptor is frozen and shared between callers.  n must be an
    integer of at least 2, c a number and grid an integer
    (circle.check_number), checked before the cache is asked, so a value
    that equals a cached key, such as 3.0 for 3, is refused as it would be
    on a miss, while np.int64(3) finds the entry of 3.
    """
    c = check_number("c", c)
    if not 0.0 < c < 1.0:
        raise ValueError(f"slope parameter must satisfy 0 < c < 1, got {c!r}")
    return _validated_linear(check_number("n", n, "at least 2", int), c,
                             check_number("grid", grid, kind=int))


@functools.lru_cache(maxsize=256)
def _validated_linear(n: int, c: float, grid: int) -> PhaseResponse:
    """The validated response linear_family and prc_from_spec build, cached."""
    prc = piecewise_linear(n, c)
    return dataclasses.replace(prc, validation=validate_prc(prc.func, n, grid=grid))


def paper_prc(n: int = 3) -> PhaseResponse:
    """The reference instance of the linear family, slope c = 7/10, for an
    integer n of at least 2."""
    return dataclasses.replace(linear_family(n, REFERENCE_SLOPE), name="paper")


def table_prc(zs, qs, n: int, name: str = "table") -> PhaseResponse:
    """Response interpolated linearly from breakpoints (zs, qs).

    Breakpoints must be finite, strictly increasing and span [0, 2*pi]
    (endpoints within 1e-9, then snapped exactly).  A validation report is
    attached; construction does not require it to pass.
    """
    zs = np.asarray(zs, dtype=float)
    qs = np.asarray(qs, dtype=float)
    if zs.ndim != 1 or zs.shape != qs.shape or zs.size < 2:
        raise ValueError("breakpoint table needs matching 1-D z and q columns, length >= 2")
    finite = np.isfinite(zs) & np.isfinite(qs)
    if not finite.all():
        k = int(np.argmin(finite))
        raise ValueError(f"breakpoint {k} is not finite: ({zs[k].item()!r}, {qs[k].item()!r})")
    if np.any(np.diff(zs) <= 0.0):
        raise ValueError("breakpoint phases must be strictly increasing")
    if abs(zs[0]) > 1e-9 or abs(zs[-1] - TWO_PI) > 1e-9:
        raise ValueError("breakpoints must span [0, 2*pi]")
    zs = zs.copy()
    zs[0] = 0.0
    zs[-1] = TWO_PI

    def q(z):
        return np.interp(np.asarray(z, dtype=float), zs, qs)

    report = validate_prc(q, n)
    return PhaseResponse(name=name, func=q, n=n, validation=report)


def load_table_prc(path, n: int) -> PhaseResponse:
    """Read a breakpoint table from a two-column CSV file (z, Q(z)).

    Blank lines and lines starting with '#' are skipped; the first other
    row may be a non-numeric header, and a later one raises ValueError.
    """
    rows: list[tuple[float, float]] = []
    text = Path(path).read_text()
    first = True  # no row that is neither blank nor a comment read yet
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise ValueError(f"{path}:{lineno}: expected two comma-separated columns")
        try:
            rows.append((float(parts[0]), float(parts[1])))
        except ValueError:
            if not first:
                raise ValueError(f"{path}:{lineno}: could not parse {line!r}") from None
        first = False
    if len(rows) < 2:
        raise ValueError(f"{path}: breakpoint table needs at least two rows")
    arr = np.asarray(rows, dtype=float)
    return table_prc(arr[:, 0], arr[:, 1], n, name=f"table:{path}")


# -- deliberately broken responses, for negative tests ----------------------

def broken_zero(n: int) -> PhaseResponse:
    """No response at all; firings never separate the phases."""
    n = check_number("n", n, "at least 2", int)
    return PhaseResponse(
        name="broken:zero",
        func=lambda z: np.zeros_like(np.asarray(z, dtype=float)),
        n=n,
    )


def broken_steep(n: int, c: float = 1.5) -> PhaseResponse:
    """Pull-back steeper than the corner allows (c > 1): listeners can be
    thrown past the corner and past each other."""
    return piecewise_linear(n, c, name=f"broken:steep:{c:g}")


def broken_step(n: int) -> PhaseResponse:
    """Discontinuous response: a step drop halfway up the pull-back sector."""
    n = check_number("n", n, "at least 2", int)
    corner = splay_arc_length(n)
    mid = 0.5 * (corner + TWO_PI)

    def q(z):
        z = np.asarray(z, dtype=float)
        return np.where(z <= mid, 0.0, -1.0)

    return PhaseResponse(name="broken:step", func=q, n=n)


BROKEN = {
    "zero": broken_zero,
    "steep": broken_steep,
    "step": broken_step,
}


def prc_from_spec(spec: str, n: int) -> PhaseResponse:
    """Build a response from a selector string.

    Accepted forms: 'paper', 'linear:<c>', 'table:<path>', 'broken:<name>'.
    'linear:<c>' accepts any finite slope and attaches a validation report
    rather than rejecting out-of-range values, so misdesigned responses can
    still be probed from the command line; a repeated slope is validated
    once, as linear_family's are (-0 is read as 0).  Any other spec, a
    non-string included, or an n that is not an integer of at least 2
    raises ValueError.
    """
    n = check_number("n", n, "at least 2", int)
    if not isinstance(spec, str):
        raise ValueError(f"response selector must be a string, got {spec!r}")
    if spec == "paper":
        return paper_prc(n)
    kind, _, arg = spec.partition(":")
    if kind == "linear" and arg:
        try:
            c = check_number("slope", float(arg), "finite")
        except ValueError:  # not a number, or not a finite one
            raise ValueError(f"bad slope in {spec!r}") from None
        # linear_family's cache at its default grid; the key -0.0 is 0.0
        return _validated_linear(n, c + 0.0, 100_000)
    if kind == "table" and arg:
        return load_table_prc(arg, n)
    if kind == "broken" and arg in BROKEN:
        return BROKEN[arg](n)
    raise ValueError(
        f"unknown response selector {spec!r}; expected 'paper', 'linear:<c>', "
        f"'table:<path>' or 'broken:<{'|'.join(BROKEN)}>'"
    )
