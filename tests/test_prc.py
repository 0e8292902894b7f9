"""Response functions: the shipped linear family, tables, and the broken catalog."""

import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import splaysim.prc
from splaysim.circle import TWO_PI, splay_arc_length
from splaysim.experiments import theorem1_corpus
from splaysim.model import validate_prc
from splaysim.prc import (
    BROKEN,
    broken_steep,
    broken_step,
    broken_zero,
    linear_family,
    load_table_prc,
    paper_prc,
    piecewise_linear,
    prc_from_spec,
    table_prc,
)


def test_reference_response_values():
    prc = paper_prc(3)
    assert prc.name == "paper"
    assert prc.n == 3
    assert prc.validated
    corner = splay_arc_length(3)
    # flat below the corner
    zs = np.linspace(0.0, corner, 50)
    np.testing.assert_array_equal(prc(zs), np.zeros(50))
    # linear pull above it
    assert prc(corner + 0.5) == pytest.approx(-0.35)
    # value at the top of the sector: -0.7 * 2*pi/3
    assert prc(TWO_PI) == pytest.approx(-7 * np.pi / 15, abs=1e-15)


@given(st.floats(0.0, TWO_PI, allow_nan=False))
def test_reference_response_keeps_moved_phase_in_box(z):
    prc = paper_prc(3)
    moved = z + float(prc(z))
    assert 0.0 <= moved <= TWO_PI + 1e-12


def test_reference_response_default_size():
    assert paper_prc().n == 3


@pytest.mark.parametrize("c", [0.1, 0.5, 0.7, 0.99])
@pytest.mark.parametrize("n", [2, 3, 5])
def test_linear_family_validates_for_admissible_slopes(n, c):
    prc = linear_family(n, c, grid=10_000)
    assert prc.validated
    assert prc.validation.passed


@pytest.mark.parametrize("c", [0.0, 1.0, 1.5, -0.3])
def test_linear_family_rejects_out_of_range_slopes(c):
    with pytest.raises(ValueError):
        linear_family(3, c)


def test_each_response_is_validated_once_per_process(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1])
        return validate_prc(*args, **kwargs)

    monkeypatch.setattr(splaysim.prc, "validate_prc", counting)
    splaysim.prc._validated_linear.cache_clear()
    try:
        theorem1_corpus(runs=30)
    finally:
        splaysim.prc._validated_linear.cache_clear()  # drop responses built with the counter
    assert sorted(calls) == [2, 3, 5]
    assert paper_prc(3) == paper_prc(3)


@pytest.mark.parametrize("cached_first", [True, False], ids=["after-3", "fresh"])
def test_linear_family_checks_its_numbers_before_its_cache(monkeypatch, cached_first):
    """3.0 equals the cached key 3 but is refused, as on a fresh process;
    np.int64(3) shares the entry and the one validation of 3."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1])
        return validate_prc(*args, **kwargs)

    monkeypatch.setattr(splaysim.prc, "validate_prc", counting)
    splaysim.prc._validated_linear.cache_clear()
    try:
        if cached_first:
            prc = linear_family(3, 0.5, grid=10_000)
        with pytest.raises(ValueError, match=r"^n: 3\.0 is not an integer$"):
            linear_family(3.0, 0.5, grid=10_000)
        with pytest.raises(ValueError, match=r"^grid: 10000\.0 is not an integer$"):
            linear_family(3, 0.5, grid=10_000.0)
        if not cached_first:
            prc = linear_family(3, 0.5, grid=10_000)
        assert linear_family(np.int64(3), np.float64(0.5), grid=np.int64(10_000)) is prc
    finally:
        splaysim.prc._validated_linear.cache_clear()  # drop responses built with the counter
    assert calls == [3]


def test_raw_constructor_attaches_no_validation():
    prc = piecewise_linear(3, 1.5)
    assert prc.validation is None
    assert not prc.validated
    assert prc.name == "linear:1.5"


@pytest.mark.parametrize("n", [2, 3, 5, 100, 200])
@pytest.mark.parametrize("c", [0.3, 0.7, 0.999, 1.5])
def test_linear_response_is_bitwise_the_two_branch_formula(n, c):
    # Q(z) = 0 up to the corner and -c (z - corner) above it, to the bit:
    # corner - z is exactly -(z - corner), and below the corner c * 0.0 is +0.0
    corner = splay_arc_length(n)
    zs = np.concatenate([np.linspace(0.0, TWO_PI, 100_001),
                         np.nextafter(corner, [-np.inf, np.inf]), [corner, TWO_PI]])
    expected = np.where(zs <= corner, 0.0, -c * (zs - corner))
    assert piecewise_linear(n, c)(zs).tobytes() == expected.tobytes()


def test_moved_phase_is_strictly_increasing_for_the_family():
    prc = linear_family(4, 0.7, grid=10_000)
    zs = np.linspace(0.0, TWO_PI, 20_001)
    moved = zs + prc(zs)
    assert np.all(np.diff(moved) > 0.0)


# -- broken catalog ----------------------------------------------------------

def failing_names(prc):
    return {c.name for c in validate_prc(prc.func, prc.n).failures()}


def test_zero_response_fails_validation():
    fails = failing_names(broken_zero(3))
    assert fails == {"reset-at-top", "sector-pull"}


def test_steep_response_fails_validation():
    fails = failing_names(broken_steep(3))
    assert "sector-pull" in fails
    assert "monotone" in fails


def test_step_response_fails_validation():
    fails = failing_names(broken_step(3))
    assert "continuity" in fails
    assert "monotone" in fails


def test_broken_catalog_is_complete():
    assert set(BROKEN) == {"zero", "steep", "step"}
    for make in BROKEN.values():
        assert not validate_prc(make(3).func, 3).passed


# -- table form --------------------------------------------------------------

def test_table_reproduces_the_linear_family():
    corner = splay_arc_length(3)
    zs = np.array([0.0, corner, TWO_PI])
    qs = np.array([0.0, 0.0, -0.7 * (TWO_PI - corner)])
    prc = table_prc(zs, qs, 3)
    ref = paper_prc(3)
    sample = np.linspace(0.0, TWO_PI, 1001)
    np.testing.assert_allclose(prc(sample), ref(sample), atol=1e-12)
    assert prc.validation.passed


def test_table_requires_increasing_breakpoints_spanning_the_circle():
    with pytest.raises(ValueError):
        table_prc([0.0, 0.0, TWO_PI], [0.0, 0.0, -1.0], 3)
    with pytest.raises(ValueError):
        table_prc([0.1, TWO_PI], [0.0, -1.0], 3)
    with pytest.raises(ValueError):
        table_prc([0.0, TWO_PI - 0.1], [0.0, -1.0], 3)
    with pytest.raises(ValueError):
        table_prc([0.0], [0.0], 3)
    # endpoints within 1e-9 are snapped, not rejected
    prc = table_prc([1e-10, splay_arc_length(3), TWO_PI - 1e-10], [0.0, 0.0, -1.0], 3)
    assert prc(0.0) == 0.0


@pytest.mark.parametrize("zs, qs, named", [
    ([0.0, np.nan, TWO_PI], [0.0, 0.0, -1.0], "breakpoint 1 is not finite: (nan, 0.0)"),
    ([0.0, 4.0, TWO_PI], [0.0, 0.0, -np.inf],
     f"breakpoint 2 is not finite: ({TWO_PI!r}, -inf)"),
    ([0.0, 4.0, np.inf], [np.nan, 0.0, -1.0], "breakpoint 0 is not finite: (0.0, nan)"),
])
def test_table_refuses_a_non_finite_breakpoint(zs, qs, named):
    # a NaN phase compares false, so it passed the strictly-increasing check
    with pytest.raises(ValueError, match=f"^{re.escape(named)}$"):
        table_prc(zs, qs, 3)


@pytest.mark.parametrize("bad", [-np.inf, np.inf, np.nan])
def test_a_non_finite_response_fails_range_without_a_warning(bad):
    # inf - inf in the step checks was a RuntimeWarning, an error in this suite
    report = validate_prc(lambda z: np.where(z > 5.0, bad, 0.0), 3)
    failed = {c.name: c.witness for c in report.failures()}
    assert failed["range"] > 5.0
    assert {"continuity", "monotone", "sector-pull"} <= set(failed)


@pytest.mark.parametrize("top", [np.nan, np.inf, -np.inf])
def test_a_non_finite_response_at_the_top_fails_reset_at_top(top):
    """Q(2*pi) = NaN or inf compares unequal to 0, and once passed."""
    report = validate_prc(lambda z: np.where(z > 5.0, top, 0.0), 3)
    check = next(c for c in report.checks if c.name == "reset-at-top")
    assert not check.passed
    assert check.witness == TWO_PI
    assert check.detail == f"Q(2*pi)={float(top)!r}"


def test_load_table_from_csv(tmp_path):
    corner = splay_arc_length(3)
    path = tmp_path / "resp.csv"
    path.write_text(
        "# comment line\n"
        "z,q\n"
        f"0.0,0.0\n"
        f"{corner!r},0.0\n"
        f"{TWO_PI!r},{-0.7 * (TWO_PI - corner)!r}\n"
        "\n"
    )
    prc = load_table_prc(path, 3)
    ref = paper_prc(3)
    sample = np.linspace(0.0, TWO_PI, 101)
    np.testing.assert_allclose(prc(sample), ref(sample), atol=1e-12)


def test_load_table_rejects_malformed_rows(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0.0,0.0,0.0\n")
    with pytest.raises(ValueError):
        load_table_prc(path, 3)
    path.write_text("z,q\n")
    with pytest.raises(ValueError):
        load_table_prc(path, 3)


@pytest.mark.parametrize("lead", ["", "# comment\n\n"], ids=["first-line", "after-comments"])
def test_load_table_takes_only_the_first_row_as_a_header(tmp_path, lead):
    """The first row that is neither blank nor a comment may be a header;
    a second non-numeric row names its line."""
    path = tmp_path / "bad.csv"
    path.write_text(f"{lead}z,q\nzero,oops\n0.0,0.0\n{TWO_PI!r},-1.0\n")
    lineno = lead.count("\n") + 2
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:{lineno}: "
                                         "could not parse 'zero,oops'$"):
        load_table_prc(path, 3)


# -- selector strings --------------------------------------------------------

def test_selector_strings(tmp_path):
    assert prc_from_spec("paper", 3).name == "paper"
    prc = prc_from_spec("linear:0.5", 3)
    assert prc.validation.passed
    steep = prc_from_spec("linear:1.5", 3)
    assert steep.validation is not None and not steep.validation.passed
    assert prc_from_spec("broken:zero", 3).name == "broken:zero"
    path = tmp_path / "t.csv"
    corner = splay_arc_length(3)
    path.write_text(f"0,0\n{corner!r},0\n{TWO_PI!r},-1.0\n")
    assert prc_from_spec(f"table:{path}", 3).n == 3
    for bad in ("nope", "linear:", "linear:abc", "linear:inf", "linear:nan", "broken:missing",
                "table:", 5, None, ["paper"]):
        with pytest.raises(ValueError):
            prc_from_spec(bad, 3)


@pytest.mark.parametrize("c", ["0.5", "1.5"])
def test_a_linear_selector_is_validated_once(monkeypatch, c):
    """'linear:<c>' shares linear_family's cache: two calls give one
    response, validated once, named and reported as built afresh."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1])
        return validate_prc(*args, **kwargs)

    monkeypatch.setattr(splaysim.prc, "validate_prc", counting)
    splaysim.prc._validated_linear.cache_clear()
    try:
        first = prc_from_spec(f"linear:{c}", 3)
        assert prc_from_spec(f"linear:{c}", 3) is first
    finally:
        splaysim.prc._validated_linear.cache_clear()  # drop responses built with the counter
    assert calls == [3]
    raw = piecewise_linear(3, float(c))
    assert first.name == raw.name == f"linear:{c}"
    assert first.validation == validate_prc(raw.func, 3)


def test_a_linear_selector_reads_minus_zero_as_zero():
    """0.0 and -0.0 are one cache key: both selectors give the response of
    slope 0, whichever comes first."""
    splaysim.prc._validated_linear.cache_clear()
    minus = prc_from_spec("linear:-0", 3)
    assert prc_from_spec("linear:0", 3) is minus
    assert minus.name == "linear:0"
