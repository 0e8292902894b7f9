"""Circle geometry: oracle agreement, invariances, and the arc-length bound."""

import fractions
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from splaysim import analysis, circle
from splaysim.analysis import closeness, distance_to_splay, lyapunov, vtilde
from splaysim.circle import (
    TWO_PI,
    check_number,
    check_numbers,
    gap_profile,
    geodesic,
    min_pairwise_geodesic,
    shortest_arc_length,
    shortest_arc_oracle,
    splay_arc_length,
    splay_gap_deviation,
)
from splaysim import experiments
from splaysim.experiments import run_property_corpus
from splaysim.model import in_bad_set, in_splay_set, validate_prc
from splaysim.prc import (broken_step, broken_steep, broken_zero, linear_family, paper_prc,
                          piecewise_linear, prc_from_spec)
from splaysim.sim import Perturbation, SimConfig, flow_to_next_event, run

phase_values = st.floats(min_value=0.0, max_value=TWO_PI, allow_nan=False)


def phase_vectors(min_n=2, max_n=8):
    return st.integers(min_n, max_n).flatmap(
        lambda n: arrays(float, n, elements=phase_values)
    )


def splay_vector(n: int, rotation: float, perm: np.ndarray) -> np.ndarray:
    base = (np.arange(n) * TWO_PI / n + rotation) % TWO_PI
    return base[perm]


# -- geodesic ----------------------------------------------------------------

@given(phase_values, phase_values)
def test_geodesic_symmetric_and_bounded(a, b):
    d = geodesic(a, b)
    assert d == geodesic(b, a)
    assert 0.0 <= d <= np.pi + 1e-15


def test_geodesic_identifies_endpoints():
    assert geodesic(0.0, TWO_PI) == 0.0
    assert geodesic(0.0, np.pi) == pytest.approx(np.pi)
    assert geodesic(0.1, TWO_PI) == pytest.approx(0.1)


@given(phase_values, phase_values, phase_values)
def test_geodesic_triangle_inequality(a, b, c):
    assert geodesic(a, c) <= geodesic(a, b) + geodesic(b, c) + 1e-12


def test_geodesic_rejects_out_of_range():
    with pytest.raises(ValueError, match=r"^a must be in \[0, 2\*pi\], got -0\.1$"):
        geodesic(-0.1, 1.0)
    with pytest.raises(ValueError, match=r"^b must be in \[0, 2\*pi\], got "):
        geodesic(1.0, TWO_PI + 0.1)
    with pytest.raises(ValueError, match="^a: True is not a number$"):
        geodesic(True, 1.0)


# -- the number check --------------------------------------------------------

def test_check_number_converts_and_names_the_parameter():
    assert type(check_number("x", np.float32(0.5))) is float
    assert check_number("x", fractions.Fraction(1, 4), "positive") == 0.25
    assert type(check_number("k", np.int64(3), "at least 1", int)) is int
    assert check_number("x", 7) == 7.0 and type(check_number("x", 7)) is float
    assert check_numbers("xs", (1, np.float64(2.5))) == (1.0, 2.5)
    for value, message in ((3.0, "^k: 3.0 is not an integer$"),
                           ("3", "^k: '3' is not an integer$"),
                           (np.nan, "^k: nan is not an integer$"),
                           (0, "^k must be at least 1, got 0$"),
                           (10**400, "^k: int too large to convert to float$")):
        with pytest.raises(ValueError, match=message):
            check_number("k", value, "at least 1", int)
    for value, message in ((None, "^x: None is not a number$"), (1j, r"^x: 1j is not a number$"),
                           (np.inf, "^x must be finite, got inf$")):
        with pytest.raises(ValueError, match=message):
            check_number("x", value, "finite")
    with pytest.raises(ValueError, match=r"^xs must be finite, got \[0\.0, nan\]$"):
        check_numbers("xs", [0.0, np.nan], "finite")
    with pytest.raises(ValueError, match="^g must be at most 2, got 3$"):
        check_number("g", 3, "at most 2", int, ok=lambda g: g <= 2)


_X0 = [0.3, 2.0, 4.1]


def _config(**fields):
    return SimConfig(**{"prc": paper_prc(3), "x0": _X0, **fields})


def _arc():
    return run(_config(horizon=1.0))


#: budgets of a corpus that ends at once should a bad one get past its check
_BUDGETS = {"geometry_samples": 10, "oracle_samples": 10, "runs": 1}
#: the convergence corpus itself, which the number test replaces inside the property corpus
_theorem1_corpus = experiments.theorem1_corpus


#: each scalar number a public function takes: (the name its message
#: starts with, a call that passes the value in that parameter)
NUMBER_PARAMETERS = {
    **{f"SimConfig.{name}": (name, lambda v, name=name: _config(**{name: v}))
       for name in ("omega", "horizon", "max_jumps", "stop_v_threshold", "seed", "sample_dt")},
    "SimConfig.x0": ("x0", lambda v: _config(x0=[0.3, v, 4.1])),
    "Perturbation.amplitude": ("amplitude", lambda v: Perturbation(amplitude=v)),
    "Perturbation.frequency": ("frequency", lambda v: Perturbation(0.1, frequency=v)),
    "Perturbation.offsets": ("offsets", lambda v: Perturbation(0.1, offsets=(0.0, v, 1.0))),
    "flow_to_next_event.omega": ("omega", lambda v: flow_to_next_event(_X0, v, None, 0.0)),
    "flow_to_next_event.t0": ("t0", lambda v: flow_to_next_event(_X0, 1.0, None, v)),
    "flow_to_next_event.horizon": ("horizon",
                                   lambda v: flow_to_next_event(_X0, 1.0, None, 0.0, v)),
    "validate_prc.n": ("n", lambda v: validate_prc(paper_prc(3).func, v)),
    "validate_prc.grid": ("grid", lambda v: validate_prc(paper_prc(3).func, 3, grid=v)),
    "validate_prc.lipschitz": ("lipschitz",
                               lambda v: validate_prc(paper_prc(3).func, 3, lipschitz=v)),
    "prc_from_spec.n": ("n", lambda v: prc_from_spec("paper", v)),
    "splay_arc_length.n": ("n", splay_arc_length),
    "geodesic.a": ("a", lambda v: geodesic(v, 1.0)),
    "geodesic.b": ("b", lambda v: geodesic(1.0, v)),
    **{f"run_property_corpus.{name}": (
        name, lambda v, name=name: run_property_corpus("corpus", **{**_BUDGETS, name: v}))
       for name in _BUDGETS},
    "run_property_corpus.seed": ("seed", lambda v: run_property_corpus("corpus", **_BUDGETS,
                                                                       seed=v)),
    "theorem1_corpus.runs": ("runs", lambda v: _theorem1_corpus(runs=v, out_dir="corpus")),
    "theorem1_corpus.ns": ("ns", lambda v: _theorem1_corpus(runs=1, ns=(3, v), out_dir="corpus")),
    "theorem1_corpus.seed": ("seed", lambda v: _theorem1_corpus(runs=1, seed=v, out_dir="corpus")),
    "theorem1_corpus.horizon": ("horizon", lambda v: _theorem1_corpus(runs=1, horizon=v,
                                                                      out_dir="corpus")),
    "closeness.tau": ("tau", lambda v: closeness(_arc(), _arc(), v)),
    "in_splay_set.tol": ("tol", lambda v: in_splay_set([1.0, 1.0 + TWO_PI / 2], tol=v)),
    "in_bad_set.tol": ("tol", lambda v: in_bad_set([1.0, 1.0], tol=v)),
    "paper_prc.n": ("n", paper_prc),
    "linear_family.n": ("n", lambda v: linear_family(v, 0.5)),
    "linear_family.c": ("c", lambda v: linear_family(3, v)),
    "piecewise_linear.n": ("n", lambda v: piecewise_linear(v, 0.5)),
    "piecewise_linear.c": ("c", lambda v: piecewise_linear(3, v)),
    **{f"{make.__name__}.n": ("n", make) for make in (broken_zero, broken_steep, broken_step)},
}


@pytest.mark.parametrize("value", [True, False, "1", 10**400],
                         ids=["true", "false", "numeric-string", "beyond-float"])
@pytest.mark.parametrize("entry", NUMBER_PARAMETERS)
def test_every_public_number_parameter_refuses_a_non_number(tmp_path, monkeypatch,
                                                            entry, value):
    monkeypatch.chdir(tmp_path)  # a corpus that ran would write here
    monkeypatch.setattr(experiments, "theorem1_corpus",
                        lambda **_: pytest.fail("a corpus budget got past its check"))
    name, call = NUMBER_PARAMETERS[entry]
    with pytest.raises(ValueError) as info:
        call(value)
    assert str(info.value).startswith(f"{name}: ")
    assert not (tmp_path / "corpus").exists()


# -- gap profile -------------------------------------------------------------

@given(phase_vectors())
def test_gaps_are_nonnegative_and_sum_to_full_circle(x):
    prof = gap_profile(x)
    assert np.all(prof.gaps >= 0.0)
    assert np.sum(prof.gaps) == pytest.approx(TWO_PI, abs=1e-9)
    assert np.all(np.diff(prof.sorted) >= 0.0)


def test_phase_vector_validation():
    with pytest.raises(ValueError):
        gap_profile([1.0])  # too short
    with pytest.raises(ValueError):
        gap_profile([[1.0, 2.0]])  # not 1-D
    with pytest.raises(ValueError):
        gap_profile([0.0, TWO_PI + 1e-6])  # outside the box
    gap_profile([0.0, TWO_PI])  # boundary values are fine


@pytest.mark.parametrize("bad, named", [(np.nan, "nan"), (TWO_PI + 1e-9, repr(TWO_PI + 1e-9)),
                                        (-0.5, "-0.5")])
def test_batch_validation_names_the_first_entry_outside_the_box(bad, named):
    batch = np.full((4, 3), 1.0)
    batch[2, 1] = bad
    batch[3, 0] = 7.0  # a later bad entry is not the one named
    with pytest.raises(ValueError, match=f"got {re.escape(named)}$"):
        shortest_arc_length(batch)
    assert shortest_arc_length(np.empty((0, 3))).shape == (0,)


# -- shortest containing arc -------------------------------------------------

@given(phase_vectors())
def test_arc_length_matches_oracle(x):
    assert shortest_arc_length(x) == pytest.approx(shortest_arc_oracle(x), abs=1e-12)


@given(phase_vectors())
def test_arc_length_bound(x):
    n = x.size
    assert shortest_arc_length(x) <= TWO_PI * (n - 1) / n + 1e-12


@given(phase_vectors(), st.floats(0.0, TWO_PI, allow_nan=False))
def test_arc_length_rotation_invariant(x, delta):
    rotated = (x + delta) % TWO_PI
    assert shortest_arc_length(rotated) == pytest.approx(
        shortest_arc_length(x), abs=1e-9
    )


@given(phase_vectors(), st.randoms(use_true_random=False))
def test_arc_length_permutation_invariant(x, rnd):
    perm = list(range(x.size))
    rnd.shuffle(perm)
    assert shortest_arc_length(x[perm]) == shortest_arc_length(x)


def test_arc_length_batch_agrees_with_single():
    rng = np.random.default_rng(7)
    xs = rng.uniform(0.0, TWO_PI, size=(64, 5))
    batch = shortest_arc_length(xs)
    singles = np.array([shortest_arc_length(row) for row in xs])
    np.testing.assert_array_equal(batch, singles)
    batch_oracle = shortest_arc_oracle(xs)
    singles_oracle = np.array([shortest_arc_oracle(row) for row in xs])
    np.testing.assert_array_equal(batch_oracle, singles_oracle)


def reference_shortest_arc(x):
    """The kernel as 2*pi minus the max of the whole gaps array, the wrap
    gap written as its last column."""
    return TWO_PI - circle._circular_gaps(np.sort(x, axis=-1)).max(axis=-1)


@pytest.mark.parametrize("x", [
    np.array([0.3, 2.0, 4.1]),
    np.array([0.0, TWO_PI]),  # n = 2, both ends of the box: one point of the circle
    np.array([TWO_PI, 1.0]),
    np.array([1.0, 1.0, 1.0]),  # ties: every gap but the wrap is zero
    np.array([0.0, 0.0, TWO_PI, 3.0, 3.0]),
    np.arange(7) * (TWO_PI / 7),  # splay: every gap equal up to rounding
    np.empty((0, 4)),
    np.array([[5.9, 0.1, 3.0]]),
    np.array([[0.0, TWO_PI], [2.0, 2.0], [TWO_PI, TWO_PI]]),
    np.random.default_rng(3).uniform(0.0, TWO_PI, size=(40, 200)),
    np.random.default_rng(4).choice([0.0, 1.5, TWO_PI], size=(60, 6)),  # ties and both ends
], ids=["vector", "n2-ends", "n2-top-first", "ties", "ties-and-ends", "splay", "empty",
        "one-row", "n2-batch", "wide-batch", "tied-batch"])
def test_shortest_arc_kernel_equals_the_whole_gaps_array_max(x):
    got, want = circle._shortest_arc(x), reference_shortest_arc(x)
    assert type(got) is type(want) and np.shape(got) == np.shape(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_arc_length_known_values():
    # two antipodal points: the arc must span half the circle
    assert shortest_arc_length([0.0, np.pi]) == pytest.approx(np.pi)
    # coincident phases need no arc at all
    assert shortest_arc_length([1.0, 1.0, 1.0]) == 0.0
    # 0 and 2*pi are the same point
    assert shortest_arc_length([0.0, TWO_PI]) == pytest.approx(0.0)
    # splay configurations achieve the bound exactly
    for n in range(2, 9):
        splay = np.arange(n) * TWO_PI / n
        assert shortest_arc_length(splay) == pytest.approx(splay_arc_length(n))


@pytest.mark.parametrize("n, message", [(2.5, "n: 2.5 is not an integer"),
                                        (float("nan"), "n: nan is not an integer"),
                                        (1, "n must be at least 2, got 1")])
def test_splay_arc_length_refuses_a_count_that_is_not_an_integer_of_at_least_2(n, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        splay_arc_length(n)
    assert splay_arc_length(np.int64(3)) == TWO_PI * 2 / 3


@given(st.integers(2, 8), st.floats(0.0, TWO_PI, allow_nan=False),
       st.randoms(use_true_random=False))
def test_splay_vectors_achieve_the_bound(n, rotation, rnd):
    perm = np.asarray(rnd.sample(range(n), n))
    x = splay_vector(n, rotation, perm)
    assert shortest_arc_length(x) == pytest.approx(splay_arc_length(n), abs=1e-9)


# -- minimum pairwise separation ----------------------------------------------

@given(phase_vectors(max_n=6))
def test_min_pairwise_geodesic_matches_brute_force(x):
    brute = min(
        geodesic(float(x[i]), float(x[k]))
        for i in range(x.size)
        for k in range(i + 1, x.size)
    )
    assert min_pairwise_geodesic(x) == pytest.approx(brute, abs=1e-12)


def test_min_pairwise_geodesic_values():
    assert min_pairwise_geodesic([0.5, 0.5, 2.0]) == 0.0
    assert min_pairwise_geodesic([0.0, TWO_PI, 3.0]) == pytest.approx(0.0)
    splay = np.arange(5) * TWO_PI / 5
    assert min_pairwise_geodesic(splay) == pytest.approx(TWO_PI / 5)


# -- one gap kernel ------------------------------------------------------------

@given(st.integers(2, 8).flatmap(
    lambda n: arrays(float, (4, n), elements=phase_values)))
def test_arc_length_is_bit_identical_to_the_inner_and_wrap_gaps(batch):
    srt = np.sort(batch, axis=1)
    inner = np.max(np.diff(srt, axis=1), axis=1)
    wrap = TWO_PI - srt[:, -1] + srt[:, 0]
    np.testing.assert_array_equal(shortest_arc_length(batch), TWO_PI - np.maximum(inner, wrap))


@given(st.integers(2, 8).flatmap(
    lambda n: arrays(float, (4, n), elements=phase_values)))
def test_splay_gap_deviation_matches_the_gap_profile_reference(batch):
    n = batch.shape[1]
    for row, dev in zip(batch, splay_gap_deviation(batch)):
        gaps = gap_profile(row).gaps
        adjacent = np.minimum(gaps, TWO_PI - gaps)
        assert dev == np.max(np.abs(adjacent - TWO_PI / n))
        assert splay_gap_deviation(row) == dev



# -- one batch path -------------------------------------------------------------

#: each public batch function of circle and analysis, and its row kernel
#: applied to a whole batch of validated phases at once
BATCH_FUNCTIONS = {
    "shortest_arc_length": (shortest_arc_length, circle._shortest_arc),
    "shortest_arc_oracle": (shortest_arc_oracle, circle._enumerated_arc),
    "min_pairwise_geodesic": (min_pairwise_geodesic,
                              lambda xs: circle._neighbour_geodesics(xs).min(axis=1)),
    "splay_gap_deviation": (splay_gap_deviation, lambda xs: np.abs(
        circle._neighbour_geodesics(xs) - TWO_PI / xs.shape[1]).max(axis=1)),
    "lyapunov": (lyapunov, analysis._lyapunov),
    "distance_to_splay": (distance_to_splay,
                          lambda xs: analysis._splay_line_distance(xs, clamp=True)),
    "vtilde": (vtilde, lambda xs: analysis._splay_line_distance(xs, clamp=False)),
}


@pytest.mark.parametrize("budget", [1, 7, circle._BLOCK_FLOATS])
@pytest.mark.parametrize("n", [2, 8])
@pytest.mark.parametrize("name", BATCH_FUNCTIONS)
def test_batch_functions_are_bit_equal_to_their_kernel_for_any_block(monkeypatch, name, n,
                                                                     budget):
    function, kernel = BATCH_FUNCTIONS[name]
    xs = np.random.default_rng(n).uniform(0.0, TWO_PI, size=(50, n))
    xs[::7] = np.arange(n) * (TWO_PI / n)  # splay rows, where V's clip acts
    xs[3, 1] = xs[3, 0]  # a coinciding pair
    expected = kernel(xs)
    monkeypatch.setattr(circle, "_BLOCK_FLOATS", budget)
    assert function(xs).tobytes() == expected.tobytes()


@pytest.mark.parametrize("name", BATCH_FUNCTIONS)
def test_batch_functions_return_a_python_float_for_a_vector(name):
    function, kernel = BATCH_FUNCTIONS[name]
    x = np.array([0.3, 2.0, 5.0])
    value = function(x)
    assert type(value) is float
    assert value == kernel(x[None, :])[0]


def _peak(function, xs) -> int:
    """tracemalloc's peak while function runs on xs, which exists before."""
    tracemalloc.start()
    try:
        function(xs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name", [name for name in BATCH_FUNCTIONS if name != "shortest_arc_oracle"])
def test_batch_functions_keep_their_scratch_bounded(name):
    """Memory gate, from tracemalloc on a 20,000 x 50 batch: every function
    goes through the batch in row blocks and peaks at 0.18-0.22x its bytes.
    Whole-batch sorts and gap arrays were 2.0x for shortest_arc_length, 3.0x
    for min_pairwise_geodesic and 4.0x for splay_gap_deviation."""
    xs = np.random.default_rng(0).uniform(0.0, TWO_PI, size=(20_000, 50))
    assert _peak(BATCH_FUNCTIONS[name][0], xs) <= 0.5 * xs.nbytes


def test_the_oracle_keeps_its_scratch_bounded():
    """The enumeration holds n * n floats a row, so a whole batch at once
    grows 40x its bytes at n = 40; in row blocks its peak hardly moves
    when the batch grows fourfold."""
    rng = np.random.default_rng(1)
    small, large = (rng.uniform(0.0, TWO_PI, size=(m, 40)) for m in (1_000, 4_000))
    assert _peak(shortest_arc_oracle, large) <= 1.2 * _peak(shortest_arc_oracle, small)
