"""Hybrid model data: flow/jump sets, the jump map, and set membership."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from splaysim.circle import TWO_PI
from splaysim.model import (
    MAX_VALIDATION_GRID,
    InvalidPhaseResponseError,
    PhaseResponse,
    firing_indices,
    in_bad_set,
    in_flow_set,
    in_jump_set,
    in_splay_set,
    jump_map,
    knee,
    validate_prc,
)
from splaysim.prc import broken_steep, paper_prc, piecewise_linear
from splaysim.sim import SimConfig, run


def test_knee_values():
    assert knee(2) == pytest.approx(np.pi)
    assert knee(3) == pytest.approx(4 * np.pi / 3)
    assert knee(4) == pytest.approx(3 * np.pi / 2)


def test_flow_and_jump_set_membership():
    assert in_flow_set([0.0, 1.0, TWO_PI])
    assert not in_flow_set([0.0, TWO_PI + 0.1])
    assert not in_flow_set([-0.1, 1.0])
    assert in_jump_set([1.0, TWO_PI])
    assert in_jump_set([1.0, TWO_PI - 1e-10])  # within the firing tolerance
    assert not in_jump_set([1.0, TWO_PI - 1e-3])


def test_firing_indices():
    x = [TWO_PI, 1.0, TWO_PI - 1e-12, 3.0]
    np.testing.assert_array_equal(firing_indices(x), [0, 2])
    np.testing.assert_array_equal(firing_indices([1.0, 2.0]), [])


# -- jump map ----------------------------------------------------------------

def test_single_firer_reference_values():
    # one firer at the top, one listener above the corner, one below
    prc = paper_prc(3)
    x = np.array([TWO_PI, 5.0, 1.0])
    branches = jump_map(x, prc)
    assert len(branches) == 1
    b = branches[0]
    assert b.firers == (0,)
    assert b.branch == "single"
    corner = knee(3)
    expected_mid = 5.0 - 0.7 * (5.0 - corner)
    np.testing.assert_allclose(b.post, [0.0, expected_mid, 1.0], atol=1e-12)
    assert b.post[1] == pytest.approx(4.432153, abs=1e-6)


def test_jump_map_requires_a_firer():
    with pytest.raises(ValueError):
        jump_map(np.array([1.0, 2.0, 3.0]), paper_prc(3))


def test_jump_map_rejects_unknown_policy():
    with pytest.raises(ValueError):
        jump_map(np.array([TWO_PI, 1.0, 2.0]), paper_prc(3), policy="bogus")


@pytest.mark.parametrize("tol", [math.nan, -1e-9, 0.0, math.inf])
@pytest.mark.parametrize("step", [in_jump_set, firing_indices, jump_map])
def test_firing_tolerance_must_be_positive_and_finite(step, tol):
    # a NaN band would read as "nothing fires", and jump_map would blame the state
    args = (paper_prc(2),) if step is jump_map else ()
    with pytest.raises(ValueError, match=f"^tol must be positive and finite, got {tol!r}$"):
        step([1.0, TWO_PI], *args, tol=tol)


def test_simultaneous_firers_all_zero_policy():
    prc = paper_prc(3)
    x = np.array([TWO_PI, TWO_PI, 1.0])
    branches = jump_map(x, prc, policy="all-zero")
    assert len(branches) == 1
    assert branches[0].firers == (0, 1)
    np.testing.assert_allclose(branches[0].post, [0.0, 0.0, 1.0])


def test_simultaneous_firers_enumerate_policy():
    prc = paper_prc(3)
    x = np.array([TWO_PI, TWO_PI, 1.0])
    branches = jump_map(x, prc, policy="enumerate")
    assert len(branches) == 4
    labels = [b.branch for b in branches]
    assert labels[0] == "enumerate:11"  # all-reset branch always comes first
    assert len(set(labels)) == 4
    # the all-reset branch matches the all-zero policy
    np.testing.assert_allclose(branches[0].post, [0.0, 0.0, 1.0])
    # a non-reset firer is treated as a listener at the top of the sector
    pulled_top = TWO_PI + float(prc(TWO_PI))
    by_label = {b.branch: b for b in branches}
    np.testing.assert_allclose(by_label["enumerate:10"].post,
                               [0.0, pulled_top, 1.0], atol=1e-12)
    np.testing.assert_allclose(by_label["enumerate:01"].post,
                               [pulled_top, 0.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(by_label["enumerate:00"].post,
                               [pulled_top, pulled_top, 1.0], atol=1e-12)


@given(st.integers(2, 4))
def test_enumerate_branch_count_is_two_to_the_firers(m):
    n = m + 1
    x = np.full(n, TWO_PI)
    x[-1] = 1.0
    branches = jump_map(x, paper_prc(n), policy="enumerate")
    assert len(branches) == 2**m


def test_listeners_below_the_corner_never_move():
    prc = paper_prc(4)
    x = np.array([TWO_PI, 0.3, 1.2, knee(4)])
    post = jump_map(x, prc)[0].post
    np.testing.assert_array_equal(post[1:], x[1:])


def test_out_of_box_reset_raises():
    # a positive response past the top pushes listeners out of the box
    bad = piecewise_linear(3, -0.5, name="push-up")
    x = np.array([TWO_PI, 6.0, 1.0])
    with pytest.raises(InvalidPhaseResponseError):
        jump_map(x, bad)


def test_nan_response_fails_the_box_check():
    nan_above_five = PhaseResponse("nan-above-5",
                                   lambda z: np.where(z > 5.0, np.nan, 0.0), 3)
    with pytest.raises(InvalidPhaseResponseError, match=r"branch 'single' produced .*nan"):
        jump_map(np.array([1.0, 5.5, TWO_PI]), nan_above_five)


@pytest.mark.parametrize("x", [
    [TWO_PI, TWO_PI, TWO_PI, 6.0],
    [TWO_PI, TWO_PI, 1.0, 2.0],
    [TWO_PI, 6.0, TWO_PI, 1.0],
    [1.0, TWO_PI, 2.0, TWO_PI],
])
@pytest.mark.parametrize("policy", ["all-zero", "enumerate"])
def test_box_check_names_the_first_branch_to_leave(x, policy):
    # a positive response above the corner pushes listeners, and firers
    # kept as listeners, past 2*pi; brute force over every branch in
    # jump_map's order finds the first to leave the box
    push = piecewise_linear(4, -0.5, name="push-up")
    x = np.array(x)
    firers = np.flatnonzero(x == TWO_PI)
    moved = x + push(x)
    selections = ([(1,) * firers.size] if policy == "all-zero"
                  else list(itertools.product((1, 0), repeat=firers.size)))
    first_bad = None
    for bits in selections:
        post = moved.copy()
        post[firers[np.array(bits, dtype=bool)]] = 0.0
        outside = (post < 0.0) | (post > TWO_PI)
        if outside.any():
            label = "all-zero" if policy == "all-zero" else "enumerate:" + "".join(map(str, bits))
            first_bad = f"branch {label!r} produced {post[outside][0]!r}"
            break
    if first_bad is None:
        assert len(jump_map(x, push, policy)) == len(selections)
    else:
        with pytest.raises(InvalidPhaseResponseError) as exc:
            jump_map(x, push, policy)
        assert str(exc.value).endswith(first_bad)


@given(st.floats(0.0, TWO_PI - 1e-6, allow_nan=False),
       st.floats(0.0, TWO_PI - 1e-6, allow_nan=False))
@example(a=6.283184307179586, b=6.283184307179585)  # 1 ulp apart, one post value
def test_jump_preserves_listener_order(a, b):
    # the validated family keeps z + Q(z) increasing, so listener order
    # (and therefore circular order) survives any single firing; listeners
    # a few ulps apart may round onto one post value, but never swap
    prc = paper_prc(3)
    x = np.array([TWO_PI, a, b])
    post = jump_map(x, prc)[0].post
    assert np.sign(a - b) * np.sign(post[1] - post[2]) >= 0
    if abs(a - b) > 1e-12:
        assert np.sign(a - b) == np.sign(post[1] - post[2])


# -- splay and bad sets --------------------------------------------------------

def test_splay_set_membership():
    splay = np.arange(3) * TWO_PI / 3
    assert in_splay_set(splay)
    assert in_splay_set((splay + 1.234) % TWO_PI)
    assert in_splay_set(splay[[2, 0, 1]])
    assert not in_splay_set([0.0, 1.0, 2.0])
    # tolerance is respected
    assert in_splay_set(splay + [0.0, 5e-7, 0.0])
    assert not in_splay_set(splay + [0.0, 5e-3, 0.0])


def test_bad_set_membership():
    assert in_bad_set([1.0, 1.0, 4.0])
    assert in_bad_set([0.0, TWO_PI, 3.0])  # endpoints are the same point
    assert not in_bad_set([0.0, 1.0, 2.0])
    assert in_bad_set([1.0, 1.0 + 1e-13, 4.0])  # below coincidence tolerance


def test_validator_rejects_tiny_grid_and_networks():
    prc = paper_prc(3)
    with pytest.raises(ValueError):
        validate_prc(prc.func, 3, grid=100)
    with pytest.raises(ValueError):
        validate_prc(prc.func, 1)


def test_validator_takes_integer_sizes_and_a_number_constant():
    for kwargs, message in ((dict(n=3.5), "^n: 3.5 is not an integer$"),
                            (dict(n=3, grid=20_000.0), "^grid: 20000.0 is not an integer$"),
                            (dict(n=3, lipschitz="x"), "^lipschitz: 'x' is not a number$"),
                            (dict(n=1), "^n must be at least 2, got 1$")):
        with pytest.raises(ValueError, match=message):
            validate_prc(paper_prc(3).func, **kwargs)
    report = validate_prc(paper_prc(3).func, np.int64(3), grid=np.int64(10_000))
    assert type(report.n) is int and type(report.grid) is int


def test_validator_refuses_a_grid_above_the_cap_before_sampling():
    calls = []
    with pytest.raises(ValueError, match=f"between 10000 and {MAX_VALIDATION_GRID} points"):
        validate_prc(lambda z: calls.append(z) or np.zeros_like(z), 3,
                     grid=MAX_VALIDATION_GRID + 1)
    assert calls == []


def test_validator_witnesses_point_at_the_break():
    rep = validate_prc(broken_steep(3).func, 3, grid=10_000)
    by_name = {c.name: c for c in rep.checks}
    assert not by_name["sector-pull"].passed
    # the first failing sample sits just above the sector corner
    assert by_name["sector-pull"].witness == pytest.approx(knee(3), abs=1e-3)


def test_validator_refuses_scalar_only_functions():
    # a run calls the response once on the whole state, so a function that
    # takes only scalars must fail validation rather than the first firing
    def scalar_q(z):
        corner = knee(3)
        return 0.0 if z <= corner else -0.7 * (z - corner)

    with pytest.raises(ValueError, match="array of phases"):
        validate_prc(scalar_q, 3, grid=10_000)
    # the run it would have passed for, unvalidated, fails with the same contract
    with pytest.raises(ValueError, match="must map an array of phases to an array of one "
                                         "increment per phase: ValueError: The truth value"):
        run(SimConfig(prc=PhaseResponse("scalar", scalar_q, 3), x0=[0.3, 2.0, 4.1]))


@pytest.mark.parametrize("func", [
    lambda z: np.zeros(z.size - 1),
    lambda z: np.zeros((z.size, 3)),
    lambda z: "flat",
], ids=["one-short", "one-column-per-oscillator", "string"])
def test_validator_refuses_results_that_are_not_one_increment_per_phase(func):
    with pytest.raises(ValueError, match="one increment per phase"):
        validate_prc(func, 3, grid=10_000)
    # an unvalidated run meets the contract at its first firing, with the
    # same wording, and jump_map too
    with pytest.raises(ValueError, match="must map an array of phases to an array of one "
                                         "increment per phase: ValueError: "):
        run(SimConfig(prc=PhaseResponse("wrong", func, 3), x0=[0.3, 2.0, 4.1]))
    with pytest.raises(ValueError, match="one increment per phase"):
        jump_map([0.3, 2.0, TWO_PI], PhaseResponse("wrong", func, 3))


def test_validator_accepts_a_result_that_broadcasts_as_a_run_uses_it():
    # a run adds the result to the state, so a scalar increment is one per phase
    assert validate_prc(lambda z: 0.0, 3, grid=10_000).failures()[0].name == "reset-at-top"
