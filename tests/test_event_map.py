"""An exact event map as an independent oracle for the simulator.

Under linear_family(n, c) with omega = 1 and no disturbance, one firing is
plain arithmetic: every phase advances by 2*pi - max x, the phases within
FIRING_TOL of 2*pi fire, the firers reset to 0 and each listener above the
corner 2*pi*(n-1)/n is pulled to corner + (1 - c)(z - corner).  The map
below does that in Python floats, with none of the simulator's arrays,
flow or jump kernels, and the simulator must reproduce its firings.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from splaysim.analysis import lyapunov, verify_monotone
from splaysim.experiments import FIG2_X0, draw_start
from splaysim.model import ALL_ZERO, ENUMERATE, FIRING_TOL, _draw_selection
from splaysim.prc import linear_family
from splaysim.sim import SimConfig, run

TWO_PI = 2.0 * math.pi
HORIZON = 60.0


def event_map(x0: list[float], c: float,
              horizon: float) -> list[tuple[float, tuple[int, ...], list[float]]]:
    """(t, firers, post state) of every firing up to the horizon."""
    n = len(x0)
    corner = TWO_PI * (n - 1) / n
    x, t, out = list(x0), 0.0, []
    while True:
        firers = tuple(i for i, z in enumerate(x) if z >= TWO_PI - FIRING_TOL)
        if not firers:
            step = TWO_PI - max(x)
            if t + step > horizon:
                return out
            t += step
            x = [TWO_PI if z + step >= TWO_PI - FIRING_TOL else z + step for z in x]
            continue
        x = [0.0 if i in firers else corner + (1.0 - c) * (z - corner) if z > corner else z
             for i, z in enumerate(x)]
        out.append((t, firers, list(x)))


def splay_deviation(x: list[float]) -> float:
    """V = largest circular gap - 2*pi/n, clipped at 0."""
    srt = sorted(x)
    gaps = [b - a for a, b in zip(srt, srt[1:])] + [TWO_PI - srt[-1] + srt[0]]
    return max(0.0, max(gaps) - TWO_PI / len(x))


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("c", [0.3, 0.7, 0.9])
@pytest.mark.parametrize("n", [2, 3, 5, 10])
def test_run_reproduces_the_exact_event_map(n, c, seed):
    x0 = draw_start(np.random.default_rng([n, seed]), n)
    expected = event_map(x0.tolist(), c, HORIZON)
    arc = run(SimConfig(prc=linear_family(n, c), x0=x0, horizon=HORIZON,
                        stop_v_threshold=None))
    assert arc.stop_reason == "horizon"
    assert len(expected) > 10
    assert [firers for _, firers, _ in arc.firings] == [firers for _, firers, _ in expected]
    times = np.array([t for t, _, _ in arc.firings])
    np.testing.assert_allclose(times, [t for t, _, _ in expected], rtol=0.0, atol=1e-12)
    rows = arc.jump_rows
    np.testing.assert_allclose(lyapunov(arc.states[rows + 1]),
                               [splay_deviation(post) for _, _, post in expected],
                               rtol=0.0, atol=1e-12)


# -- an exact rational event map ---------------------------------------------
#
# The same map in fractions.Fraction, with phases in turns (x / 2*pi) and
# time in periods: one step advances every phase by 1 - max theta, the
# firers are the phases at exactly 1, and a listener above the corner
# (n - 1)/n moves to corner + (1 - c)(theta - corner).  Nothing is rounded,
# so the firings it gives are the model's own, and V = largest gap - 1/n
# can be compared across a firing exactly.  Under 'enumerate' a firing of
# m >= 2 phases takes the branch model._draw_selection draws, from a
# Generator seeded as run seeds its own; a firer kept as a listener moves
# as a listener at 1 does, to corner + (1 - c)(1 - corner).

EXACT_HORIZON = 40.0
GRID_TURNS = 2**20
#: the simulator's firing band, in turns
TOL_TURNS = FIRING_TOL / TWO_PI


def exact_v(theta: list[Fraction]) -> Fraction:
    """V in turns: the largest circular gap's excess over 1/n, never negative."""
    srt = sorted(theta)
    gaps = [b - a for a, b in zip(srt, srt[1:])] + [1 - srt[-1] + srt[0]]
    return max(gaps) - Fraction(1, len(theta))


def exact_event_map(theta0: list[Fraction], c: Fraction, horizon: float,
                    policy: str = ALL_ZERO, seed: int = 0):
    """(t in periods, firers, V before, V after, near ties, branch) of every
    firing up to the horizon in seconds at omega = 1, under the policy with
    the seed.  A near tie is a phase within the simulator's firing band of
    1 that the exact map does not fire."""
    n = len(theta0)
    corner = Fraction(n - 1, n)
    rng = np.random.default_rng(seed)
    x, t, out = list(theta0), Fraction(0), []
    while True:
        step = 1 - max(x)
        if float(t + step) * TWO_PI > horizon:
            return out
        t += step
        x = [z + step for z in x]
        firers = tuple(i for i, z in enumerate(x) if z == 1)
        near = sum(1 for z in x if 0 < 1 - z <= TOL_TURNS)
        before = exact_v(x)
        reset, branch = firers, "single" if len(firers) == 1 else policy
        if len(firers) > 1 and policy == ENUMERATE:
            bits = _draw_selection(rng, len(firers))
            reset = [i for i, bit in zip(firers, bits) if bit]
            branch = "enumerate:" + "".join(map(str, bits))
        x = [Fraction(0) if i in reset else corner + (1 - c) * (z - corner) if z > corner else z
             for i, z in enumerate(x)]
        out.append((t, firers, before, exact_v(x), near, branch))


def exact_start(n: int, seed: int) -> list[Fraction]:
    """A seeded start on the 2**-20 grid of turns; seed 0 has two equal phases."""
    k = np.random.default_rng([n, seed, 2**20]).integers(0, GRID_TURNS, size=n).tolist()
    if seed == 0:
        k[1] = k[0]
    return [Fraction(v, GRID_TURNS) for v in k]


def assert_run_matches_exact(theta0: list[Fraction], c: Fraction, horizon: float,
                             policy: str = ALL_ZERO, seed: int = 0):
    """run against the exact map from the same start, policy and seed: the
    same firers and branches, the same times and post-jump V to 1e-12 and,
    under 'all-zero', V never rising at a firing, exactly; returns the
    exact firings and the arc."""
    expected = exact_event_map(theta0, c, horizon, policy, seed)
    near = sum(f[4] for f in expected)
    assert near == 0, f"{near} near ties that the firing band merges but the exact map keeps apart"
    assert policy != ALL_ZERO or all(f[3] <= f[2] for f in expected)
    n = len(theta0)
    arc = run(SimConfig(prc=linear_family(n, float(c)),
                        x0=np.array([TWO_PI * float(z) for z in theta0]),
                        horizon=horizon, stop_v_threshold=None, policy=policy, seed=seed))
    assert [firers for _, firers, _ in arc.firings] == [f[1] for f in expected]
    assert [branch for _, _, branch in arc.firings] == [f[5] for f in expected]
    times = np.array([t for t, _, _ in arc.firings])
    np.testing.assert_allclose(times, [TWO_PI * float(f[0]) for f in expected],
                               rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(lyapunov(arc.states[arc.jump_rows + 1]),
                               [TWO_PI * float(f[3]) for f in expected], rtol=0.0, atol=1e-12)
    return expected, arc


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("c", [Fraction(3, 10), Fraction(1, 2), Fraction(7, 10)], ids=str)
@pytest.mark.parametrize("n", [2, 3, 5])
def test_run_reproduces_the_exact_rational_event_map(n, c, seed):
    expected, _ = assert_run_matches_exact(exact_start(n, seed), c, EXACT_HORIZON)
    assert len(expected) >= 6


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("c", [Fraction(3, 10), Fraction(1, 2), Fraction(7, 10)], ids=str)
@pytest.mark.parametrize("n", [2, 3, 5])
def test_run_reproduces_the_exact_rational_event_map_under_enumerate(n, c, seed):
    """From the start with two equal phases, which fire together, run draws
    the exact map's branches with the same seed."""
    expected, _ = assert_run_matches_exact(exact_start(n, 0), c, EXACT_HORIZON, ENUMERATE, seed)
    assert any(f[5].startswith("enumerate:") for f in expected)


@pytest.mark.parametrize("c, rise", [(Fraction(3, 10), 0.467), (Fraction(1, 2), 0.778),
                                     (Fraction(7, 10), 1.089)], ids=str)
@pytest.mark.parametrize("seed", [0, 2])
def test_enumerate_can_raise_v_from_a_bad_set_start(c, rise, seed):
    """The two equal phases of the n=3 start, on the bad set, fire first;
    kept together as listeners (enumerate:00) they raise V, exactly, by the
    largest jump delta verify_monotone reports of the run."""
    expected, arc = assert_run_matches_exact(exact_start(3, 0), c, EXACT_HORIZON, ENUMERATE,
                                             seed)
    _, _, before, after, _, branch = expected[0]
    assert branch == "enumerate:00" and after > before
    assert max(f[3] - f[2] for f in expected) == after - before
    jumped = verify_monotone(arc).trace.jump_deltas.max()
    assert jumped == pytest.approx(TWO_PI * float(after - before), abs=1e-12)
    assert jumped == pytest.approx(rise, abs=1e-3)


def test_fig2_start_first_reaches_v_below_1e6_after_84_s_exactly():
    """The fig2 start, rationalised to 1e-12 turns: V first drops below 1e-6
    at the 41st firing, t = 84.0316 s, in the exact map and in run alike, so
    no run that ends at the default 80 s horizon can have reached it."""
    theta0 = [Fraction(round(x / TWO_PI * 10**12), 10**12) for x in FIG2_X0]
    expected, arc = assert_run_matches_exact(theta0, Fraction(7, 10), 86.0)
    first = next(k for k, f in enumerate(expected) if TWO_PI * f[3] < 1e-6)
    assert first == 40
    v = lyapunov(arc.states[arc.jump_rows + 1])
    assert int(np.argmax(v < 1e-6)) == first
    assert TWO_PI * float(expected[first][0]) == pytest.approx(84.031589, abs=1e-6)
    assert arc.firings[first][0] == pytest.approx(84.031589, abs=1e-6)
