"""An exact event map as an independent oracle for the simulator.

Under linear_family(n, c) with omega = 1 and no disturbance, one firing is
plain arithmetic: every phase advances by 2*pi - max x, the phases within
firing_tol of 2*pi fire, the firers reset to 0 and each listener above the
corner 2*pi*(n-1)/n is pulled to corner + (1 - c)(z - corner).  The map
below does that in Python floats, with none of the simulator's arrays,
flow or jump kernels, and the simulator must reproduce its firings.
"""

import math

import numpy as np
import pytest

from splaysim.analysis import lyapunov
from splaysim.experiments import draw_start
from splaysim.model import DEFAULT_FIRING_TOL
from splaysim.prc import linear_family
from splaysim.sim import SimConfig, run

TWO_PI = 2.0 * math.pi
HORIZON = 60.0


def event_map(x0: list[float], c: float, horizon: float,
              firing_tol: float = DEFAULT_FIRING_TOL) -> list[tuple[float, tuple[int, ...], list[float]]]:
    """(t, firers, post state) of every firing up to the horizon."""
    n = len(x0)
    corner = TWO_PI * (n - 1) / n
    x, t, out = list(x0), 0.0, []
    while True:
        firers = tuple(i for i, z in enumerate(x) if z >= TWO_PI - firing_tol)
        if not firers:
            step = TWO_PI - max(x)
            if t + step > horizon:
                return out
            t += step
            x = [TWO_PI if z + step >= TWO_PI - firing_tol else z + step for z in x]
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
