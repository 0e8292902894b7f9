"""Shipped studies: reports, corpus records, and the constructed witnesses."""

import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from splaysim import circle, experiments
from splaysim.analysis import lyapunov
from splaysim.circle import TWO_PI
from splaysim.experiments import (
    CORPUS_SEED,
    FIG2_X0,
    MAX_GEOMETRY_SAMPLES,
    STEEP_WITNESS_X0,
    corpus_run_config,
    draw_start,
    fig2_config,
    perturbed_config,
    run_fig2,
    run_fig3,
    run_perturbed,
    run_property_corpus,
    steep_v_increase_witness,
    theorem1_corpus,
)
from splaysim.model import in_bad_set
from splaysim import sim
from splaysim.sim import Perturbation, run, write_events_csv, write_trajectory_csv


def test_fig2_report(tmp_path):
    report = run_fig2(tmp_path)
    assert report.passed
    assert report.details["monotone_passed"]
    assert report.details["terminal_v"] < 1e-6
    assert report.details["stop_reason"] == "stop-rule"
    assert (tmp_path / "trajectory.csv").exists()
    assert (tmp_path / "events.csv").exists()
    payload = json.loads((tmp_path / "summary.json").read_text())
    assert payload["schema"] == "fig2-report/1"
    assert payload["passed"] is True


def test_fig3_report(tmp_path):
    report = run_fig3(tmp_path)
    assert report.passed
    assert report.details["increase_count"] >= 1
    assert report.details["max_increase"] > 1e-9
    assert report.details["terminal_vtilde"] < 1e-3
    assert 0.0 < report.details["corpus_fraction_with_increase"] <= 1.0


def test_perturbed_report(tmp_path):
    report = run_perturbed(tmp_path)
    assert report.passed
    d = report.details
    assert d["s_nominal"] < d["s_eps_0.03"] < d["s_eps_0.05"]
    # the closeness numbers are reported for inspection, not asserted:
    # both amplitudes reorder the firing sequence from this start, so both
    # arcs sit near the label-permutation distance from the nominal one
    assert d["eps_star_0.03"] > 1.0
    assert d["eps_star_0.05"] > 1.0
    for name in ("nominal.csv", "eps_0.03.csv", "eps_0.05.csv"):
        assert (tmp_path / name).exists()


def test_report_lines(tmp_path):
    report = run_fig2(tmp_path)
    lines = report.lines()
    assert lines[0] == "experiment fig2: pass"
    assert any("terminal_v" in line for line in lines)


def test_corpus_records_are_reproducible():
    a = theorem1_corpus(runs=6)
    b = theorem1_corpus(runs=6)
    assert a == b
    assert [r.n for r in a] == [2, 3, 5, 2, 3, 5]
    for r in a:
        assert r.converged and r.monotone_passed
        assert r.min_jump_geodesic > 0.0
        assert r.min_dwell > 1e-6
        assert not in_bad_set(np.asarray(r.x0))


def test_corpus_respects_seed():
    a = theorem1_corpus(runs=3, seed=1)
    b = theorem1_corpus(runs=3, seed=2)
    assert a != b


def test_corpus_can_write_csvs(tmp_path):
    theorem1_corpus(runs=2, out_dir=tmp_path)
    assert (tmp_path / "run_000_trajectory.csv").exists()
    assert (tmp_path / "run_001_events.csv").exists()


@pytest.mark.parametrize("kwargs, message", [
    ({"runs": -1}, "runs must be at least 1, got -1"),
    ({"runs": 0}, "runs must be at least 1, got 0"),
    ({"runs": True}, "runs: True is not an integer"),
    ({"runs": 1.5}, "runs: 1.5 is not an integer"),
    ({"ns": ()}, "ns must be a nonempty sequence of network sizes, got ()"),
    ({"ns": 3}, "ns must be a nonempty sequence of network sizes, got 3"),
    ({"ns": "23"}, "ns must be a nonempty sequence of network sizes, got '23'"),
    ({"ns": (2, 2.0)}, "ns: 2.0 is not an integer"),
    ({"ns": ("3",)}, "ns: '3' is not an integer"),
    ({"ns": (True,)}, "ns: True is not an integer"),
    ({"ns": (3, 1)}, "ns must be at least 2, got 1"),
    ({"seed": True}, "seed: True is not an integer"),
    ({"seed": -1}, "seed must be nonnegative, got -1"),
    ({"seed": 1.0}, "seed: 1.0 is not an integer"),
    ({"horizon": 0.0}, "horizon must be positive and finite, got 0.0"),
    ({"horizon": np.inf}, "horizon must be positive and finite, got inf"),
    ({"horizon": np.nan}, "horizon must be positive and finite, got nan"),
    ({"horizon": "250"}, "horizon: '250' is not a number"),
])
def test_corpus_checks_its_inputs_before_it_runs(tmp_path, monkeypatch, kwargs, message):
    """A bad count, size list, seed or horizon raises a ValueError naming
    the parameter before any run or any output directory is made."""
    monkeypatch.setattr(experiments, "run", lambda config: pytest.fail("a run started"))
    with pytest.raises(ValueError) as info:
        theorem1_corpus(**{"runs": 1, **kwargs}, out_dir=tmp_path / "out")
    assert str(info.value) == message
    assert not (tmp_path / "out").exists()


def test_corpus_takes_numpy_integers_as_its_numbers():
    assert (theorem1_corpus(runs=np.int64(2), ns=np.array([2, 3]), seed=np.uint32(7))
            == theorem1_corpus(runs=2, ns=(2, 3), seed=7))


def test_draw_start_avoids_coincident_phases():
    rng = np.random.default_rng(0)
    for _ in range(200):
        assert not in_bad_set(draw_start(rng, 3))


def test_corpus_run_config_defaults():
    cfg = corpus_run_config(5, np.linspace(0.1, 5.0, 5), seed=7)
    assert cfg.n == 5
    assert cfg.horizon == 250.0
    assert cfg.sample_dt == 0.1


def test_steep_witness_increases_v_at_the_first_jump():
    witness = steep_v_increase_witness()
    assert witness is not None
    jump, delta = witness
    assert jump == 1
    assert delta == pytest.approx(0.0146, abs=2e-3)


def test_steep_witness_start_is_designed_for_it():
    # the start must be a legal phase vector with one firer ready
    x0 = np.asarray(STEEP_WITNESS_X0)
    assert x0.max() == TWO_PI
    assert not in_bad_set(x0)


def test_property_corpus_small(tmp_path):
    report = run_property_corpus(tmp_path, geometry_samples=2000,
                                 oracle_samples=500, runs=6)
    assert report.passed
    payload = json.loads((tmp_path / "summary.json").read_text())
    assert payload["schema"] == "corpus-report/1"
    assert payload["runs"] == 6
    assert payload["negative"]["steep_run"]["jump"] == 1
    for section in ("geometry", "splay", "runs", "negative"):
        assert section in payload


#: SHA-256 of summary.json for geometry_samples=2000, oracle_samples=500,
#: runs=1, as written when each section drew its whole batch at once
SMALL_CORPUS_SUMMARY = "bb0bb4ce3ea2d7dea03256ac742678d9665a65401dfa1c6dece457c475c5788f"


@pytest.mark.parametrize("block_floats", [None, 100])
def test_property_corpus_summary_is_unchanged_by_the_row_blocks(tmp_path, monkeypatch,
                                                                block_floats):
    # blocks of 12 to 50 rows cut the oracle's 500 rows; the draws must stay
    # the same values in the same order
    if block_floats is not None:
        monkeypatch.setattr(circle, "_BLOCK_FLOATS", block_floats)
    run_property_corpus(tmp_path, geometry_samples=2000, oracle_samples=500, runs=1)
    digest = hashlib.sha256((tmp_path / "summary.json").read_bytes()).hexdigest()
    assert digest == SMALL_CORPUS_SUMMARY


def test_property_corpus_memory_does_not_grow_with_the_samples(tmp_path):
    # geometry states are drawn and checked a block of rows at a time, so
    # the peak is set by the oracle's first oracle_samples rows: 13.6 and
    # 13.4 MiB at 2e4 and 1e5 samples, where whole batches peaked at 45.5
    # MiB at 1e5 (tracemalloc)
    peaks = []
    for samples in (20_000, 100_000):
        tracemalloc.start()
        try:
            assert run_property_corpus(tmp_path / str(samples), geometry_samples=samples,
                                       runs=1).passed
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.2 * peaks[0]


def test_property_corpus_refuses_samples_above_the_cap(tmp_path):
    with pytest.raises(ValueError, match=f"at most {MAX_GEOMETRY_SAMPLES}, got"):
        run_property_corpus(tmp_path / "out", geometry_samples=MAX_GEOMETRY_SAMPLES + 1)
    assert not (tmp_path / "out").exists()


def test_study_configs_expose_the_pinned_parameters():
    cfg = fig2_config()
    np.testing.assert_array_equal(cfg.x0, FIG2_X0)
    assert cfg.omega == 1.0
    assert cfg.prc.name == "paper"
    pcfg = perturbed_config(0.03)
    assert pcfg.horizon == 120.0
    assert pcfg.stop_v_threshold is None
    assert pcfg.perturbation.amplitude == 0.03
    assert pcfg.perturbation.frequency == 0.5
    assert pcfg.perturbation.offsets is None  # resolved for the run's n = 3
    offs = sim._splay_offsets(3)
    np.testing.assert_allclose(offs, [0.0, TWO_PI / 3, 2 * TWO_PI / 3])


def test_default_offsets_give_the_bytes_of_explicit_ones(tmp_path):
    explicit = Perturbation.sinusoidal(0.05, 0.5, tuple(TWO_PI * k / 3 for k in range(3)))
    files = []
    for name, cfg in (("default", perturbed_config(0.05)),
                      ("explicit", perturbed_config(0.05, perturbation=explicit))):
        arc = run(cfg)
        assert arc.perturbed and arc.jumps > 10
        for write in (write_trajectory_csv, write_events_csv):
            path = tmp_path / f"{name}-{write.__name__}.csv"
            write(arc, path)
            files.append(path.read_bytes())
    assert files[:2] == files[2:]


def test_fig2_converges_only_after_the_pinned_horizon():
    # the dynamics take just over 13 revolutions to dip below 1e-6; the
    # budget of 100 leaves room for the stop rule to confirm it held
    arc80 = run(fig2_config(horizon=80.0))
    assert arc80.stop_reason == "horizon"
    assert 1e-6 < lyapunov(arc80.final_state) < 1e-5
    arc = run(fig2_config())
    assert arc.stop_reason == "stop-rule"
    assert lyapunov(arc.final_state) < 1e-6
