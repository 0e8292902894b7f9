"""Shipped studies and property corpora.

Each experiment runs deterministically from its configuration (seeds
included), writes its CSV artifacts plus a summary.json into the chosen
output directory, and returns a report whose `passed` flag aggregates the
study's own assertions.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import analysis, circle
from .circle import (
    TWO_PI,
    check_number,
    min_pairwise_geodesic,
    shortest_arc_length,
    shortest_arc_oracle,
    splay_arc_length,
    splay_gap_deviation,
)
from .model import DEFAULT_SPLAY_TOL, in_bad_set, validate_prc
from .prc import broken_step, broken_steep, broken_zero, paper_prc
from .sim import Perturbation, SimConfig, run, write_trajectory_csv

FIG2_X0 = (5.5977, 6.0274, 3.4383)

#: Budget for the shipped nominal study, set from measurement: with exact
#: event times the stop rule ends this run near t = 90.3 (V first dips
#: below 1e-6 at t = 84.03; for the one revolution before, from t = 77.75,
#: V is 2.67e-6).
FIG2_HORIZON = 100.0

PERTURBED_X0 = (0.0, 0.1, 0.2)
PERTURBED_EPSILONS = (0.03, 0.05)
PERTURBED_HORIZON = 120.0
PERTURBED_TAU = 40.0

#: n = 4 start with one listener far above the sector corner and the rest
#: packed so the post-jump gap behind it beats every pre-jump gap; with
#: slope 1.5 this provably bumps V at the very first firing (n = 3 admits
#: no such state: there a lone firer can never increase V even at c = 1.5).
STEEP_WITNESS_X0 = (2.0, 3.9, 6.2, TWO_PI)

CORPUS_SEED = 20260817
CORPUS_HORIZON = 250.0
#: cap on geometry_samples, 10x the default; run time is linear in it (about 4 s at the
#: cap), peak memory is not: the states are drawn a block of rows at a time (13.4 MiB
#: at the cap by tracemalloc, about what 2e4 samples take)
MAX_GEOMETRY_SAMPLES = 1_000_000
#: default oracle_samples, and its cap when the CLI's --samples sets geometry_samples;
#: the oracle is quadratic in n per row (circle.shortest_arc_oracle)
ORACLE_SAMPLES = 10_000


@dataclass
class ExperimentReport:
    name: str
    passed: bool
    details: dict = field(default_factory=dict)

    def write(self, out_dir) -> Path:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        path = out / "summary.json"
        payload = {"schema": f"{self.name}-report/1", "passed": self.passed}
        payload.update(self.details)
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return path

    def lines(self) -> list[str]:
        status = "pass" if self.passed else "FAIL"
        out = [f"experiment {self.name}: {status}"]
        for key, val in sorted(self.details.items()):
            if isinstance(val, (int, float, str, bool)):
                out.append(f"  {key}: {val}")
        return out


def fig2_config(**overrides) -> SimConfig:
    """Three oscillators, reference response, the shipped start state."""
    kwargs = dict(
        prc=paper_prc(3), x0=np.asarray(FIG2_X0), omega=1.0, horizon=FIG2_HORIZON,
    )
    kwargs.update(overrides)
    return SimConfig(**kwargs)


def run_fig2(out_dir) -> ExperimentReport:
    """Convergence study from the shipped start: V must be constant along
    flow, never increase at jumps, and end below the run's stop threshold."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    config = fig2_config()
    arc = run(config)
    write_trajectory_csv(arc, out / "trajectory.csv", out / "events.csv")
    verdict = analysis.verify_monotone(arc)
    terminal_v = float(arc.v[-1])
    passed = verdict.passed and terminal_v < config.stop_v_threshold
    report = ExperimentReport(
        name="fig2",
        passed=passed,
        details={
            "jumps": arc.jumps,
            "stop_reason": arc.stop_reason,
            "final_t": float(arc.ts[-1]),
            "terminal_v": terminal_v,
            "max_flow_oscillation": verdict.max_flow_oscillation,
            "max_jump_delta": verdict.max_jump_delta,
            "monotone_passed": verdict.passed,
        },
    )
    report.write(out)
    return report


def run_fig3(out_dir) -> ExperimentReport:
    """Comparator study on the same trajectory: the unclamped splay-line
    distance must increase across at least one jump (so it is not a
    Lyapunov functional) yet still end below 1e-3."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    arc = run(fig2_config())
    write_trajectory_csv(arc, out / "trajectory.csv", out / "events.csv")
    rows = arc.jump_rows
    deltas = arc.vtilde[rows + 1] - arc.vtilde[rows]
    increases = np.flatnonzero(deltas > analysis.MONOTONE_TOL)
    terminal_vt = float(arc.vtilde[-1])
    passed = increases.size > 0 and terminal_vt < 1e-3
    # how common the effect is across random starts, reported, not asserted
    corpus = theorem1_corpus(runs=100)
    fraction = sum(1 for r in corpus if r.vtilde_increase_jumps > 0) / len(corpus)
    report = ExperimentReport(
        name="fig3",
        passed=passed,
        details={
            "jumps": arc.jumps,
            "increase_count": int(increases.size),
            "first_increase_jump": int(increases[0]) + 1 if increases.size else None,
            "max_increase": float(deltas.max()) if deltas.size else 0.0,
            "terminal_vtilde": terminal_vt,
            "corpus_runs": len(corpus),
            "corpus_fraction_with_increase": fraction,
        },
    )
    report.write(out)
    return report


def perturbed_config(epsilon: float, **overrides) -> SimConfig:
    kwargs = dict(
        prc=paper_prc(3),
        x0=np.asarray(PERTURBED_X0),
        omega=1.0,
        horizon=PERTURBED_HORIZON,
        perturbation=Perturbation.sinusoidal(epsilon),
        stop_v_threshold=None,  # the study compares full-horizon tails
    )
    kwargs.update(overrides)
    return SimConfig(**kwargs)


def run_perturbed(out_dir) -> ExperimentReport:
    """Robustness study: nominal run plus sinusoidal rate disturbances.

    S(eps) is the sup of V over the final quarter of the horizon; the study
    asserts the chain S(0) < S(0.03) < S(0.05).  Each perturbed arc is also
    compared against the nominal one in the hybrid (tau, eps) sense; the
    eps_star values are reported, not asserted.  Both amplitudes shift the
    firing order away from the nominal one (this start packs the phases
    within 0.2 rad, and the disturbance drifts relative phases by up to
    6.5 eps), so both distances land near the label-permutation scale.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    arcs = {}
    for eps in (0.0,) + PERTURBED_EPSILONS:
        arc = run(perturbed_config(eps))
        label = "nominal" if eps == 0.0 else f"eps_{eps:g}"
        write_trajectory_csv(arc, out / f"{label}.csv", out / f"{label}_events.csv")
        arcs[eps] = arc

    tail_start = 0.75 * PERTURBED_HORIZON
    s = {}
    for eps, arc in arcs.items():
        s[eps] = float(arc.v[arc.ts >= tail_start].max())

    closeness = {
        eps: analysis.closeness(arcs[0.0], arcs[eps], PERTURBED_TAU)
        for eps in PERTURBED_EPSILONS
    }
    e1, e2 = PERTURBED_EPSILONS
    passed = s[0.0] < s[e1] < s[e2]
    report = ExperimentReport(
        name="perturbed",
        passed=passed,
        details={
            "horizon": PERTURBED_HORIZON,
            "tau": PERTURBED_TAU,
            "tail_start": tail_start,
            "s_nominal": s[0.0],
            **{f"s_eps_{eps:g}": s[eps] for eps in PERTURBED_EPSILONS},
            **{f"eps_star_{eps:g}": closeness[eps].eps_star for eps in PERTURBED_EPSILONS},
            **{f"witness_t_{eps:g}": closeness[eps].witness_t for eps in PERTURBED_EPSILONS},
            "eps_star_ordered": bool(closeness[e1].eps_star < closeness[e2].eps_star),
        },
    )
    report.write(out)
    return report


@dataclass(frozen=True)
class RunRecord:
    """One corpus run, reduced to the checked facts."""

    index: int
    n: int
    seed: int
    x0: tuple[float, ...]
    jumps: int
    final_t: float
    stop_reason: str
    terminal_v: float
    converged: bool
    monotone_passed: bool
    min_jump_geodesic: float
    min_dwell: float
    vtilde_increase_jumps: int


def corpus_run_config(n: int, x0, seed: int, horizon: float = CORPUS_HORIZON) -> SimConfig:
    return SimConfig(
        prc=paper_prc(n),
        x0=np.asarray(x0),
        omega=1.0,
        horizon=horizon,
        seed=seed,
        sample_dt=0.1,
    )


def draw_start(rng: np.random.Generator, n: int) -> np.ndarray:
    """Uniform start in the box, rejected while two phases coincide."""
    while True:
        x0 = rng.uniform(0.0, TWO_PI, size=n)
        if not in_bad_set(x0):
            return x0


def theorem1_corpus(runs: int = 100, ns=(2, 3, 5), seed: int = CORPUS_SEED,
                    horizon: float = CORPUS_HORIZON, out_dir=None) -> list[RunRecord]:
    """Seeded batch of convergence runs cycling over network sizes.

    Every run must bring V below its stop threshold, keep V monotone, keep
    all phase pairs geodesically apart at every firing, and keep
    consecutive firings more than 1e-6 s apart.
    When out_dir is given each run's CSVs are written there (the file
    contents repeat bit for bit when the corpus is rerun with one seed).
    runs must be an integer of at least 1, ns a nonempty sequence of
    integers of at least 2, seed a nonnegative integer and horizon positive
    and finite (circle.check_number), all checked before anything runs.
    """
    runs = check_number("runs", runs, "at least 1", int)
    if np.ndim(ns) != 1 or not len(ns):
        raise ValueError(f"ns must be a nonempty sequence of network sizes, got {ns!r}")
    ns = tuple(check_number("ns", n, "at least 2", int) for n in ns)
    seed = check_number("seed", seed, "nonnegative", int)
    horizon = check_number("horizon", horizon, "positive and finite")
    master = np.random.default_rng(seed)
    records: list[RunRecord] = []
    out = None
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
    for i in range(runs):
        n = ns[i % len(ns)]
        x0 = draw_start(master, n)
        run_seed = int(master.integers(2**32))
        config = corpus_run_config(n, x0, run_seed, horizon)
        arc = run(config)
        verdict = analysis.verify_monotone(arc)
        terminal_v = float(arc.v[-1])
        min_geo = float("nan")
        vt_up = 0
        if arc.jumps:
            rows = arc.jump_rows
            pre, post = arc.states[rows], arc.states[rows + 1]
            min_geo = float(min_pairwise_geodesic(np.concatenate([post, pre])).min())
            vt_rise = arc.vtilde[rows + 1] - arc.vtilde[rows]
            vt_up = int(np.count_nonzero(vt_rise > analysis.MONOTONE_TOL))
        records.append(RunRecord(
            index=i,
            n=n,
            seed=run_seed,
            x0=tuple(float(v) for v in x0),
            jumps=arc.jumps,
            final_t=float(arc.ts[-1]),
            stop_reason=arc.stop_reason,
            terminal_v=terminal_v,
            converged=bool(terminal_v < config.stop_v_threshold),
            monotone_passed=verdict.passed,
            min_jump_geodesic=min_geo,
            min_dwell=arc.min_dwell_after_first(),
            vtilde_increase_jumps=vt_up,
        ))
        if out is not None:
            write_trajectory_csv(arc, out / f"run_{i:03d}_trajectory.csv",
                                 out / f"run_{i:03d}_events.csv")
    return records


def steep_v_increase_witness():
    """Run the steep response (c = 1.5, n = 4) for 20 s from the constructed
    start and return (jump_index, delta) for the first V increase, or None."""
    cfg = SimConfig(
        prc=broken_steep(4),
        x0=np.asarray(STEEP_WITNESS_X0),
        horizon=20.0,
        stop_v_threshold=None,
    )
    deltas = analysis.verify_monotone(run(cfg)).trace.jump_deltas
    up = np.flatnonzero(deltas > analysis.MONOTONE_TOL)
    return (int(up[0]) + 1, float(deltas[up[0]])) if up.size else None


def run_property_corpus(out_dir, geometry_samples: int = 100_000,
                        oracle_samples: int = ORACLE_SAMPLES, runs: int = 100,
                        seed: int = CORPUS_SEED) -> ExperimentReport:
    """Randomised property corpus plus the negative (broken response) checks.

    Sections: circle geometry (arc bound, invariances, oracle agreement),
    splay detection, the convergence run corpus, and validator behaviour on
    the broken catalog including the constructed V-increase run.  The
    geometry_samples random states of the first two are drawn and checked
    a block of rows at a time, the same draws in the same order as whole
    batches would make, so memory does not grow with them.  Every
    budget must be an integer of at least 1 (circle.check_number),
    geometry_samples at most MAX_GEOMETRY_SAMPLES, and seed a nonnegative
    integer.
    """
    geometry_samples = check_number("geometry_samples", geometry_samples, "at least 1", int)
    oracle_samples = check_number("oracle_samples", oracle_samples, "at least 1", int)
    runs = check_number("runs", runs, "at least 1", int)
    seed = check_number("seed", seed, "nonnegative", int)
    if geometry_samples > MAX_GEOMETRY_SAMPLES:
        raise ValueError(f"geometry_samples must be at most {MAX_GEOMETRY_SAMPLES}, "
                         f"got {geometry_samples!r}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    details: dict = {"seed": seed, "geometry_samples": geometry_samples,
                     "oracle_samples": oracle_samples, "runs": runs}
    ok = True

    # circle geometry, drawn and checked a block of rows at a time; the
    # oracle and the invariances take the first oracle_samples rows
    geo: dict = {}
    kept = min(oracle_samples, geometry_samples)
    for n in range(2, 9):
        bound = splay_arc_length(n)
        over = -np.inf
        subs, gammas = [], []
        for block in circle._row_blocks(0, geometry_samples, n):
            xs = rng.uniform(0.0, TWO_PI, size=(block.stop - block.start, n))
            gamma = shortest_arc_length(xs)
            over = max(over, float((gamma - bound).max()))
            if block.start < kept:
                subs.append(xs[:kept - block.start])
                gammas.append(gamma[:kept - block.start])
        sub, gamma_sub = np.concatenate(subs), np.concatenate(gammas)
        oracle_dev = float(np.abs(gamma_sub - shortest_arc_oracle(sub)).max())
        rot = (sub + rng.uniform(0.0, TWO_PI, size=(kept, 1))) % TWO_PI
        rot_dev = float(np.abs(gamma_sub - shortest_arc_length(rot)).max())
        perm = rng.permuted(sub, axis=1)
        perm_dev = float(np.abs(gamma_sub - shortest_arc_length(perm)).max())
        geo[f"n{n}"] = {"bound_excess": over, "oracle_dev": oracle_dev,
                        "rotation_dev": rot_dev, "permutation_dev": perm_dev}
        ok &= over <= 1e-12 and oracle_dev <= 1e-12 and rot_dev <= 1e-9 and perm_dev <= 1e-12
    details["geometry"] = geo

    # splay detection, the random states drawn a block of rows at a time
    splay: dict = {}
    for n in range(2, 9):
        base = np.arange(n) * (TWO_PI / n)
        rots = (base[None, :] + rng.uniform(0.0, TWO_PI, size=(1000, 1))) % TWO_PI
        rots = rng.permuted(rots, axis=1)
        v_splay = float(analysis.lyapunov(rots).max())
        member = bool((splay_gap_deviation(rots) <= DEFAULT_SPLAY_TOL).all())
        off_count, v_min_off = 0, np.inf
        for block in circle._row_blocks(0, geometry_samples, n):
            xs = rng.uniform(0.0, TWO_PI, size=(block.stop - block.start, n))
            off = xs[splay_gap_deviation(xs) > 1e-3]
            if off.size:
                off_count += off.shape[0]
                v_min_off = min(v_min_off, float(analysis.lyapunov(off).min()))
        splay[f"n{n}"] = {"v_on_splay": v_splay, "members": member, "off_count": off_count,
                          "v_min_off": v_min_off if off_count else float("nan")}
        ok &= v_splay <= 1e-9 and member and v_min_off > 0.0
    details["splay"] = splay

    # convergence corpus
    records = theorem1_corpus(runs=runs, seed=seed, out_dir=out / "runs")
    details["runs_summary"] = {
        "converged": int(sum(r.converged for r in records)),
        "monotone_passed": int(sum(r.monotone_passed for r in records)),
        "total": len(records),
        "min_jump_geodesic": min(r.min_jump_geodesic for r in records),
        "min_dwell": min(r.min_dwell for r in records),
        "max_final_t": max(r.final_t for r in records),
    }
    details["records"] = [asdict(r) for r in records]
    ok &= all(r.converged and r.monotone_passed for r in records)
    ok &= all(r.min_jump_geodesic > 0.0 for r in records)
    ok &= all(r.min_dwell > 1e-6 for r in records if not np.isnan(r.min_dwell))

    # broken responses must be caught, and the steep one must bump V
    negative: dict = {}
    for label, prc in (("zero", broken_zero(3)), ("steep", broken_steep(3)),
                       ("step", broken_step(3))):
        report = validate_prc(prc.func, 3)
        negative[label] = {
            "passed_validation": report.passed,
            "failures": [
                {"check": c.name, "witness": c.witness} for c in report.failures()
            ],
        }
        ok &= not report.passed and len(report.failures()) > 0
    witness = steep_v_increase_witness()
    negative["steep_run"] = (
        {"jump": witness[0], "delta": witness[1]} if witness else None
    )
    ok &= witness is not None
    details["negative"] = negative

    report = ExperimentReport(name="corpus", passed=bool(ok), details=details)
    report.write(out)
    return report


EXPERIMENTS = {
    "fig2": run_fig2,
    "fig3": run_fig3,
    "perturbed": run_perturbed,
    "corpus": run_property_corpus,
}
