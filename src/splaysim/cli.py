"""Command-line front end.

Exit codes: 0 success, 1 a failed study or validation, 2 a usage or
configuration error.  The commands raise, and ``main`` alone turns an
error into its exit code and a one-line message: a ValueError or OSError
(a malformed config, flag or CSV; a path that cannot be read or written)
exits 2, a ZenoViolationError or InvalidPhaseResponseError exits 1.  A
failed ``simulate`` leaves no CSV and no directory it created; a failed
``experiment`` keeps the files its study wrote before the failure.
Numbers are printed with 12 significant digits.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import shutil
import sys
from pathlib import Path

import numpy as np

from . import analysis, experiments
from .model import InvalidPhaseResponseError, validate_prc
from .prc import prc_from_spec
from .sim import (
    Perturbation,
    SimConfig,
    ZenoViolationError,
    _start,
    read_trajectory_csv,
    run,
    write_trajectory_csv,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

CONFIG_SCHEMA = "simconfig/1"
OUT_ENV = "SPLAYSIM_OUT"
DEFAULT_OUT = "splaysim_out"

_FIELDS = dataclasses.fields(SimConfig)
_CONFIG_KEYS = {"schema"} | {f.name for f in _FIELDS}
_PERTURBATION_KEYS = {"kind", "amplitude", "frequency", "offsets"}


def _fmt(v: float) -> str:
    return f"{v:.12g}"


def _load_config(path: str) -> dict:
    try:
        data = json.loads(Path(path).read_bytes())
    except ValueError as exc:  # UnicodeDecodeError too: JSON is UTF-8
        raise ValueError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(data, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    tag = data.get("schema")
    if tag != CONFIG_SCHEMA:
        raise ValueError(f"{path}: schema must be {CONFIG_SCHEMA!r}, got {tag!r}")
    for key in data:
        if key not in _CONFIG_KEYS:
            raise ValueError(f"{path}: unknown key {key!r}")
    pert = data.get("perturbation")
    if pert is not None:
        if not isinstance(pert, dict):
            raise ValueError(f"{path}: perturbation must be an object")
        for key in pert:
            if key not in _PERTURBATION_KEYS:
                raise ValueError(f"{path}: unknown perturbation key {key!r}")
    return data


def _floats(name: str, text: str) -> list[float]:
    """The numbers of a comma-separated flag (--x0, --perturb-offsets)."""
    try:
        return [float(p) for p in text.split(",")]
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None


def _build_perturbation(block: dict | None, args) -> Perturbation:
    """The config's perturbation block with the --perturb-* flags laid over
    it.  Any sinusoid parameter without a kind means kind 'sinusoidal', and
    kind 'none' takes none; Perturbation.sinusoidal defaults the rest and
    checks each value, its message prefixed 'perturbation.' here."""
    params = dict(block or {})
    sinusoid_keys = sorted(_PERTURBATION_KEYS - {"kind"})
    for key in sinusoid_keys:
        flag = getattr(args, f"perturb_{key}")
        if flag is not None:
            params[key] = _floats("perturbation.offsets", flag) if key == "offsets" else flag
    given = {key: params[key] for key in sinusoid_keys if params.get(key) is not None}
    kind = params.get("kind")
    if kind is None:
        kind = "sinusoidal" if given else "none"
    if kind == "none":
        if given:
            raise ValueError(f"perturbation kind 'none' takes no {', '.join(given)}")
        return Perturbation.none()
    if kind != "sinusoidal":
        raise ValueError(f"unknown perturbation kind {kind!r}")
    if "amplitude" not in given:
        raise ValueError("sinusoidal perturbation needs an amplitude")
    try:
        return Perturbation.sinusoidal(**given)
    except ValueError as exc:
        raise ValueError(f"perturbation.{exc}") from None


def _build_sim_config(args) -> SimConfig:
    """Each SimConfig field from its flag (same dest), else the config key
    of the same name; SimConfig checks the values and defaults the rest."""
    data = _load_config(args.config) if args.config else {}
    config_dir = Path(args.config).parent if args.config else Path.cwd()
    values = {}
    for f in _FIELDS:
        flag = getattr(args, f.name, None)
        if flag is not None:
            values[f.name] = _floats("x0", flag) if f.name == "x0" else flag
        elif f.name in data:
            values[f.name] = data[f.name]
    for key, what in (("x0", "a start state"), ("prc", "a response function")):
        if values.get(key) is None:
            raise ValueError(f"{what} is required (config key {key!r} or flag --{key})")
    n = _start(values["x0"]).size  # the response is built for the run's n
    spec = values["prc"]
    if isinstance(spec, str) and spec.startswith("table:"):
        spec = f"table:{config_dir / spec[len('table:'):]}"
    values["prc"] = prc_from_spec(spec, n)
    values["perturbation"] = _build_perturbation(data.get("perturbation"), args)
    return SimConfig(**values)


def _out_dir(args) -> Path:
    if args.out:
        return Path(args.out)
    return Path(os.environ.get(OUT_ENV, DEFAULT_OUT))


def cmd_simulate(args) -> int:
    arc = run(_build_sim_config(args))
    out = _out_dir(args)
    created = [p for p in (out, *out.parents) if not p.exists()]  # innermost first
    traj, events = out / "trajectory.csv", out / "events.csv"
    try:
        out.mkdir(parents=True, exist_ok=True)
        write_trajectory_csv(arc, traj, events)  # a failed write removes both files
    except BaseException:  # an interrupt too: leave no directory of this run behind
        if created:
            shutil.rmtree(created[-1], ignore_errors=True)
        raise
    final_t, final_j = arc.final_time
    print(f"stop reason: {arc.stop_reason}")
    print(f"final hybrid time: t={_fmt(final_t)} j={final_j}")
    print(f"jumps: {arc.jumps}")
    print(f"terminal V: {_fmt(arc.v[-1])}")
    dwell = arc.min_dwell_after_first()
    if not np.isnan(dwell):
        print(f"min dwell after first jump: {_fmt(dwell)}")
    print(f"trajectory: {traj}")
    print(f"events: {events}")
    return EXIT_OK


def cmd_validate_prc(args) -> int:
    prc = prc_from_spec(args.prc, args.n)
    report = validate_prc(prc.func, args.n, grid=args.grid, lipschitz=args.lipschitz)
    print(report.summary())
    return EXIT_OK if report.passed else EXIT_FAIL


def cmd_experiment(args) -> int:
    runner = experiments.EXPERIMENTS.get(args.name)
    if runner is None:
        raise ValueError(f"unknown experiment {args.name!r}; "
                         f"choose from {', '.join(sorted(experiments.EXPERIMENTS))}")
    out = _out_dir(args) / args.name
    kwargs = {}
    for flag in ("samples", "runs", "seed"):
        if args.name != "corpus" and getattr(args, flag) is not None:
            raise ValueError(f"--{flag} applies to the corpus experiment only")
    if args.samples is not None:
        kwargs["geometry_samples"] = args.samples
        kwargs["oracle_samples"] = min(args.samples, 10_000)
    if args.runs is not None:
        kwargs["runs"] = args.runs
    if args.seed is not None:
        kwargs["seed"] = args.seed
    report = runner(out, **kwargs)
    for line in report.lines():
        print(line)
    print(f"summary: {out / 'summary.json'}")
    return EXIT_OK if report.passed else EXIT_FAIL


def cmd_closeness(args) -> int:
    arc1 = read_trajectory_csv(args.first)
    arc2 = read_trajectory_csv(args.second)
    report = analysis.closeness(arc1, arc2, args.tau)
    print(f"tau: {_fmt(report.tau)}")
    print(f"eps_star: {_fmt(report.eps_star)}")
    print(f"witness: t={_fmt(report.witness_t)} j={report.witness_j} "
          f"({report.witness_direction})")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splaysim",
        description="Simulate and analyse pulse-coupled oscillator networks "
                    "that desynchronise into the splay state.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one network and write CSVs")
    sim.add_argument("config", nargs="?", help=f"JSON config ({CONFIG_SCHEMA}); "
                     "inline flags override its values")
    sim.add_argument("--omega", type=float,
                     help=f"nominal rate (default {SimConfig.omega:g})")
    sim.add_argument("--prc", help="response selector: paper | linear:<c> | "
                     "table:<path> | broken:<name>")
    sim.add_argument("--x0", help="comma-separated start phases in [0, 2*pi]")
    sim.add_argument("--horizon", type=float,
                     help=f"flow-time horizon (default {SimConfig.horizon:g})")
    sim.add_argument("--max-jumps", type=int, dest="max_jumps")
    sim.add_argument("--stop-v", type=float, dest="stop_v_threshold",
                     help="stop once V stays below this for a full revolution")
    sim.add_argument("--policy", choices=("all-zero", "enumerate"),
                     help="resolution of simultaneous firings")
    sim.add_argument("--seed", type=int, help="seed for set-valued jump choices")
    sim.add_argument("--sample-dt", type=float, dest="sample_dt")
    sim.add_argument("--perturb-amplitude", type=float, dest="perturb_amplitude")
    sim.add_argument("--perturb-frequency", type=float, dest="perturb_frequency")
    sim.add_argument("--perturb-offsets", dest="perturb_offsets",
                     help="comma-separated phase offsets, one per oscillator")
    sim.add_argument("--out", help=f"output directory (default ${OUT_ENV} or ./{DEFAULT_OUT})")
    sim.set_defaults(func=cmd_simulate)

    val = sub.add_parser("validate-prc", help="check a response function")
    val.add_argument("--prc", required=True)
    val.add_argument("--n", type=int, required=True)
    val.add_argument("--grid", type=int, default=100_000)
    val.add_argument("--lipschitz", type=float, default=10.0)
    val.set_defaults(func=cmd_validate_prc)

    exp = sub.add_parser("experiment", help="run a shipped study")
    exp.add_argument("name", help=", ".join(sorted(experiments.EXPERIMENTS)))
    exp.add_argument("--out", help=f"output directory (default ${OUT_ENV} or ./{DEFAULT_OUT})")
    exp.add_argument("--samples", type=int, help="corpus only: geometry sample count")
    exp.add_argument("--runs", type=int, help="corpus only: convergence run count")
    exp.add_argument("--seed", type=int, help="corpus only: master seed")
    exp.set_defaults(func=cmd_experiment)

    clo = sub.add_parser("closeness", help="compare two trajectory CSVs")
    clo.add_argument("first")
    clo.add_argument("second")
    clo.add_argument("--tau", type=float, required=True,
                     help="hybrid time bound t + j <= tau")
    clo.set_defaults(func=cmd_closeness)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ZenoViolationError as exc:
        print(f"zeno violation: {exc}", file=sys.stderr)
    except InvalidPhaseResponseError as exc:
        print(f"invalid response function: {exc}", file=sys.stderr)
    return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
