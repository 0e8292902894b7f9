"""The benchmark's three seeded workloads.

Each workload turns its seed into inputs once (set-up), then exposes one
pass as a list of operations.  An operation is a timed call into splaysim;
its check runs afterwards, outside the timing, and says whether the output
is correct.  Every pass repeats the same inputs, so every pass does the
same work and writes the same bytes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# calls into the program go through module attributes, so that a tracer
# that rebinds splaysim's functions sees them
from splaysim import analysis, cli, experiments, prc, sim
from splaysim.circle import shortest_arc_length, shortest_arc_oracle

#: Sizes of one pass.  "full" is what the benchmark measures; "tiny" keeps
#: the same code paths for the benchmark's own tests.
SIZES = {
    "full": {
        "corpus_items": 100, "corpus_ns": (2, 3, 5),
        "cli_starts": 2, "cli_horizon": 120.0, "cli_eps": (0.03, 0.05),
        "large_ns": (100, 200), "large_horizon": 200.0,
    },
    "tiny": {
        "corpus_items": 6, "corpus_ns": (2, 3, 5),
        "cli_starts": 1, "cli_horizon": 20.0, "cli_eps": (0.03,),
        "large_ns": (10, 20), "large_horizon": 20.0,
    },
}

ARC_TOL = 1e-12
CLI_TAU = "40"
CLI_FREQUENCY = 0.5
LARGE_SAMPLE_DT = 0.1


@dataclass(frozen=True)
class Check:
    """Outcome of one operation's output check."""

    ok: bool
    jumps: int = 0
    detail: str = ""


class Workload:
    """Base: inputs from a seed, one pass as (label, call, check) triples."""

    name = ""

    def __init__(self, seed: int, work_dir: Path, size: str = "full"):
        self.rng = np.random.default_rng(seed)
        self.work = Path(work_dir)
        self.work.mkdir(parents=True, exist_ok=True)
        self.size = SIZES[size]
        self.digest = hashlib.sha256()

    def begin_pass(self) -> None:
        """Start a fresh output digest; each pass should reproduce it."""
        self.digest = hashlib.sha256()

    def operations(self):
        raise NotImplementedError

    def _hash_files(self, *paths: Path) -> None:
        for path in paths:
            self.digest.update(path.read_bytes())


class Corpus(Workload):
    """Theorem-1 corpus, one single-run corpus call per item."""

    name = "corpus"

    def __init__(self, seed, work_dir, size="full"):
        super().__init__(seed, work_dir, size)
        ns = self.size["corpus_ns"]
        self.items = [(k, ns[k % len(ns)], int(self.rng.integers(2**32)))
                      for k in range(self.size["corpus_items"])]

    def operations(self):
        for k, n, item_seed in self.items:
            out = self.work / f"item_{k:03d}"

            def call(n=n, item_seed=item_seed, out=out):
                return experiments.theorem1_corpus(runs=1, ns=(n,), seed=item_seed,
                                                   out_dir=out)

            def check(records, out=out):
                rec = records[0]
                if not (rec.converged and rec.monotone_passed):
                    return Check(False, rec.jumps,
                                 f"converged={rec.converged} monotone={rec.monotone_passed}")
                events = out / "run_000_events.csv"
                post = _read_post_states(events)
                if len(post):
                    err = float(np.max(np.abs(shortest_arc_length(post)
                                              - shortest_arc_oracle(post))))
                    if not err <= ARC_TOL:
                        return Check(False, rec.jumps, f"arc length off oracle by {err:.3e}")
                self._hash_files(out / "run_000_trajectory.csv", events)
                return Check(True, rec.jumps)

            yield f"item_{k:03d}", call, check


class PerturbedCli(Workload):
    """Nominal and sinusoidally disturbed n=3 runs through the CLI, then closeness."""

    name = "perturbed_cli"

    def __init__(self, seed, work_dir, size="full"):
        super().__init__(seed, work_dir, size)
        self.configs = []
        for i in range(self.size["cli_starts"]):
            x0 = experiments.draw_start(self.rng, 3)
            runs = []
            for eps in (0.0,) + self.size["cli_eps"]:
                label = "nominal" if eps == 0.0 else f"eps_{eps:g}"
                cfg = {"schema": "simconfig/1", "prc": "paper",
                       "x0": [float(v) for v in x0],
                       "horizon": self.size["cli_horizon"], "stop_v_threshold": None}
                if eps:
                    cfg["perturbation"] = {"kind": "sinusoidal", "amplitude": eps,
                                           "frequency": CLI_FREQUENCY}
                path = self.work / f"start_{i}_{label}.json"
                path.write_text(json.dumps(cfg))
                runs.append((label, path, self.work / f"start_{i}" / label))
            self.configs.append(runs)

    def operations(self):
        for i, runs in enumerate(self.configs):
            for label, cfg, out in runs:
                argv = ["simulate", str(cfg), "--out", str(out)]
                yield f"start_{i}_simulate_{label}", _cli_call(argv), self._check_simulate(out)
            nominal = runs[0][2] / "trajectory.csv"
            for label, _, out in runs[1:]:
                argv = ["closeness", str(nominal), str(out / "trajectory.csv"), "--tau", CLI_TAU]
                yield f"start_{i}_closeness_{label}", _cli_call(argv), _check_closeness

    def _check_simulate(self, out: Path):
        def check(result):
            code, text = result
            if code != 0:
                return Check(False, 0, f"exit {code}: {text.strip()[-200:]}")
            jumps = int(_field(text, "jumps"))
            self._hash_files(out / "trajectory.csv", out / "events.csv")
            return Check(True, jumps)
        return check


def _check_closeness(result) -> Check:
    code, text = result
    if code != 0:
        return Check(False, 0, f"exit {code}: {text.strip()[-200:]}")
    eps_star = float(_field(text, "eps_star"))
    if not math.isfinite(eps_star):
        return Check(False, 0, f"eps_star {eps_star!r} is not finite")
    return Check(True)


class LargeN(Workload):
    """Long nominal runs over wide states; no CSV output."""

    name = "large_n"

    def __init__(self, seed, work_dir, size="full"):
        super().__init__(seed, work_dir, size)
        self.starts = [(n, experiments.draw_start(self.rng, n)) for n in self.size["large_ns"]]

    def operations(self):
        horizon = self.size["large_horizon"]
        for n, x0 in self.starts:
            def call(n=n, x0=x0):
                cfg = sim.SimConfig(prc=prc.paper_prc(n), x0=x0, horizon=horizon,
                                    sample_dt=LARGE_SAMPLE_DT)
                arc = sim.run(cfg)
                return arc, analysis.verify_monotone(arc)

            def check(result):
                arc, verdict = result
                # no CSV is written here, so the digest covers the event
                # times and post-jump states at full precision instead
                self.digest.update(np.asarray([e.t for e in arc.events]).tobytes())
                for e in arc.events:
                    self.digest.update(e.post.tobytes())
                if not verdict.passed:
                    return Check(False, arc.jumps, str(verdict))
                return Check(True, arc.jumps)

            yield f"run_n{n}", call, check


WORKLOADS = {w.name: w for w in (Corpus, PerturbedCli, LargeN)}


def _cli_call(argv):
    def call():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
        return code, buf.getvalue()
    return call


def _field(text: str, key: str) -> str:
    for line in text.splitlines():
        if line.startswith(key + ":"):
            return line.split(":", 1)[1].strip()
    raise ValueError(f"no {key!r} line in output")


def _read_post_states(path: Path) -> np.ndarray:
    """Post-jump states of an events CSV (t,j,firers,branch,pre_*,post_*)."""
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    cols = [i for i, h in enumerate(header) if h.startswith("post_")]
    return np.asarray([[float(row.split(",")[i]) for i in cols] for row in lines[1:]])
