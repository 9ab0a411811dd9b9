#!/usr/bin/env python3
"""Study-ladder benchmark for trifem.

    python3 studybench/run.py --workload poisson-cg --seed 1 --seconds 30 --trace 0
    python3 studybench/run.py --workload all --seed 1 --seconds 30

Run from the root of a trifem checkout.  With --trace 0 it repeats rounds
of (set-up process, study process) for --seconds and reports the
end-to-end metrics; with --trace 1 it repeats rounds of (study process,
traced process) and reports the per-layer metrics, writing every span to
studybench/results/.  --workload all runs both modes on every workload.
Every output is checked (see checks.py); the last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
from workloads import WORKLOADS, local_dofs, workload_elements

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
# each measurement (one workload in one mode) must end within 180 s;
# --workload all makes six of them in a row
RUN_LIMIT_S = 170.0
SETUP_PER_ROUND = 2  # set-up samples are short, so take more of them

E2E_UNITS = {"setup_s": "s", "study_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "refelem.build_s": "s",
    "mesh.build_s": "s",
    "mesh.size_field_s": "s",
    "mesh.geometry_s": "s",
    "mesh.cells": "count",
    "transform.M_s": "s",
    "transform.M_nnz": "count",
    "transform.M_dense": "count",
    "transform.congruence_flops_dense": "flop",
    "transform.congruence_flops_sparse": "flop",
    "assembly.dofmap_s": "s",
    "assembly.operator_s": "s",
    "assembly.load_s": "s",
    "assembly.matvec_s": "s",
    "assembly.triplets": "count",
    "assembly.nnz": "count",
    "assembly.dofs": "count",
    "solver.solve_s": "s",
    "solver.cg_iterations": "count",
    "solver.l2_error_s": "s",
    "trace.ladder_s": "s",
    "trace.study_path_ratio": "ratio",
}
# the spans of calls `trifem study` itself makes; the traced ladder also
# times matvec calls and runs the rung checks, which the study does not
STUDY_PATH = ("refelem.build", "mesh.build", "assembly.operator",
              "assembly.load", "solver.solve", "solver.l2_error")


class Run:
    """Counts operations (one per set-up sample and one per study rung)
    and remembers why any of them failed."""

    def __init__(self):
        self.deadline = None
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def tally(self, n_ops, failures, context):
        self.attempted += n_ops
        self.failed += len({i for i, _ in failures})
        self.problems += [f"{context}: {msg}" for _, msg in failures]

    def child(self, n_ops, context, *args):
        """Output of one child.py process, or None when it crashed or hit
        the time limit; then all its n_ops operations count as failed."""
        remaining = self.deadline - time.monotonic()
        why = "the measurement reached its time limit"
        if remaining > 0:
            try:
                proc = subprocess.run(
                    [sys.executable, str(HERE / "child.py"), *map(str, args)],
                    cwd=ROOT, env=child_env(), capture_output=True, text=True,
                    timeout=remaining)
            except subprocess.TimeoutExpired:
                proc = None
            if proc is not None and proc.returncode == 0:
                return json.loads(proc.stdout.splitlines()[-1])
            if proc is not None:
                tail = proc.stderr.strip().splitlines()[-1:] or [""]
                why = f"child.py exited {proc.returncode}: {tail[0]}"
        self.tally(n_ops, [(i, why) for i in range(n_ops)], context)
        return None


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def ladder_rungs(workload):
    return sum(len(lad.levels) for lad in WORKLOADS[workload])


def setup_sample(run, workload):
    out = run.child(1, f"{workload} setup", "setup", workload)
    if out is None:
        return None
    want = [local_dofs(e) for e in workload_elements(workload)]
    bad = [] if out["n_dofs"] == want else [
        (0, f"elements have {out['n_dofs']} local DoFs, expected {want}")]
    run.tally(1, bad, f"{workload} setup")
    return out["setup_s"]


def study_sample(run, workload, csv_dir, first_csvs):
    """One `trifem study`-equivalent process; checks its rows and CSVs."""
    out = run.child(ladder_rungs(workload), f"{workload} study",
                    "study", workload, csv_dir)
    if out is None:
        return None
    for k, (lad, res) in enumerate(zip(WORKLOADS[workload], out["ladders"])):
        rungs = range(len(lad.levels))
        if res["failure"]:
            run.tally(len(rungs), [(i, res["failure"]) for i in rungs],
                      lad.element)
            continue
        rows = res["rows"]
        text = Path(res["csv"]).read_text()
        bad = checks.dof_failures(lad.element, lad.levels, [r["dofs"] for r in rows])
        bad += checks.convergence_failures(lad, [r["error"] for r in rows],
                                           [r["rate"] for r in rows])
        bad += checks.csv_failures(text, rows)
        if lad.solver == "cg":
            bad += checks.cg_failures(lad.levels, [r["iterations"] for r in rows])
        if first_csvs.setdefault(k, text) != text:
            bad += [(i, "CSV differs from the first repeat's") for i in rungs]
        run.tally(len(rungs), bad, f"{workload} {lad.element} study")
    return out


def medians(samples):
    """Median of each metric's samples; a metric with none is left out."""
    return {name: statistics.median(v) for name, v in samples.items() if v}


def end_to_end(run, workload, seconds, csv_dir):
    samples = {"setup_s": [], "study_s": [], "peak_rss_mb": []}
    first_csvs = {}
    start = time.monotonic()
    while True:
        for _ in range(SETUP_PER_ROUND):
            setup = setup_sample(run, workload)
            if setup is not None:
                samples["setup_s"].append(setup)
        out = study_sample(run, workload, csv_dir, first_csvs)
        if out is None:
            break
        samples["study_s"].append(out["study_s"])
        samples["peak_rss_mb"].append(out["peak_rss_mb"])
        if time.monotonic() - start >= seconds:
            break
    return medians(samples), len(samples["study_s"])


def traced_sample(run, workload, seed, study):
    """One traced process; checks its rungs and sums its per-rung figures."""
    out = run.child(ladder_rungs(workload), f"{workload} traced",
                    "trace", workload, seed)
    if out is None:
        return None, None
    bad_by_ladder = {}
    for k, i, msg in out["failures"]:
        bad_by_ladder.setdefault(k, []).append((i, msg))
    sums = dict.fromkeys(LAYER_UNITS, 0)
    for k, (lad, rec, res) in enumerate(zip(WORKLOADS[workload], out["ladders"],
                                            study["ladders"])):
        rungs = rec["rungs"]
        errors = [r["error"] for r in rungs]
        bad = bad_by_ladder.get(k, [])
        bad += checks.dof_failures(lad.element, lad.levels,
                                   [r["assembly.dofs"] for r in rungs])
        bad += checks.convergence_failures(lad, errors)
        if lad.solver == "cg":
            bad += checks.cg_failures(lad.levels,
                                      [r["solver.cg_iterations"] for r in rungs])
        bad += [(i, f"traced error {e!r} differs from the study's {r['error']!r}")
                for i, (e, r) in enumerate(zip(errors, res["rows"]))
                if e != r["error"]]
        run.tally(len(rungs), bad, f"{workload} {lad.element} traced")
        sums["refelem.build_s"] += rec["refelem.build_s"]
        for r in rungs:
            for name in LAYER_UNITS:
                sums[name] += r.get(name, 0)
    spans = out["spans"]
    sums["trace.ladder_s"] = sum(s["end"] - s["start"] for s in spans
                                 if s["name"] == "ladder")
    study_path = sum(s["end"] - s["start"] for s in spans if s["name"] in STUDY_PATH)
    sums["trace.study_path_ratio"] = study_path / study["study_s"]
    return sums, out


def per_layer(run, workload, seed, seconds, csv_dir):
    rounds, trace = [], {"workload": workload, "seed": seed, "rounds": []}
    first_csvs = {}
    start = time.monotonic()
    while True:
        study = study_sample(run, workload, csv_dir, first_csvs)
        if study is None:
            break
        sums, out = traced_sample(run, workload, seed, study)
        if sums is None:
            break
        rounds.append(sums)
        trace["rounds"].append({"study_s": study["study_s"], "metrics": sums,
                                "ladders": out["ladders"], "spans": out["spans"]})
        if time.monotonic() - start >= seconds:
            break
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"trace-{workload}-seed{seed}.json"
    path.write_text(json.dumps(trace))
    print(f"wrote {len(rounds)} traced rounds to {path.relative_to(ROOT)}")
    return {name: statistics.median_low(r[name] for r in rounds)
            for name in LAYER_UNITS if rounds}, len(rounds)


def measure(run, workload, seed, seconds, trace):
    run.deadline = time.monotonic() + RUN_LIMIT_S
    csv_dir = RESULTS / f"csv-{workload}-{seed}-{trace}"
    csv_dir.mkdir(parents=True, exist_ok=True)
    try:
        if trace:
            values, n = per_layer(run, workload, seed, seconds, csv_dir)
            units = LAYER_UNITS
        else:
            values, n = end_to_end(run, workload, seconds, csv_dir)
            units = E2E_UNITS
    finally:
        shutil.rmtree(csv_dir, ignore_errors=True)
    print(f"{workload} ({'traced' if trace else 'end to end'}, medians of {n} rounds)")
    for name, value in values.items():
        print(f"  {name:36s} {value:>16.6g} {units[name]}")
    return {name: {"value": values[name], "unit": units[name]} for name in values}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "trifem" / "__init__.py").is_file():
        print(f"error: no trifem sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    run = Run()
    if args.workload == "all":
        metrics = {f"{w}.{name}": m
                   for w in WORKLOADS for trace in (0, 1)
                   for name, m in measure(run, w, args.seed, args.seconds,
                                          trace).items()}
    else:
        metrics = measure(run, args.workload, args.seed, args.seconds, args.trace)
    for msg in run.problems:
        print(f"FAILED {msg}", file=sys.stderr)
    print(json.dumps({"correct": not run.problems, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
