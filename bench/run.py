"""confmix benchmark: run the CLI the way users do and report its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every confmix command runs through `confmix.cli.main` in a fresh child
process (`child.py`), one process at a time, with the BLAS thread pool
pinned to BLAS_THREADS. A run first sets the workload up SETUP_REPEATS
times (import confmix, generate and write the graph document), then
repeats the workload's pipeline (train, one infer per gate seed, cost,
verify) for --seconds, at least MIN_ITERATIONS times.

With --trace 0 it reports the end-to-end metrics. With --trace 1 it
alternates untraced and traced iterations and reports the per-layer
metrics of the traced ones, plus the tracing overhead.

Every command is an operation. One that exits non-zero, writes output
that differs from the first iteration's, or fails a cross-check counts
as failed. The last line of standard output is the JSON result; the
line before it records the environment. README.md explains the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
CHILD = BENCH / "child.py"

BLAS_THREADS = 1
SETUP_REPEATS = 3
MIN_ITERATIONS = 2
CHILD_TIMEOUT_S = 170
# the acceptance instance: graph and train seed of the default run
PINNED_SEED = 7
# train's default --gate-seed; the infer with this seed must reproduce
# the test accuracies train wrote to metrics.csv
TRAIN_GATE_SEED = 1
# the documented `verify --suite all --seed 0`
VERIFY_SEED = 0

# Why each workload exists is in README.md. Seeds left as None come
# from --seed.
WORKLOADS = {
    "small_default": {
        "n_per_group": 100, "graph_seed": PINNED_SEED, "train_seed": PINNED_SEED,
        "train_flags": [], "verify_flags": []},
    "large_n4000": {
        # patience above max_epochs: every epoch runs, so the work per
        # train does not depend on early stopping
        "n_per_group": 2000, "graph_seed": None, "train_seed": None,
        "train_flags": ["--rounds", "1", "--max-epochs", "15", "--patience", "16",
                        "--pretrain-epochs", "15"],
        # a verify of over a second: each sample spans more of the machine's
        # speed swings than the 0.35 s default
        "verify_flags": ["--binary-count", "1000", "--ternary-count", "100"]},
    "verify_all": {
        "n_per_group": 100, "graph_seed": PINNED_SEED, "train_seed": PINNED_SEED,
        "train_flags": ["--rounds", "1", "--max-epochs", "150", "--patience", "151",
                        "--pretrain-epochs", "50"],
        "verify_flags": ["--binary-count", "2000", "--ternary-count", "200"]},
}

TRAIN_OUTPUTS = ("weak.json", "strong.json", "confidence.json", "loss.csv",
                 "confidence_hist.csv", "metrics.csv")

# end-to-end metric -> unit, as listed in BENCHMARK.json
END_TO_END = {
    "setup_s": "s",
    "train_s": "s",
    "epochs_per_s": "1/s",
    "infer_s": "s",
    "verify_s": "s",
    "peak_rss_mb": "MB",
    "test_acc_expected": "ratio",
    "test_acc_stochastic": "ratio",
}

EXACT_UNITS = ("count", "B", "MAC")


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def workload_params(name: str, seed: int) -> dict:
    spec = WORKLOADS[name]
    return {
        "n_per_group": spec["n_per_group"], "features": 8, "noise": 0.1,
        "graph_seed": seed if spec["graph_seed"] is None else spec["graph_seed"],
        "train_seed": seed if spec["train_seed"] is None else spec["train_seed"],
        "train_flags": spec["train_flags"],
        "gate_seeds": [TRAIN_GATE_SEED, 1000 + seed, 2000 + seed],
        "verify_seed": VERIFY_SEED,
        "verify_flags": spec["verify_flags"],
    }


@dataclass
class Command:
    """One finished child process."""
    code: int | None = None
    main_s: float = 0.0
    import_s: float = 0.0
    maxrss_mb: float = 0.0
    stdout: str = ""
    trace: dict | None = None
    problems: list = field(default_factory=list)


class Gates:
    """Operations attempted and the failures among them."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def record(self, label: str, problems: list):
        self.attempted += 1
        if problems:
            self.failures.append(f"{label}: {'; '.join(problems)}")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_child(workdir: Path, run_id: str, argv: list, traced: bool) -> Command:
    result_path = workdir / f"{run_id}.result.json"
    trace_path = workdir / f"{run_id}.trace.json"
    cmd = [sys.executable, str(CHILD), str(result_path),
           str(trace_path) if traced else "-", run_id, "--", *map(str, argv)]
    out = Command()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        out.problems.append(f"no exit within {CHILD_TIMEOUT_S} s")
        return out
    out.stdout = proc.stdout
    if proc.returncode != 0 or not result_path.is_file():
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        out.problems.append(f"exit code {proc.returncode} {tail[0]}")
        return out
    result = json.loads(result_path.read_text(encoding="utf-8"))
    if not Path(result["confmix_file"]).resolve().is_relative_to(SRC):
        raise BenchError(f"confmix was imported from {result['confmix_file']}, not {SRC}")
    out.code = result["code"]
    out.main_s, out.import_s = result["main_s"], result["import_s"]
    out.maxrss_mb = result["maxrss_kb"] / 1024.0
    if out.code != 0:
        out.problems.append(f"confmix exit code {out.code}")
    if traced:
        out.trace = json.loads(trace_path.read_text(encoding="utf-8"))
    return out


def read_csv(path: Path) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


class Pipeline:
    """One workload run: setup, the measured iterations and their checks."""

    def __init__(self, name: str, seed: int, trace: bool, workdir: Path):
        self.trace = trace
        self.params = workload_params(name, seed)
        self.workdir = workdir
        self.gates = Gates()
        self.baseline = {}     # output name -> bytes from the first iteration

    def same_as_first(self, key: str, data: bytes, problems: list):
        first = self.baseline.setdefault(key, data)
        if data != first:
            problems.append(f"{key} differs from the first iteration's")

    # ---- setup ----

    def setup(self):
        p = self.params
        self.setup_s, self.generate_s = [], []
        for k in range(SETUP_REPEATS):
            out = self.workdir / f"setup{k}"
            cmd = run_child(self.workdir, f"setup{k}.gen", [
                "gen", "--kind", "specialization", "--n-per-group", p["n_per_group"],
                "--features", p["features"], "--noise", p["noise"],
                "--seed", p["graph_seed"], "--out", out], self.trace)
            path = out / "specialization.json"
            if not cmd.problems:
                self.same_as_first("graph", path.read_bytes(), cmd.problems)
                self.setup_s.append(cmd.import_s + cmd.main_s)
                if cmd.trace is not None:
                    totals = tracing.SpanTotals()
                    totals.add(cmd.trace)
                    self.generate_s.append(
                        totals.total["graphs.generate_specialization_graph"])
            self.gates.record(f"setup{k}.gen", cmd.problems)
            if k == 0:
                if cmd.problems:
                    raise BenchError(f"setup failed: {'; '.join(cmd.problems)}")
                self.graph_path = path
                doc = json.loads(path.read_text(encoding="utf-8"))
                self.num_nodes = doc["num_nodes"]
                self.nnz = 2 * len(doc["edges"])
                self.test_ids = doc["splits"]["test"]

    # ---- one iteration ----

    def iteration(self, i: int, traced: bool) -> dict:
        p, d = self.params, self.workdir / f"it{i}"
        rec = {"traced": traced, "traces": {"train": [], "infer": [], "cost": [],
                                            "verify": []},
               "infer_s": [], "rss": [], "pipeline_s": 0.0}

        def command(kind, label, argv):
            cmd = run_child(self.workdir, f"it{i}.{label}", argv, traced)
            rec["pipeline_s"] += cmd.main_s
            rec["rss"].append(cmd.maxrss_mb)
            if cmd.trace is not None:
                rec["traces"][kind].append(cmd.trace)
            return cmd

        run_dir = d / "train"
        cmd = command("train", "train", [
            "train", "--data", self.graph_path, "--seed", p["train_seed"],
            "--gate-seed", TRAIN_GATE_SEED, "--out", run_dir, *p["train_flags"]])
        accuracies = {}
        if not cmd.problems:
            for name in TRAIN_OUTPUTS:
                self.same_as_first(f"train/{name}", (run_dir / name).read_bytes(),
                                   cmd.problems)
            rec["epochs"] = len(read_csv(run_dir / "loss.csv")) - 1
            accuracies = {(s, m): a for s, m, a in read_csv(run_dir / "metrics.csv")[1:]}
            rec["train_s"] = cmd.main_s
            rec["test_acc"] = {m: float(accuracies[("test", m)])
                               for m in ("expected", "stochastic")}
        self.gates.record(f"it{i}.train", cmd.problems)

        for gate_seed in p["gate_seeds"]:
            out = d / f"infer{gate_seed}"
            cmd = command("infer", f"infer{gate_seed}", [
                "infer", "--data", self.graph_path, "--weak", run_dir / "weak.json",
                "--strong", run_dir / "strong.json", "--spec", run_dir / "confidence.json",
                "--seed", gate_seed, "--out", out])
            if not cmd.problems:
                path = out / "predictions.csv"
                self.same_as_first(f"infer{gate_seed}/predictions.csv", path.read_bytes(),
                                   cmd.problems)
                self.check_predictions(read_csv(path), gate_seed, accuracies, cmd.problems)
                rec["infer_s"].append(cmd.main_s)
            self.gates.record(f"it{i}.infer{gate_seed}", cmd.problems)

        cmd = command("cost", "cost", ["cost", "--data", self.graph_path, "--layers", "2"])
        if not cmd.problems:
            self.same_as_first("cost/stdout", cmd.stdout.encode(), cmd.problems)
            if len(cmd.stdout.splitlines()) != 4:
                cmd.problems.append("cost did not print a header and three rows")
        self.gates.record(f"it{i}.cost", cmd.problems)

        out = d / "verify"
        cmd = command("verify", "verify", [
            "verify", "--suite", "all", "--seed", p["verify_seed"], "--out", out,
            *p["verify_flags"]])
        # exit code 1 means failed clauses: a finished run, timed but failed
        if cmd.code in (0, 1):
            path = out / "theorem_report.csv"
            self.same_as_first("verify/theorem_report.csv", path.read_bytes(), cmd.problems)
            rows = read_csv(path)[1:]
            failed = [row[4] + " " + row[5] for row in rows if row[-1] != "1"]
            if not rows or failed:
                cmd.problems.append(f"{len(failed)} of {len(rows)} clauses failed: "
                                    + ", ".join(failed[:3]))
            rec["verify_s"] = cmd.main_s
        self.gates.record(f"it{i}.verify", cmd.problems)
        return rec

    def check_predictions(self, rows, gate_seed, accuracies, problems):
        n = self.num_nodes
        body = rows[1:]
        if len(body) != 2 * n:
            problems.append(f"predictions.csv has {len(body)} rows, expected {2 * n}")
            return
        if any(r[1] not in ("weak", "strong") for r in body[:n]) or \
                any(r[1] != "expected" for r in body[n:]):
            problems.append("predictions.csv expert column out of order")
            return
        if gate_seed != TRAIN_GATE_SEED or not accuracies:
            return
        for mode, part in (("stochastic", body[:n]), ("expected", body[n:])):
            hits = sum(part[v][3] == part[v][4] for v in self.test_ids)
            acc = f"{hits / len(self.test_ids):.12g}"
            if acc != accuracies[("test", mode)]:
                problems.append(f"infer test {mode} accuracy {acc} != train's "
                                f"{accuracies[('test', mode)]}")

    # ---- the measured loop ----

    def measure(self, seconds: float) -> list:
        iterations, walls = [], []
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            traced = self.trace and len(iterations) % 2 == 1
            iterations.append(self.iteration(len(iterations), traced))
            now = time.perf_counter()
            walls.append(now - t0)
            if len(iterations) >= MIN_ITERATIONS and \
                    now - start + max(walls[-2:]) > seconds:
                return iterations


# How one run's samples of each end-to-end metric become its value. On a
# shared host the machine's speed swings by up to a third in phases
# lasting seconds to minutes, so the median of a run's samples flips
# between phases from run to run. A command's time is therefore its mean
# over the run: the run's total time in that command over its calls.
ESTIMATORS = {
    "setup_s": statistics.median,
    "train_s": statistics.fmean,
    "epochs_per_s": statistics.harmonic_mean,   # epochs over mean train time
    "infer_s": statistics.fmean,
    "verify_s": statistics.fmean,
    "peak_rss_mb": statistics.median,
    "test_acc_expected": statistics.median,
    "test_acc_stochastic": statistics.median,
}


def summary(values: list) -> dict:
    return {"n": len(values), "median": statistics.median(values),
            "min": min(values), "max": max(values)}


def end_to_end(pipe: Pipeline, iterations: list) -> dict:
    """{metric: list of samples} for every end-to-end metric."""
    done = [r for r in iterations if "train_s" in r]
    return {
        "setup_s": pipe.setup_s,
        "train_s": [r["train_s"] for r in done],
        "epochs_per_s": [r["epochs"] / r["train_s"] for r in done],
        "infer_s": [s for r in iterations for s in r["infer_s"]],
        "verify_s": [r["verify_s"] for r in iterations if "verify_s" in r],
        "peak_rss_mb": [max(r["rss"]) for r in iterations if r["rss"]],
        "test_acc_expected": [r["test_acc"]["expected"] for r in done],
        "test_acc_stochastic": [r["test_acc"]["stochastic"] for r in done],
    }


def per_layer(pipe: Pipeline, iterations: list) -> dict:
    """{metric: (value, unit)}: medians over the traced iterations."""
    samples = []
    for r in iterations:
        if r["traced"] and "epochs" in r:
            samples.append(tracing.layer_metrics(r["traces"], pipe.num_nodes,
                                                 pipe.nnz, r["epochs"]))
    if not samples:
        raise BenchError("no traced iteration completed")
    for k, sample in enumerate(samples[1:], start=1):
        drift = [name for name, (value, unit) in sample.items()
                 if unit in EXACT_UNITS and value != samples[0][name][0]]
        pipe.gates.record(f"traced iteration {k} counts",
                          [f"{', '.join(drift)} differ from the first traced iteration"]
                          if drift else [])
    metrics = tracing.median_metrics(samples)
    untraced = statistics.median(r["pipeline_s"] for r in iterations if not r["traced"])
    traced = statistics.median(r["pipeline_s"] for r in iterations if r["traced"])
    metrics["graphs.generate_s"] = (statistics.median(pipe.generate_s), "s")
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    metrics["trace.overhead_share"] = ((traced - untraced) / untraced, "ratio")
    return metrics


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def package_version(name: str):
    try:
        return metadata.version(name)
    except metadata.PackageNotFoundError:
        return None


def environment(args, params: dict) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": package_version("numpy"),
        "scipy": package_version("scipy"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "setup_repeats": SETUP_REPEATS,
        "params": params,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (SRC / "confmix" / "cli.py").is_file():
        print(f"error: no confmix sources at {SRC / 'confmix'}", file=sys.stderr)
        return 2

    workdir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    pipe = Pipeline(args.workload, args.seed, bool(args.trace), workdir)
    try:
        pipe.setup()
        iterations = pipe.measure(args.seconds)
        if args.trace:
            metrics = per_layer(pipe, iterations)
            report = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
        else:
            samples = end_to_end(pipe, iterations)
            missing = [name for name, values in samples.items() if not values]
            if missing:
                raise BenchError(f"no samples of {', '.join(missing)}")
            report = {name: {"value": ESTIMATORS[name](values),
                             "unit": END_TO_END[name], **summary(values)}
                      for name, values in samples.items()}
    except BenchError as e:
        for failure in pipe.gates.failures:
            print(f"FAILED {failure}", file=sys.stderr)
        print(f"error: {e}", file=sys.stderr)
        return 1

    bad = [name for name, m in report.items() if not math.isfinite(m["value"])]
    if bad:
        print(f"error: non-finite metrics {', '.join(bad)}", file=sys.stderr)
        return 1
    for name, m in report.items():
        line = f"{name:44s} {m['value']:.6g} {m['unit']}"
        if "n" in m:
            line += (f"  ({m['n']} samples: median {m['median']:.6g}, "
                     f"min {m['min']:.6g}, max {m['max']:.6g})")
        print(line)
    for failure in pipe.gates.failures:
        print(f"FAILED {failure}")
    env = environment(args, pipe.params)
    result = {"correct": not pipe.gates.failures, "attempted": pipe.gates.attempted,
              "failed": len(pipe.gates.failures),
              "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                          for name, m in report.items()}}
    with open(workdir / "result.json", "w", encoding="utf-8") as fh:
        json.dump({"environment": env, "report": report,
                   "failures": pipe.gates.failures, **result}, fh, indent=1)
    # keep the results and spans, drop the commands' outputs
    for sub in workdir.iterdir():
        if sub.is_dir():
            shutil.rmtree(sub)
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
