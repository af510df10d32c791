"""Pipeline benchmark of diagnokit: one workload, one seed, one run.

Usage (from the repository root):

    python3 perfbench/run.py --workload deconv-mcmc --seed 1 --seconds 30 --trace 0

Every process of a run is pinned to one vCPU. The parent generates the
inputs from ``--seed`` and starts one worker child, which runs whole rounds of
the workload's CLI commands through ``diagnokit.cli.main``. With
``--trace 0``, until ``--seconds`` have passed, each cycle times a fixed
reference task (``calibrate_s``), one fresh ``python -m diagnokit.cli
--version`` (``cli_start_s``), one more set-up in the parent (``setup_s``)
and one round in the worker (``pipeline_s``), one after the other. Each time
metric is the median of its samples, rescaled to the machine speed at which
the reference task takes CALIBRATE_REF_S; ``peak_rss_mb`` is the worker's
peak memory. With ``--trace 1`` the worker
wraps each layer's public functions in spans, the cycles hold only rounds,
and the run reports the per-layer metrics instead. Either way the outputs of
the last round are checked against computations made here, apart from the
program. Every metric is printed by name with its unit; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

TIME_LIMIT_S = 170.0
BLAS_THREADS = 1
# The workloads' BLAS calls are too small to gain from a second thread, and an
# idle pool adds noise. Set before numpy is first imported, here and so in
# every child.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402

import workloads  # noqa: E402

# The machine's speed drifts by a factor of two and more, for minutes at a
# time, longer than a run (README, "Machine"). So each cycle also times a
# fixed reference task that does not involve the program: a fresh interpreter
# importing numpy and scipy.stats. Each time metric is the median of its
# samples rescaled by CALIBRATE_REF_S over the median of the run's reference
# times, that is, as measured on a machine where the reference task takes
# CALIBRATE_REF_S.
CALIBRATE = "import numpy, scipy.stats"
CALIBRATE_REF_S = 1.0


def unit_of(metric: str) -> str:
    for suffix, unit in (("_per_s", "1/s"), ("_s", "s"), ("_mb", "MB"), ("bytes_written", "bytes")):
        if metric.endswith(suffix):
            return unit
    return "count"


class Run:
    """Processes and files of one run, all inside the checkout."""

    def __init__(self, root: Path, args, toy: bool = False):
        self.root = root
        self.args = args
        self.toy = toy
        self.started = time.perf_counter()
        self.nproc = os.cpu_count()
        self.cpus = sorted(os.sched_getaffinity(0))
        self.threads = len(self.cpus)
        self.dir = root / ".perfbench" / "runs" / (
            f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}")
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"]
                                        if self.env.get("PYTHONPATH") else "")
        self.setups = 0
        self.main = None

    def timeout(self) -> float:
        return max(1.0, TIME_LIMIT_S - (time.perf_counter() - self.started))

    def fresh(self, *args: str) -> float:
        """Wall time of one fresh interpreter run with ``args``.

        A wait with a timeout polls in steps of up to 50 ms, which would
        round the time; so the wait blocks, and a timer kills a child that
        overruns.
        """
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], env=self.env, cwd=self.root,
                                stdout=subprocess.DEVNULL)
        timer = threading.Timer(self.timeout(), proc.kill)
        timer.start()
        try:
            code = proc.wait()
        finally:
            timer.cancel()
        elapsed = time.perf_counter() - start
        if code != 0:
            raise subprocess.CalledProcessError(code, [sys.executable, *args])
        return elapsed

    def setup(self) -> float:
        """Mean wall time of generating the inputs SETUP_REPS times.

        The first set-up of a run becomes the run's inputs; later ones are
        written to a throwaway directory. The program's own output goes to
        standard error, so that the last line of standard output stays the
        result.
        """
        if self.main is None:
            sys.path.insert(0, str(self.root / "src"))
            from diagnokit.cli import main

            self.main = main
        reps = workloads.SETUP_REPS[self.args.workload]
        targets = [self.dir / f"inputs_{self.setups}_{k}" for k in range(reps)]
        start = time.perf_counter()
        with contextlib.redirect_stdout(sys.stderr):
            for target in targets:
                workloads.generate_inputs(self.main, self.args.workload, self.args.seed,
                                          target, self.threads, self.toy)
        elapsed = (time.perf_counter() - start) / reps
        if self.setups == 0:
            targets.pop(0).rename(self.dir / "inputs")
        for target in targets:
            shutil.rmtree(target)
        self.setups += 1
        return elapsed


class Worker:
    """The ``worker.py`` child running rounds, one JSON line per operation."""

    def __init__(self, run: Run):
        spec = {"workload": run.args.workload, "threads": run.threads,
                "trace": run.args.trace, "src": str(run.root / "src"),
                "run_dir": str(run.dir), "inputs": str(run.dir / "inputs")}
        spec_path = run.dir / "worker.spec.json"
        spec_path.write_text(json.dumps(spec))
        self.run = run
        self.proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), str(spec_path)],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True, env=run.env, cwd=run.root)

    def call(self, op: str) -> dict:
        self.proc.stdin.write(json.dumps({"op": op}) + "\n")
        self.proc.stdin.flush()
        ready, _, _ = select.select([self.proc.stdout], [], [], self.run.timeout())
        if not ready:
            raise TimeoutError(f"worker timed out during {op}")
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited with {self.proc.wait()} during {op}")
        return json.loads(line)

    def close(self) -> None:
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=10)
        except (BrokenPipeError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()


def environment(root: Path, run: Run) -> dict:
    """What a number was measured under: cores, BLAS, interpreter, code."""
    cfg = np.show_config(mode="dicts")
    blas = cfg.get("Build Dependencies", {}).get("blas", {})
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    sha = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, text=True,
                              capture_output=True, timeout=30)
        sha = proc.stdout.strip() or None
    return {
        "nproc": run.nproc, "cpus": run.cpus, "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": BLAS_THREADS, "git_sha": sha, "src_sha256": digest.hexdigest(),
        "machine": platform.machine(),
    }


def measure(run: Run) -> dict:
    """Set up, run the rounds and check the outputs; returns the run record."""
    args = run.args
    record: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    run.dir.mkdir(parents=True)
    samples: dict[str, list[float]] = {}
    run.setup()
    pipeline = Worker(run)
    try:
        # The worker's start-up must not overlap the first timed sample.
        pipeline.call("ready")
        rounds, cycles = [], []
        # Untraced cycles interleave one fresh interpreter start, one set-up
        # and one round, so all three metrics sample the whole window of a
        # machine whose speed drifts over seconds. Only whole rounds count.
        window_end = time.perf_counter() + args.seconds
        while not rounds or time.perf_counter() + statistics.mean(cycles) <= window_end:
            start = time.perf_counter()
            if not args.trace:
                samples.setdefault("calibrate_s", []).append(run.fresh("-c", CALIBRATE))
                samples.setdefault("cli_start_s", []).append(
                    run.fresh("-m", "diagnokit.cli", "--version"))
                samples.setdefault("setup_s", []).append(run.setup())
            rounds.append(pipeline.call("round"))
            cycles.append(time.perf_counter() - start)
        pipe = {"rounds": rounds, **pipeline.call("finish")}
    finally:
        pipeline.close()
    record["pipeline"] = pipe

    import checks

    cmds_per_round = len(rounds[0]["exit_codes"])
    exit_failures = sum(int(c != 0) for r in rounds for c in r["exit_codes"])
    try:
        problems, incomplete, attributions = checks.run_checks(
            args.workload, run.dir / "inputs", Path(pipe["last_out"]))
    except Exception as exc:  # a missing or malformed output fails the run
        problems = {"outputs readable": [f"{type(exc).__name__}: {exc}"]}
        incomplete = attributions = 0
    if not pipe["rounds_identical"]:
        problems["rounds_identical"] = ["data outputs differ between rounds"]
    # Each command is one operation, except that on classify-explain each
    # probe attribution of the ``attribute`` command is one. The probe does
    # not depend on --seed and rounds are identical, so every round fails the
    # same attributions (the known near-zero-sd fault) and the failed share
    # is the same in every run.
    record["ig_incomplete"] = incomplete
    record["attempted"] = (cmds_per_round - int(attributions > 0) + attributions) * len(rounds)
    record["failed"] = exit_failures + incomplete * len(rounds)
    record["problems"] = {k: v for k, v in problems.items() if v}
    record["correct"] = not record["problems"] and exit_failures == 0

    times = [r["pipeline_s"] for r in rounds]
    record["samples"] = {"pipeline_s": times, **samples}
    if args.trace:
        metrics = {k: statistics.median(r["layers"][k] for r in rounds)
                   for k in rounds[0]["layers"]}
        metrics["trace.pipeline_s"] = statistics.median(times)
        metrics["classifier.ig_incomplete"] = incomplete
    else:
        scale = CALIBRATE_REF_S / statistics.median(samples["calibrate_s"])
        metrics = {k: statistics.median(v) * scale for k, v in record["samples"].items()
                   if k != "calibrate_s"}
        metrics["peak_rss_mb"] = pipe["peak_rss_mb"]
        record["scale"] = scale
    record["metrics"] = {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()}
    return record


def report(record: dict, env: dict) -> None:
    """Human-readable lines before the final JSON line."""
    print(f"workload {record['workload']} seed {record['seed']} trace {record['trace']}")
    print("environment " + json.dumps(env, sort_keys=True))
    for name, values in record["samples"].items():
        print(f"{name} wall times {len(values)}: " + " ".join(f"{v:.4f}" for v in values))
    if "scale" in record:
        print(f"times below are wall-time medians x {record['scale']:.4f}, "
              f"the reference {CALIBRATE_REF_S} s over the median calibrate_s")
    for name, m in record["metrics"].items():
        print(f"{name} {m['value']} {m['unit']}")
    if record["trace"]:
        total = record["metrics"]["trace.pipeline_s"]["value"]
        for name, m in record["metrics"].items():
            if name.endswith(".self_s"):
                print(f"share {name[:-7]} {m['value'] / total:.3f}")
        for gone in record["pipeline"]["missing"]:
            print(f"MISSING span {gone}: its metrics are left out")
    print(f"attributions missing IG completeness: {record['ig_incomplete']}")
    for check, problems in record["problems"].items():
        for p in problems[:10]:
            print(f"CHECK FAILED {check}: {p}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="diagnokit pipeline benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "diagnokit" / "__init__.py").is_file():
        print(f"no diagnokit source under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    # Every process of the run shares one vCPU: the vCPUs' speeds drift
    # independently, and the calibration must time the one the rounds use.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    run = Run(root, args)
    try:
        record = measure(run)
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)
    env = environment(root, run)
    record["environment"] = env
    out_dir = root / ".perfbench" / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = record["pipeline"].pop("spans", None)
    if spans is not None:
        (out_dir / f"{stem}.spans.json").write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent"], "spans": spans}))
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1))
    report(record, env)
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
