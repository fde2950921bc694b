"""The labelnoise benchmark: the real pipeline, stage by stage, on one workload.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

A run covers the workload's block of pipeline seeds (derived from
``--seed``) and then repeats them until ``--seconds`` is used up. Every
pass is a fresh Python process (``passrun.py``) that calls
``labelnoise.cli.main`` once per stage. After each pass the outputs are
checked (``checks.py``), and a repeated seed must reproduce every
artifact byte for byte.

With ``--trace 0`` the run reports the end-to-end metrics: the median
stage and pipeline times over all passes, the median peak memory, and the
quality metrics averaged over the seed block. Times are in reference
seconds: each stage's wall time scaled by how fast the host ran a fixed
calibration kernel right before and after it, relative to the kernel's
time on an unloaded 2-vCPU Xeon VM. On a shared host the speed of the
whole machine drifts by up to 1.6x for minutes at a time; in 61
consecutive train-aamsc passes on that VM under load, wall time varied
with a coefficient of variation of 12% and tracked the kernel's time,
while the scaled time varied 5%, and the spread between blocks of eight
passes fell from 12-21% to 1-5%. The summary lines print the raw wall
times next to them.

With ``--trace 1`` traced and untraced passes alternate, and the run
reports the per-layer metrics of the traced passes, including the tracing
overhead. The last line of standard output is one JSON object; the lines
before it are a readable summary and the environment record.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import metrics
from workloads import STAGES, WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = ".bench_runs"
BLAS_THREADS = 1  # the model's matrices are tiny; one thread is fastest and steadiest
# calibration kernel time (passrun.calibrate) on the unloaded reference VM
REFERENCE_CALIBRATION_S = 0.008
PASS_TIMEOUT_S = 120  # keeps a run with one hung pass under three minutes
MIN_TRACED_PASSES = 4  # two untraced, two traced
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# per-call latency summaries printed by traced runs
PER_CALL_SUMMARY = ("embedder.adam_step", "losses.aamsc_loss", "losses.ge2e_loss",
                    "losses.classify_confidence", "nld.CentroidClassifier.confidences")


def tail(values: list[float]) -> str:
    """Median plus the highest percentile with at least ten samples beyond it."""
    n = len(values)
    med = statistics.median(values)
    for p in TAIL_PERCENTILES:
        if n * (1.0 - p / 100.0) >= 10.0:
            cut = statistics.quantiles(values, n=1000, method="inclusive")[round(p * 10) - 1]
            return f"median {med:.6g}  p{p:g} {cut:.6g}  (n={n})"
    return f"median {med:.6g}  (n={n}, too few for a tail percentile)"


def environment(root: Path) -> dict:
    import numpy as np

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    revision = "unknown (not a git checkout)"
    head = root / ".git" / "HEAD"
    if head.is_file():
        revision = head.read_text(encoding="ascii").strip()
        ref = root / ".git" / revision.removeprefix("ref: ")
        if revision.startswith("ref: ") and ref.is_file():
            revision = ref.read_text(encoding="ascii").strip()
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((root / "src" / "labelnoise").glob("*.py")))
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "git_revision": revision,
        "src_lines": src_lines,
    }


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    return env


class Run:
    """Bookkeeping for one benchmark run: passes, operations and failures."""

    def __init__(self, workload: Workload, bench_seed: int, root: Path, log):
        self.workload = workload
        self.seeds = workload.pipeline_seeds(bench_seed)
        self.root = root
        self.log = log
        self.work = root / WORK_DIR / f"{workload.name}-{bench_seed}-{os.getpid()}"
        self.out = self.work / "out"
        self.config_path = self.work / "config.json"
        self.env = child_env(root)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.hashes: dict[int, dict[str, str]] = {}
        self.quality: dict[int, dict[str, float]] = {}
        self.untraced: list[dict] = []
        self.traced: list[dict] = []

    def _op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)

    def one_pass(self, seed: int, trace: bool) -> float:
        """Run, check and record one pass; returns its wall time."""
        seed_dir = self.out / f"seed_{seed}"
        shutil.rmtree(seed_dir, ignore_errors=True)
        result_path = self.work / "pass.json"
        result_path.unlink(missing_ok=True)
        cmd = [sys.executable, str(BENCH_DIR / "passrun.py"), "--config", str(self.config_path),
               "--seed", str(seed), "--out", str(self.out), "--result", str(result_path),
               "--trace", str(int(trace))]
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=self.root, capture_output=True,
                                  text=True, timeout=PASS_TIMEOUT_S)
            crashed = proc.returncode != 0 or not result_path.is_file()
            stderr = proc.stderr
        except subprocess.TimeoutExpired as exc:
            crashed, stderr = True, f"pass timed out after {exc.timeout} s"
        wall = time.perf_counter() - t0
        tag = f"seed {seed}{' traced' if trace else ''}"
        if crashed:
            self._op(False, f"{tag}: pass process failed: {stderr.strip()[-2000:]}")
            return wall
        with open(result_path, encoding="ascii") as fh:
            result = json.load(fh)
        stages = result["stages"]
        for stage, info in stages.items():
            self._op(info["rc"] == 0, f"{tag}: stage {stage} returned {info['rc']}: "
                                      f"{stderr.strip()[-2000:]}")
        if len(stages) < len(STAGES) or any(info["rc"] != 0 for info in stages.values()):
            return wall

        for name, ok, detail in checks.check_seed_dir(seed_dir, self.workload.config):
            self._op(ok, f"{tag}: check {name}: {detail}")
        hashes = checks.artifact_hashes(seed_dir)
        if seed in self.hashes:
            differ = checks.rerun_differences(self.hashes[seed], hashes)
            self._op(not differ, f"{tag}: rerun artifacts differ: {differ}")
        else:
            self.hashes[seed] = hashes
            self.quality[seed] = checks.quality(seed_dir)

        cal = result["calibration_s"]
        record = {"seed": seed, "peak_rss_mb": result["peak_rss_mb"]}
        for i, stage in enumerate(STAGES):
            wall = stages[stage]["wall_s"]
            record[f"{stage}_wall_s"] = wall
            record[f"{stage}_s"] = wall * 2 * REFERENCE_CALIBRATION_S / (cal[i] + cal[i + 1])
        record["pipeline_wall_s"] = sum(record[f"{stage}_wall_s"] for stage in STAGES)
        record["pipeline_s"] = sum(record[f"{stage}_s"] for stage in STAGES)
        if trace:
            spans = [tuple(s) for s in result["spans"]]
            record["layers"] = metrics.layer_values(spans)
            record["calls"] = {name: [s[4] - s[3] for s in spans if s[2] == name]
                               for name in PER_CALL_SUMMARY}
            self.traced.append(record)
        else:
            self.untraced.append(record)
        cpu = sum(info["cpu_s"] for info in stages.values())
        self.log(f"pass {tag}: pipeline {record['pipeline_s']:.3f} ref-s, "
                 f"{record['pipeline_wall_s']:.3f} s wall, {cpu:.3f} s cpu; "
                 f"calibration {min(cal) * 1e3:.2f}-{max(cal) * 1e3:.2f} ms;  " + "  ".join(
                     f"{stage} {record[stage + '_s']:.3f}" for stage in STAGES))
        return wall

    def execute(self, seconds: float, trace: bool) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        self.out.mkdir(parents=True)
        with open(self.config_path, "w", encoding="ascii") as fh:
            json.dump(self.workload.run_config(str(self.out)), fh)
        k = len(self.seeds)
        if trace:
            plan = ((self.seeds[(i // 2) % k], i % 2 == 1) for i in itertools.count())
            minimum = MIN_TRACED_PASSES
        else:
            plan = ((self.seeds[i % k], False) for i in itertools.count())
            minimum = k + 1  # every seed once, then one rerun for the byte-identity check
        start = time.perf_counter()
        walls: list[float] = []
        for done, (seed, traced) in enumerate(plan, start=1):
            walls.append(self.one_pass(seed, traced))
            elapsed = time.perf_counter() - start
            if done >= minimum and elapsed + statistics.median(walls) > seconds:
                break

    def cleanup(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            (self.root / WORK_DIR).rmdir()
        except OSError:
            pass  # another run's directory is still there


def end_to_end(run: Run) -> dict[str, float]:
    values = {}
    for key in ("pipeline", "simulate", "train", "detect", "eval", "retrain"):
        name = "setup_s" if key == "simulate" else f"{key}_s"
        samples = [p[f"{key}_s"] for p in run.untraced]
        values[name] = statistics.median(samples)
        wall = [p[f"{key}_wall_s"] for p in run.untraced]
        run.log(f"{name:>16}: {tail(samples)} ref-s; wall {tail(wall)} s")
    values["peak_rss_mb"] = statistics.median(p["peak_rss_mb"] for p in run.untraced)
    for name in ("inter_precision", "intra_precision", "eer", "eer_retrained"):
        per_seed = [run.quality[s][name] for s in run.seeds if s in run.quality]
        values[name] = statistics.fmean(per_seed)
        run.log(f"{name:>16}: mean {values[name]:.6g} over seeds "
                f"{[s for s in run.seeds if s in run.quality]}: {per_seed}")
    return values


def per_layer(run: Run) -> dict[str, float]:
    values = {m.name: statistics.median(p["layers"][m.name] for p in run.traced)
              for m in metrics.PER_LAYER if m.name != "trace.overhead_s"}
    traced = statistics.median(p["pipeline_s"] for p in run.traced)
    untraced = statistics.median(p["pipeline_s"] for p in run.untraced)
    values["trace.overhead_s"] = traced - untraced
    run.log(f"tracing overhead: {traced - untraced:.4f} ref-s on {untraced:.4f} ref-s untraced "
            f"({(traced - untraced) / untraced:+.1%})")
    for name in run.traced[-1]["calls"]:
        durations = [d for p in run.traced for d in p["calls"][name]]
        if durations:
            run.log(f"{name} per call: " + tail([d * 1e6 for d in durations]) + " us")
    for m in metrics.PER_LAYER:
        run.log(f"{m.name:>42} = {values[m.name]:<14.6g} {m.unit:<8} moves {m.moves} on {m.on}")
    return values


def run_benchmark(workload: Workload, bench_seed: int, seconds: float, trace: bool,
                  root: Path = ROOT, log=print) -> dict | None:
    """Run one workload; returns the result object, or None if no pass succeeded."""
    run = Run(workload, bench_seed, root, log)
    try:
        run.execute(seconds, trace)
    finally:
        run.cleanup()
    for problem in run.problems:
        log(f"FAILED {problem}")
    if not run.untraced or (trace and not run.traced):
        return None
    values = per_layer(run) if trace else end_to_end(run)
    units = {m.name: m.unit for m in (*metrics.END_TO_END, *metrics.PER_LAYER)}
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if not (ROOT / "src" / "labelnoise" / "cli.py").is_file():
        print(f"error: no labelnoise sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    print("env: " + json.dumps(environment(ROOT), sort_keys=True), flush=True)
    workload = WORKLOADS[args.workload]
    print(f"workload {workload.name}: {workload.why}", flush=True)
    result = run_benchmark(workload, args.seed, args.seconds, bool(args.trace),
                           log=lambda line: print(line, flush=True))
    if result is None:
        print("error: no pass completed; nothing to report", file=sys.stderr)
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
