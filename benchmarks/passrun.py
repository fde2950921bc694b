"""One pipeline pass in a fresh process: the five stages for one seed.

Each stage is one call of ``labelnoise.cli.main``, timed with a wall
clock and bracketed by runs of a fixed calibration kernel; the pass stops
at the first stage that fails. With ``--trace 1`` the package's public
functions are wrapped first (see ``tracer``) and the spans are written
out with the result when the pass ends.

    python3 benchmarks/passrun.py --config CFG --seed N --out DIR \
        --result FILE --trace 0|1

The package is imported from ``src/`` of the checkout this file sits in.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

from workloads import STAGES

ROOT = Path(__file__).resolve().parent.parent
CALIBRATION_ROUNDS = 3
CALIBRATION_ITERS = 400


def calibrate() -> float:
    """Seconds for a fixed kernel shaped like a training step's arithmetic.

    It measures how fast the host runs this process right now. The
    fastest of three rounds counts, so one preemption does not.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    x, w1, w2 = (rng.standard_normal(shape) for shape in ((50, 20), (64, 20), (32, 64)))
    best = float("inf")
    for _ in range(CALIBRATION_ROUNDS):
        t0 = time.perf_counter()
        for _ in range(CALIBRATION_ITERS):
            float((np.tanh(x @ w1.T) @ w2.T).sum())
        best = min(best, time.perf_counter() - t0)
    return best


def run_pass(config: str, seed: int, out: str, trace: bool) -> dict:
    from labelnoise import cli

    package_file = Path(sys.modules["labelnoise"].__file__).resolve()
    if ROOT / "src" not in package_file.parents:
        raise RuntimeError(f"labelnoise imported from {package_file}, not from {ROOT / 'src'}")

    main = cli.main
    tracer = None
    if trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    stages: dict[str, dict] = {}
    calibration = [calibrate()]
    for stage in STAGES:
        argv = [stage, "--config", config, "--seed", str(seed), "--out", out, "--quiet"]
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        try:
            if tracer is None:
                rc = main(argv)
            else:
                with tracer.span(f"cli.{stage}"):
                    rc = main(argv)
        except Exception:  # a crash is a failed stage call; report it and stop
            traceback.print_exc()
            rc = -1
        stages[stage] = {"rc": rc, "wall_s": time.perf_counter() - t0,
                         "cpu_s": time.process_time() - cpu0}
        calibration.append(calibrate())
        if rc != 0:
            break
    result = {
        "stages": stages,
        "calibration_s": calibration,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["pass_id"] = f"seed{seed}-pid{os.getpid()}"
        result["spans"] = tracer.spans
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    result = run_pass(args.config, args.seed, args.out, bool(args.trace))
    with open(args.result, "w", encoding="ascii") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
