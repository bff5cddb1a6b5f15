"""spreadbent benchmark: one workload per invocation.

    python3 benchmark/run.py --workload bent-n26|bent-n22|certify|divide
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each run self-tests the reference
arithmetic, then starts fresh single-threaded worker processes
(benchmark/worker.py) that call the program, checks every output they wrote
against the reference, and prints one JSON object as its last line:

  --trace 0: wall_s (one round of the timed program calls, each timed
             piece taken at its least wall time across the run's rounds,
             rescaled to a reference speed by a calibration loop),
             setup_s (median over SETUP_SAMPLES fresh interpreters plus the
             worker's own start, each rescaled like wall_s by calibration
             samples taken right after its set-up) and peak_rss_mb
             (the worker's ru_maxrss);
  --trace 1: the per-layer metrics of one traced round, and
             trace.overhead_s (its rescaled wall time minus wall_s).

Scratch output lives under benchmark/_out/ and is removed after the checks,
except the last trace and result of each workload.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "_out")
SETUP_SAMPLES = 8
# wall_s is given in seconds at the machine speed at which one calibration
# loop (worker.calibrate) takes CAL_REF_S
CAL_REF_S = 0.005
DEADLINE_S = 170  # a run must end within 180 s; workers are killed before
START = time.monotonic()

sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import selftest  # noqa: E402
import tracing  # noqa: E402


def worker(workload, seed, out, *mode):
    os.makedirs(out)
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed), "--out", out,
           *mode]
    t0 = time.monotonic()
    proc = subprocess.run(cmd + ["--t0", repr(t0)], env=env, cwd=ROOT,
                          capture_output=True, text=True,
                          timeout=max(1.0, START + DEADLINE_S - t0))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker {' '.join(mode)} exited "
                         f"{proc.returncode}")
    with open(os.path.join(out, "result.json")) as fh:
        return json.load(fh)


def rescaled(result):
    """Each round's timed pieces, rescaled to the reference speed by the
    median of that round's calibration samples."""
    return [[t * CAL_REF_S / statistics.median(c) for t in p]
            for p, c in zip(result["pieces"], result["cals"])]


def least_round(result):
    """The wall time of one round at the reference speed, each timed piece
    taken at its least across the run's rounds.  Slow spells of the machine
    lengthen a piece but never shorten it, and the rescaling takes out the
    drifts that outlast a round."""
    rounds = rescaled(result)
    n = len(rounds[0])
    return sum(min(times) for times in zip(*(r for r in rounds
                                              if len(r) == n)))


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "spreadbent",
                                       "__init__.py")):
        raise SystemExit(f"no program to measure: {ROOT}/src/spreadbent "
                         f"is missing")
    run_dir = os.path.join(OUT, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(run_dir)
    try:
        problems = selftest.failures(run_dir)
        if problems:
            raise SystemExit("reference self-test failed: "
                             + "; ".join(problems))
        plain = worker(args.workload, args.seed, os.path.join(run_dir, "plain"),
                       "--seconds", str(args.seconds))
        runs = [plain]
        if args.trace:
            traced = worker(args.workload, args.seed,
                            os.path.join(run_dir, "traced"), "--traced")
            runs.append(traced)
        else:
            setups = [plain] + [
                worker(args.workload, args.seed,
                       os.path.join(run_dir, f"setup-{i}"), "--setup-only")
                for i in range(SETUP_SAMPLES)]

        inp = inputs.MAKE[args.workload](args.seed)
        tally = checks.Tally()
        for r in runs:
            checks.CHECKS[args.workload](inp, r["rounds"], tally)

        wall = least_round(plain)
        if args.trace:
            with open(os.path.join(run_dir, "traced", "trace.json")) as fh:
                layer = tracing.metrics(json.load(fh))
            layer["trace.overhead_s"] = sum(rescaled(traced)[0]) - wall
            metrics = {k: {"value": v, "unit": tracing.unit_of(k)}
                       for k, v in sorted(layer.items())}
            keep = os.path.join(run_dir, "traced")
        else:
            metrics = {
                "wall_s": {"value": wall, "unit": "s"},
                "setup_s": {"value": statistics.median(
                    r["setup_s"] * CAL_REF_S
                    / statistics.median(r["setup_cals"]) for r in setups),
                    "unit": "s"},
                "peak_rss_mb": {"value": plain["peak_rss_mb"], "unit": "MB"},
            }
            keep = os.path.join(run_dir, "plain")
        for name in ("trace.json", "result.json"):
            if os.path.exists(os.path.join(keep, name)):
                stem, ext = os.path.splitext(name)
                os.replace(os.path.join(keep, name),
                           os.path.join(OUT, f"{stem}-{args.workload}{ext}"))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for line in tally.problems[:20]:
        print("problem:", line[:300], file=sys.stderr)
    speeds = [round(statistics.median(c) / CAL_REF_S, 3)
              for c in plain["cals"]]
    print(f"rounds={len(plain['pieces'])} round walls="
          f"{[round(sum(p), 3) for p in plain['pieces']]} "
          f"calibration/ref={speeds}", file=sys.stderr)
    if not args.trace:
        print(f"raw setup_s median="
              f"{statistics.median(r['setup_s'] for r in setups):.4f}",
              file=sys.stderr)
    print(json.dumps({"correct": tally.correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
