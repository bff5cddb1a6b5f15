"""The process that calls the program: one workload, one thread.

    python3 benchmark/worker.py --workload W --seed N --out DIR
        --t0 MONOTONIC (--setup-only | --seconds S | --traced)

It imports spreadbent and builds the workload's field contexts (set-up),
then runs as many whole rounds of the workload's operations as fit in
--seconds (at least MIN_ROUNDS), or exactly one round when --traced.  Only
the program calls are timed; between them the worker times a fixed
calibration loop, which gauges the machine's speed during each round.
Outputs go to DIR for the checking process: result.json (timings,
calibration samples, peak RSS, per-operation results) plus the files each
workload writes (.tt truth tables, .npz arrays).  No check runs here.

Set-up time runs from --t0, a CLOCK_MONOTONIC reading the parent takes just
before starting this interpreter, to the end of set-up; calibration samples
taken right after it gauge the machine's speed at that moment.  Peak RSS is
read after the last round; the checks never run in this process.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import time

import numpy as np

import inputs

FIELD_MS = {"bent-n26": (13,), "bent-n22": (11,), "certify": (5, 7, 8),
            "divide": (13,)}
# rounds a run makes even when fewer fit in --seconds, so that each timed
# piece's least time is taken over the same number of repeats at any speed
MIN_ROUNDS = {"bent-n26": 1, "bent-n22": 2, "certify": 2, "divide": 4}
DIVIDE_CHUNK = 512  # queries per timed piece: 0.5 ms (field) to 80 ms (dm)


def _error(exc):
    return f"{type(exc).__name__}: {exc}"


CAL_EVERY_S = 0.2  # least wall time between two calibration samples
CAL_BURST = 3  # samples at the start and at the end of every round
CAL_ARRAY = np.arange(1 << 19, dtype=np.int64)  # 4 MB, past the L2 cache
CAL_OUT = np.empty_like(CAL_ARRAY)


def calibrate():
    """The wall time of a fixed piece of the benchmark's own work: a Python
    loop (about 40 % of the time) and in-place passes over 4 MB arrays,
    the interpreter-bound and memory-bound kinds of work the program does.
    It allocates nothing, so the heap the program leaves does not touch it,
    and it never calls the program: it gauges the machine's speed alone."""
    t = time.perf_counter()
    s = 0
    for i in range(30000):
        s += i * i
    np.multiply(CAL_ARRAY, 3, out=CAL_OUT)
    for _ in range(4):
        np.add(CAL_OUT, 1, out=CAL_OUT)
        np.bitwise_and(CAL_OUT, 0xffff, out=CAL_OUT)
        np.multiply(CAL_OUT, 3, out=CAL_OUT)
    return time.perf_counter() - t


class Clock:
    """Records the wall time of each timed piece of program calls, in order,
    and calibration samples between pieces (never inside one).

    Every round times the same pieces in the same order, so the checking
    process can take each piece's least time across the run's rounds, each
    rescaled by the calibration of its own round.
    """

    def __init__(self):
        self.pieces = []
        self.cals = [calibrate() for _ in range(CAL_BURST)]
        self.last_cal = time.perf_counter()

    @contextlib.contextmanager
    def timed(self):
        t = time.perf_counter()
        try:
            yield
        finally:
            now = time.perf_counter()
            self.pieces.append(now - t)
            if now - self.last_cal >= CAL_EVERY_S:
                self.cals.append(calibrate())
                self.last_cal = time.perf_counter()

    def finish(self):
        self.cals += [calibrate() for _ in range(CAL_BURST)]


def round_bent_n26(sb, inp, clock, out, tracer):
    path = os.path.join(out, "f26.tt")
    argv = ["bent", "build", "--family", "kantor", "--m", str(inp["m"]),
            "--g", "support:" + ",".join(f"{a:x}" for a in inp["support"]),
            "--out", path]
    stdout, stderr = io.StringIO(), io.StringIO()
    if tracer:
        tracer.current_op = 0
    with clock.timed(), contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        try:
            code = sb.cli.main(argv)
            error = None
        except Exception as exc:  # the CLI should map every error to a code
            code, error = None, _error(exc)
    return [{"code": code, "error": error, "stdout": stdout.getvalue(),
             "tt": path}]


def round_bent_n22(sb, inp, clock, out, tracer):
    ops = []
    m = inp["m"]
    for name, params, supports in inp["families"]:
        Q = None  # free the previous family's tables before building
        try:
            with clock.timed():
                Q = sb.make_family(name, m, **params)
                Q.div_table_formula()
            table_error = None
        except Exception as exc:
            table_error = _error(exc)
        for j, sup in enumerate(supports):
            op = {"family": name, "selector": j, "error": table_error}
            ops.append(op)
            if table_error:
                continue
            if tracer:
                tracer.current_op = len(ops) - 1
            op["tt"] = os.path.join(out, f"{name}-{j}.tt")
            op["tt_plus"] = os.path.join(out, f"{name}-{j}-plus.tt")
            slopes = sup.tolist()
            try:
                with clock.timed():
                    g = sb.selector_from_support(m, slopes)
                    f = sb.ps_minus(Q, g)
                    fp = sb.ps_plus(f)
                    op["degree"] = sb.degree(f)
                    sb.save_tt(f, op["tt"])
                    sb.save_tt(fp, op["tt_plus"])
            except Exception as exc:
                op["error"] = _error(exc)
    return ops


def round_certify(sb, inp, clock, out, tracer):
    ops = []
    for i, (name, m, params, sup) in enumerate(inp["instances"]):
        if tracer:
            tracer.current_op = i
        op = {"family": name, "m": m, "params": params, "error": None}
        ops.append(op)
        slopes = sup.tolist()
        try:
            with clock.timed():
                Q = sb.make_family(name, m, strict=True, **params)
                D = Q.div_table_formula()
                axioms = sb.verify_axioms(Q)
                S = sb.build_spread(Q)
                spread = sb.verify_spread(S)
                g = sb.selector_from_support(m, slopes)
                f1 = sb.ps_minus(Q, g)
                f2 = sb.ps_from_components(S, slopes)
        except Exception as exc:
            op["error"] = _error(exc)
            continue
        op["axioms"] = axioms.as_dict()
        op["spread"] = {**spread.as_dict(), "closure_ok": list(spread.closure_ok)}
        op["npz"] = os.path.join(out, f"inst-{i}.npz")
        np.savez(op["npz"], D=D, f1=f1.bits, f2=f2.bits)

    # the negative controls, each on its own kantor m = 7 instance
    name, m, params = inputs.CONTROL_FAMILY
    if tracer:
        tracer.current_op = len(ops)
    op = {"control": "swapped-spread", "error": None}
    ops.append(op)
    a, xa, b, xb = inp["swap"]
    try:
        with clock.timed():
            Q = sb.make_family(name, m, **params)
            S = sb.build_spread(Q)
            comps = [c.copy() for c in S.components]
            T = Q.mult_table()
            pa = (int(T[a, xa]) << m) | xa
            pb = (int(T[b, xb]) << m) | xb
            comps[a][comps[a] == pa] = pb
            comps[b][comps[b] == pb] = pa
            comps[a].sort()
            comps[b].sort()
            report = sb.verify_spread(sb.Spread(Q, comps))
        op["passed"] = report.passed
        op["closure_ok"] = list(report.closure_ok)
        op["components"] = os.path.join(out, "swapped.npz")
        np.savez(op["components"], *comps)
    except Exception as exc:
        op["error"] = _error(exc)

    if tracer:
        tracer.current_op = len(ops)
    op = {"control": "off-balance", "error": None}
    ops.append(op)
    slopes = inp["off_balance"].tolist()
    try:
        with clock.timed():
            Q = sb.make_family(name, m, **params)
            S = sb.build_spread(Q)
            for what, call in (
                    ("selector_from_support",
                     lambda: sb.selector_from_support(m, slopes)),
                    ("ps_from_components",
                     lambda: sb.ps_from_components(S, slopes))):
                try:
                    call()
                    op[what] = "accepted"
                except sb.WrongCardinalityError:
                    op[what] = "rejected"
            g = np.zeros(1 << m, dtype=np.uint8)
            g[slopes] = 1
            f = sb.TruthTable(2 * m, g[Q.div_table_formula().ravel()])
            op["is_bent"] = sb.is_bent(f)
    except Exception as exc:
        op["error"] = _error(exc)
    return ops


def round_divide(sb, inp, clock, out, tracer):
    ops = []
    m = inp["m"]
    arrays = {}
    for name, params, ys, xs in inp["families"]:
        op = {"family": name, "params": params, "count": len(ys),
              "error": None}
        ops.append(op)
        res = np.zeros(len(ys), dtype=np.int64)
        op["done"] = 0  # queries answered before an exception, if any
        try:
            with clock.timed():
                Q = sb.make_family(name, m, **params)
            div = Q.qdiv_formula
            for lo in range(0, len(ys), DIVIDE_CHUNK):
                y = ys[lo:lo + DIVIDE_CHUNK].tolist()
                x = xs[lo:lo + DIVIDE_CHUNK].tolist()
                with clock.timed():
                    got = [div(yy, xx) for yy, xx in zip(y, x)]
                res[lo:lo + len(got)] = got
                op["done"] = lo + len(got)
        except Exception as exc:
            op["error"] = _error(exc)
        arrays[name] = res
    path = os.path.join(out, "quotients.npz")
    np.savez(path, **arrays)
    for op in ops:
        op["npz"] = path
    return ops


ROUNDS = {"bent-n26": round_bent_n26, "bent-n22": round_bent_n22,
          "certify": round_certify, "divide": round_divide}


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--t0", type=float, required=True)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--seconds", type=float)
    mode.add_argument("--traced", action="store_true")
    args = p.parse_args()

    import spreadbent as sb
    import spreadbent.cli  # noqa: F401  (bent-n26 calls sb.cli.main)
    tracer = None
    if args.traced:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    for m in FIELD_MS[args.workload]:
        sb.field_ctx(m)
    setup_s = time.monotonic() - args.t0
    calibrate()  # first touch of CAL_OUT's pages
    result = {"setup_s": setup_s,
              "setup_cals": [calibrate() for _ in range(CAL_BURST)]}
    if not args.setup_only:
        inp = inputs.MAKE[args.workload](args.seed)
        run_round = ROUNDS[args.workload]
        pieces, cals, rounds = [], [], []
        start = time.perf_counter()
        while True:
            t = time.perf_counter()
            clock = Clock()
            out = os.path.join(args.out, f"round-{len(rounds)}")
            os.makedirs(out)
            rounds.append(run_round(sb, inp, clock, out, tracer))
            clock.finish()
            pieces.append(clock.pieces)
            cals.append(clock.cals)
            # past MIN_ROUNDS, start another round only if it should end
            # within --seconds
            now = time.perf_counter()
            if args.traced or (len(rounds) >= MIN_ROUNDS[args.workload]
                               and 2 * now - t - start > args.seconds):
                break
        result.update(pieces=pieces, cals=cals, rounds=rounds,
                      peak_rss_mb=resource.getrusage(
                          resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        if tracer:
            tracer.dump(os.path.join(args.out, "trace.json"),
                        {"workload": args.workload, "seed": args.seed})
    with open(os.path.join(args.out, "result.json"), "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
