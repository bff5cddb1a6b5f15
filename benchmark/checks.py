"""Checks of every workload output against the benchmark's own reference
computation, or against a property the paper's construction must have.

An operation counts as failed when the program refused it (an exception, or
a nonzero exit code) or when any check of its output fails; a wrong output
also clears `correct`, so a refusal and a wrong answer read differently.
"""

import hashlib

import numpy as np

import inputs
import reference as ref


def digest(*parts) -> str:
    """Content key of an output: later rounds repeat the first round's
    inputs, so an output equal to one already judged gets the same verdict."""
    h = hashlib.sha256()
    for p in parts:
        h.update(p.tobytes() if isinstance(p, np.ndarray) else repr(p).encode())
    return h.hexdigest()


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.problems = []
        self.seen = {}  # digest -> failures of an output already judged

    def judged_once(self, what, key, judge):
        """judged(), with judge() run only for output not seen before."""
        if key not in self.seen:
            self.seen[key] = judge()
        self.judged(what, self.seen[key])

    def refused(self, what, error, count=1):
        self.attempted += count
        self.failed += count
        self.problems.append(f"{what}: refused: {error}")

    def judged(self, what, failures, count=1, bad=None):
        """One operation (or `count` of them, `bad` of which are wrong) with
        the list of checks its output failed."""
        bad = (count if failures else 0) if bad is None else bad
        self.attempted += count
        self.failed += bad
        if failures or bad:
            self.correct = False
            self.problems.append(f"{what}: {'; '.join(failures)}")


def _ref_table(F, name, params):
    return ref.mult_table(F, name, k=params.get("k"), beta=params.get("beta"))


def _selector(m, slopes):
    g = np.zeros(1 << m, dtype=np.uint8)
    g[np.asarray(slopes)] = 1
    return g


def _bent_failures(bits, m, g, T=None, sample=None, F=None, name=None):
    """Checks shared by both bent workloads on one PS- truth table."""
    q = 1 << m
    fails = []
    if bits.size != q * q:
        return [f"table holds {bits.size} bits, not 2^{2 * m}"]
    if int(bits.sum()) != (q * q - q) // 2:
        fails.append(f"weight {int(bits.sum())} != 2^(2m-1) - 2^(m-1)")
    B = bits.reshape(q, q)  # B[y, x] = f(x, y)
    if B[:, 0].any():
        fails.append("f(0, y) != 0 for some y")
    if T is not None:  # every pair a, x != 0
        if not (B[T[:, 1:], np.arange(1, q)] == g[:, None]).all():
            fails.append("f(x, a <> x) != g(a) on some pair")
    else:
        a, x = sample
        y = ref.family_mul(F, name, a, x)
        if not (B[y, x] == g[a]).all():
            fails.append("f(x, a <> x) != g(a) on some sampled pair")
    W = ref.walsh(bits)
    if not (np.abs(W) == q).all():
        fails.append("reference Walsh transform: not bent")
    # a bent f with f(0) = 0 has sum_w W(w) = 2^(2m), which fixes the signs
    elif int((W < 0).sum()) != (q * q - q) // 2:
        fails.append(f"{int((W < 0).sum())} negative Walsh values")
    return fails


def _kv(text):
    return dict(line.split("=", 1) for line in text.splitlines() if "=" in line)


def check_bent_n26(inp, rounds, tally):
    m = inp["m"]
    q = 1 << m
    F = ref.RefField(m)
    g = _selector(m, inp["support"])
    half, off = q * q // 2, q // 2
    want = {"bent": "true", "n": str(2 * m), "plus": "false",
            "certified": "true", "degree": str(m), "weight": str(half - off),
            "spectrum": f"-{q}:{half - off},{q}:{half + off}"}
    for r, ops in enumerate(rounds):
        op = ops[0]
        what = f"round {r}: bent build"
        if op["error"] or op["code"] != 0:
            tally.refused(what, op["error"] or f"exit code {op['code']}")
            continue
        got = _kv(op["stdout"])
        bits = ref.read_tt(op["tt"])

        def judge():
            return _diff(got, want) + _bent_failures(
                bits, m, g, sample=(inp["a"], inp["x"]), F=F, name="kantor")

        tally.judged_once(what, digest(op["stdout"], bits), judge)


def check_bent_n22(inp, rounds, tally):
    m = inp["m"]
    q = 1 << m
    F = ref.RefField(m)
    tables = {}
    for r, ops in enumerate(rounds):
        for op in ops:
            name = op["family"]
            params, supports = next((p, s) for n, p, s in inp["families"]
                                    if n == name)
            what = f"round {r}: {name} selector {op['selector']}"
            if op["error"]:
                tally.refused(what, op["error"])
                continue
            bits = ref.read_tt(op["tt"])
            plus = ref.read_tt(op["tt_plus"])

            def judge():
                if name not in tables:
                    tables[name] = _ref_table(F, name, params)
                g = _selector(m, supports[op["selector"]])
                fails = _bent_failures(bits, m, g, T=tables[name])
                if plus.shape != bits.shape or \
                        not np.array_equal(plus, bits ^ 1):
                    fails.append("PS+ file is not the complement of PS-")
                if op["degree"] != m:
                    fails.append(f"degree {op['degree']} != {m}")
                return fails

            tally.judged_once(what, digest(name, op["selector"], op["degree"],
                                           bits, plus), judge)


def expected_axioms(T):
    q = T.shape[0]
    e = np.arange(q)
    rows_perm = bool((np.sort(T[1:], axis=1) == e).all())
    cols_perm = bool((np.sort(T[:, 1:], axis=0) == e[:, None]).all())
    out = {"additive_group": True,  # XOR on [0, 2^m) is a group by itself
           "zero_law": not T[0].any() and not T[:, 0].any(),
           "left_bijective": rows_perm, "right_bijective": cols_perm,
           "left_distributive": bool(ref.rows_linear(T).all()),
           "right_distributive": bool(ref.rows_linear(T.T).all())}
    out["passed"] = all(out[k] for k in (
        "additive_group", "zero_law", "left_bijective", "right_bijective",
        "left_distributive"))
    out["pre_semifield"] = out["passed"] and out["right_distributive"]
    return out


def expected_spread(T):
    q = T.shape[0]
    closure = [bool(c) for c in ref.rows_linear(T)] + [True]  # E_inf last
    cols_perm = bool((np.sort(T[:, 1:], axis=0)
                      == np.arange(q)[:, None]).all())
    pairwise = cols_perm and not T[:, 0].any()
    out = {"component_count": q + 1, "components_closed": sum(closure),
           "sizes_ok": True, "pairwise_trivial": pairwise,
           "covers_space": cols_perm, "counting_identity": True,
           "closure_ok": closure}
    out["passed"] = all(closure) and pairwise and cols_perm
    return out


def _diff(got, want):
    return [f"{k}={got.get(k)} (want {v})" for k, v in want.items()
            if got.get(k) != v]


def check_certify(inp, rounds, tally):
    fields, tables = {}, {}

    def table(name, m, params):
        key = (name, m, tuple(sorted(params.items())))
        if key not in tables:
            if m not in fields:
                fields[m] = ref.RefField(m)
            T = _ref_table(fields[m], name, params)
            tables[key] = (T, ref.column_inverse(T))
        return tables[key]

    for r, ops in enumerate(rounds):
        for op, (name, m, params, sup) in zip(ops, inp["instances"]):
            what = f"round {r}: {name} m={m} {params}"
            if op["error"]:
                tally.refused(what, op["error"])
                continue
            out = dict(np.load(op["npz"]))

            def judge():
                T, D = table(name, m, params)
                fails = _diff(op["axioms"], expected_axioms(T))
                fails += _diff(op["spread"], expected_spread(T))
                if D is None:
                    return fails + ["reference: a column is not a permutation"]
                if not np.array_equal(out["D"], D):
                    fails.append("div_table_formula != column inversion")
                want = ref.ps_bits(D, _selector(m, sup))
                if not np.array_equal(out["f1"], want):
                    fails.append("ps_minus != reference table")
                if not np.array_equal(out["f2"], want):
                    fails.append("ps_from_components != reference table")
                return fails

            tally.judged_once(what, digest(name, m, params, sup, op["axioms"],
                                           op["spread"], out["D"], out["f1"],
                                           out["f2"]), judge)
        check_controls(inp, ops[len(inp["instances"]):], r, table, tally)


def check_controls(inp, ops, r, table, tally):
    name, m, params = inputs.CONTROL_FAMILY
    swapped, off = ops
    what = f"round {r}: control swapped-spread"
    if swapped["error"]:
        tally.refused(what, swapped["error"])
    else:
        comps = np.load(swapped["components"])
        closure = [ref.span_closed(comps[f"arr_{i}"])
                   for i in range(len(comps.files))]
        fails = []
        if swapped["passed"] is not False:
            fails.append("corrupted spread not rejected")
        if swapped["closure_ok"] != closure or sum(closure) != len(closure) - 2:
            fails.append("closure verdicts differ from the reference")
        tally.judged(what, fails)

    what = f"round {r}: control off-balance"
    if off["error"]:
        tally.refused(what, off["error"])
        return
    fails = [f"{k} {off[k]}" for k in ("selector_from_support",
                                        "ps_from_components")
             if off[k] != "rejected"]
    if off["is_bent"] is not False:
        fails.append("off-balance function certified bent")
    W = ref.walsh(ref.ps_bits(table(name, m, params)[1],
                              _selector(m, inp["off_balance"])))
    if (np.abs(W) == 1 << m).all():
        fails.append("reference: off-balance function is bent")
    tally.judged(what, fails)


def check_divide(inp, rounds, tally):
    m = inp["m"]
    F = ref.RefField(m)
    for r, ops in enumerate(rounds):
        for op, (name, params, ys, xs) in zip(ops, inp["families"]):
            what = f"round {r}: {name} queries"
            n = op["count"]
            done = op["done"]
            if done < n:
                tally.refused(what, op["error"], count=n - done)
            a = np.load(op["npz"])[name][:done]
            ok = (a >= 0) & (a < F.q)
            prod = ref.family_mul(F, name, np.where(ok, a, 0), xs[:done],
                                  k=params.get("k"), beta=params.get("beta"))
            ok &= prod == ys[:done]
            bad = int(done - ok.sum())
            tally.judged(what, [f"{bad} of {done} quotients wrong"] if bad
                         else [], count=done, bad=bad)


CHECKS = {"bent-n26": check_bent_n26, "bent-n22": check_bent_n22,
          "certify": check_certify, "divide": check_divide}
