"""Self-tests of the benchmark's reference arithmetic (not part of Tier-1).

    python3 benchmark/selftest.py

At m <= 5 the reference multiplications must agree with the program's
mult_table, the reference field multiplication must be commutative and
associative, the reference Walsh transform must match direct summation and
must flag a bent function with one bit flipped, and the reference .tt reader
must read back what the program's writer wrote.  benchmark/run.py runs these
before every measurement and refuses to report if any fails.
"""

import os
import sys

import numpy as np

import reference as ref

HERE = os.path.dirname(os.path.abspath(__file__))


def failures(scratch_dir) -> list:
    import spreadbent as sb

    out = []
    for m in (3, 4, 5):
        F = ref.RefField(m)
        e = np.arange(F.q)
        if F.modulus != sb.default_modulus(m):
            out.append(f"m={m}: modulus 0x{F.modulus:x}")
        P = F.mul(e[:, None], e[None, :])
        if not np.array_equal(P, P.T):
            out.append(f"m={m}: multiplication not commutative")
        if not np.array_equal(P[P[:, :, None], e[None, None, :]],
                              P[e[:, None, None], P[None, :, :]]):
            out.append(f"m={m}: multiplication not associative")
        if not (P[1] == e).all() or sorted(P[3]) != list(e):
            out.append(f"m={m}: 1 is not the identity or 3 is a zero divisor")
        if m % 2 == 0:
            cases = [("field", {})]
        else:
            cases = [("field", {}), ("kantor", {})]
            cases += [("dm", {"k": k}) for k in range(1, m, 2)
                      if np.gcd(k, m) == 1]
            cases += [("knuth", {"beta": b}) for b in range(1, F.q)]
        for name, params in cases:
            # strict=False: a wrong division formula is the workloads' to
            # report, as failed operations, not a reason to refuse to run
            Q = sb.make_family(name, m, strict=False, **params)
            if not np.array_equal(ref.mult_table(F, name, **params),
                                  Q.mult_table()):
                out.append(f"m={m} {name} {params}: mult_table differs")

    for n in (2, 4, 6):
        rng = np.random.default_rng(n)
        bits = rng.integers(0, 2, 1 << n).astype(np.uint8)
        x = np.arange(1 << n)
        inner = np.array([[bin(w & v).count("1") & 1 for v in x] for w in x])
        direct = ((-1) ** (bits[None, :] ^ inner)).sum(axis=1)
        if not np.array_equal(ref.walsh(bits), direct):
            out.append(f"n={n}: Walsh transform != direct sum")

    # x . y on n = 2m variables is bent; one flipped bit is not
    m = 4
    idx = np.arange(1 << (2 * m))
    ip = (np.bitwise_count((idx >> m) & idx & ((1 << m) - 1)) & 1).astype(
        np.uint8)
    if not (np.abs(ref.walsh(ip)) == 1 << m).all():
        out.append("inner product not bent under the reference transform")
    ip[37] ^= 1
    if (np.abs(ref.walsh(ip)) == 1 << m).all():
        out.append("corrupted bent function passes the reference transform")

    path = os.path.join(scratch_dir, "selftest.tt")
    sb.save_tt(sb.TruthTable(2 * m, ip), path, header="selftest")
    if not np.array_equal(ref.read_tt(path), ip):
        out.append(".tt reader disagrees with the program's writer")

    if not ref.span_closed([0, 3, 5, 6]) or ref.span_closed([0, 3, 5, 7]):
        out.append("span_closed misjudges a small set")
    return out


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    scratch = os.path.join(HERE, "_out", "selftest")
    os.makedirs(scratch, exist_ok=True)
    found = failures(scratch)
    for line in found:
        print("FAIL", line)
    print("selftest:", "FAIL" if found else "ok")
    sys.exit(1 if found else 0)
