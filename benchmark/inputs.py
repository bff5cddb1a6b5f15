"""Seeded inputs of the four workloads.

The worker process (which calls the program) and the checking process both
derive their inputs from here, so the same --seed gives the same inputs in
both.  Only numpy is imported: the program never sees the seed, only the
supports, parameters and queries made from it.
"""

import numpy as np

WORKLOADS = ("bent-n26", "bent-n22", "certify", "divide")

# bent-n22: selectors per family; every family's table is built once a round
N22_M = 11
N22_SELECTORS = 4

# bent-n26: pairs (a, x != 0) at which f(x, a <> x) = g(a) is checked
N26_M = 13
N26_SAMPLE = 1 << 20

# divide: per-family query counts at m = 13, sized so that no family takes
# most of a round (field division is ~100x cheaper than dm's Dickson path)
DIVIDE_M = 13
DIVIDE_K = 3
DIVIDE_COUNTS = {"field": 1 << 20, "dm": 1 << 13, "knuth": 1 << 15,
                 "kantor": 1 << 16}


def rng(workload: str, seed: int, *salt: int):
    # seed % 2^64 keeps every nonnegative seed as is and admits negative ones
    return np.random.default_rng([WORKLOADS.index(workload), seed % (1 << 64),
                                  *salt])


def support(r, m: int, size=None):
    """A seeded set of distinct nonzero slopes, 2^(m-1) of them by default."""
    size = 1 << (m - 1) if size is None else size
    return np.sort(r.choice(np.arange(1, 1 << m), size, replace=False))


def bent_n26(seed: int) -> dict:
    r = rng("bent-n26", seed)
    q = 1 << N26_M
    return {"m": N26_M, "support": support(r, N26_M),
            "a": r.integers(0, q, N26_SAMPLE),
            "x": r.integers(1, q, N26_SAMPLE)}


def bent_n22(seed: int) -> dict:
    r = rng("bent-n22", seed)
    m = N22_M
    beta = int(r.integers(1, 1 << m))
    families = [("field", {}), ("dm", {"k": 3}), ("knuth", {"beta": beta}),
                ("kantor", {})]
    return {"m": m, "families": [
        (name, params, [support(r, m) for _ in range(N22_SELECTORS)])
        for name, params in families]}


def roster():
    """The evidence sweep's 166 instances: (family, m, params)."""
    out = [("field", m, {}) for m in (5, 7, 8)]
    out += [("dm", m, {"k": k}) for m, k in ((5, 3), (7, 3), (7, 5))]
    out += [("kantor", m, {}) for m in (5, 7)]
    out += [("knuth", m, {"beta": b}) for m in (5, 7) for b in range(1, 1 << m)]
    return out


CONTROL_FAMILY = ("kantor", 7, {})


def certify(seed: int) -> dict:
    r = rng("certify", seed)
    inst = [(name, m, params, support(r, m)) for name, m, params in roster()]
    m = CONTROL_FAMILY[1]
    q = 1 << m
    a, b = r.choice(q, 2, replace=False)
    return {"instances": inst,
            # swap the points at x = ia of E_a and x = ib of E_b (x != 0)
            "swap": (int(a), int(r.integers(1, q)), int(b), int(r.integers(1, q))),
            "off_balance": support(r, m, (q >> 1) - 1)}


def divide(seed: int) -> dict:
    q = 1 << DIVIDE_M
    fams = []
    for i, (name, count) in enumerate(DIVIDE_COUNTS.items()):
        r = rng("divide", seed, i)
        params = {"dm": {"k": DIVIDE_K},
                  "knuth": {"beta": int(r.integers(1, q))}}.get(name, {})
        fams.append((name, params, r.integers(0, q, count),
                     r.integers(1, q, count)))
    return {"m": DIVIDE_M, "families": fams}


MAKE = {"bent-n26": bent_n26, "bent-n22": bent_n22, "certify": certify,
        "divide": divide}
