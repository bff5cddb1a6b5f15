"""Partial-spread bent functions from pre-quasifield division.

The direct construction: pick a balanced selector g on GF(2^m) with
g(0) = 0, and set

    f(x, y) = g(y // x)

with // the family's division (and y // 0 = 0).  Points with x = 0 get
f = 0; every other point inherits g's value at its slope, so supp(f) is the
union of the 2^(m-1) chosen spread components minus the origin.  That makes
f a 2^(m-1)-component partial-spread function: weight 2^(2m-1) - 2^(m-1),
bent, of degree at most m.  Its complement is the matching
(2^(m-1)+1)-component variant.

ps_from_components is the same function built the other way — XOR of
component indicator vectors over the chosen slopes — touching only the
multiplication table and never the division formulas.  The two routes must
agree bit for bit; tests lean on that as the central cross-validation.

ps_minus certifies its output bent with is_bent's streamed Walsh check by
default; `bent build` reads its verdict off the summary's counted values.
"""

import random

import numpy as np

from .boolfun import BLOCK, TruthTable, is_bent
from .quasifield import PreQuasifield
from .spread import Spread

__all__ = [
    "CertificationError", "Selector", "WrongCardinalityError",
    "ZeroInSupportError", "ps_from_components", "ps_minus", "ps_plus",
    "random_selector", "selector_from_support",
]


class WrongCardinalityError(ValueError):
    """The selector support does not hold exactly 2^(m-1) slopes."""


class ZeroInSupportError(ValueError):
    """The selector takes g(0) = 1."""


class CertificationError(RuntimeError):
    """A constructed function failed the Walsh bentness sweep."""


class Selector:
    """A balanced g: GF(2^m) -> F2 with g(0) = 0, as a 2^m-bit table."""

    __slots__ = ("m", "table")

    def __init__(self, m: int, table):
        table = np.asarray(table, dtype=np.uint8)
        if table.shape != (1 << m,):
            raise ValueError(f"need 2^{m} table entries, got {table.shape}")
        if table.max(initial=0) > 1:
            raise ValueError("selector entries must be 0 or 1")
        if table[0]:
            raise ZeroInSupportError("g(0) must be 0")
        if int(table.sum()) != 1 << (m - 1):
            raise WrongCardinalityError(
                f"selector weight must be 2^{m - 1} = {1 << (m - 1)}, "
                f"got {int(table.sum())}")
        table = table.copy()
        table.setflags(write=False)
        self.m = m
        self.table = table

    def __call__(self, a: int) -> int:
        return int(self.table[a])

    def __eq__(self, other):
        return (isinstance(other, Selector) and self.m == other.m
                and np.array_equal(self.table, other.table))

    def __hash__(self):
        return hash((self.m, self.table.tobytes()))

    @property
    def support(self) -> tuple:
        return tuple(int(a) for a in np.flatnonzero(self.table))

    def __repr__(self):
        return f"Selector(m={self.m}, support={self.support})"


def selector_from_support(m: int, slopes) -> Selector:
    """g with g(a) = 1 exactly on the given nonzero slopes."""
    slopes = list(slopes)
    for a in slopes:
        if not isinstance(a, (int, np.integer)) or not 0 <= a < (1 << m):
            raise ValueError(f"slope {a!r} is not a field element")
    if len(set(map(int, slopes))) != len(slopes):
        raise WrongCardinalityError("duplicate slopes in support")
    table = np.zeros(1 << m, dtype=np.uint8)
    table[slopes] = 1
    return Selector(m, table)


def random_selector(m: int, seed: int) -> Selector:
    """Uniform 2^(m-1)-subset of the nonzero slopes; seed-deterministic."""
    rng = random.Random(seed)
    return selector_from_support(m, rng.sample(range(1, 1 << m),
                                               1 << (m - 1)))


def ps_minus(Q: PreQuasifield, g: Selector, certify: bool = True) -> TruthTable:
    """f(x, y) = g(y // x) over the 2m-bit point space, index (y << m) | x.

    The closed-form division table drives the whole construction.  Its
    int32 entries index g a block of BLOCK / 4 entries at a time, copied
    into one reused intp buffer: numpy gathers from intp indices on its
    fast path, from int32 ones through its casting path, and an intp copy
    of the whole table would take 8 bytes per point (512 MB at m = 13).
    With certify (the default) the output is swept with the full Walsh
    transform and anything non-bent raises CertificationError.
    """
    m = Q.ctx.m
    if g.m != m:
        raise ValueError(f"selector is for m={g.m}, family has m={m}")
    D = Q.div_table_formula().ravel()  # row-major: position (y << m) | x
    bits = np.empty(D.size, dtype=np.uint8)
    idx = np.empty(min(D.size, BLOCK // 4), dtype=np.intp)
    for i in range(0, D.size, idx.size):
        part = idx[:D.size - i]  # the last block may be short
        np.copyto(part, D[i:i + part.size])
        np.take(g.table, part, out=bits[i:i + part.size])
    tt = TruthTable._adopt(2 * m, bits)  # fresh, so no copy
    if certify:
        _certify(_label(Q), g, is_bent(tt))
    return tt


def _label(Q: PreQuasifield) -> str:
    """The family instance as a certification failure names it."""
    return f"{Q.kind} (m={Q.ctx.m}, {Q.params})"


def _certify(label: str, g: Selector, bent: bool):
    """Raise CertificationError unless `bent`, the verdict on ps_minus(Q, g)."""
    if not bent:
        raise CertificationError(
            f"{label}: construction is not bent with support {g.support}")


def ps_from_components(S: Spread, slopes) -> TruthTable:
    """Independent route: XOR the indicator vectors of the chosen
    components.  Validates the choice exactly like selector_from_support
    (so slope infinity and 0 are rejected); never touches division."""
    m = S.ctx.m
    g = selector_from_support(m, slopes)
    bits = np.zeros(1 << (2 * m), dtype=np.uint8)
    for a in g.support:
        bits[S.components[a]] ^= 1
    return TruthTable._adopt(2 * m, bits)


def ps_plus(f: TruthTable) -> TruthTable:
    """The complement: a (2^(m-1)+1)-component partial-spread function."""
    return f.complement()


def spectrum_summary(spectrum) -> str:
    """Compact `value:count` multiset of a Walsh spectrum, value-sorted."""
    return _format_counts(*_spectrum_counts(spectrum))


def _spectrum_counts(s: np.ndarray) -> tuple:
    """The distinct values of a spectrum, ascending, and their counts, taken
    block by block, so no sorted copy of the whole spectrum is made."""
    parts = [np.unique(s[i:i + BLOCK], return_counts=True)
             for i in range(0, s.size, BLOCK)]
    values, where = np.unique(np.concatenate([v for v, _ in parts]),
                              return_inverse=True)
    counts = np.zeros(values.size, dtype=np.int64)
    np.add.at(counts, where, np.concatenate([c for _, c in parts]))
    return values, counts


def _format_counts(values, counts) -> str:
    return ",".join(f"{int(v)}:{int(c)}" for v, c in zip(values, counts))
