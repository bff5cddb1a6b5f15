"""Spreads of GF(2)^(2m) induced by a pre-quasifield multiplication.

Points are pairs (x, y) of field elements, packed into a single index
(y << m) | x; point addition is index XOR.  A family Q yields 2^m + 1
components: E_a = {(x, a <> x)} for each slope a, plus E_inf = {(0, t)}.
Together they partition the nonzero points — every component is an
m-dimensional subspace, any two meet only at the origin, and
(2^m + 1)(2^m - 1) + 1 = 2^(2m) counts the cover exactly.

The slope of a nonzero point is recovered by division: (x, y) lies on
E_(y // x) for x != 0 and on E_inf otherwise.  Slope infinity is a
distinguished sentinel object, never a field element, so it can't alias
slope 2^m - 1.

Components are materialized as sorted index arrays (not hash sets): reports
and dumps stay byte-deterministic, and the verification sweeps are plain
vectorized gathers.
"""

from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .quasifield import AXIOM_MAX_M, PreQuasifield


class _InfinitySlope:
    """Singleton tag for the vertical component {(0, t)}."""

    __slots__ = ()

    def __repr__(self):
        return "inf"


INFINITY = _InfinitySlope()


class Point(NamedTuple):
    x: int
    y: int


def point_index(p: Point, m: int) -> int:
    return (p.y << m) | p.x


def point_from_index(i: int, m: int) -> Point:
    return Point(i & ((1 << m) - 1), i >> m)


class Spread:
    """A family's spread: components[a] for slopes a = 0 .. 2^m - 1, and
    components[2^m] for slope infinity."""

    def __init__(self, source: PreQuasifield, components):
        self.source = source
        self.components = tuple(components)
        for c in self.components:
            c.setflags(write=False)

    @property
    def ctx(self):
        return self.source.ctx

    def component(self, slope) -> np.ndarray:
        """Sorted point indices of E_slope (slope: element or INFINITY)."""
        if slope is INFINITY:
            return self.components[-1]
        return self.components[slope]

    def slope_of(self, p: Point):
        """The unique component through a nonzero point, via division."""
        if p.x == 0 and p.y == 0:
            raise ValueError("the origin lies on every component")
        if p.x == 0:
            return INFINITY
        return self.source.qdiv_formula(p.y, p.x)


def build_spread(Q: PreQuasifield) -> Spread:
    """Materialize E_a = {(x, a <> x)} for every a, plus E_inf; only for
    m <= AXIOM_MAX_M, checked before any table is built."""
    m = Q.ctx.m
    if m > AXIOM_MAX_M:
        raise ValueError(f"spread not built at m = {m}: its components are "
                         f"capped at m = AXIOM_MAX_M = {AXIOM_MAX_M}, like "
                         f"the sweeps")
    q = Q.ctx.order
    T = Q.mult_table().astype(np.int64)
    xs = np.arange(q, dtype=np.int64)
    comps = [np.sort((T[a] << m) | xs) for a in range(q)]
    comps.append(xs << m)
    return Spread(Q, comps)


@dataclass(frozen=True)
class SpreadReport:
    """Outcome of the exhaustive spread verification."""

    family: str
    m: int
    component_count: int
    closure_ok: tuple  # per component: closed under addition, no duplicates
    sizes_ok: bool
    pairwise_trivial: bool
    covers_space: bool
    counting_identity: bool

    @property
    def passed(self) -> bool:
        return (all(self.closure_ok) and self.sizes_ok
                and self.pairwise_trivial and self.covers_space
                and self.counting_identity)

    def as_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["components_closed"] = sum(map(bool, d.pop("closure_ok")))
        return {**d, "passed": self.passed}


def verify_spread(S: Spread) -> SpreadReport:
    """Check every spread axiom exhaustively (m <= AXIOM_MAX_M).

    Per component: exactly 2^m distinct points, closed under point addition
    (each is then automatically an m-dimensional subspace).  Globally: the
    origin lies on every component, every other point on exactly one, and
    the components hold (2^m + 1) 2^m points counted with multiplicity.
    """
    ctx = S.ctx
    m = ctx.m
    if m > AXIOM_MAX_M:
        raise ValueError(f"exhaustive sweep capped at m = {AXIOM_MAX_M}")
    q = ctx.order
    n2 = 1 << (2 * m)
    comps = S.components

    sizes_ok = (len(comps) == q + 1
                and all(len(np.unique(c)) == q for c in comps))
    closure = []
    for c in comps:
        mask = np.zeros(n2, dtype=bool)
        mask[c] = True
        closure.append(bool(mask[c[:, None] ^ c[None, :]].all()))

    counts = np.bincount(np.concatenate(comps), minlength=n2)
    pairwise = bool(counts[0] == len(comps) and (counts[1:] <= 1).all())
    covers = bool((counts >= 1).all())
    counting = int(counts.sum()) == (q + 1) * q

    return SpreadReport(
        family=S.source.kind, m=m, component_count=len(comps),
        closure_ok=tuple(closure), sizes_ok=sizes_ok,
        pairwise_trivial=pairwise, covers_space=covers,
        counting_identity=counting)


def dump_spread(S: Spread) -> str:
    """One line per component: `<slope>: <point,point,...>` with slopes and
    point indices in lowercase hex, ascending, and `inf` last."""
    lines = []
    for a, comp in enumerate(S.components):
        label = "inf" if a == len(S.components) - 1 else f"0x{a:x}"
        lines.append(label + ": " + ",".join(f"0x{int(i):x}" for i in comp))
    return "\n".join(lines) + "\n"
