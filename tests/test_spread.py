"""Tests for spread construction, verification, slopes, and dumps.

A point (x, y) is the index (y << m) | x; components[a] is E_a for the
slopes a < 2^m and components[-1] is E_inf = {(0, t)}.
"""

import numpy as np
import pytest

from spreadbent.field import field_ctx
from spreadbent.quasifield import (AXIOM_MAX_M, FieldFamily, PreQuasifield,
                                   make_family)
from spreadbent.spread import Spread, build_spread, dump_spread, verify_spread


def test_build_spread_structure():
    Q = make_family("kantor", 3)
    S = build_spread(Q)
    assert len(S.components) == 9
    xs = np.arange(8, dtype=np.int32)
    for a in range(8):
        comp = set(int(i) for i in S.components[a])
        assert comp == {(int(y) << 3) | x
                        for x, y in enumerate(Q._mul(np.int32(a), xs))}
    assert list(S.components[-1]) == [t << 3 for t in range(8)]
    for c in S.components:
        assert c[0] == 0  # origin everywhere
        assert list(c) == sorted(c)


def test_field_spread_matches_linear_components():
    # the baseline family's components are exactly {(x, a*x)}
    ctx = field_ctx(3)
    S = build_spread(make_family("field", 3))
    for a in range(8):
        expect = sorted((ctx.mul(a, x) << 3) | x for x in range(8))
        assert list(S.components[a]) == expect


@pytest.mark.parametrize("name,m,kw", [
    ("field", 2, {}),
    ("field", 4, {}),
    ("field", 7, {}),
    ("dm", 3, {"k": 1}),
    ("dm", 5, {"k": 3}),
    ("knuth", 3, {"beta": 5}),
    ("knuth", 5, {"beta": 1}),
    ("kantor", 3, {}),
    ("kantor", 7, {}),
])
def test_verify_spread_passes(name, m, kw):
    rep = verify_spread(build_spread(make_family(name, m, **kw)))
    assert rep.passed
    assert rep.component_count == (1 << m) + 1
    assert all(rep.closure_ok)
    d = rep.as_dict()
    assert d["components_closed"] == rep.component_count
    assert d["passed"] is True


def test_verify_guard():
    Q = make_family("kantor", 9)
    with pytest.raises(ValueError, match="m = 9.*AXIOM_MAX_M"):
        build_spread(Q)
    with pytest.raises(ValueError):
        verify_spread(Spread(Q, []))  # refused before any component is read


def test_build_spread_checks_the_cap_before_any_table(monkeypatch):
    def refuse(self):
        raise AssertionError("mult_table built above the cap")

    monkeypatch.setattr(PreQuasifield, "mult_table", refuse)
    for name in ("field", "kantor"):
        with pytest.raises(ValueError, match="AXIOM_MAX_M"):
            build_spread(make_family(name, AXIOM_MAX_M + 1))


def test_slope_of():
    # the origin lies on every component, the other points (0, y) on E_inf
    # alone, and the points (x, 0) on E_0 alone
    S = build_spread(make_family("knuth", 3, beta=1))
    members = [set(map(int, c)) for c in S.components]
    assert all(0 in mem for mem in members)
    for y in range(1, 8):
        assert [k for k, mem in enumerate(members) if y << 3 in mem] == [8]
    for x in range(1, 8):
        assert [k for k, mem in enumerate(members) if x in mem] == [0]


def test_slope_matches_membership_exhaustively():
    # every point (x != 0, y) of components[a] has y // x = a, and the
    # origin is its only point with x = 0
    for Q in (make_family("field", 3), make_family("dm", 3, k=1),
              make_family("knuth", 3, beta=3), make_family("kantor", 3)):
        S = build_spread(Q)
        for a, comp in enumerate(S.components[:-1]):
            x, y = comp & 7, comp >> 3
            assert list(comp[x == 0]) == [0]
            assert (Q.qdiv_formula(y[x != 0], x[x != 0]) == a).all()
        assert list(S.components[-1]) == [t << 3 for t in range(8)]


def test_field_slopes_are_ratios():
    ctx = field_ctx(4)
    S = build_spread(make_family("field", 4))
    for a, comp in enumerate(S.components[:-1]):
        x, y = comp & 15, comp >> 4
        assert (ctx.vmul(y[x != 0], ctx.vinv(x[x != 0])) == a).all()


def test_corrupted_spread_fails():
    S = build_spread(make_family("field", 3))
    comps = [c.copy() for c in S.components]
    # move one nonzero point from E_1 into E_2
    moved = comps[1][3]
    comps[1][3] = comps[2][3]
    comps[2][3] = moved
    bad = type(S)(S.source, [np.sort(c) for c in comps])
    rep = verify_spread(bad)
    assert not rep.passed
    assert not all(rep.closure_ok) or not rep.pairwise_trivial


def test_duplicated_point_fails():
    S = build_spread(make_family("field", 3))
    comps = [c.copy() for c in S.components]
    comps[3][1] = comps[3][2]
    bad = type(S)(S.source, comps)
    rep = verify_spread(bad)
    assert not rep.passed
    assert not rep.sizes_ok or not rep.covers_space


def test_oversized_component_with_a_repeated_point_fails_sizes():
    # q + 1 entries holding q distinct points
    S = build_spread(make_family("field", 3))
    comps = list(S.components)
    comps[3] = np.sort(np.append(comps[3], comps[3][2]))
    rep = verify_spread(Spread(S.source, comps))
    assert not rep.sizes_ok and not rep.passed


def test_empty_component_list_fails():
    rep = verify_spread(Spread(make_family("field", 3), []))
    assert rep.component_count == 0
    assert not rep.sizes_ok and not rep.covers_space and not rep.passed


def test_distributivity_fault_breaks_closure():
    class Crooked(FieldFamily):
        def _mul(self, A, X):
            return self.ctx.vmul(A, X) ^ ((A == 3) & (X == 3))

    rep = verify_spread(build_spread(Crooked(field_ctx(3), strict=False)))
    assert not all(rep.closure_ok)


def test_components_are_immutable():
    S = build_spread(make_family("field", 2))
    with pytest.raises(ValueError):
        S.components[0][0] = 1


def test_dump_format():
    S = build_spread(make_family("field", 2))
    text = dump_spread(S)
    lines = text.splitlines()
    assert len(lines) == 5
    assert lines[0] == "0x0: 0x0,0x1,0x2,0x3"
    assert lines[1] == "0x1: 0x0,0x5,0xa,0xf"  # y = x: indices 5x
    assert lines[-1] == "inf: 0x0,0x4,0x8,0xc"
    assert text.endswith("\n")
    # dump is deterministic
    assert dump_spread(build_spread(make_family("field", 2))) == text


def test_dump_roundtrip_against_components():
    S = build_spread(make_family("kantor", 3))
    for line, comp in zip(dump_spread(S).splitlines(), S.components):
        label, _, pts = line.partition(": ")
        assert [int(t, 16) for t in pts.split(",")] == list(map(int, comp))
