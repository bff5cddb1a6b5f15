"""Tests for selectors and the two partial-spread construction routes."""

import numpy as np
import pytest

from spreadbent.boolfun import TruthTable, degree, is_bent, walsh_spectrum
from spreadbent.construct import (
    CertificationError,
    Selector,
    WrongCardinalityError,
    ZeroInSupportError,
    ps_from_components,
    ps_minus,
    ps_plus,
    random_selector,
    selector_from_support,
    spectrum_summary,
)
from spreadbent.quasifield import KantorFamily, make_family
from spreadbent.spread import INFINITY, build_spread

FAMILIES = [("field", {}), ("dm", {"k": 1}), ("knuth", {"beta": 3}),
            ("kantor", {})]


# ---------------------------------------------------------------------------
# selectors


def test_selector_validation():
    with pytest.raises(ValueError):
        Selector(3, [0, 1, 1, 1])  # wrong length
    with pytest.raises(ValueError):
        Selector(2, [0, 2, 0, 1])  # not a bit
    with pytest.raises(ZeroInSupportError):
        Selector(2, [1, 1, 0, 0])
    with pytest.raises(WrongCardinalityError):
        Selector(3, [0, 1, 1, 1, 0, 0, 0, 0])  # weight 3 != 4


def test_selector_from_support():
    g = selector_from_support(3, {1, 2, 4, 7})
    assert g.support == (1, 2, 4, 7)
    assert g(0) == 0 and g(1) == 1 and g(3) == 0 and g(7) == 1
    with pytest.raises(ZeroInSupportError):
        selector_from_support(3, {0, 1, 2, 4})
    with pytest.raises(WrongCardinalityError):
        selector_from_support(3, {1, 2, 4})
    with pytest.raises(WrongCardinalityError):
        selector_from_support(3, [1, 2, 4, 4])
    with pytest.raises(ValueError):
        selector_from_support(3, {1, 2, 4, 9})  # out of range
    with pytest.raises(ValueError):
        selector_from_support(3, {1, 2, 4, INFINITY})


def test_selector_equality_and_immutability():
    a = selector_from_support(3, {1, 2, 4, 7})
    b = selector_from_support(3, [7, 4, 2, 1])
    assert a == b and hash(a) == hash(b)
    with pytest.raises(ValueError):
        a.table[3] = 1


def test_random_selector_is_deterministic():
    a = random_selector(4, 123)
    assert a == random_selector(4, 123)
    assert a != random_selector(4, 124)
    assert a(0) == 0
    assert int(a.table.sum()) == 8


def test_random_selector_regression_pins():
    # frozen on first generation; guards the sampling path against drift
    assert random_selector(5, 1).support == (
        1, 3, 4, 5, 7, 9, 13, 15, 16, 19, 21, 23, 24, 25, 26, 28)
    assert random_selector(5, 2).support == (
        2, 3, 6, 7, 9, 10, 12, 14, 20, 22, 24, 27, 28, 29, 30, 31)


# ---------------------------------------------------------------------------
# the direct construction


def test_ps_minus_field_m3_pinned():
    Q = make_family("field", 3)
    g = selector_from_support(3, {1, 2, 4, 7})
    f = ps_minus(Q, g)
    assert is_bent(f)
    assert f.weight() == 28  # 2^5 - 2^2
    for y in range(8):
        assert f(y << 3) == 0  # x = 0 column vanishes
    assert spectrum_summary(walsh_spectrum(f)) == "-8:28,8:36"


def test_ps_minus_index_convention():
    Q = make_family("kantor", 3)
    g = random_selector(3, 5)
    f = ps_minus(Q, g)
    for x in range(8):
        for y in range(8):
            assert f((y << 3) | x) == g(Q.qdiv_formula(y, x))


def test_ps_minus_allocates_one_table():
    # the gather g(D) is the truth table itself: no second 2^(2m)-byte copy
    import tracemalloc
    Q = make_family("field", 9)
    g = random_selector(9, 1)
    Q.div_table_formula()  # the cached table is not part of the build
    tracemalloc.start()
    try:
        f = ps_minus(Q, g, certify=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 1 << 18 <= peak < 2 << 18
    assert f.n == 18 and not f.bits.flags.writeable


@pytest.mark.parametrize("m,short", [(3, 3), (5, 3), (9, 1000)])
def test_ps_minus_gather_matches_fancy_index(m, short, monkeypatch):
    # the blocked intp gather is g.table[D], with the default block and with
    # blocks of `short` entries, which leave a short last block
    import spreadbent.construct as construct
    assert (1 << (2 * m)) % short
    g = random_selector(m, m)
    blocks = (construct.BLOCK, 4 * short)
    for name, kw in FAMILIES:
        Q = make_family(name, m, **kw)
        expect = g.table[Q.div_table_formula().ravel()]
        for block in blocks:
            monkeypatch.setattr(construct, "BLOCK", block)
            f = ps_minus(Q, g, certify=False)
            assert np.array_equal(f.bits, expect), (name, block)


def test_ps_minus_rejects_mismatched_selector():
    with pytest.raises(ValueError):
        ps_minus(make_family("field", 3), random_selector(5, 1))


@pytest.mark.parametrize("name,kw", FAMILIES)
def test_ps_minus_bent_across_families(name, kw):
    Q = make_family(name, 3, **kw)
    for seed in range(6):
        f = ps_minus(Q, random_selector(3, seed))
        assert f.weight() == 28
        assert degree(f) <= 3
        assert is_bent(ps_plus(f))


# ---------------------------------------------------------------------------
# the indicator-sum route


def test_ps_from_components_validation():
    S = build_spread(make_family("field", 3))
    with pytest.raises(WrongCardinalityError):
        ps_from_components(S, {1, 2, 3})
    with pytest.raises(ZeroInSupportError):
        ps_from_components(S, {0, 1, 2, 3})
    with pytest.raises(ValueError):
        ps_from_components(S, {1, 2, 4, INFINITY})


def test_ps_from_components_basics():
    S = build_spread(make_family("knuth", 3, beta=2))
    f = ps_from_components(S, {1, 2, 4, 7})
    assert f(0) == 0  # origin: even cover
    assert f.weight() == 28
    assert is_bent(f)


@pytest.mark.parametrize("name,kw", [
    ("field", {}), ("dm", {"k": 1}), ("knuth", {"beta": 1}), ("kantor", {}),
])
def test_routes_agree_bit_for_bit(name, kw):
    Q = make_family(name, 3, **kw)
    S = build_spread(Q)
    for seed in range(8):
        g = random_selector(3, seed)
        assert ps_minus(Q, g) == ps_from_components(S, g.support)


def test_routes_agree_m5():
    Q = make_family("dm", 5, k=3)
    S = build_spread(Q)
    g = random_selector(5, 1)
    assert ps_minus(Q, g) == ps_from_components(S, g.support)


# ---------------------------------------------------------------------------
# complement and certification


def test_ps_plus():
    f = ps_minus(make_family("field", 3), selector_from_support(3, {1, 2, 4, 7}))
    p = ps_plus(f)
    assert p.weight() == 36  # 2^5 + 2^2
    assert is_bent(p)
    assert ps_plus(p) == f


def test_certification_catches_broken_division():
    class BrokenDiv(KantorFamily):
        def _div_table_impl(self):
            D = super()._div_table_impl().copy()
            D[1, 1] ^= 1  # one wrong slope
            return D

    from spreadbent.field import field_ctx
    Q = BrokenDiv(field_ctx(3), strict=False)
    g = random_selector(3, 0)
    with pytest.raises(CertificationError):
        ps_minus(Q, g)
    f = ps_minus(Q, g, certify=False)
    assert not is_bent(f)


def test_unbalanced_selector_is_not_bent():
    # hypothesis violation: weight 2^(m-1) + 1, built around the validator
    Q = make_family("field", 3)
    table = np.zeros(8, dtype=np.uint8)
    table[[1, 2, 3, 4, 5]] = 1
    bits = table[Q.div_table_formula().ravel()]
    assert not is_bent(TruthTable(6, bits))


def test_spectrum_summary_counts_block_by_block(monkeypatch):
    import random

    import spreadbent.construct as construct
    rng = random.Random(3)
    tt = TruthTable(10, [rng.randrange(2) for _ in range(1 << 10)])
    s = walsh_spectrum(tt)
    values, counts = np.unique(s, return_counts=True)
    expect = ",".join(f"{v}:{c}" for v, c in zip(values, counts))
    assert len(values) > 10
    for block in (construct.BLOCK, 16):  # one block, and 64 of them
        monkeypatch.setattr(construct, "BLOCK", block)
        assert spectrum_summary(s) == expect


def test_spectrum_summary_counts():
    f = ps_minus(make_family("kantor", 3), random_selector(3, 1))
    parts = dict(p.split(":")
                 for p in spectrum_summary(walsh_spectrum(f)).split(","))
    assert set(parts) == {"-8", "8"}
    assert int(parts["-8"]) + int(parts["8"]) == 64


def _families_at(m):
    """Every family that exists at m, dm with its first admissible k
    among 3, 5 and 1."""
    import math
    if m >= 2:
        yield make_family("field", m)
    if m % 2 and m >= 3:
        k = next(k for k in (3, 5, 1) if k < m and math.gcd(k, m) == 1)
        yield make_family("dm", m, k=k)
        yield make_family("knuth", m, beta=1)
        yield make_family("kantor", m)


def _flipped(tt, x):
    bits = tt.bits.copy()
    bits[x] ^= 1
    return TruthTable._adopt(tt.n, bits)


@pytest.mark.parametrize("n", range(2, 21, 2))
def test_streamed_certificate_matches_the_spectrum(n):
    # is_bent streams the transform through an int16 intermediate; its
    # verdict must be the whole spectrum's on PS-, PS+,
    # one-bit flips in the first and the last block of inputs, and the
    # function of an off-balance selector
    m = n // 2
    cases = []
    if m == 1:  # no family: x0 x1, the only bent shape at n = 2
        cases.append((TruthTable(2, [0, 0, 0, 1]), True))
    for Q in _families_at(m):
        g = random_selector(m, n)
        f = ps_minus(Q, g, certify=False)
        off = np.zeros(1 << m, dtype=np.uint8)
        off[list(g.support)[1:]] = 1  # 2^(m-1) - 1 slopes
        cases += [(f, True), (ps_plus(f), True),
                  (TruthTable(n, off[Q.div_table_formula().ravel()]), False)]
    assert cases
    for f, bent in list(cases):
        cases += [(_flipped(f, 0), False), (_flipped(f, f.bits.size - 1), False)]
    for f, bent in cases:
        flat = (np.abs(walsh_spectrum(f)) == 1 << m).all()
        assert is_bent(f) == flat == bent
