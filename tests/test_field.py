import random

import numpy as np
import pytest

from spreadbent.field import (
    FieldCtx, field_ctx, default_modulus, is_irreducible,
    polymul, polymod, polymul_mod,
)


def brute_force_irreducible(f):
    """Trial division by every binary polynomial of degree 1..deg(f)//2."""
    m = f.bit_length() - 1
    for d in range(1, m // 2 + 1):
        for g in range(1 << d, 1 << (d + 1)):
            if polymod(f, g) == 0:
                return False
    return m >= 1


# -- modulus handling --------------------------------------------------------

def test_default_moduli_spot_values():
    assert default_modulus(3) == 0b1011  # x^3 + x + 1
    assert default_modulus(4) == 0b10011
    assert default_modulus(5) == 0b100101
    assert default_modulus(8) == 0x11B


@pytest.mark.parametrize("m", range(2, 17))
def test_default_modulus_is_smallest_irreducible(m):
    mod = default_modulus(m)
    assert brute_force_irreducible(mod)
    for cand in range(1 << m, mod):
        assert not brute_force_irreducible(cand)


@pytest.mark.parametrize("f", [0b1001, 0b1111, 0b101010, 0b1100001])
def test_is_irreducible_agrees_with_factoring(f):
    assert is_irreducible(f) == brute_force_irreducible(f)


def test_reducible_modulus_rejected():
    with pytest.raises(ValueError):
        FieldCtx(3, modulus=0b1001)  # x^3 + 1 = (x+1)(x^2+x+1)
    with pytest.raises(ValueError):
        FieldCtx(3, modulus=0b10011)  # degree 4, not 3


def test_m_range_guard():
    with pytest.raises(ValueError):
        FieldCtx(1)
    with pytest.raises(ValueError):
        FieldCtx(17)


def test_modulus_override():
    # x^3 + x^2 + 1, the other irreducible cubic
    f = FieldCtx(3, modulus=0b1101)
    assert f.mul(0b010, 0b100) == 0b101  # alpha^3 = alpha^2 + 1 here


# -- scalar arithmetic -------------------------------------------------------

def test_m3_pinned_values():
    f = field_ctx(3)
    assert f.mul(0b010, 0b100) == 0b011
    assert f.inv(0b010) == 0b101
    assert f.pow(0b010, 3) == 0b011
    assert f.trace(0b010) == 0
    assert f.sqrt(0b100) == f.pow(0b100, 4) == 0b010


@pytest.mark.parametrize("m", [2, 3, 5])
def test_mul_matches_schoolbook_exhaustive(m):
    f = field_ctx(m)
    for a in range(f.order):
        for b in range(f.order):
            assert f.mul(a, b) == polymul_mod(a, b, f.modulus)


def test_mul_matches_schoolbook_random_m11():
    f = field_ctx(11)
    rng = random.Random(7)
    for _ in range(2000):
        a, b = rng.randrange(f.order), rng.randrange(f.order)
        assert f.mul(a, b) == polymul_mod(a, b, f.modulus)


@pytest.mark.parametrize("m", [2, 3, 5])
def test_field_laws_exhaustive(m):
    f = field_ctx(m)
    q = f.order
    E = np.arange(q, dtype=np.int32)
    M = f.vmul(E[:, None], E[None, :])
    assert np.array_equal(M, M.T)  # commutativity
    # associativity and distributivity over all triples, via table gathers
    A = E[:, None, None]
    B = E[None, :, None]
    C = E[None, None, :]
    assert np.array_equal(M[M[A, B], C], M[A, M[B, C]])
    assert np.array_equal(M[A, B ^ C], M[A, B] ^ M[A, C])
    assert np.array_equal(M[1], E)  # unit


def test_field_laws_random_m8():
    f = field_ctx(8)
    rng = np.random.default_rng(42)
    A, B, C = rng.integers(0, f.order, size=(3, 100_000), dtype=np.int32)
    assert np.array_equal(f.vmul(f.vmul(A, B), C), f.vmul(A, f.vmul(B, C)))
    assert np.array_equal(f.vmul(A, B ^ C), f.vmul(A, B) ^ f.vmul(A, C))
    assert np.array_equal(f.vmul(A, B), f.vmul(B, A))


@pytest.mark.parametrize("m", range(2, 9))
def test_inverse_total(m):
    f = field_ctx(m)
    assert f.inv(0) == 0
    for a in range(1, f.order):
        assert f.mul(a, f.inv(a)) == 1


@pytest.mark.parametrize("m", [3, 5])
def test_pow_conventions(m):
    f = field_ctx(m)
    assert f.pow(0, 0) == 1
    assert f.pow(0, 5) == 0
    for a in range(1, f.order):
        assert f.pow(a, f.order - 1) == 1
        acc = 1
        for e in range(6):
            assert f.pow(a, e) == acc
            acc = f.mul(acc, a)
    with pytest.raises(ValueError):
        f.pow(1, -1)


@pytest.mark.parametrize("m", range(2, 10))
def test_trace_properties(m):
    f = field_ctx(m)
    tr = [f.trace(a) for a in range(f.order)]
    assert set(tr) <= {0, 1}
    assert tr.count(0) == f.order // 2  # balanced
    for a in range(f.order):
        assert f.trace(f.sqr(a)) == tr[a]  # Frobenius invariance
        for b in range(0, f.order, 5):
            assert f.trace(a ^ b) == tr[a] ^ tr[b]  # additivity
    assert f.trace(1) == m % 2


@pytest.mark.parametrize("m", range(2, 10))
def test_sqrt_is_square_root(m):
    f = field_ctx(m)
    for a in range(f.order):
        assert f.sqr(f.sqrt(a)) == a
        assert f.sqrt(f.sqr(a)) == a


@pytest.mark.parametrize("m", range(2, 10))
def test_artin_schreier_root(m):
    f = field_ctx(m)
    for a in range(f.order):
        if f.trace(a) == 0:
            z = f.artin_schreier_root(a)
            assert f.sqr(z) ^ z == a
        else:
            with pytest.raises(ValueError):
                f.artin_schreier_root(a)


# -- vectorized ops agree with scalar ops ------------------------------------

@pytest.mark.parametrize("m", [3, 6])
def test_vector_ops_match_scalar(m):
    f = field_ctx(m)
    E = np.arange(f.order, dtype=np.int32)
    assert np.array_equal(f.vinv(E), [f.inv(a) for a in E])
    assert np.array_equal(f.vtrace(E), [f.trace(a) for a in E])
    for e in (0, 1, 2, 3, f.order - 2, f.order - 1, 2 ** (m - 1), 1000):
        assert np.array_equal(f.vpow(E, e), [f.pow(a, e) for a in E])
    assert np.array_equal(f.vsqr(E), [f.sqr(a) for a in E])
    with pytest.raises(ValueError):
        f.vpow(E, -1)


# -- quadratic extension ------------------------------------------------------

def test_ext_constant_has_trace_one():
    for m in (2, 3, 4, 5):
        f = field_ctx(m)
        assert f.trace(f.ext.c) == 1
        assert all(f.trace(c) == 0 for c in range(f.ext.c))


def test_ext_defining_relation():
    f = field_ctx(3)
    e = f.ext
    assert e.mul((0, 1), (0, 1)) == (e.c, 1)  # u^2 = c + u


def test_ext_field_laws_m3():
    f = field_ctx(3)
    e = f.ext
    els = [(a, b) for a in range(8) for b in range(8)]
    for p in els:
        assert e.mul(p, (1, 0)) == p
        q = e.inv(p)
        if p == (0, 0):
            assert q == (0, 0)
        else:
            assert e.mul(p, q) == (1, 0)
            assert e.pow(p, e.order - 1) == (1, 0)
    rng = random.Random(3)
    for _ in range(500):
        p, q, r = (random.choice(els) for _ in range(3))
        assert e.mul(p, q) == e.mul(q, p)
        assert e.mul(e.mul(p, q), r) == e.mul(p, e.mul(q, r))
        assert e.mul(p, e.add(q, r)) == e.add(e.mul(p, q), e.mul(p, r))


def test_ext_embeds_base_field():
    f = field_ctx(3)
    e = f.ext
    for a in range(8):
        for b in range(8):
            assert e.mul((a, 0), (b, 0)) == (f.mul(a, b), 0)
        assert e.inv((a, 0)) == (f.inv(a), 0)


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_solve_quadratic(m):
    f = field_ctx(m)
    e = f.ext
    for x in range(1, f.order):
        t = f.solve_quadratic(x)
        # t^2 + x t + 1 = 0
        assert e.add(e.add(e.sqr(t), e.mul((x, 0), t)), (1, 0)) == (0, 0)
        # the other root is 1/t, and the two sum to x
        assert e.add(t, e.inv(t)) == (x, 0)
        in_base = f.trace(f.inv(f.sqr(x))) == 0
        assert (t[1] == 0) == in_base
        if in_base and m % 2 == 1:
            assert t[0] == f.mul(x, f.half_trace(f.inv(f.sqr(x))))
    with pytest.raises(ValueError):
        f.solve_quadratic(0)


def test_solve_quadratic_m3_x1_outside_base():
    f = field_ctx(3)
    t = f.solve_quadratic(1)
    assert t[1] != 0  # trace(1) = 1, so the roots avoid the base field


# -- lookup tables -------------------------------------------------------------

def test_shared_tables_are_frozen():
    f = field_ctx(5)
    tables = {"_inv": f._inv, "trace_table": f.trace_table, "zlog": f.zlog,
              "zexp": f.zexp, "frob": f.frob}
    for name, table in tables.items():
        with pytest.raises(ValueError):
            table[1] = table[0]
        with pytest.raises(ValueError):
            table += 0
        assert not table.flags.writeable, name
    assert f.mul(3, 7) == FieldCtx(5).mul(3, 7)  # nothing was written


def test_lookup_tables_are_built_on_first_use():
    # zlog/zexp come with the context; only the Frobenius tables wait
    f = FieldCtx(7)
    assert {"zlog", "zexp"} <= set(vars(f)) and "frob" not in vars(f)
    f.vmul(np.arange(4), np.arange(4))
    assert "frob" not in vars(f)
    f.vsqr(np.arange(4))
    assert "frob" in vars(f)


@pytest.mark.parametrize("m", [2, 3, 6])
def test_sentinel_tables_multiply_with_zero(m):
    f = field_ctx(m)
    E = np.arange(f.order)
    assert f.zlog[0] == 2 * (f.order - 1)
    assert not f.zexp[2 * (f.order - 1):].any()
    M = f.zexp[f.zlog[E][:, None] + f.zlog[E][None, :]]
    for a in range(f.order):
        for b in range(f.order):
            assert M[a, b] == f.mul(a, b)


@pytest.mark.parametrize("m", [2, 5, 8])
def test_frobenius_tables(m):
    f = field_ctx(m)
    assert f.frob.shape == (m, f.order) and f.frob.dtype == np.int32
    for j in range(m):
        assert list(f.frob[j]) == [f.pow(a, 1 << j) for a in range(f.order)]
