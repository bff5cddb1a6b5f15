import hashlib
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
    assert f.vinv(0b010) == 0b101
    assert f.pow(0b010, 3) == 0b011
    assert f.vtrace(0b010) == 0
    assert f.frob[2][0b100] == f.pow(0b100, 4) == 0b010  # the square root


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
    assert f.vinv(0) == 0
    for a in range(1, f.order):
        assert f.mul(a, f.vinv(a)) == 1


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
    E = np.arange(f.order)
    tr = f.vtrace(E)
    assert set(tr.tolist()) <= {0, 1}
    assert (tr == 0).sum() == f.order // 2  # balanced
    assert np.array_equal(f.vtrace(f.vsqr(E)), tr)  # Frobenius invariance
    for b in range(0, f.order, 5):
        assert np.array_equal(f.vtrace(E ^ b), tr ^ tr[b])  # additivity
    assert f.vtrace(1) == m % 2


@pytest.mark.parametrize("m", range(2, 10))
def test_sqrt_is_square_root(m):
    f = field_ctx(m)
    sqrt = f.frob[m - 1]  # a^(2^(m-1)), the unique square root
    for a in range(f.order):
        assert f.mul(int(sqrt[a]), int(sqrt[a])) == a
        assert sqrt[f.mul(a, a)] == a


# -- vectorized ops agree with scalar ops ------------------------------------

@pytest.mark.parametrize("m", [3, 6])
def test_vector_ops_match_scalar(m):
    # vinv, vtrace and vsqr against their definitions in mul and pow:
    # a^(q-2) (0 at 0), sum_i a^(2^i) and a a
    f = field_ctx(m)
    E = np.arange(f.order, dtype=np.int32)
    assert np.array_equal(f.vinv(E), [f.pow(a, f.order - 2) for a in E])
    traces = [0] * f.order
    for a in E:
        for i in range(m):
            traces[a] ^= f.pow(a, 1 << i)
    assert np.array_equal(f.vtrace(E), traces)
    for e in (0, 1, 2, 3, f.order - 2, f.order - 1, 2 ** (m - 1), 1000):
        assert np.array_equal(f.vpow(E, e), [f.pow(a, e) for a in E])
    assert np.array_equal(f.vsqr(E), [f.mul(a, a) for a in E])
    with pytest.raises(ValueError):
        f.vpow(E, -1)


# -- t^2 + x t + 1 = 0 ------------------------------------------------------

def _pair_mul(f, c1, p, r):
    """(a + b u)(d + e u) with u^2 = u + c1, in base-field operations."""
    (a, b), (d, e) = p, r
    be = f.mul(b, e)
    return (f.mul(a, d) ^ f.mul(be, c1), f.mul(a, e) ^ f.mul(b, d) ^ be)


@pytest.mark.parametrize("m", range(2, 11))
def test_solve_quadratic(m):
    f = field_ctx(m)
    c1 = next(c for c in range(f.order) if f.vtrace(c) == 1)
    for x in range(1, f.order):
        t = f.solve_quadratic(x)
        other = (t[0] ^ x, t[1])
        for r in (t, other):
            # r^2 + x r + 1 = 0
            r2 = _pair_mul(f, c1, r, r)
            xr = _pair_mul(f, c1, (x, 0), r)
            assert (r2[0] ^ xr[0] ^ 1, r2[1] ^ xr[1]) == (0, 0)
        assert _pair_mul(f, c1, t, other) == (1, 0)
        in_base = f.vtrace(f.vinv(f.vsqr(x))) == 0
        assert t[1] == (0 if in_base else x)
        assert f.mul(f.vinv(x), t[0]) % 2 == 0  # s = t/x is even
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


def test_lookup_tables_are_built_with_the_context():
    f = FieldCtx(7)
    names = set(vars(f))
    assert {"zlog", "zexp", "_inv", "frob", "trace_table"} <= names
    # use writes nothing onto the context
    for x in range(1, 8):  # roots in and outside the base field
        f.solve_quadratic(x)
    f.mul(3, 5)
    f.pow(3, 5)
    f.vpow(np.arange(f.order), 5)
    assert set(vars(f)) == names


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


def _table_digest(f):
    h = hashlib.sha256()
    for name in ("zexp", "zlog", "_inv", "trace_table", "frob"):
        t = getattr(f, name)
        h.update(f"{name} {t.dtype.str} {t.shape}\n".encode())
        h.update(t.tobytes())
    return h.hexdigest()


# (m, modulus) -> (generator, sha256 of zexp, zlog, _inv, trace_table and
# frob with their dtypes and shapes), as the tables were first built: the
# generator from the prime factors of 2^m - 1, the trace from a basis mask
PINNED_TABLES = {
    (2, None): (2, "bfb6dff3af107f8fbbcc7d9a1fba35fcd951bfafb573a6124bd61b1e99019781"),
    (3, None): (2, "b678edb2862c59004574ea1191777a24428536750e5d8561dd6660912e04e1e7"),
    (4, None): (2, "de3a8cfef9b55cdd24749aa44da79ffd096e06b8cbc68011c2280b8c520a3960"),
    (5, None): (2, "566fe0975fc0312cb5c4bc489a08bbcd193fd866e2b3f8996226070986e9fc4e"),
    (6, None): (2, "2a4352b4a9381da51450f887a8416937134760e112e202e1d678b55a472f6c4c"),
    (7, None): (2, "8b8280973744a31ae76612c7897bc28eb24708639e79c5ec15ba5fc6af617e18"),
    (8, None): (3, "72bca20a4fc8c202853f1b520d9d0288fd88d3f0accaa330b425ea3cdeba53c7"),
    (9, None): (7, "059c8c0a39c0fec2d464f54e4cc8486f011204449b8ee85387e33ab971e3471d"),
    (10, None): (2, "694cc1158ce4b8a5d3bf36dbfc57f3c594ff04954fd4fb6bf7bbbced148f6326"),
    (11, None): (2, "e6ec276855ef6eaeddd08d9c838bf8d6c536536e8c25d87bb62fcc8da9ffaf14"),
    (12, None): (3, "8c30491d06a887df9ed367bb319ba7b0bfcb90c5d42b5344e3a77eb6712ca089"),
    (13, None): (2, "8e663c0892b702b2ed0d74c1a749055737b132354ac4fd0ed2eab220490c2a42"),
    (14, None): (7, "6767d3fa74ba69f85273071e10e93afc3cff9dc6f58e24758e0acdc9fb364c55"),
    (15, None): (2, "39d7473491ac3523ecfa5ee03ed4676d39f6731aaaedb28ec5db481457350ba1"),
    (16, None): (3, "792642961b74cd98217ea8c75a26a9d934d5324ab2cfef16c041c524419b9940"),
    (3, 0xd): (2, "dc2e0c65196b5e26b0fcf4a71b543728f8cf22c82c967d14f6e00eec8e1d533d"),
    (9, 0x301): (7, "9d4284770fd242274949a4121c8baa1a49f35b531c9b55bd7e5fb45291919da6"),
}


@pytest.mark.parametrize("m,modulus", PINNED_TABLES)
def test_tables_match_pinned_digests(m, modulus):
    f = FieldCtx(m, modulus)
    assert (f.generator, _table_digest(f)) == PINNED_TABLES[m, modulus]
