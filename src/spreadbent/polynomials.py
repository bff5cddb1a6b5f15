"""Linearized and Dickson polynomial machinery over GF(2^m).

A linearized polynomial L(z) = sum_i c_i z^(2^i) is an F2-linear map of the
field, stored by its coefficient list [c_0 .. c_(m-1)].  Inversion comes in
two independent flavours: a generic matrix oracle (binary Gaussian
elimination, then interpolation back to linearized coefficients), and closed
forms for the parametric maps that the pre-quasifield division formulas are
built from.  The closed forms are checked against the oracle by the tests,
which compose them with their forward maps (quad_trace_map for the
combination polynomial behind Knuth's division, square_trace_map for the
square-plus-trace inverse behind Kantor's), and by the strict sweeps.

Dickson values, combination coefficients and the square-plus-trace inverse
are each written once, over field elements or numpy arrays of them.  D_k
comes from a doubling ladder; the three-term recurrence is its oracle.
"""

import math
from functools import cache

import numpy as np

from .field import FieldCtx, _frozen_tables


class NotBijectiveError(ValueError):
    """The linearized map is singular and has no inverse."""


class NotCoprimeError(ValueError):
    """The Dickson exponent is not coprime to 2^(2m) - 1."""


class LinearizedMap:
    """F2-linear map z -> sum_i coeffs[i] * z^(2^i) over a FieldCtx."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: FieldCtx, coeffs):
        coeffs = list(coeffs)
        if len(coeffs) > ctx.m:
            raise ValueError(f"at most m={ctx.m} coefficients, got {len(coeffs)}")
        coeffs += [0] * (ctx.m - len(coeffs))
        if any(not 0 <= c < ctx.order for c in coeffs):
            raise ValueError("coefficients must be field elements")
        self.ctx = ctx
        self.coeffs = coeffs

    def __repr__(self):
        return f"LinearizedMap({self.ctx!r}, {self.coeffs})"

    def __call__(self, z: int) -> int:
        return eval_linearized(self.ctx, self.coeffs, z)

    def matrix(self) -> list[int]:
        """Column-bit-vector form: matrix()[j] is the image of the basis
        element 1 << j, so bit i of matrix()[j] is entry (i, j)."""
        return [self(1 << j) for j in range(self.ctx.m)]


def eval_linearized(ctx: FieldCtx, coeffs, z: int) -> int:
    """Evaluate sum_i coeffs[i] z^(2^i) without building a LinearizedMap."""
    out, s = 0, z
    for c in coeffs:
        if c:
            out ^= ctx.mul(c, s)
        s = ctx.mul(s, s)
    return out


def invert_linearized(L: LinearizedMap) -> LinearizedMap:
    """Matrix oracle: invert L by binary Gaussian elimination, then
    interpolate the inverse's linearized coefficients on the basis.

    Raises NotBijectiveError when the map is singular.
    """
    ctx = L.ctx
    m = ctx.m
    cols = L.matrix()
    # rows of the augmented system [A | I], each packed into one int
    rows = []
    for i in range(m):
        bits = 0
        for j in range(m):
            if (cols[j] >> i) & 1:
                bits |= 1 << j
        rows.append(bits | (1 << (m + i)))
    r = 0
    for c in range(m):
        sel = next((k for k in range(r, m) if (rows[k] >> c) & 1), None)
        if sel is None:
            raise NotBijectiveError(f"linearized map {L.coeffs} is singular")
        rows[r], rows[sel] = rows[sel], rows[r]
        for k in range(m):
            if k != r and (rows[k] >> c) & 1:
                rows[k] ^= rows[r]
        r += 1
    inv_rows = [row >> m for row in rows]
    preimages = []
    for j in range(m):
        v = 0
        for i in range(m):
            if (inv_rows[i] >> j) & 1:
                v |= 1 << i
        preimages.append(v)
    return LinearizedMap(ctx, _interpolate_linearized(ctx, preimages))


def _interpolate_linearized(ctx: FieldCtx, images) -> list[int]:
    """Coefficients of the linearized map sending 1 << j to images[j]."""
    m = ctx.m
    rows = [[ctx.pow(1 << j, 1 << i) for i in range(m)] for j in range(m)]
    rhs = list(images)
    for c in range(m):
        p = next((r for r in range(c, m) if rows[r][c] != 0), None)
        if p is None:
            raise AssertionError("Moore matrix of a basis must be invertible")
        rows[c], rows[p] = rows[p], rows[c]
        rhs[c], rhs[p] = rhs[p], rhs[c]
        s = ctx.inv(rows[c][c])
        rows[c] = [ctx.mul(s, v) for v in rows[c]]
        rhs[c] = ctx.mul(s, rhs[c])
        for r in range(m):
            if r != c and rows[r][c] != 0:
                f = rows[r][c]
                rows[r] = [v ^ ctx.mul(f, w) for v, w in zip(rows[r], rows[c])]
                rhs[r] ^= ctx.mul(f, rhs[c])
    return rhs


# ---------------------------------------------------------------------------
# Dickson polynomials

DICKSON_RECURRENCE_MAX = 1 << 20


def dickson_inverse_exponent(k: int, m: int) -> int:
    """k' with D_k' o D_k = identity on GF(2^m): the inverse of k
    modulo 2^(2m) - 1.  Raises NotCoprimeError when gcd(k, 2^(2m)-1) > 1,
    and ValueError unless k >= 0 and m >= 1."""
    if k < 0 or m < 1:
        raise ValueError(f"need k >= 0 and m >= 1, got k={k}, m={m}")
    n = (1 << (2 * m)) - 1
    if math.gcd(k, n) != 1:
        raise NotCoprimeError(f"gcd({k}, 2^(2*{m})-1) != 1")
    return pow(k, -1, n)


def dickson_eval(ctx: FieldCtx, k: int, x):
    """D_k(x) over GF(2^m), elementwise over a field element or an array,
    by the doubling ladder D_2n = D_n^2, D_2n+1 = D_n D_n+1 + x on the
    pair (D_n, D_n+1) from (D_0, D_1) = (0, x), along the bits of k."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    x = np.asarray(x, dtype=np.int32)
    lo, hi = np.zeros_like(x), x  # D_n, D_n+1 at n = 0
    for bit in bin(k)[2:]:
        cross = ctx.vmul(lo, hi) ^ x
        if bit == "1":
            lo, hi = cross, ctx.vsqr(hi)
        else:
            lo, hi = ctx.vsqr(lo), cross
    return lo


def dickson_eval_recurrence(ctx: FieldCtx, k: int, x: int) -> int:
    """Oracle evaluation by the recurrence D_j = x D_(j-1) + D_(j-2),
    D_0 = 2 = 0, D_1 = x.  Guarded to k <= 2^20."""
    if not 0 <= k <= DICKSON_RECURRENCE_MAX:
        raise ValueError(f"k must be in [0, {DICKSON_RECURRENCE_MAX}]")
    if k == 0:
        return 0
    prev, cur = 0, x
    for _ in range(k - 1):
        prev, cur = cur, ctx.mul(x, cur) ^ prev
    return cur


def dickson_coeff_bits(k: int) -> dict[int, int]:
    """Exponent -> coefficient (mod 2) of D_k, from the closed coefficient
    form (k/(k-i)) * C(k-i, i); exact integer arithmetic throughout."""
    if k < 1:
        return {}
    out = {}
    for i in range(k // 2 + 1):
        c = math.comb(k - i, i) * k // (k - i)
        if c % 2:
            out[k - 2 * i] = 1
    return out


# ---------------------------------------------------------------------------
# closed-form inverse of z -> a z + a^2 z^2 + tr(z)   (odd m, tr(1/a) = 1)

def combo_coeffs(ctx: FieldCtx, r) -> list[int]:
    """Coefficients [c_0 .. c_(m-1)] of the combination polynomial driven by
    Frobenius powers of the parameter r.

    c_0 sums r^(2^j) over odd j <= m-2; for odd i > 0 the list is odd j < i
    then even j in (i, m-1], plus the constant 1; for even i > 0 it is even
    j < i then odd j in (i, m-2].

    For odd m, a != 0 and r = 1/a with tr(r) = 1 (exactly when
    quad_trace_map(ctx, a) is a permutation), its inverse is
    r C(z) + r tr(r z): the linearized map with coefficients
    r (c_i + r^(2^i)).

    r may also be a numpy array of parameters; each coefficient is then the
    array of that coefficient over r.
    """
    m = ctx.m
    frob = list(ctx.frob[:, r])

    def fsum(idxs):
        out = 0
        for j in idxs:
            out ^= frob[j]
        return out

    coeffs = [fsum(range(1, m - 1, 2))]
    for i in range(1, m):
        if i % 2:
            coeffs.append(1 ^ fsum(range(1, i - 1, 2)) ^ fsum(range(i + 1, m, 2)))
        else:
            coeffs.append(fsum(range(0, i - 1, 2)) ^ fsum(range(i + 1, m - 1, 2)))
    return coeffs


def quad_trace_map(ctx: FieldCtx, a: int) -> LinearizedMap:
    """The map z -> a z + a^2 z^2 + tr(z)."""
    coeffs = [1] * ctx.m
    coeffs[0] ^= a
    coeffs[1] ^= ctx.sqr(a)
    return LinearizedMap(ctx, coeffs)


# ---------------------------------------------------------------------------
# closed-form inverse of z -> a z^2 + tr(a z) + tr(a) z

def square_trace_map(ctx: FieldCtx, a: int) -> LinearizedMap:
    """The map z -> a z^2 + tr(a z) + tr(a) z."""
    coeffs = [ctx.pow(a, 1 << i) for i in range(ctx.m)]  # tr(a z)
    coeffs[1] ^= a
    coeffs[0] ^= ctx.trace(a)
    return LinearizedMap(ctx, coeffs)


@cache
def _square_trace_tables(ctx: FieldCtx):
    """square_trace_inverse_eval's q-entry tables, shared per field: logs of
    br, z^h, p and c, and w = p + c s, so the t terms are one product."""
    q, m = ctx.order, ctx.m
    frob, zlog = ctx.frob, ctx.zlog
    br = frob[m - 1].copy()
    for i in range((m - 1) // 2 + 1):
        br ^= frob[2 * i]
    s = np.ones(q, dtype=np.int32)
    for i in range((m - 3) // 2 + 1):
        s ^= frob[2 * i]
    e = np.arange(q)
    p = ctx.vpow(e, (1 << (m - 1)) - 1)
    c = ctx.vinv(e) * ctx.trace_table
    return _frozen_tables(zlog[br], zlog[frob[m - 1]], zlog[p], zlog[c],
                          p ^ ctx.vmul(c, s))


def square_trace_inverse_eval(ctx: FieldCtx, a, z):
    """The inverse of square_trace_map(ctx, a) at z (odd m), elementwise
    over field elements or broadcastable arrays of them:

        p(a) (z^h + t) + c(a) (br(az) + t s(a)),  t = tr(az),

    with h = 2^(m-1), p(a) = a^(h-1), c(a) = tr(a)/a, br(v) = v^h +
    sum_(i <= (m-1)/2) v^(4^i) and s(a) = 1 + sum_(i <= (m-3)/2) a^(4^i).
    Total in both arguments (0 for a = 0 or z = 0).
    """
    if ctx.m % 2 == 0:
        raise ValueError("m must be odd")
    l_br, l_zh, l_p, l_c, w = _square_trace_tables(ctx)
    zexp = ctx.zexp
    az = zexp[ctx.zlog[a] + ctx.zlog[z]]
    return (zexp[l_br[az] + l_c[a]] ^ ctx.trace_table[az] * w[a]
            ^ zexp[l_zh[z] + l_p[a]])
