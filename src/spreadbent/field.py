"""Arithmetic for GF(2^m) and its quadratic extension GF(2^(2m)).

Field elements are plain Python ints in [0, 2^m): bit i of the int is the
coefficient of x^i in a polynomial over F2, reduced modulo an irreducible
modulus.  A FieldCtx carries m, the modulus and precomputed lookup tables;
every operation takes and returns ints, so elements need no wrapper type.
Addition is XOR.  inv(0) = 0 by convention, which keeps the division
formulas built on top of this module total.

Elements of the quadratic extension GF(2^(2m)) are pairs (a, b) meaning
a + b*u, where u^2 = u + c for a base-field constant c of absolute trace 1
(the smallest such integer).  The base field embeds as (a, 0).

Vectorized counterparts of the scalar operations (vmul, vinv, vpow, ...)
operate on numpy integer arrays elementwise and are used by the exhaustive
sweeps elsewhere in the package.  Both kinds read one zero-sentinel log/exp
pair, built with the context (zlog[0] points into a zero tail of zexp, so
zexp[zlog[a] + zlog[b]] = a b with no special case for 0); the Frobenius
tables frob[j][a] = a^(2^j) are built on first use.  Every table is
read-only, since field_ctx shares one context per field across the process.
"""

from functools import cached_property, lru_cache

import numpy as np

MIN_M = 2
MAX_M = 16


# ---------------------------------------------------------------------------
# raw binary-polynomial arithmetic (ints as coefficient vectors)

def polymul(a: int, b: int) -> int:
    """Carry-less product of two binary polynomials."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        b >>= 1
    return r


def polymod(a: int, mod: int) -> int:
    """Remainder of a binary polynomial modulo another."""
    dm = mod.bit_length() - 1
    while a.bit_length() - 1 >= dm:
        a ^= mod << (a.bit_length() - 1 - dm)
    return a


def polymul_mod(a: int, b: int, mod: int) -> int:
    """Schoolbook carry-less multiply followed by modular reduction."""
    return polymod(polymul(a, b), mod)


def polygcd(a: int, b: int) -> int:
    while b:
        a, b = b, polymod(a, b)
    return a


def _polypow_mod(a: int, e: int, mod: int) -> int:
    r = 1
    while e:
        if e & 1:
            r = polymul_mod(r, a, mod)
        a = polymul_mod(a, a, mod)
        e >>= 1
    return r


def is_irreducible(mod: int) -> bool:
    """Irreducibility of a binary polynomial of degree m >= 1.

    Checks gcd(mod, x^(2^i) - x) = 1 for 1 <= i <= m/2; a reducible degree-m
    polynomial has an irreducible factor of degree at most m/2, so it would
    share a root with one of these.
    """
    m = mod.bit_length() - 1
    if m < 1 or not (mod & 1):
        return False
    t = 2
    for _ in range(m // 2):
        t = polymul_mod(t, t, mod)
        if polygcd(mod, t ^ 2) != 1:
            return False
    return True


def default_modulus(m: int) -> int:
    """The irreducible degree-m modulus with the smallest integer encoding."""
    for cand in range((1 << m) + 1, 1 << (m + 1), 2):
        if is_irreducible(cand):
            return cand
    raise ValueError(f"no irreducible polynomial of degree {m}")  # unreachable


def _prime_factors(n: int) -> list[int]:
    fs = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            fs.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        fs.append(n)
    return fs


# ---------------------------------------------------------------------------
# base field context

class FieldCtx:
    """GF(2^m) with log/exp, inverse and trace tables (2 <= m <= 16)."""

    def __init__(self, m: int, modulus: int | None = None):
        if not MIN_M <= m <= MAX_M:
            raise ValueError(f"m must be in [{MIN_M}, {MAX_M}], got {m}")
        if modulus is None:
            modulus = default_modulus(m)
        else:
            if modulus.bit_length() - 1 != m:
                raise ValueError(
                    f"modulus 0x{modulus:x} does not have degree {m}")
            if not is_irreducible(modulus):
                raise ValueError(f"modulus 0x{modulus:x} is not irreducible")
        self.m = m
        self.modulus = modulus
        self.order = 1 << m
        q1 = self.order - 1
        self._q1 = q1

        g = self._find_generator()
        self.generator = g
        # zexp: g^i over [0, 2(q-1)), then a zero tail; zlog: the discrete
        # log as intp, with zlog[0] = 2(q-1) pointing into the tail
        zexp = np.zeros(4 * q1 + 1, dtype=np.int32)
        t = 1
        for i in range(q1):
            zexp[i] = t
            t = polymul_mod(t, g, modulus)
        if t != 1:
            raise ValueError(f"0x{modulus:x} is not a field modulus")
        zexp[q1:2 * q1] = zexp[:q1]
        zlog = np.empty(self.order, dtype=np.intp)
        zlog[zexp[:q1]] = np.arange(q1)
        zlog[0] = 2 * q1
        self.zexp = _frozen(zexp)
        self.zlog = _frozen(zlog)

        inv = np.zeros(self.order, dtype=np.int32)
        inv[1:] = zexp[q1 - zlog[1:]]
        self._inv = _frozen(inv)

        # trace is F2-linear: fold it into a bit mask so that
        # trace(a) = parity(popcount(a & mask))
        mask = 0
        for i in range(m):
            t, s = 0, 1 << i
            for _ in range(m):
                t ^= s
                s = polymul_mod(s, s, modulus)
            if t not in (0, 1):
                raise AssertionError("trace of a basis element must be 0 or 1")
            if t:
                mask |= 1 << i
        self._trace_mask = mask
        tr = np.bitwise_count(np.arange(self.order, dtype=np.uint32)
                              & np.uint32(mask)).astype(np.uint8) & 1
        self.trace_table = _frozen(tr)
        self._ext = None

    def _find_generator(self) -> int:
        q1 = self._q1
        cofactors = [q1 // p for p in _prime_factors(q1)]
        for g in range(2, self.order):
            if all(_polypow_mod(g, cf, self.modulus) != 1 for cf in cofactors):
                return g
        raise AssertionError("no generator found")  # unreachable for a field

    def __repr__(self):
        return f"FieldCtx(m={self.m}, modulus=0x{self.modulus:x})"

    # -- scalar operations --------------------------------------------------

    def add(self, a: int, b: int) -> int:
        return a ^ b

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return int(self.zexp[self.zlog[a] + self.zlog[b]])

    def sqr(self, a: int) -> int:
        return self.mul(a, a)

    def inv(self, a: int) -> int:
        """Multiplicative inverse, extended by inv(0) = 0."""
        return int(self._inv[a])

    def pow(self, a: int, e: int) -> int:
        """a**e with 0**0 = 1 and 0**e = 0 for e > 0."""
        if e < 0:
            raise ValueError("exponent must be nonnegative")
        if a == 0:
            return 1 if e == 0 else 0
        return int(self.zexp[int(self.zlog[a]) * (e % self._q1) % self._q1])

    def trace(self, a: int) -> int:
        """Absolute trace, as the integer 0 or 1."""
        return int(self.trace_table[a])

    def sqrt(self, a: int) -> int:
        """The unique square root: a**(2^(m-1))."""
        return self.pow(a, 1 << (self.m - 1))

    def half_trace(self, a: int) -> int:
        """Sum of the even Frobenius powers a^(2^(2i)), 0 <= 2i < m.

        For odd m this solves z^2 + z = a whenever trace(a) = 0.
        """
        z, s = 0, a
        for i in range(self.m):
            if i % 2 == 0:
                z ^= s
            s = self.mul(s, s)
        return z

    def artin_schreier_root(self, a: int) -> int:
        """One solution z of z^2 + z = a; requires trace(a) = 0."""
        if self.trace(a):
            raise ValueError("z^2 + z = a has no root: trace(a) = 1")
        if self.m % 2:
            return self.half_trace(a)
        return self._artin_schreier_even(a)

    def _artin_schreier_even(self, a: int) -> int:
        # solve the F2-linear system (z^2 ^ z) = a by Gaussian elimination
        m = self.m
        imgs = [self.sqr(1 << j) ^ (1 << j) for j in range(m)]
        piv: list[int | None] = [None] * m
        for i in range(m):
            r = 0
            for j in range(m):
                if (imgs[j] >> i) & 1:
                    r |= 1 << j
            r |= ((a >> i) & 1) << m
            for j in range(m):
                if piv[j] is not None and (r >> j) & 1:
                    r ^= piv[j]
            low = (r & ((1 << m) - 1)) & -(r & ((1 << m) - 1))
            if low:
                piv[low.bit_length() - 1] = r
            elif (r >> m) & 1:
                raise AssertionError("inconsistent system despite trace 0")
        z = 0
        for j in reversed(range(m)):
            r = piv[j]
            if r is None:
                continue
            rhs = (r >> m) & 1
            for j2 in range(j + 1, m):
                if (r >> j2) & 1:
                    rhs ^= (z >> j2) & 1
            if rhs:
                z |= 1 << j
        return z

    # -- quadratic extension -------------------------------------------------

    @property
    def ext(self) -> "ExtCtx":
        if self._ext is None:
            self._ext = ExtCtx(self)
        return self._ext

    def solve_quadratic(self, x: int):
        """A root t of t^2 + x*t + 1 = 0 in GF(2^(2m)), for x != 0.

        The two roots are t and ext.inv(t), and t + inv(t) = x.  When
        trace(1/x^2) = 0 the root lies in the base field, returned as (t, 0).
        """
        if x == 0:
            raise ValueError("x must be nonzero")
        c = self.inv(self.sqr(x))  # t = x*s turns the equation into s^2+s = c
        if self.trace(c) == 0:
            return (self.mul(x, self.artin_schreier_root(c)), 0)
        ext = self.ext
        s0 = self.artin_schreier_root(c ^ ext.c)
        return (self.mul(x, s0), x)

    # -- Frobenius tables, built on first use --------------------------------

    @cached_property
    def frob(self) -> np.ndarray:
        """frob[j][a] = a^(2^j) for 0 <= j < m, shape (m, 2^m), int32."""
        F = np.empty((self.m, self.order), dtype=np.int32)
        F[0] = np.arange(self.order)
        for j in range(1, self.m):
            F[j] = self.vmul(F[j - 1], F[j - 1])
        return _frozen(F)

    # -- vectorized operations (numpy int arrays of elements) ----------------

    def vmul(self, A, B):
        return self.zexp[self.zlog[A] + self.zlog[B]]

    def vinv(self, A):
        return self._inv[A]

    def vpow(self, A, e: int):
        """Elementwise A**e for a fixed exponent e >= 0, gathered from the
        table of a**e over the whole field."""
        if e < 0:
            raise ValueError("exponent must be nonnegative")
        if e == 0:
            return np.ones_like(np.asarray(A), dtype=np.int32)
        T = self.zexp[self.zlog * (e % self._q1) % self._q1]
        T[0] = 0
        return T[A]

    def vsqr(self, A):
        return self.frob[1][A]

    def vtrace(self, A):
        return self.trace_table[A]


class ExtCtx:
    """GF(2^(2m)) over a FieldCtx; elements are pairs (a, b) = a + b*u."""

    def __init__(self, base: FieldCtx):
        self.base = base
        self.c = next(c for c in range(1, base.order) if base.trace(c) == 1)
        self.order = base.order * base.order

    def __repr__(self):
        return f"ExtCtx(base={self.base!r}, c=0x{self.c:x})"

    def add(self, p, q):
        return (p[0] ^ q[0], p[1] ^ q[1])

    def mul(self, p, q):
        f = self.base
        a, b = p
        d, e = q
        be = f.mul(b, e)
        return (f.mul(a, d) ^ f.mul(be, self.c),
                f.mul(a, e) ^ f.mul(b, d) ^ be)

    def sqr(self, p):
        return self.mul(p, p)

    def inv(self, p):
        """Inverse via the conjugate, with inv(0) = 0."""
        a, b = p
        if a == 0 and b == 0:
            return (0, 0)
        f = self.base
        n = f.mul(a, a ^ b) ^ f.mul(self.c, f.mul(b, b))
        ni = f.inv(n)
        return (f.mul(a ^ b, ni), f.mul(b, ni))

    def pow(self, p, e: int):
        if e < 0:
            raise ValueError("exponent must be nonnegative")
        r = (1, 0)
        while e:
            if e & 1:
                r = self.mul(r, p)
            p = self.mul(p, p)
            e >>= 1
        return r


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _frozen_tables(*tables):
    return tuple(_frozen(t) for t in tables)


@lru_cache(maxsize=None)
def field_ctx(m: int, modulus: int | None = None) -> FieldCtx:
    """Cached FieldCtx factory (contexts are immutable after construction)."""
    return FieldCtx(m, modulus)
