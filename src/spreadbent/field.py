"""Arithmetic for GF(2^m).

Field elements are plain Python ints in [0, 2^m): bit i of the int is the
coefficient of x^i in a polynomial over F2, reduced modulo an irreducible
modulus.  A FieldCtx carries m, the modulus and precomputed lookup tables;
every operation takes and returns ints, so elements need no wrapper type.
Addition is XOR, and inv(0) = 0 keeps the division formulas built on this
module total.  Only solve_quadratic answers in GF(2^(2m)), with a pair.

Vectorized counterparts of the scalar operations (vmul, vinv, vpow, ...)
operate on numpy integer arrays elementwise and are used by the exhaustive
sweeps elsewhere in the package.  Both kinds read one zero-sentinel log/exp
pair (zlog[0] points into a zero tail of zexp, so zexp[zlog[a] + zlog[b]] =
a b with no special case for 0).  The context builds every table from the
one before: zexp from the generator, the least g whose powers fill all
2^m - 1 nonzero slots before they return to 1; the Frobenius tables
frob[j][a] = a^(2^j) from zexp and zlog; the trace table as the XOR of the
Frobenius rows.  Every table is read-only, since field_ctx shares one
context per field across the process.
"""

from functools import lru_cache

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

        # the generator: the least g of multiplicative order q - 1
        for g in range(2, self.order):
            powers, t = [1], g
            while t != 1:
                powers.append(t)
                t = polymul_mod(t, g, modulus)
            if len(powers) == q1:
                break
        self.generator = g
        # zexp: g^i over [0, 2(q-1)), then a zero tail; zlog: the discrete
        # log as intp, with zlog[0] = 2(q-1) pointing into the tail
        zexp = np.zeros(4 * q1 + 1, dtype=np.int32)
        zexp[:q1] = powers
        zexp[q1:2 * q1] = zexp[:q1]
        zlog = np.empty(self.order, dtype=np.intp)
        zlog[zexp[:q1]] = np.arange(q1)
        zlog[0] = 2 * q1
        self.zexp = _frozen(zexp)
        self.zlog = _frozen(zlog)

        inv = np.zeros(self.order, dtype=np.int32)
        inv[1:] = zexp[q1 - zlog[1:]]
        self._inv = _frozen(inv)

        F = np.empty((m, self.order), dtype=np.int32)
        F[0] = np.arange(self.order)
        for j in range(1, m):
            F[j] = self.vmul(F[j - 1], F[j - 1])
        self.frob = _frozen(F)  # frob[j][a] = a^(2^j), shape (m, 2^m)
        # tr(a) = a + a^2 + ... + a^(2^(m-1)), which lies in {0, 1}
        self.trace_table = _frozen(
            np.bitwise_xor.reduce(F, axis=0).astype(np.uint8))

    def __repr__(self):
        return f"FieldCtx(m={self.m}, modulus=0x{self.modulus:x})"

    # -- scalar operations --------------------------------------------------

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

    def solve_quadratic(self, x: int):
        """A root t of t^2 + x*t + 1 = 0 in GF(2^(2m)), for x != 0.

        t is the pair (a, b) meaning a + b*u, where u^2 = u + c1 and c1 is
        the least element of trace 1.  The other root is t + x, and the two
        multiply to 1.  When trace(1/x^2) = 0 both roots lie in the base
        field and b = 0; otherwise b = x.
        """
        if x == 0:
            raise ValueError("x must be nonzero")
        # t = x*s turns the equation into s^2 + s = c.  z -> z^2 + z is
        # F2-linear with kernel {0, 1}, so it maps the even elements (a
        # complement of {0, 1}) one to one onto the elements of trace 0
        even = np.arange(0, self.order, 2)
        root = np.zeros(self.order, dtype=np.int32)
        root[self.frob[1][even] ^ even] = even
        c = self.inv(self.sqr(x))
        if self.trace(c) == 0:
            return (self.mul(x, int(root[c])), 0)
        # with t = x*(s + u), s^2 + s = c + c1, which has trace 0
        c1 = int(np.flatnonzero(self.trace_table)[0])
        return (self.mul(x, int(root[c ^ c1])), x)

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


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _frozen_tables(*tables):
    return tuple(_frozen(t) for t in tables)


@lru_cache(maxsize=None)
def field_ctx(m: int, modulus: int | None = None) -> FieldCtx:
    """Cached FieldCtx factory (contexts are immutable after construction)."""
    return FieldCtx(m, modulus)
