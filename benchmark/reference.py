"""Reference arithmetic for the benchmark's checks, written apart from src/.

Nothing here imports spreadbent.  The field is built from first principles:
the modulus is found by trial division, products come from a vectorised
shift-and-add (carry-less) multiply, and squares and traces are derived from
that product.  The program uses log/exp tables and a different irreducibility
test, so an error in either shows up as a disagreement.

The four multiplications a <> x are those of the README table, with the
Kantor twist read as a^2 x + tr(a x) + a tr(x) (the README row prints
tr(a) x, which is not a pre-quasifield; see benchmark/README.md).
"""

import numpy as np


def _poly_mod(a: int, b: int) -> int:
    db = b.bit_length()
    while a.bit_length() >= db:
        a ^= b << (a.bit_length() - db)
    return a


def smallest_irreducible(m: int) -> int:
    """The degree-m binary polynomial with the smallest integer encoding that
    no polynomial of degree 1 .. m/2 divides."""
    for cand in range((1 << m) | 1, 1 << (m + 1), 2):
        if all(_poly_mod(cand, d) for d in range(2, 1 << (m // 2 + 1))):
            return cand
    raise ValueError(f"no irreducible polynomial of degree {m}")


class RefField:
    """GF(2^m) on int32 arrays, with the default (smallest) modulus.

    Products come from shift-and-add; up to TABLE_MAX_M the whole product
    table is built that way once and later products are gathered from it.
    """

    TABLE_MAX_M = 11

    def __init__(self, m: int):
        self.m = m
        self.q = 1 << m
        self.modulus = smallest_irreducible(m)
        e = np.arange(self.q, dtype=np.int32)
        self.table = None
        if m <= self.TABLE_MAX_M:
            self.table = self.mul(e[:, None], e[None, :])
        self.sq = self.mul(e, e)
        tr = e.copy()
        s = e
        for _ in range(m - 1):
            s = self.sq[s]
            tr ^= s
        if tr.max() > 1:
            raise AssertionError("trace escaped F2")
        self.tr = tr

    def mul(self, A, B):
        """Elementwise product of broadcastable arrays, by shift-and-add."""
        if self.table is not None:
            return self.table[A, B]
        A, B = np.broadcast_arrays(np.asarray(A, dtype=np.int32),
                                   np.asarray(B, dtype=np.int32))
        A = A.copy()
        out = np.zeros(A.shape, dtype=np.int32)
        for i in range(self.m):
            out ^= A * ((B >> i) & 1)
            A <<= 1
            A ^= self.modulus * (A >> self.m)
        return out

    def pow(self, A, e: int):
        A = np.asarray(A, dtype=np.int32)
        out = np.ones(A.shape, dtype=np.int32)
        while e:
            if e & 1:
                out = self.mul(out, A)
            A = self.sq[A]
            e >>= 1
        return out


def family_mul(F: RefField, name: str, A, X, k=None, beta=None):
    """a <> x for one of the four families, elementwise on broadcastable
    arrays of field elements."""
    A = np.asarray(A, dtype=np.int32)
    X = np.asarray(X, dtype=np.int32)
    if name == "field":
        return F.mul(A, X)
    if name == "dm":
        e = (1 << (F.m - 1)) - (1 << (k - 1)) - 1
        w = F.mul(A, X)
        L = w.copy()
        for _ in range(k - 1):
            w = F.sq[w]
            L ^= w
        return F.mul(F.pow(A, e), L)
    if name == "knuth":
        out = F.mul(A, X)
        out ^= F.tr[F.mul(beta, X)] * F.sq[A]
        out ^= F.tr[F.mul(beta, A)] * F.sq[X]
        return out
    if name == "kantor":
        return F.mul(F.sq[A], X) ^ F.tr[F.mul(A, X)] ^ A * F.tr[X]
    raise ValueError(f"unknown family {name!r}")


def mult_table(F: RefField, name: str, k=None, beta=None):
    """T[a, x] = a <> x over the whole field."""
    e = np.arange(F.q, dtype=np.int32)
    return family_mul(F, name, e[:, None], e[None, :], k=k, beta=beta)


def column_inverse(T):
    """D[y, x] = the a with T[a, x] = y (0 in column x = 0), by sorting each
    column; None when some column x != 0 is not a permutation."""
    q = T.shape[0]
    order = np.argsort(T, axis=0, kind="stable")
    if not np.array_equal(np.take_along_axis(T, order, axis=0)[:, 1:],
                          np.broadcast_to(np.arange(q)[:, None], (q, q - 1))):
        return None
    D = order.astype(np.int32)
    D[:, 0] = 0
    return D


def rows_linear(T):
    """Per row: is x -> T[r, x] F2-linear?  Uses f(0) = 0 and
    f(x) = f(x & (x - 1)) ^ f(x & -x) for x != 0, which by induction on the
    popcount is equivalent to additivity."""
    q = T.shape[1]
    x = np.arange(1, q)
    rest = x & (x - 1)
    low = x & -x
    return (T[:, 0] == 0) & (T[:, x] == (T[:, rest] ^ T[:, low])).all(axis=1)


def ps_bits(D, g):
    """f(x, y) = g(y // x) at index (y << m) | x, from a division table."""
    return np.asarray(g, dtype=np.uint8)[D].ravel()


def walsh(bits):
    """All Walsh coefficients sum_x (-1)^(f(x) + popcount(w & x)), as int32
    (every partial sum is bounded by 2^n <= 2^26)."""
    n = len(bits).bit_length() - 1
    v = 1 - 2 * np.asarray(bits, dtype=np.int32)
    for i in range(n):
        V = v.reshape(-1, 2, 1 << i)
        lo = V[:, 0, :]
        hi = V[:, 1, :]
        t = lo.copy()
        lo += hi
        np.subtract(t, hi, out=hi)
    return v


def read_tt(path):
    """Read the hex truth-table format: `#` lines are comments, the rest is
    one hex string, bit b of byte j being f(8 j + b)."""
    with open(path) as fh:
        payload = "".join(s.strip() for s in fh if not s.startswith("#"))
    raw = np.frombuffer(bytes.fromhex(payload), dtype=np.uint8)
    return ((raw[:, None] >> np.arange(8, dtype=np.uint8)) & 1).astype(
        np.uint8).ravel()


def span_closed(points) -> bool:
    """Is a set of packed points closed under XOR?  True iff its size is
    2^rank, the rank taken by XOR-basis insertion."""
    pts = {int(p) for p in points}
    basis = []  # distinct leading bits, kept in descending order
    for p in pts:
        for b in basis:
            p = min(p, p ^ b)
        if p:
            basis.append(p)
            basis.sort(reverse=True)
    return 0 in pts and len(pts) == 1 << len(basis)
