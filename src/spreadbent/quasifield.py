"""Pre-quasifield multiplications over GF(2^m) and their division maps.

Four families share one interface: the field itself (baseline), the
Dempwolff-Muller twist a^e * L(a x), the Knuth trace twist
a x + a^2 tr(beta x) + x^2 tr(beta a), and the Kantor trace twist
a^2 x + tr(a x) + a tr(x).  Throughout, a <> x is the product and
division solves the LEFT operand: qdiv(y, x) is the unique a with
a <> x = y (and 0 when x = 0).  That operand is the slope of the spread
component through (x, y), which is why it comes first.

Each family writes its multiplication once, as _mul over field elements
or broadcast arrays of them; mult_table and the oracles both run on it.
Division is available through two independent routes:

* qdiv_formula — the closed form for each family, written once over
  field elements or broadcastable arrays of them.  Its terms in one
  element (Dickson values, combination coefficients, Frobenius powers,
  ...) are tables over the field or over its logs (_closed_form; Kantor's
  are shared per field by square_trace_inverse_eval), so a quotient is a
  few gathers.
  div_table_formula builds the whole table from it: for the
  pre-semifields (`linear`) y -> y // x is F2-linear, so the m basis rows
  y = 2^i determine the rest by XOR; dm's rows come a block at a time,
* the oracles — one inversion of the columns a -> a <> x of _mul, each
  checked to be a permutation, then scattered: qdiv_oracle's columns 0
  and x, and every column of div_table_oracle's cached mult_table.

Families constructed in strict mode (the default for m <= 7) sweep the
closed form and the table against the oracle over every input pair once,
and refuse to exist on any mismatch; the oracle is authoritative.

verify_axioms checks the defining laws exhaustively: bijectivity of both
one-sided multiplications on nonzero operands, left distributivity
a <> (y+z) = a <> y + a <> z, and the zero law 0 <> x = 0.  The additive
group is XOR on [0, 2^m), a group by construction, so it is reported true
unchecked.  Right distributivity is reported separately: it distinguishes
the pre-semifields (field, Knuth, Kantor) from Dempwolff-Muller, which
fails it.
"""

import math
from dataclasses import dataclass, fields

import numpy as np

from .field import FieldCtx, _frozen, _frozen_tables, field_ctx
from .polynomials import (combo_coeffs, dickson_eval, dickson_inverse_exponent,
                          square_trace_inverse_eval)

STRICT_MAX_M = 7
# the largest m of the exhaustive axiom and spread sweeps
AXIOM_MAX_M = 8
# entries per row block of a non-linear division table: each temporary of a
# block holds this many intp values (64 KB), small enough for malloc to reuse
# heap memory (larger blocks page-faulted ~1 GB of fresh memory at m = 13)
BLOCK_ENTRIES = 1 << 13

FAMILY_NAMES = ("field", "dm", "knuth", "kantor")


class ConsistencyError(RuntimeError):
    """Division has no/multiple solutions, or formula and oracle disagree."""


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of the exhaustive law sweep for one family instance."""

    family: str
    m: int
    params: dict
    additive_group: bool
    left_bijective: bool
    right_bijective: bool
    left_distributive: bool
    zero_law: bool
    right_distributive: bool

    @property
    def passed(self) -> bool:
        """All laws required of the one-sided structure (right
        distributivity is extra and not part of this)."""
        return (self.additive_group and self.left_bijective
                and self.right_bijective and self.left_distributive
                and self.zero_law)

    @property
    def pre_semifield(self) -> bool:
        return self.passed and self.right_distributive

    def as_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        params = d.pop("params")
        return {**d, "passed": self.passed,
                "pre_semifield": self.pre_semifield, **params}


class PreQuasifield:
    """Shared interface: scalar ops, cached tables, strict construction.

    A family supplies _mul and qdiv_formula."""

    kind = "?"
    # every column map a -> a <> x is F2-linear (right distributivity), so
    # y -> y // x is too: the pre-semifields set this
    linear = False

    def __init__(self, ctx: FieldCtx, strict=None):
        self.ctx = ctx
        self.strict = ctx.m <= STRICT_MAX_M if strict is None else strict
        self._mult_table = None
        self._div_table = None
        if self.strict:
            self._strict_sweep()

    def __repr__(self):
        ps = ", ".join(f"{k}={v}" for k, v in self.params.items())
        return f"{type(self).__name__}(m={self.ctx.m}{', ' + ps if ps else ''})"

    @property
    def params(self) -> dict:
        return {}

    def _mul(self, A, X):
        """a <> x elementwise over int32 elements or broadcastable int32
        arrays of them."""
        raise NotImplementedError

    # -- scalar operations ---------------------------------------------------

    def qdiv_formula(self, y, x):
        """The closed-form y // x (0 when x = 0), elementwise over field
        elements or broadcastable arrays of them."""
        raise NotImplementedError

    def qdiv_oracle(self, y: int, x: int) -> int:
        """The a with a <> x = y, from the oracle inversion of the columns
        x' = 0 and x' = x of _mul; 0 when x = 0."""
        if x == 0:
            return 0
        e = np.arange(self.ctx.order, dtype=np.int32)[:, None]
        return int(self._invert_columns(self._mul(e, np.int32([0, x])))[y, 1])

    def _invert_columns(self, T: np.ndarray) -> np.ndarray:
        """D[T[a, j], j] = a for the columns T[a, j] = a <> x_j of _mul,
        x_0 = 0 and D[:, 0] = 0.  Raises ConsistencyError unless column 0
        vanishes and every other column is a permutation."""
        if np.any(T[:, 0]):
            raise ConsistencyError(f"{self.kind}: a <> 0 must vanish")
        if not _columns_are_permutations(T[:, 1:]):
            raise ConsistencyError(
                f"{self.kind}: some a -> a <> x is not a permutation")
        D = np.zeros(T.shape, dtype=np.int32)
        D[T[:, 1:], np.arange(1, T.shape[1])] = np.arange(len(T))[:, None]
        return D

    # -- whole tables ----------------------------------------------------------

    def mult_table(self) -> np.ndarray:
        """T[a, x] = a <> x, shape (2^m, 2^m), int32."""
        if self._mult_table is None:
            e = np.arange(self.ctx.order, dtype=np.int32)
            self._mult_table = _frozen(self._mul(e[:, None], e[None, :]))
        return self._mult_table

    def div_table_formula(self) -> np.ndarray:
        """D[y, x] = closed-form division, same layout as mult_table."""
        if self._div_table is None:
            self._div_table = _frozen(self._div_table_impl())
        return self._div_table

    def div_table_oracle(self) -> np.ndarray:
        """D[y, x] from inverting each column of the multiplication table."""
        return self._invert_columns(self.mult_table())

    def _div_table_impl(self) -> np.ndarray:
        q = self.ctx.order
        e = np.arange(q)
        D = np.empty((q, q), dtype=np.int32)
        if self.linear:
            # D[y] = D[y & (y - 1)] ^ D[y & -y]: basis rows from the closed
            # form, then rows h+1 .. 2h-1 as rows 1 .. h-1 XOR row h
            D[0] = 0
            for i in range(self.ctx.m):
                h = 1 << i
                D[h] = self.qdiv_formula(h, e)
                np.bitwise_xor(D[1:h], D[h], out=D[h + 1:2 * h])
        else:
            rows = max(1, BLOCK_ENTRIES // q)
            for y0 in range(0, q, rows):
                D[y0:y0 + rows] = self.qdiv_formula(e[y0:y0 + rows, None], e)
        return D

    def _strict_sweep(self):
        # the closed form over the whole grid as well as the table: the
        # linear table reads the closed form at its basis rows only
        e = np.arange(self.ctx.order)
        oracle = self.div_table_oracle()
        if not (np.array_equal(self.qdiv_formula(e[:, None], e), oracle)
                and np.array_equal(self.div_table_formula(), oracle)):
            raise ConsistencyError(
                f"{self.kind} (m={self.ctx.m}, {self.params}): closed-form "
                f"division disagrees with the brute-force oracle")


class FieldFamily(PreQuasifield):
    """The field itself: a <> x = a x, division is field division."""

    kind = "field"
    linear = True

    def __init__(self, ctx, strict=None):
        # log(1/x), zero-sentinel
        self._closed_form = _frozen(ctx.zlog[ctx.vinv(np.arange(ctx.order))])
        super().__init__(ctx, strict)

    def _mul(self, A, X):
        return self.ctx.vmul(A, X)

    def qdiv_formula(self, y, x):
        ctx = self.ctx
        return ctx.zexp[ctx.zlog[y] + self._closed_form[x]]


class DempwolffMullerFamily(PreQuasifield):
    """a <> x = a^e L(a x) with e = 2^(m-1) - 2^(k-1) - 1 and
    L(w) = w + w^2 + ... + w^(2^(k-1)).

    Requires odd m, odd k, 1 <= k < m, gcd(k, m) = 1.  Division runs through
    the Dickson polynomial D_d with d the inverse of 2^k - 1 mod 2^(2m) - 1:

        y // x  =  1 / (x * D_d(y^2 / x^(2^k + 1)))
    """

    kind = "dm"

    def __init__(self, ctx, k, strict=None):
        m = ctx.m
        if m % 2 == 0 or k % 2 == 0 or not 1 <= k < m or math.gcd(k, m) != 1:
            raise ValueError(
                f"need odd m and odd k with 1 <= k < m, gcd(k, m) = 1; "
                f"got m={m}, k={k}")
        self.k = k
        self.e = (1 << (m - 1)) - (1 << (k - 1)) - 1
        self.d = dickson_inverse_exponent((1 << k) - 1, m)
        self._pow_e = _frozen(ctx.vpow(np.arange(ctx.order), self.e))  # a^e
        self._closed_form = None  # built by the first qdiv_formula
        super().__init__(ctx, strict)

    @property
    def params(self):
        return {"k": self.k, "e": self.e, "d": self.d}

    def _mul(self, A, X):
        ctx = self.ctx
        AX = ctx.vmul(A, X)
        L = AX
        for j in range(1, self.k):
            L = L ^ ctx.frob[j][AX]
        return ctx.vmul(self._pow_e[A], L)

    def _build_closed_form(self):
        """Logs of y^2, 1/x^(2^k + 1) and 1/x, and the log of 1/D_d(arg)
        indexed by the zero-sentinel log of arg (every index into zexp),
        for y // x = (1/x) (1/D_d(arg)) with arg = y^2 / x^(2^k + 1): the
        quotient is two gathers from intp logs, with no int32 element in
        between.  Built on first use, as KnuthFamily's tables are."""
        ctx = self.ctx
        zlog, e = ctx.zlog, np.arange(ctx.order)
        return _frozen_tables(
            zlog[ctx.frob[1]],
            zlog[ctx.vinv(ctx.vpow(e, (1 << self.k) + 1))],
            zlog[ctx.vinv(dickson_eval(ctx, self.d, e))][ctx.zexp],
            zlog[ctx.vinv(e)])

    def qdiv_formula(self, y, x):
        if self._closed_form is None:
            self._closed_form = self._build_closed_form()
        l_y2, l_xp, l_dinv, l_xinv = self._closed_form
        t = l_dinv[l_y2[y] + l_xp[x]]
        t += l_xinv[x]
        return self.ctx.zexp[t]


class KnuthFamily(PreQuasifield):
    """a <> x = a x + a^2 tr(beta x) + x^2 tr(beta a), odd m, beta != 0.

    Division folds the combination-polynomial inverse:

        y // x = (1 + tr(beta x)) y/x + x tr(beta y/x)
                 + x tr(beta x) C(y/x^2)

    with C the combination polynomial for the parameter beta*x.
    """

    kind = "knuth"
    linear = True

    def __init__(self, ctx, beta, strict=None):
        if ctx.m % 2 == 0:
            raise ValueError(f"need odd m; got m={ctx.m}")
        if not 0 < beta < ctx.order:
            raise ValueError(f"beta must be a nonzero field element; "
                             f"got {beta:#x}")
        self.beta = beta
        self._closed_form = None  # built by the first qdiv_formula
        super().__init__(ctx, strict)

    @property
    def params(self):
        return {"beta": self.beta}

    def _mul(self, A, X):
        ctx = self.ctx
        return (ctx.vmul(A, X)
                ^ ctx.vsqr(A) * ctx.vtrace(ctx.vmul(self.beta, X))
                ^ ctx.vsqr(X) * ctx.vtrace(ctx.vmul(self.beta, A)))

    def _build_closed_form(self):
        """Logs of y^(2^i) and of c_i(x), each of shape (q, m).

        For fixed x every term of the division formula is F2-linear in y:
        tr(beta y/x) = sum_i (beta/x)^(2^i) y^(2^i), and C(y/x^2) is a
        linearized polynomial.  So y // x = sum_i c_i(x) y^(2^i), with
          c_i(x) = x (beta/x)^(2^i) + tr(beta x) x C_i(beta x) / x^(2^(i+1))
                   (+ 1/x for i = 0 when tr(beta x) = 0).

        Built on first use, after a table build allocates its q x q table:
        built first, they split the heap hole a freed table left, and one
        family after another at m = 11 then peaked 8 MB higher.  Kept in
        an attribute the constructor declares: on Python 3.11 a new key in
        the instance __dict__ slows every later attribute read.
        """
        ctx = self.ctx
        q, m = ctx.order, ctx.m
        frob, zlog = ctx.frob, ctx.zlog
        e = np.arange(q)
        xinv = ctx.vinv(e)
        bx, b_x = ctx.vmul(self.beta, e), ctx.vmul(self.beta, xinv)
        tbx = ctx.vtrace(bx).astype(bool)
        combo = combo_coeffs(ctx, bx)
        coef = np.empty((q, m), dtype=np.int32)
        for i in range(m):
            c_trace = ctx.vmul(e, frob[i][b_x])
            c_combo = ctx.vmul(ctx.vmul(e, np.where(tbx, combo[i], 0)),
                               frob[(i + 1) % m][xinv])
            coef[:, i] = c_trace ^ c_combo
        coef[:, 0] ^= xinv * ~tbx
        return _frozen_tables(zlog[frob.T.copy()], zlog[coef])

    def qdiv_formula(self, y, x):
        if self._closed_form is None:
            self._closed_form = self._build_closed_form()
        l_frob, l_coef = self._closed_form
        terms = self.ctx.zexp[l_frob[y] + l_coef[x]]
        return np.bitwise_xor.reduce(terms, axis=-1)


class KantorFamily(PreQuasifield):
    """a <> x = a^2 x + tr(a x) + a tr(x), odd m.

    The multiplication is square_trace_map with parameter x applied to the
    left operand, so division is its closed-form inverse:
    y // x = square_trace_inverse_eval(ctx, x, y), whose q-entry tables
    are shared by every Kantor instance over the field.
    """

    kind = "kantor"
    linear = True

    def __init__(self, ctx, strict=None):
        if ctx.m % 2 == 0:
            raise ValueError(f"need odd m; got m={ctx.m}")
        super().__init__(ctx, strict)

    def _mul(self, A, X):
        ctx = self.ctx
        return (ctx.vmul(ctx.vsqr(A), X) ^ ctx.vtrace(ctx.vmul(A, X))
                ^ A * ctx.vtrace(X))

    def qdiv_formula(self, y, x):
        return square_trace_inverse_eval(self.ctx, x, y)


def make_family(name: str, m: int, *, k=None, beta=None, modulus=None,
                strict=None) -> PreQuasifield:
    """Construct a family by name: field | dm | knuth | kantor.

    dm requires k; knuth requires beta; stray parameters are rejected."""
    name = name.lower()
    if name not in FAMILY_NAMES:
        raise ValueError(f"unknown family {name!r}; pick one of {FAMILY_NAMES}")
    if k is not None and name != "dm":
        raise ValueError(f"family {name!r} takes no parameter k")
    if beta is not None and name != "knuth":
        raise ValueError(f"family {name!r} takes no parameter beta")
    ctx = field_ctx(m, modulus)
    if name == "field":
        return FieldFamily(ctx, strict)
    if name == "dm":
        if k is None:
            raise ValueError("family 'dm' requires parameter k")
        return DempwolffMullerFamily(ctx, k, strict)
    if name == "knuth":
        if beta is None:
            raise ValueError("family 'knuth' requires parameter beta")
        return KnuthFamily(ctx, beta, strict)
    return KantorFamily(ctx, strict)


def _columns_are_permutations(T) -> bool:
    """Every column of T is a permutation of 0 .. len(T) - 1."""
    a = np.arange(len(T), dtype=T.dtype)[:, None]
    return np.array_equal(np.sort(T, axis=0), np.broadcast_to(a, T.shape))


def _rows_additive(T) -> bool:
    """R[y ^ z] = R[y] ^ R[z] for every row R of T and all y, z."""
    e = np.arange(T.shape[1])
    G = e[:, None] ^ e[None, :]
    return all(np.array_equal(R[G], R[:, None] ^ R[None, :]) for R in T)


def verify_axioms(family: PreQuasifield) -> AxiomReport:
    """Exhaustively check the defining laws (m <= AXIOM_MAX_M; the
    distributivity sweeps cover all 2^(3m) triples via whole-table
    gathers)."""
    ctx = family.ctx
    if ctx.m > AXIOM_MAX_M:
        raise ValueError(f"exhaustive sweep capped at m = {AXIOM_MAX_M}")
    T = family.mult_table()
    return AxiomReport(
        family=family.kind, m=ctx.m, params=family.params,
        additive_group=True,
        left_bijective=_columns_are_permutations(T[1:].T),
        right_bijective=_columns_are_permutations(T[:, 1:]),
        left_distributive=_rows_additive(T),
        zero_law=bool(not np.any(T[0]) and not np.any(T[:, 0])),
        right_distributive=_rows_additive(T.T))
