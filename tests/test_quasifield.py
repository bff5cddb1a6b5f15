"""Tests for the pre-quasifield families: multiplication, two-route
division, axiom sweeps, and the strict formula-vs-oracle construction gate.

The negative controls override the family hooks: _mul for a broken
multiplication, qdiv_formula for a wrong closed form (the division table is
built from it).
"""

import numpy as np
import pytest

from spreadbent.field import field_ctx
from spreadbent.polynomials import (
    LinearizedMap,
    _square_trace_tables,
    invert_linearized,
    square_trace_map,
)
from spreadbent.quasifield import (
    AXIOM_MAX_M,
    ConsistencyError,
    FieldFamily,
    KantorFamily,
    make_family,
    verify_axioms,
)


def small_families(m):
    """One instance of each family at odd m (beta = 1, k = 1)."""
    return [
        make_family("field", m),
        make_family("dm", m, k=1),
        make_family("knuth", m, beta=1),
        make_family("kantor", m),
    ]


# ---------------------------------------------------------------------------
# construction and validation


def test_make_family_validation():
    with pytest.raises(ValueError):
        make_family("nope", 3)
    with pytest.raises(ValueError):
        make_family("dm", 3)  # k missing
    with pytest.raises(ValueError):
        make_family("knuth", 3)  # beta missing
    with pytest.raises(ValueError):
        make_family("field", 3, k=1)  # stray parameter
    with pytest.raises(ValueError):
        make_family("kantor", 3, beta=1)  # stray parameter


def test_dm_parameter_constraints():
    with pytest.raises(ValueError):
        make_family("dm", 4, k=1)  # even m
    with pytest.raises(ValueError):
        make_family("dm", 5, k=2)  # even k
    with pytest.raises(ValueError):
        make_family("dm", 5, k=5)  # k = m
    with pytest.raises(ValueError):
        make_family("dm", 9, k=3)  # gcd(3, 9) = 3


def test_knuth_kantor_need_odd_m():
    with pytest.raises(ValueError):
        make_family("knuth", 4, beta=1)
    with pytest.raises(ValueError):
        make_family("kantor", 4)
    with pytest.raises(ValueError):
        make_family("knuth", 3, beta=0)


def test_dm_derived_params():
    Q = make_family("dm", 3, k=1)
    assert Q.params == {"k": 1, "e": 2, "d": 1}
    Q = make_family("dm", 5, k=3)
    assert Q.e == (1 << 4) - (1 << 2) - 1
    assert (Q.d * ((1 << 3) - 1)) % ((1 << 10) - 1) == 1


def test_strict_default_tracks_m():
    assert make_family("field", 3).strict
    assert make_family("kantor", 7).strict
    assert not make_family("kantor", 9).strict
    assert not make_family("field", 5, strict=False).strict


# ---------------------------------------------------------------------------
# pinned multiplication values


@pytest.mark.parametrize("m", [3, 5])
def test_zero_laws(m):
    for Q in small_families(m):
        T = Q.mult_table()
        assert not T[0].any() and not T[:, 0].any()


def test_kantor_left_identity():
    Q = make_family("kantor", 5)
    # trace terms cancel
    assert np.array_equal(Q.mult_table()[1], np.arange(32))


def test_knuth_square_on_diagonal():
    Q = make_family("knuth", 5, beta=7)
    e = np.arange(32)
    # symmetric trace terms cancel
    assert np.array_equal(Q.mult_table()[e, e], Q.ctx.vsqr(e))


def test_dm_m3_k1_collapses_to_cube():
    Q = make_family("dm", 3, k=1)
    ctx, T = Q.ctx, Q.mult_table()
    for a in range(8):
        for x in range(8):
            assert T[a, x] == ctx.mul(ctx.pow(a, 3), x)


def test_dm_m3_k1_division_closed_form():
    Q = make_family("dm", 3, k=1)
    ctx = Q.ctx
    for x in range(1, 8):
        for y in range(8):
            assert Q.qdiv_formula(y, x) == ctx.mul(ctx.vsqr(x),
                                                   ctx.vinv(ctx.vsqr(y)))
    alpha = 0b010
    a = Q.qdiv_formula(alpha, 1)
    assert a == ctx.pow(alpha, 5)
    assert Q.mult_table()[a, 1] == alpha


# ---------------------------------------------------------------------------
# division: formula vs oracle vs tables


@pytest.mark.parametrize("m", [3, 5])
def test_division_conventions(m):
    for Q in small_families(m):
        q = Q.ctx.order
        for x in range(1, q):
            assert Q.qdiv_formula(0, x) == 0
            assert Q.qdiv_oracle(0, x) == 0
        for y in range(q):
            assert Q.qdiv_formula(y, 0) == 0
            assert Q.qdiv_oracle(y, 0) == 0


def test_field_division_is_field_division():
    Q = make_family("field", 4)
    ctx = Q.ctx
    for x in range(16):
        for y in range(16):
            assert Q.qdiv_formula(y, x) == ctx.mul(y, ctx.vinv(x))
            assert Q.qdiv_oracle(y, x) == ctx.mul(y, ctx.vinv(x))


@pytest.mark.parametrize("m", [3, 5])
def test_formula_matches_oracle_everywhere(m):
    for Q in small_families(m):
        D = Q.div_table_formula()
        assert np.array_equal(D, Q.div_table_oracle())
        q = Q.ctx.order
        for y in range(q):
            for x in range(q):
                assert Q.qdiv_formula(y, x) == D[y, x]
        for y in range(q):
            assert Q.qdiv_oracle(y, 3) == D[y, 3]


def test_knuth_all_beta_m3():
    for beta in range(1, 8):
        Q = make_family("knuth", 3, beta=beta)  # strict sweep runs here
        assert np.array_equal(Q.div_table_formula(), Q.div_table_oracle())


@pytest.mark.parametrize("m,k", [(5, 3), (7, 3), (7, 5)])
def test_dm_larger_parameters(m, k):
    Q = make_family("dm", m, k=k)  # strict sweep runs here
    T, q = Q.mult_table(), Q.ctx.order
    for a in (1, 2, q - 1):
        for x in (1, 5, q - 2):
            assert Q.qdiv_formula(T[a, x], x) == a


@pytest.mark.parametrize("m", [3, 5])
def test_round_trip_both_ways(m):
    for Q in small_families(m):
        T, q = Q.mult_table(), Q.ctx.order
        for x in range(1, q):
            for a in range(q):
                assert Q.qdiv_formula(T[a, x], x) == a
            for y in range(q):
                assert T[Q.qdiv_formula(y, x), x] == y


def test_mult_table_matches_scalar():
    for Q in small_families(3):
        T = Q.mult_table()
        for a in range(8):
            for x in range(8):
                assert T[a, x] == Q._mul(np.int32(a), np.int32(x))
        assert not T.flags.writeable


def test_cached_family_tables_are_frozen():
    # shared by the scalar and the whole-table division of the instance;
    # Kantor's are shared by every instance over the field
    for Q in small_families(5):
        tables = (_square_trace_tables(Q.ctx) if Q.kind == "kantor"
                  else Q._closed_form)
        for t in tables if isinstance(tables, tuple) else (tables,):
            assert not t.flags.writeable
    assert not make_family("dm", 5, k=3)._pow_e.flags.writeable
    # built by the constructor, not on first read: a non-strict family
    # reads neither before it is returned
    assert "_closed_form" in vars(make_family("field", 9, strict=False))
    assert "_pow_e" in vars(make_family("dm", 9, k=5, strict=False))


def test_lazy_closed_forms_fill_a_declared_attribute():
    # knuth's and dm's tables wait for the first division, in an attribute
    # the constructor declares: a key added to the instance __dict__ after
    # construction slows every later attribute read on Python 3.11
    for Q in (make_family("knuth", 9, beta=3, strict=False),
              make_family("dm", 9, k=5, strict=False)):
        keys = list(vars(Q))
        assert "_closed_form" in keys and Q._closed_form is None
        assert Q.qdiv_formula(3, 5) == Q.qdiv_oracle(3, 5)
        assert list(vars(Q)) == keys
        assert all(not t.flags.writeable for t in Q._closed_form)


def test_oracle_detects_broken_multiplication():
    class Broken(FieldFamily):
        def _mul(self, A, X):
            return 0 * self.ctx.vmul(A, X)

    Q = Broken(field_ctx(3), strict=False)
    with pytest.raises(ConsistencyError):
        Q.div_table_oracle()
    with pytest.raises(ConsistencyError):
        Q.qdiv_oracle(1, 1)


def test_strict_gate_rejects_wrong_formula():
    class WrongDivision(KantorFamily):
        def qdiv_formula(self, y, x):
            return super().qdiv_formula(y, x) ^ (np.asarray(x) != 0)

    with pytest.raises(ConsistencyError):
        WrongDivision(field_ctx(3))
    WrongDivision(field_ctx(3), strict=False)  # gate off: constructs


def test_strict_gate_checks_the_closed_form_off_the_basis_rows():
    # the linear table reads the closed form at y = 2^i only, so a formula
    # wrong at y = 3 alone builds a correct table: only the sweep of the
    # closed form over the whole grid sees it
    class WrongOffBasis(KantorFamily):
        def qdiv_formula(self, y, x):
            return super().qdiv_formula(y, x) ^ (
                (np.asarray(y) == 3) & (np.asarray(x) != 0))

    with pytest.raises(ConsistencyError):
        WrongOffBasis(field_ctx(5))
    Q = WrongOffBasis(field_ctx(5), strict=False)
    assert np.array_equal(Q.div_table_formula(), Q.div_table_oracle())
    assert Q.qdiv_formula(3, 1) != Q.div_table_oracle()[3, 1]


# ---------------------------------------------------------------------------
# parametric map


def test_parametric_map():
    # a -> a <> x with the right operand fixed: a permutation for x != 0,
    # identically zero for x = 0, and division inverts it
    Q = make_family("kantor", 5)
    T, q = Q.mult_table(), Q.ctx.order
    assert not T[:, 0].any()
    for x in (1, 7, 19):
        assert len(set(T[:, x].tolist())) == q
        for a in range(q):
            assert Q.qdiv_formula(T[a, x], x) == a


# ---------------------------------------------------------------------------
# axiom sweeps


def test_axioms_field_m3():
    rep = verify_axioms(make_family("field", 3))
    assert rep.passed and rep.pre_semifield
    assert rep.as_dict()["left_distributive"]


def test_axioms_dm_is_not_a_pre_semifield():
    rep = verify_axioms(make_family("dm", 5, k=3))
    assert rep.passed
    assert not rep.right_distributive
    assert not rep.pre_semifield


def test_axioms_knuth_kantor_are_pre_semifields():
    for Q in (make_family("knuth", 3, beta=1), make_family("kantor", 3),
              make_family("knuth", 5, beta=11), make_family("kantor", 5)):
        rep = verify_axioms(Q)
        assert rep.passed and rep.pre_semifield


def test_axiom_report_fields():
    rep = verify_axioms(make_family("dm", 3, k=1))
    d = rep.as_dict()
    assert d["family"] == "dm" and d["m"] == 3 and d["k"] == 1
    assert d["passed"] is True


def test_axiom_sweep_guard():
    Q = make_family("kantor", 9)
    assert Q.ctx.m > AXIOM_MAX_M
    with pytest.raises(ValueError):
        verify_axioms(Q)


def test_axiom_sweep_flags_broken_distributivity():
    class Crooked(FieldFamily):
        def _mul(self, A, X):
            return self.ctx.vmul(A, X) ^ ((A == 3) & (X == 3))

    rep = verify_axioms(Crooked(field_ctx(3), strict=False))
    assert not rep.left_distributive
    assert not rep.right_distributive


# ---------------------------------------------------------------------------
# cross-route agreement with the lemma-level machinery


@pytest.mark.parametrize("m", [3, 5])
def test_knuth_division_matches_kernel_composition(m):
    ctx = field_ctx(m)
    for beta in (1, ctx.generator):
        Q = make_family("knuth", m, beta=beta)
        T, e = Q.mult_table(), np.arange(ctx.order)
        for x in range(1, ctx.order):
            # a -> a <> x = x a + tr(beta x) a^2 + x^2 sum_i beta^(2^i) a^(2^i)
            x2 = ctx.mul(x, x)
            coeffs = [ctx.mul(x2, ctx.pow(beta, 1 << i)) for i in range(m)]
            coeffs[0] ^= x
            coeffs[1] ^= int(ctx.vtrace(ctx.mul(beta, x)))
            column = LinearizedMap(ctx, coeffs)
            assert np.array_equal(column(e), T[:, x])
            kernel_inv = invert_linearized(column)
            for y in range(ctx.order):
                assert Q.qdiv_formula(y, x) == kernel_inv(y)


@pytest.mark.parametrize("m", [3, 5])
def test_kantor_division_matches_kernel_inverse(m):
    ctx = field_ctx(m)
    Q = make_family("kantor", m)
    for x in range(1, ctx.order):
        kernel_inv = invert_linearized(square_trace_map(ctx, x))
        for y in range(ctx.order):
            assert Q.qdiv_formula(y, x) == kernel_inv(y)


@pytest.mark.parametrize("m", [5, 7])
def test_linear_flag_is_right_distributivity(m):
    # the linear table fill is sound exactly where the columns are linear
    for Q in small_families(m) + [make_family("dm", m, k=3),
                                  make_family("knuth", m, beta=m)]:
        assert type(Q).linear == verify_axioms(Q).right_distributive, Q


ARRAY_CASES = [(name, m, params) for m in (9, 13) for name, params in
               (("field", {}), ("dm", {"k": 5}), ("knuth", {"beta": 0x155}),
                ("kantor", {}))]


@pytest.mark.parametrize("name,m,params", ARRAY_CASES,
                         ids=[f"{n}-m{m}" for n, m, _ in ARRAY_CASES])
def test_array_calls_match_scalar_calls(name, m, params):
    # one closed form serves both: broadcast array calls agree with the
    # scalar calls elementwise, zeros included
    Q = make_family(name, m, strict=False, **params)
    q = Q.ctx.order
    rng = np.random.default_rng(m)
    e = np.arange(q)
    xs = [0, 1, q - 1] + rng.integers(0, q, 61).tolist()
    ys = np.concatenate([[0, 1, 2, q - 1], rng.integers(0, q, 12)])
    grid = Q.qdiv_formula(ys[:, None], e)  # column x row
    assert grid.shape == (len(ys), q)
    for i, y in enumerate(ys.tolist()):
        assert np.array_equal(Q.qdiv_formula(y, e), grid[i])  # scalar x row
        for x in xs:
            assert Q.qdiv_formula(y, x) == grid[i, x]
    assert not np.any(grid[:, 0]) and not np.any(grid[0])


def test_vectorized_div_tables_match_scalar_m7():
    # one larger sweep to pin the numpy paths against the scalar ones
    for Q in (make_family("field", 7), make_family("dm", 7, k=3),
              make_family("knuth", 7, beta=1), make_family("kantor", 7)):
        D = Q.div_table_formula()
        q = Q.ctx.order
        for y in (0, 1, 2, 63, 100, q - 1):
            for x in (0, 1, 2, 63, 100, q - 1):
                assert D[y, x] == Q.qdiv_formula(y, x)


M13 = [("field", {}), ("dm", {"k": 5}), ("knuth", {"beta": 0x1234}),
       ("kantor", {})]


@pytest.mark.parametrize("name,params", M13, ids=[n for n, _ in M13])
def test_div_table_matches_scalar_and_oracle_m13(name, params):
    # above the strict sweep: seeded pairs, table vs scalar vs oracle
    Q = make_family(name, 13, **params)
    D = Q.div_table_formula()
    rng = np.random.default_rng(13)
    pairs = rng.integers(0, 1 << 13, size=(64, 2)).tolist()
    for y, x in pairs + [[0, 5], [5, 0], [0, 0]]:
        assert D[y, x] == Q.qdiv_formula(y, x) == Q.qdiv_oracle(y, x)
        a = np.int32(Q.qdiv_formula(y, x))
        assert Q._mul(a, np.int32(x)) == (y if x else 0)


M11 = [("field", {}), ("dm", {"k": 3}), ("knuth", {"beta": 0x5A5}),
       ("kantor", {})]


@pytest.mark.parametrize("name,params", M11, ids=[n for n, _ in M11])
def test_division_round_trip_m11(name, params):
    # the whole grid at the size of the n = 22 builds, through _mul alone:
    # (y // x) <> x = y for every y and every x != 0, and y // 0 = 0
    Q = make_family(name, 11, **params)
    D = Q.div_table_formula()
    e = np.arange(Q.ctx.order, dtype=np.int32)
    back = Q._mul(D[:, 1:], e[1:])
    assert np.array_equal(back, np.broadcast_to(e[:, None], back.shape))
    assert not D[:, 0].any()


def test_scalar_mul_matches_mult_table_m11():
    # elements past 255 exercise the integer promotion of the trace terms
    # in a product of two int32 scalars
    rng = np.random.default_rng(11)
    idx = np.concatenate([[0, 1, 255, 256, 2047], rng.integers(256, 2048, 20)])
    for Q in (make_family("field", 11), make_family("dm", 11, k=3),
              make_family("knuth", 11, beta=0x5A5), make_family("kantor", 11)):
        T = Q.mult_table()
        assert T.dtype == np.int32
        for a in idx.tolist():
            for x in idx.tolist():
                assert Q._mul(np.int32(a), np.int32(x)) == T[a, x]


# ---------------------------------------------------------------------------
# closed-form tables built in row blocks


BLOCK_CASES = (
    [("field", m, {}) for m in (3, 4, 8, 9)]
    + [("dm", m, {"k": k}) for m, ks in ((3, (1,)), (5, (1, 3)), (9, (1, 5, 7)))
       for k in ks]
    + [("knuth", m, {"beta": b}) for m, bs in ((3, (1, 6)), (5, (1, 3, 30)),
                                                (9, (1, 2, 0x155, 0x1FF)))
       for b in bs]
    + [("kantor", m, {}) for m in (3, 5, 9)])


@pytest.mark.parametrize("name,m,params", BLOCK_CASES,
                         ids=[f"{n}-m{m}-{'-'.join(map(str, p.values()))}"
                              for n, m, p in BLOCK_CASES])
def test_blocked_table_matches_oracle(name, m, params):
    # q = 512 spans several row blocks; smaller q fits one block
    Q = make_family(name, m, strict=False, **params)
    D = Q.div_table_formula()
    assert D.dtype == np.int32 and D.shape == (Q.ctx.order, Q.ctx.order)
    assert np.array_equal(D, Q.div_table_oracle())


@pytest.mark.parametrize("block", [1, 24])
def test_blocked_table_one_row_at_a_time(block, monkeypatch):
    import spreadbent.quasifield as qf
    monkeypatch.setattr(qf, "BLOCK_ENTRIES", block)  # 1 row, or a few
    for name, params in (("field", {}), ("dm", {"k": 3}),
                         ("knuth", {"beta": 7}), ("kantor", {})):
        Q = make_family(name, 5, strict=False, **params)
        assert np.array_equal(Q.div_table_formula(), Q.div_table_oracle())
