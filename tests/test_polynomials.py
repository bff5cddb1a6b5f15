"""Tests for linearized-map inversion and Dickson/closed-form machinery.

The matrix oracle (invert_linearized) is the ground truth here: closed forms
are judged by composition against the maps they claim to invert.
"""

import random

import pytest

from spreadbent.field import field_ctx
from spreadbent.polynomials import (
    DICKSON_RECURRENCE_MAX,
    LinearizedMap,
    NotBijectiveError,
    NotCoprimeError,
    combo_coeffs,
    dickson_coeff_bits,
    dickson_eval,
    dickson_eval_recurrence,
    dickson_inverse_exponent,
    eval_linearized,
    invert_linearized,
    quad_trace_map,
    square_trace_inverse_eval,
    square_trace_map,
)


# ---------------------------------------------------------------------------
# LinearizedMap + matrix oracle


def test_identity_map():
    ctx = field_ctx(4)
    L = LinearizedMap(ctx, [1])
    assert all(L(z) == z for z in range(ctx.order))
    assert L.matrix() == [1 << j for j in range(4)]
    assert invert_linearized(L).coeffs == [1, 0, 0, 0]


def test_frobenius_inverse_is_sqrt():
    for m in (3, 4, 5):
        ctx = field_ctx(m)
        frob = LinearizedMap(ctx, [0, 1])
        inv = invert_linearized(frob)
        # z -> z^(2^(m-1)) is the square root map
        expected = [0] * m
        expected[m - 1] = 1
        assert inv.coeffs == expected
        assert all(inv(z) == ctx.frob[m - 1][z] for z in range(ctx.order))


def test_trace_map_is_singular():
    ctx = field_ctx(5)
    tr = LinearizedMap(ctx, [1] * 5)
    with pytest.raises(NotBijectiveError):
        invert_linearized(tr)


def test_artin_schreier_map_is_singular():
    # z + z^2 kills both 0 and 1
    ctx = field_ctx(6)
    L = LinearizedMap(ctx, [1, 1])
    assert L(1) == 0
    with pytest.raises(NotBijectiveError):
        invert_linearized(L)


def test_coefficient_validation():
    ctx = field_ctx(3)
    with pytest.raises(ValueError):
        LinearizedMap(ctx, [1, 0, 0, 0])
    with pytest.raises(ValueError):
        LinearizedMap(ctx, [8])
    with pytest.raises(ValueError):
        LinearizedMap(ctx, [-1])


def test_eval_linearized_matches_map():
    ctx = field_ctx(5)
    rng = random.Random(5)
    for _ in range(20):
        coeffs = [rng.randrange(ctx.order) for _ in range(5)]
        L = LinearizedMap(ctx, coeffs)
        assert all(eval_linearized(ctx, coeffs, z) == L(z)
                   for z in range(ctx.order))


def test_map_is_additive():
    ctx = field_ctx(6)
    rng = random.Random(6)
    coeffs = [rng.randrange(ctx.order) for _ in range(6)]
    L = LinearizedMap(ctx, coeffs)
    for _ in range(200):
        y, z = rng.randrange(ctx.order), rng.randrange(ctx.order)
        assert L(y ^ z) == L(y) ^ L(z)


@pytest.mark.parametrize("m", [3, 4, 5, 8])
def test_oracle_inverts_random_bijections(m):
    ctx = field_ctx(m)
    rng = random.Random(m)
    found = 0
    while found < 25:
        coeffs = [rng.randrange(ctx.order) for _ in range(m)]
        L = LinearizedMap(ctx, coeffs)
        try:
            inv = invert_linearized(L)
        except NotBijectiveError:
            continue
        found += 1
        pts = range(ctx.order) if m <= 5 else rng.sample(range(ctx.order), 40)
        for z in pts:
            assert inv(L(z)) == z
            assert L(inv(z)) == z


def test_singular_detection_matches_image_size():
    ctx = field_ctx(4)
    rng = random.Random(44)
    for _ in range(50):
        coeffs = [rng.randrange(ctx.order) for _ in range(4)]
        L = LinearizedMap(ctx, coeffs)
        bijective = len({L(z) for z in range(ctx.order)}) == ctx.order
        try:
            invert_linearized(L)
        except NotBijectiveError:
            assert not bijective
        else:
            assert bijective


# ---------------------------------------------------------------------------
# Dickson polynomials


def test_dickson_frozen_coefficients():
    assert dickson_coeff_bits(0) == {}
    assert dickson_coeff_bits(1) == {1: 1}
    assert dickson_coeff_bits(2) == {2: 1}
    assert dickson_coeff_bits(3) == {3: 1, 1: 1}
    assert dickson_coeff_bits(4) == {4: 1}
    assert dickson_coeff_bits(5) == {5: 1, 3: 1, 1: 1}
    assert dickson_coeff_bits(7) == {7: 1, 5: 1, 1: 1}


@pytest.mark.parametrize("m", [3, 4, 5])
def test_recurrence_matches_coefficient_form(m):
    ctx = field_ctx(m)
    for k in range(13):
        bits = dickson_coeff_bits(k)
        for x in range(ctx.order):
            direct = 0
            for e in bits:
                direct ^= ctx.pow(x, e)
            assert dickson_eval_recurrence(ctx, k, x) == direct


def test_ladder_eval_matches_recurrence():
    ctx = field_ctx(5)
    for k in range(101):
        for x in range(ctx.order):
            assert dickson_eval(ctx, k, x) == dickson_eval_recurrence(ctx, k, x)


def test_dickson_at_zero():
    ctx = field_ctx(4)
    for k in (0, 1, 2, 3, 17, 1 << 30):
        assert dickson_eval(ctx, k, 0) == 0


def test_dickson_guards():
    ctx = field_ctx(3)
    with pytest.raises(ValueError):
        dickson_eval(ctx, -1, 1)
    with pytest.raises(ValueError):
        dickson_eval_recurrence(ctx, -1, 1)
    with pytest.raises(ValueError):
        dickson_eval_recurrence(ctx, DICKSON_RECURRENCE_MAX + 1, 1)
    for k, m in ((-1, 3), (5, 0), (1, -2)):
        with pytest.raises(ValueError):
            dickson_inverse_exponent(k, m)


def test_inverse_exponent_examples():
    assert dickson_inverse_exponent(5, 3) == 38
    assert dickson_inverse_exponent(7, 5) == 877
    with pytest.raises(NotCoprimeError):
        dickson_inverse_exponent(9, 3)  # gcd(9, 63) = 9
    with pytest.raises(NotCoprimeError):
        dickson_inverse_exponent(5, 2)  # gcd(5, 15) = 5


def test_inverse_exponent_is_modular_inverse():
    for m in (2, 3, 4, 5):
        n = (1 << (2 * m)) - 1
        for k in range(2, 40):
            try:
                kp = dickson_inverse_exponent(k, m)
            except NotCoprimeError:
                continue
            assert (k * kp) % n == 1


@pytest.mark.parametrize("m,k", [(3, 5), (5, 7)])
def test_dickson_permutation_roundtrip(m, k):
    ctx = field_ctx(m)
    kp = dickson_inverse_exponent(k, m)
    for x in range(ctx.order):
        assert dickson_eval(ctx, kp, dickson_eval(ctx, k, x)) == x


# ---------------------------------------------------------------------------
# combination polynomial and the quadratic-plus-trace inverse


def combo_inverse(ctx, a):
    """The inverse of quad_trace_map(ctx, a) that combo_coeffs gives:
    r C(z) + r tr(r z) with r = 1/a, as coefficients r (c_i + r^(2^i))."""
    r = ctx.inv(a)
    return LinearizedMap(ctx, [ctx.mul(r, c ^ ctx.pow(r, 1 << i))
                               for i, c in enumerate(combo_coeffs(ctx, r))])


def test_combo_coeffs_pinned_m3():
    ctx = field_ctx(3)
    r = 1
    assert combo_coeffs(ctx, r) == [1, 0, 1]


def test_quad_trace_map_pinned_m3():
    ctx = field_ctx(3)
    # a = 1: z + z^2 + tr(z) collapses to z^4
    assert quad_trace_map(ctx, 1).coeffs == [0, 0, 1]
    assert combo_inverse(ctx, 1).coeffs == [0, 1, 0]  # z^2, inverting z^4


@pytest.mark.parametrize("m", [3, 5, 7, 9])
def test_quad_trace_inverse_composes(m):
    # the map is a permutation exactly when tr(1/a) = 1, and then the
    # combination polynomial's inverse is the matrix oracle's, coefficient
    # for coefficient
    ctx = field_ctx(m)
    for a in range(1, ctx.order):
        L = quad_trace_map(ctx, a)
        if ctx.trace(ctx.inv(a)) != 1:
            with pytest.raises(NotBijectiveError):
                invert_linearized(L)
            continue
        inv = combo_inverse(ctx, a)
        assert inv.coeffs == invert_linearized(L).coeffs
        for z in range(ctx.order):
            assert inv(L(z)) == z


# ---------------------------------------------------------------------------
# square-plus-trace map


def test_square_trace_map_pinned_m3():
    ctx = field_ctx(3)
    # a = 1: z^2 + tr(z) + z collapses to z^4
    assert square_trace_map(ctx, 1).coeffs == [0, 0, 1]


@pytest.mark.parametrize("m", [3, 5, 7])
def test_square_trace_inverse_composes(m):
    ctx = field_ctx(m)
    for a in range(1, ctx.order):
        L = square_trace_map(ctx, a)
        for z in range(ctx.order):
            assert square_trace_inverse_eval(ctx, a, L(z)) == z
            assert L(square_trace_inverse_eval(ctx, a, z)) == z


def test_square_trace_inverse_total_at_zero():
    ctx = field_ctx(5)
    assert square_trace_inverse_eval(ctx, 0, 7) == 0
    for a in range(ctx.order):
        assert square_trace_inverse_eval(ctx, a, 0) == 0


def test_square_trace_guards():
    with pytest.raises(ValueError):
        square_trace_inverse_eval(field_ctx(4), 1, 1)


# ---------------------------------------------------------------------------
# array arguments: one call over every field element


@pytest.mark.parametrize("m", [3, 4, 7])
def test_dickson_eval_over_an_array(m):
    import numpy as np
    ctx = field_ctx(m)
    E = np.arange(ctx.order)
    kp = dickson_inverse_exponent(11, m)
    for k in (0, 1, 2, 3, 7, 64, 12345, kp):
        vals = dickson_eval(ctx, k, E)
        assert vals.dtype == np.int32
        if m < 7:  # the recurrence takes k steps per element (k <= 2^20)
            assert list(vals) == [dickson_eval_recurrence(ctx, k, x)
                                  for x in range(ctx.order)]
    # D_k' o D_k is the identity on the whole field
    assert np.array_equal(dickson_eval(ctx, kp, dickson_eval(ctx, 11, E)), E)


@pytest.mark.parametrize("m", [3, 5, 9])
def test_combo_coeffs_over_an_array(m):
    import numpy as np
    ctx = field_ctx(m)
    R = np.arange(ctx.order)
    cols = combo_coeffs(ctx, R)
    assert len(cols) == m
    for r in range(ctx.order):
        assert [int(np.broadcast_to(c, R.shape)[r]) for c in cols] == \
            combo_coeffs(ctx, r)
