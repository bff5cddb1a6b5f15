"""Acceptance suite: one test per criterion, one printed line per criterion.

The printed PASS/FAIL lines go to the real stdout (bypassing capture) so a
plain `pytest tests/test_acceptance.py` run shows them; stated time budgets
are asserted inside the relevant criteria.
"""

import contextlib
import functools
import itertools
import math
import sys
import time

import numpy as np

from spreadbent.boolfun import TruthTable, degree, is_bent, walsh_spectrum
from spreadbent.construct import (
    ps_from_components,
    ps_minus,
    ps_plus,
    random_selector,
    selector_from_support,
)
from spreadbent.field import field_ctx
from spreadbent.polynomials import (
    LinearizedMap,
    combo_coeffs,
    dickson_eval,
    dickson_inverse_exponent,
    quad_trace_map,
    square_trace_inverse_eval,
    square_trace_map,
)
from spreadbent.quasifield import make_family, verify_axioms
from spreadbent.spread import Spread, build_spread, verify_spread


@contextlib.contextmanager
def criterion(num, label, budget=None):
    t0 = time.perf_counter()
    ok = False
    try:
        yield
        elapsed = time.perf_counter() - t0
        if budget is not None and elapsed >= budget:
            raise AssertionError(
                f"criterion {num} took {elapsed:.1f}s, budget {budget:.0f}s")
        ok = True
    finally:
        elapsed = time.perf_counter() - t0
        verdict = "PASS" if ok else "FAIL"
        print(f"CRITERION {num}: {verdict} — {label} ({elapsed:.1f}s)",
              file=sys.__stdout__)


DM_CASES = ((3, 1), (5, 3), (7, 3), (7, 5))


@functools.cache
def roster():
    """Every family instance under test, strict division checks on."""
    qs = []
    for m in (3, 5, 7):
        qs.append(make_family("field", m))
    for m, k in DM_CASES:
        qs.append(make_family("dm", m, k=k))
    for m in (3, 5, 7):
        for beta in range(1, 1 << m):
            qs.append(make_family("knuth", m, beta=beta))
    for m in (3, 5, 7):
        qs.append(make_family("kantor", m))
    return tuple(qs)


@functools.cache
def selectors_for(m):
    """All 35 balanced selectors at m=3; twenty seeded ones above."""
    if m == 3:
        return tuple(selector_from_support(3, c)
                     for c in itertools.combinations(range(1, 8), 4))
    return tuple(random_selector(m, seed) for seed in range(20))


def test_criterion_1_axiom_sweep():
    with criterion(1, "exhaustive axiom sweep over all 175 family instances",
                   budget=60.0):
        assert len(roster()) == 3 + 4 + (7 + 31 + 127) + 3
        for Q in roster():
            rep = verify_axioms(Q)
            assert rep.passed, (Q.kind, Q.ctx.m, Q.params)
            if Q.kind in ("knuth", "kantor", "field"):
                assert rep.right_distributive, (Q.kind, Q.ctx.m, Q.params)


def test_criterion_2_division_agrees_with_oracle():
    with criterion(2, "closed-form division equals the brute-force oracle "
                      "on every pair"):
        for Q in roster():
            q = Q.ctx.order
            e = np.arange(q)
            oracle = Q.div_table_oracle()
            # the closed form itself, and the table built from its basis
            # rows (pre-semifields) or row blocks (dm)
            for formula in (Q.qdiv_formula(e[:, None], e),
                            Q.div_table_formula()):
                assert formula.shape == oracle.shape == (q, q)
                assert np.array_equal(formula, oracle), (Q.kind, Q.params)


def test_criterion_3_kernel_inverses():
    with criterion(3, "Dickson, combination and square-trace inverses "
                      "compose to the identity", budget=30.0):
        # Dickson permutations: five smallest coprime k >= 2 per field
        for m, ks in ((3, (2, 4, 5, 8, 10)), (5, (2, 4, 5, 7, 8))):
            ctx = field_ctx(m)
            order = (1 << (2 * m)) - 1
            for k in ks:
                assert math.gcd(k, order) == 1
                kp = dickson_inverse_exponent(k, m)
                for x in range(1 << m):
                    assert dickson_eval(ctx, kp, dickson_eval(ctx, k, x)) == x
        # quad-trace map, every a with tr(1/a) = 1
        for m in (3, 5, 7, 9):
            ctx = field_ctx(m)
            valid = [a for a in range(1, 1 << m)
                     if ctx.trace(ctx.inv(a)) == 1]
            assert len(valid) == 1 << (m - 1)
            for a in valid:
                forward = quad_trace_map(ctx, a)
                # r C(z) + r tr(r z), r = 1/a, C the combination polynomial
                r = ctx.inv(a)
                backward = LinearizedMap(ctx, [
                    ctx.mul(r, c ^ ctx.pow(r, 1 << i))
                    for i, c in enumerate(combo_coeffs(ctx, r))])
                for z in range(1 << m):
                    assert backward(forward(z)) == z
        # square-trace map, every nonzero a
        for m in (3, 5, 7, 9):
            ctx = field_ctx(m)
            for a in range(1, 1 << m):
                forward = square_trace_map(ctx, a)
                for z in range(1 << m):
                    assert square_trace_inverse_eval(ctx, a, forward(z)) == z


def test_criterion_4_spread_axioms():
    with criterion(4, "every instance induces a genuine spread"):
        for Q in roster():
            report = verify_spread(build_spread(Q))
            assert report.passed, (Q.kind, Q.params)
            assert report.component_count == Q.ctx.order + 1
            assert all(report.closure_ok)
            assert len(report.closure_ok) == report.component_count
            assert report.pairwise_trivial
            assert report.counting_identity


def test_criterion_5_bentness():
    with criterion(5, "constructed functions are bent with the stated "
                      "weight and degree", budget=120.0):
        for Q in roster():
            m = Q.ctx.m
            q = 1 << m
            for g in selectors_for(m):
                f = ps_minus(Q, g, certify=False)
                spectrum = walsh_spectrum(f)
                assert np.all(np.abs(spectrum) == q), (Q.kind, Q.params)
                assert f.weight() == (1 << (2 * m - 1)) - (1 << (m - 1))
                assert degree(f) <= m
                assert is_bent(ps_plus(f))


def test_criterion_6_both_routes_agree():
    with criterion(6, "division route and component route build identical "
                      "truth tables"):
        for Q in roster():
            m = Q.ctx.m
            if m not in (3, 5):
                continue
            S = build_spread(Q)
            for g in selectors_for(m):
                assert ps_minus(Q, g, certify=False) == \
                    ps_from_components(S, g.support), (Q.kind, Q.params)


def test_criterion_7_negative_controls():
    with criterion(7, "unbalanced selectors, corrupted spreads and the "
                      "missing distributive law are all caught"):
        # an off-by-one selector weight breaks bentness in every family
        for m in (3, 5):
            bad = np.zeros(1 << m, dtype=np.uint8)
            bad[1:(1 << (m - 1)) + 2] = 1
            for Q in (make_family("field", m),
                      make_family("dm", m, k=1 if m == 3 else 3),
                      make_family("knuth", m, beta=1),
                      make_family("kantor", m)):
                bits = bad[Q.div_table_formula().ravel()]
                assert not is_bent(TruthTable(2 * m, bits)), (Q.kind, m)
        # moving one point between components breaks the spread
        Q = make_family("field", 3)
        good = build_spread(Q)
        comps = [c.copy() for c in good.components]
        comps[1][1], comps[2][1] = comps[2][1], comps[1][1]
        assert not verify_spread(Spread(Q, comps)).passed
        # the dm family is one-sided: right distributivity really fails
        report = verify_axioms(make_family("dm", 5, k=3))
        assert report.passed
        assert not report.right_distributive
        assert not report.pre_semifield


def test_criterion_8_large_instance():
    with criterion(8, "22-variable construction built and Walsh-certified",
                   budget=60.0):
        Q = make_family("kantor", 11)
        assert not Q.strict  # exhaustive division sweep is off at this size
        f = ps_minus(Q, random_selector(11, 2026), certify=True)
        assert f.n == 22
        assert f.weight() == (1 << 21) - (1 << 10)
