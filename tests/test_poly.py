"""Polynomial arithmetic and root finding."""

import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import narxcomp.poly as poly
from narxcomp.poly import AlgebraicPolynomial as P


def sorted_roots(values):
    return sorted(values, key=lambda z: (round(z.real, 9), round(z.imag, 9)))


def assert_roots_match(found, expected, tol=1e-8):
    assert len(found) == len(expected)
    fs = sorted_roots([complex(z) for z in found])
    es = sorted_roots([complex(z) for z in expected])
    for f, e in zip(fs, es):
        assert abs(f - e) < tol, (f, e)


# ---------------------------------------------------------------------------
# Arithmetic


def test_coeffs_are_ascending_and_immutable():
    p = P([1.0, 2.0, 3.0])
    assert poly.evaluate(p, 0.0) == 1.0
    assert poly.evaluate(p, 1.0) == 6.0
    assert poly.evaluate(p, 2.0) == 1 + 4 + 12
    with pytest.raises(AttributeError):
        p.coeffs = (0.0,)


def test_empty_coeffs_become_zero_polynomial():
    p = P([])
    assert p.coeffs == (0.0,)
    assert p.degree() == -1


def test_degree_ignores_tiny_leading_coefficients():
    assert P([1.0, 2.0, 0.0]).degree() == 1
    assert P([1.0, 2.0, 1e-15]).degree() == 1
    assert P([1.0, 2.0, 1e-6]).degree() == 2
    assert P([0.0, 0.0]).degree() == -1
    # The threshold is relative: a uniformly tiny polynomial keeps its degree.
    assert P([1e-30, 1e-30]).degree() == 1


@given(
    st.lists(st.floats(-10, 10), min_size=1, max_size=6),
    st.floats(-5, 5),
)
def test_evaluate_matches_numpy(coeffs, x):
    p = P(coeffs)
    ours = poly.evaluate(p, x)
    ref = float(np.polynomial.polynomial.polyval(x, np.asarray(coeffs)))
    assert ours == pytest.approx(ref, rel=1e-12, abs=1e-12)


def test_evaluate_accepts_complex():
    p = P([1.0, 0.0, 1.0])  # 1 + x^2
    assert poly.evaluate(p, 1j) == pytest.approx(0.0)


# ---------------------------------------------------------------------------
# Construction from roots


def test_from_roots_oracle():
    p = poly.from_roots([1.0, -2.0], leading=3.0)
    # 3 (x - 1)(x + 2) = 3x^2 + 3x - 6
    assert np.allclose(p.coeffs, (-6.0, 3.0, 3.0))


@given(
    st.lists(
        st.floats(-5, 5).filter(lambda v: abs(v) > 1e-3),
        min_size=1,
        max_size=4,
        unique_by=lambda v: round(v, 2),
    )
)
# Clustered roots on which Durand-Kerner's step stalled in rounding noise
# just above its absolute tolerance.
@example([2.0, 2.75, 2.8125, 3.0])
@settings(max_examples=200)
def test_from_roots_solve_roots_round_trip(roots):
    # Require the roots to be pairwise well separated so the comparison
    # tolerance is meaningful.
    rs = sorted(roots)
    if any(b - a < 1e-2 for a, b in zip(rs, rs[1:])):
        return
    p = poly.from_roots(rs, leading=1.0)
    found = poly.solve_roots(p)
    assert_roots_match(found.roots, rs, tol=1e-7)


def test_from_roots_complex_conjugate_pair_gives_real_coeffs():
    p = poly.from_roots([1 + 2j, 1 - 2j], leading=1.0)
    # (x - 1)^2 + 4 = x^2 - 2x + 5
    assert np.allclose(p.coeffs, (5.0, -2.0, 1.0))


# ---------------------------------------------------------------------------
# Analytic solvers


def test_solve_linear():
    rs = poly.solve_linear(P([-3.0, 2.0]))
    assert rs.method_tag == "analytic"
    assert_roots_match(rs.roots, [1.5])


def test_solve_quadratic_real_and_complex():
    rs = poly.solve_quadratic(P([-2.0, 1.0, 1.0]))  # (x+2)(x-1)
    assert_roots_match(rs.roots, [-2.0, 1.0])
    rs = poly.solve_quadratic(P([1.0, 0.0, 1.0]))   # x^2 + 1
    assert_roots_match(rs.roots, [1j, -1j])


def test_solve_cubic_three_real():
    p = poly.from_roots([-1.0, 0.5, 2.0])
    rs = poly.solve_cubic(p)
    assert rs.method_tag == "analytic"
    assert_roots_match(rs.roots, [-1.0, 0.5, 2.0])


def test_solve_cubic_one_real_pair_complex():
    p = poly.from_roots([2.0, 1 + 1j, 1 - 1j])
    rs = poly.solve_cubic(p)
    assert_roots_match(rs.roots, [2.0, 1 + 1j, 1 - 1j])


def test_solve_cubic_triple_root():
    p = poly.from_roots([1.0, 1.0, 1.0])
    rs = poly.solve_cubic(p)
    # Repeated roots are inherently ill conditioned; cube-root accuracy
    # of double precision is the best any method can promise.
    assert_roots_match(rs.roots, [1.0, 1.0, 1.0], tol=1e-4)


def test_degree_mismatch_raised():
    with pytest.raises(poly.DegreeMismatch):
        poly.solve_linear(P([1.0]))
    with pytest.raises(poly.DegreeMismatch):
        poly.solve_quadratic(P([1.0, 1.0]))
    with pytest.raises(poly.DegreeMismatch):
        poly.solve_cubic(P([1.0, 1.0, 1.0]))


# ---------------------------------------------------------------------------
# Iterative solver


def test_durand_kerner_quartic():
    roots = [-3.0, -0.5, 1.0, 2.5]
    rs = poly.durand_kerner(poly.from_roots(roots, leading=2.0))
    assert rs.method_tag == "iterative"
    assert_roots_match(rs.roots, roots)


def test_durand_kerner_complex_roots():
    roots = [1 + 1j, 1 - 1j, -2 + 0.5j, -2 - 0.5j]
    rs = poly.durand_kerner(poly.from_roots(roots))
    assert_roots_match(rs.roots, roots)


def test_solve_roots_dispatch():
    assert poly.solve_roots(P([-1.0, 1.0])).method_tag == "analytic"
    assert poly.solve_roots(poly.from_roots([1.0, 2.0, 3.0])).method_tag == "analytic"
    assert (
        poly.solve_roots(poly.from_roots([1.0, 2.0, 3.0, 4.0])).method_tag
        == "iterative"
    )


def test_solve_roots_trims_negligible_leading_coefficient():
    # Effectively quadratic: the x^3 coefficient is numerical noise.
    p = P([-2.0, 1.0, 1.0, 1e-16])
    rs = poly.solve_roots(p)
    assert_roots_match(rs.roots, [-2.0, 1.0])


def test_solve_roots_zero_polynomial_rejected():
    with pytest.raises(poly.DegreeMismatch):
        poly.solve_roots(P([0.0, 0.0]))


def test_analytic_vs_iterative_agree_on_cubics():
    rng = np.random.default_rng(20260817)
    for _ in range(200):
        roots = rng.uniform(-5, 5, size=3)
        while np.min(np.diff(np.sort(roots))) < 0.1:
            roots = rng.uniform(-5, 5, size=3)
        p = poly.from_roots(roots, leading=rng.uniform(0.5, 2.0))
        a = poly.solve_cubic(p)
        b = poly.durand_kerner(p)
        assert_roots_match(a.roots, b.roots, tol=1e-8)


def test_no_convergence_carries_best_estimate():
    err = poly.NoConvergence("no", best=(1.0 + 0j,))
    assert err.best == (1.0 + 0j,)


# ---------------------------------------------------------------------------
# Real-root filtering


def test_real_roots_filters_preserving_order():
    rs = poly.RootSet([2.0 + 0j, 1j, -1.0 + 1e-12j], "iterative")
    got = poly.real_roots(rs)
    assert got == pytest.approx([2.0, -1.0])


def test_real_roots_tolerance_scales_with_magnitude():
    # |Im| <= tol * max(1, |Re|): a root at 1e6 with Im 1e-4 passes at
    # im_tol=1e-9 * ... no -- it needs im_tol covering 1e-4/1e6 = 1e-10.
    rs = poly.RootSet([1e6 + 1e-4j], "iterative")
    assert poly.real_roots(rs, im_tol=1e-9) == pytest.approx([1e6])
    assert poly.real_roots(rs, im_tol=1e-12) == []


@given(
    st.lists(
        st.floats(-5, 5).filter(lambda v: abs(v) > 1e-3),
        min_size=1,
        max_size=3,
        unique_by=lambda v: round(v, 1),
    )
)
@settings(max_examples=100)
def test_real_roots_of_real_rooted_polynomial(roots):
    rs = sorted(roots)
    if any(b - a < 0.05 for a, b in zip(rs, rs[1:])):
        return
    got = poly.real_roots(poly.solve_roots(poly.from_roots(rs)), im_tol=1e-6)
    assert len(got) == len(rs)
    assert sorted(got) == pytest.approx(rs, abs=1e-6)


# ---------------------------------------------------------------------------
# Closed forms over many polynomials at once


_coefficient = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]),
    st.floats(-1e6, 1e6),
    st.floats(-1e-6, 1e-6),
)


@settings(max_examples=300)
@given(st.lists(st.lists(_coefficient, min_size=3, max_size=3), min_size=1, max_size=8))
def test_lockstep_roots_equal_solve_roots_bit_for_bit(columns):
    closed, degree, roots = poly.lockstep_roots(np.array(columns).T)
    for j, coeffs in enumerate(columns):
        p = P(coeffs)
        assert degree[j] == p.degree()
        if not closed[j]:
            # left to solve_roots: other degrees, and discriminants so close
            # to the smallest normal float that cmath.sqrt rounds them apart
            a0, a1, a2 = coeffs
            disc = a1 * a1 - 4.0 * a2 * a0
            assert p.degree() not in (1, 2) or 0.0 < abs(disc) < 8.0 * sys.float_info.min
            continue
        got = [complex(re[j], im[j]) for re, im in roots[: p.degree()]]
        want = poly.solve_roots(p).roots
        # repr tells signed zeros apart
        assert [repr(z) for z in got] == [repr(z) for z in want]
        real = poly.lockstep_real(np.array([z.real for z in got]), np.array([z.imag for z in got]))
        assert [z.real for z, ok in zip(got, real) if ok] == poly.real_roots(poly.RootSet(want, ""))
