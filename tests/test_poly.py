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


def test_degree_of_a_nan_is_minus_one_wherever_it_sits():
    # max over the magnitudes sees a NaN only in front; an infinity makes the
    # threshold infinite, which no magnitude exceeds
    columns = [[0.5, 1.0, math.nan], [math.nan, 1.0, 0.5], [1.0, math.nan, 0.0],
               [1.0, math.inf], [math.inf, 1.0, 2.0], [1.0, 2.0, -math.inf]]
    assert [P(c).degree() for c in columns] == [-1] * len(columns)
    for rows in (2, 3):
        block = [c for c in columns if len(c) == rows]
        assert poly.lockstep_roots(np.array(block).T)[1].tolist() == [-1] * len(block)


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
    rs = poly.solve_roots(P([-3.0, 2.0]))
    assert rs.method_tag == "analytic"
    assert_roots_match(rs.roots, [1.5])


def test_solve_quadratic_real_and_complex():
    rs = poly.solve_roots(P([-2.0, 1.0, 1.0]))  # (x+2)(x-1)
    assert_roots_match(rs.roots, [-2.0, 1.0])
    rs = poly.solve_roots(P([1.0, 0.0, 1.0]))   # x^2 + 1
    assert_roots_match(rs.roots, [1j, -1j])


def test_solve_cubic_three_real():
    p = poly.from_roots([-1.0, 0.5, 2.0])
    rs = poly.solve_roots(p)
    assert rs.method_tag == "iterative"
    assert_roots_match(rs.roots, [-1.0, 0.5, 2.0])


def test_solve_cubic_one_real_pair_complex():
    p = poly.from_roots([2.0, 1 + 1j, 1 - 1j])
    rs = poly.solve_roots(p)
    assert_roots_match(rs.roots, [2.0, 1 + 1j, 1 - 1j])


def test_solve_cubic_triple_root():
    p = poly.from_roots([1.0, 1.0, 1.0])
    rs = poly.solve_roots(p)
    # Repeated roots are inherently ill conditioned; cube-root accuracy
    # of double precision is the best any method can promise.
    assert_roots_match(rs.roots, [1.0, 1.0, 1.0], tol=1e-4)


@pytest.mark.parametrize("roots", [[1.0, 1.0, 1.0], [2.0, 2.0, -1.0]])
def test_repeated_cubic_roots_stay_real(roots):
    # every repeated root comes back real within real_roots' default
    # tolerance
    got = poly.real_roots(poly.solve_roots(poly.from_roots(roots)))
    assert sorted(got) == pytest.approx(sorted(roots), abs=1e-4)


# ---------------------------------------------------------------------------
# Companion-matrix solver


def test_companion_roots_quartic():
    roots = [-3.0, -0.5, 1.0, 2.5]
    rs = poly.companion_roots(poly.from_roots(roots, leading=2.0))
    assert rs.method_tag == "iterative"
    assert_roots_match(rs.roots, roots)


def test_companion_roots_complex_roots():
    roots = [1 + 1j, 1 - 1j, -2 + 0.5j, -2 - 0.5j]
    rs = poly.companion_roots(poly.from_roots(roots))
    assert_roots_match(rs.roots, roots)


@pytest.mark.parametrize("roots", [[1.0, 1.0, 2.0, -3.0], [1.0, 1.0, 1.0, 2.0],
                                   [1.0, 1.0, 1.0, 1.0, 2.0]])
def test_durand_kerner_keeps_repeated_real_roots_real(roots):
    # rounding leaves a double root about 4e-9 off the real axis and a
    # triple one about 1e-5, above real_roots' default tolerance
    got = poly.real_roots(poly.solve_roots(poly.from_roots(roots)))
    assert sorted(got) == pytest.approx(sorted(roots), abs=1e-3)


@pytest.mark.parametrize("roots", [
    [1 + 1e-3j, 1 - 1e-3j, 2.0, -3.0],
    [1 + 1e-6j, 1 - 1e-6j, 2.0, -3.0],
    [1 + 1e-7j, 1 - 1e-7j, 2.0, -3.0],
    # a simple real root at the pair's real part: p(Re z) is zero there
    [1.0, 1 + 1j, 1 - 1j, 2.0],
    [0.5, 0.5 + 2j, 0.5 - 2j, -1.0, 3.0],
])
def test_durand_kerner_keeps_complex_pairs_complex(roots):
    rs = poly.solve_roots(poly.from_roots(roots))
    assert_roots_match(rs.roots, roots, tol=1e-6)
    want = sorted(r.real for r in map(complex, roots) if r.imag == 0)
    assert sorted(poly.real_roots(rs)) == pytest.approx(want, abs=1e-9)


@pytest.mark.parametrize("roots", [[-1.875, 0.0, 2.875, 2.875],
                                   [-1.0, -0.5, 0.0, 0.625, 0.625, 1.125]])
def test_double_root_beside_a_zero_root_stays_real(roots):
    # the double root must come back real and the zero root exactly 0.0
    got = sorted(poly.real_roots(poly.solve_roots(poly.from_roots(roots))))
    assert got == pytest.approx(roots, abs=1e-6)
    assert 0.0 in got


def test_every_real_root_comes_back_over_three_families():
    # 1,000 polynomials of degree 4-8 per family, errors relative to
    # max(1, |r|); repeated dyadic roots are only as accurate as
    # eps^(1/k) allows for multiplicity k
    rng = np.random.default_rng(20260817)
    bound = {"dyadic": 1e-4, "log-spread": 1e-12, "uniform": 1e-8}
    for _ in range(1000):
        d = int(rng.integers(4, 9))
        spread = 10.0 ** (np.linspace(-4.0, 4.0, d) + rng.uniform(-0.25, 0.25, size=d))
        for family, roots in (
            ("dyadic", rng.integers(-16, 17, size=d) / 8.0),
            ("log-spread", rng.choice([-1.0, 1.0], size=d) * spread),
            ("uniform", rng.uniform(-5.0, 5.0, size=d)),
        ):
            want = np.sort(roots)
            got = np.sort(poly.real_roots(poly.solve_roots(poly.from_roots(roots))))
            assert len(got) == d, (family, want, got)
            scale = np.abs(want) if family == "log-spread" else np.maximum(1.0, np.abs(want))
            assert np.max(np.abs(got - want) / scale) < bound[family], (family, want, got)


def test_companion_roots_reports_a_failed_eigenvalue_iteration(monkeypatch):
    def fail(_):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np, "roots", fail)
    with pytest.raises(poly.NoConvergence, match="companion eigenvalues did not converge"):
        poly.solve_roots(poly.from_roots([1.0, 2.0, 3.0, 4.0]))


@pytest.mark.parametrize("roots", [(1e-8, 1.0, 1e8), (1e-4, 1.0, 1e4),
                                   (1e-6, 2e-6, 1.0), (3.0, 1e-10, -2.0)])
def test_cubic_with_spread_roots_returns_every_real_root(roots):
    # every real root comes back, each within 1e-11 of itself, relative
    got = sorted(poly.real_roots(poly.solve_roots(poly.from_roots(roots))))
    want = sorted(roots)
    assert len(got) == 3, got
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-11 * abs(w), (g, w)


def test_solve_roots_dispatch():
    assert poly.solve_roots(P([-1.0, 1.0])).method_tag == "analytic"
    assert poly.solve_roots(poly.from_roots([1.0, 2.0, 3.0])).method_tag == "iterative"
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


def test_analytic_vs_iterative_agree_on_quadratics():
    rng = np.random.default_rng(20260817)
    for _ in range(200):
        roots = rng.uniform(-5, 5, size=2)
        while np.min(np.diff(np.sort(roots))) < 0.1:
            roots = rng.uniform(-5, 5, size=2)
        p = poly.from_roots(roots, leading=rng.uniform(0.5, 2.0))
        a = poly.solve_roots(p)
        b = poly.companion_roots(p)
        assert_roots_match(a.roots, b.roots, tol=1e-8)


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


# with a1 = 0 and a2 = -1/4 the discriminant is exactly a0
@example(columns=[[1.0, 2.0, 1.0]])  # a discriminant of 0: a double root
@example(columns=[[2.0, 2.0, 1.0]])  # a discriminant of -4: complex roots
@example(columns=[[5e-324, 0.0, -0.25]])  # the least positive discriminant, closed
@example(columns=[[0.0, 0.0, -0.25]])  # a discriminant of 0: a double root at 0
@example(columns=[[1.0, 1e200, 1.0]])  # a1 * a1 overflows to inf
@example(columns=[[0.0, 1.0, -1.0], [-1.0, 0.0, -1.0]])  # a root of -0.0; complex with a2 < 0
@settings(max_examples=300)
@given(st.lists(st.lists(_coefficient, min_size=3, max_size=3), min_size=1, max_size=8))
def test_lockstep_roots_equal_solve_roots_bit_for_bit(columns):
    closed, degree, roots = poly.lockstep_roots(np.array(columns).T)
    for j, coeffs in enumerate(columns):
        p = P(coeffs)
        assert degree[j] == p.degree()
        a0, a1, a2 = coeffs
        disc = a1 * a1 - 4.0 * a2 * a0
        got = [float(x[j]) for x in roots[: p.degree()]]
        if not closed[j]:
            # left to solve_roots: other degrees, complex and double roots,
            # and roots that overflow
            assert (p.degree() not in (1, 2) or not all(map(math.isfinite, got))
                    or p.degree() == 2 and not 0.0 < disc < math.inf)
            continue
        # repr tells signed zeros apart; the real parts, since solve_roots
        # gives complex roots
        want = poly.real_roots(poly.solve_roots(p))
        assert [repr(x) for x in got] == [repr(x) for x in want]


_degree_entry = st.one_of(
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 1.0, -1.0]),
    st.floats(-1e6, 1e6),
    st.floats(-1e-6, 1e-6),
)


@st.composite
def _degree_columns(draw):
    """Columns of one drawn row count, 2 to 5: drawn entries, all-zero
    columns, or leading entries at, under and over LEADING_ZERO_RTOL times
    the largest magnitude below them."""
    rows = draw(st.integers(2, 5))

    def column():
        c = draw(st.lists(_degree_entry, min_size=rows, max_size=rows))
        kind = draw(st.sampled_from(["drawn", "zero", "tiny leading"]))
        if kind == "zero":
            return [draw(st.sampled_from([0.0, -0.0])) for _ in c]
        if kind == "tiny leading":
            body = draw(st.integers(1, rows - 1))
            tol = poly.LEADING_ZERO_RTOL * max(map(abs, c[:body]))
            c[body:] = [draw(st.sampled_from([0.0, 0.5, 1.0, -1.0, 1.5])) * tol for _ in c[body:]]
        return c

    return [column() for _ in range(draw(st.integers(1, 6)))]


@example(columns=[[0.0, -0.0], [1.0, 1e-13], [math.inf, 1.0]])  # a linear model's two rows
@example(columns=[[1.0, 2.0, 3.0, 3e-12], [1.0, 2.0, 3.0, -3e-12], [0.5, 0.0, 0.0, 1e-300]])
@settings(max_examples=300)
@given(_degree_columns())
def test_lockstep_degree_equals_algebraic_degree_for_every_row_count(columns):
    # _comp_columns builds max(ell, 1) + 1 rows: 2 for a linear model, 4 for a cubic
    degree = poly.lockstep_roots(np.array(columns).T)[1]
    assert degree.tolist() == [P(c).degree() for c in columns]
