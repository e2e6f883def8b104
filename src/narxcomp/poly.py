"""Dense univariate polynomials with real coefficients, plus root solvers.

Coefficients are stored in ascending order, so ``coeffs[i]`` multiplies
``x**i``.  Degrees 1-3 are solved in closed form; higher degrees fall back
to a Durand-Kerner simultaneous iteration.  All solvers return every root
(with multiplicity) as complex numbers; use :func:`real_roots` to extract
the real ones.
"""

from __future__ import annotations

import cmath
import math
import sys

import numpy as np

# A coefficient is treated as zero when it is this small relative to the
# largest coefficient of the polynomial.
LEADING_ZERO_RTOL = 1e-12

# |imag| <= DEFAULT_IM_TOL * max(1, |real|) counts as a real root.
DEFAULT_IM_TOL = 1e-9

# Unit roundoff of IEEE double precision.
_UNIT_ROUNDOFF = sys.float_info.epsilon / 2.0

# Below this magnitude a discriminant is left to cmath.sqrt, which rounds
# its square root differently within a few multiples of the smallest normal.
_TINY_DISC = 8.0 * sys.float_info.min

_DK_STEP_TOL = 1e-12
_DK_MAX_ITER = 500
# Irrational angle offset so no start point sits on the real axis and the
# initial guesses never coincide with an axis of symmetry of the root set.
_DK_ANGLE_OFFSET = math.sqrt(2.0)


class DegreeMismatch(ValueError):
    """The polynomial's degree is outside what the solver handles."""


class NoConvergence(RuntimeError):
    """Iterative refinement ran out of iterations.

    The best iterate found so far is kept in ``self.best``.
    """

    def __init__(self, message, best=()):
        super().__init__(message)
        self.best = tuple(best)


class AlgebraicPolynomial:
    """Immutable dense polynomial a_0 + a_1 x + ... + a_n x^n."""

    __slots__ = ("coeffs", "_degree")

    def __init__(self, coeffs):
        cs = tuple(map(float, coeffs)) or (0.0,)
        object.__setattr__(self, "coeffs", cs)
        object.__setattr__(self, "_degree", _effective_degree(cs))

    def __setattr__(self, name, value):
        raise AttributeError("AlgebraicPolynomial is immutable")

    def __repr__(self):
        return "AlgebraicPolynomial(%r)" % (self.coeffs,)

    def __eq__(self, other):
        return isinstance(other, AlgebraicPolynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def degree(self):
        """Effective degree; -1 for the zero polynomial.

        Leading coefficients below ``LEADING_ZERO_RTOL`` times the largest
        coefficient magnitude are ignored.
        """
        return self._degree


def _effective_degree(coeffs):
    biggest = max(map(abs, coeffs))
    if biggest == 0.0:
        return -1
    tol = LEADING_ZERO_RTOL * biggest
    d = len(coeffs) - 1
    while d >= 0 and not abs(coeffs[d]) > tol:
        d -= 1
    return d


class RootSet:
    """All roots of a polynomial, tagged with the method that produced them."""

    __slots__ = ("roots", "method_tag")

    def __init__(self, roots, method_tag):
        object.__setattr__(self, "roots", tuple(complex(r) for r in roots))
        object.__setattr__(self, "method_tag", str(method_tag))

    def __setattr__(self, name, value):
        raise AttributeError("RootSet is immutable")

    def __repr__(self):
        return "RootSet(%r, %r)" % (self.roots, self.method_tag)


def evaluate(p, x):
    """Evaluate ``p`` at ``x`` (real or complex) via Horner's scheme."""
    acc = 0.0 if not isinstance(x, complex) else 0.0 + 0.0j
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def from_roots(roots, leading=1.0):
    """Polynomial with the given roots; multiplies out leading * prod(x - r).

    Intended for root multisets closed under conjugation; the tiny imaginary
    residue from complex arithmetic is dropped.
    """
    acc = [complex(leading)]
    for r in roots:
        r = complex(r)
        nxt = [0.0 + 0.0j] * (len(acc) + 1)
        for i, a in enumerate(acc):
            nxt[i + 1] += a
            nxt[i] -= a * r
        acc = nxt
    return AlgebraicPolynomial(tuple(a.real for a in acc))


def _trimmed(p):
    """Coefficients up to the effective degree (empty for the zero poly)."""
    return p.coeffs[: p.degree() + 1]


def _check_degree(p, want, name):
    if p.degree() != want:
        raise DegreeMismatch("%s needs degree %d, got %d" % (name, want, p.degree()))
    return _trimmed(p)


def solve_linear(p):
    return _linear(_check_degree(p, 1, "solve_linear"))


def solve_quadratic(p):
    return _quadratic(_check_degree(p, 2, "solve_quadratic"))


def solve_cubic(p):
    """Closed-form cubic solution (Cardano, in determinant form; see :func:`_cubic`)."""
    return _cubic(_check_degree(p, 3, "solve_cubic"))


def _linear(a):
    a0, a1 = a
    return RootSet((complex(-a0 / a1),), "analytic")


def _quadratic(a):
    a0, a1, a2 = a
    s = cmath.sqrt(complex(a1 * a1 - 4.0 * a2 * a0))
    return RootSet(((-a1 + s) / (2.0 * a2), (-a1 - s) / (2.0 * a2)), "analytic")


def _cubic(a):
    """Cardano's solution in determinant form, from ascending coefficients.

    Uses d0 = a2^2 - 3 a3 a1 and d1 = 2 a2^3 - 9 a3 a2 a1 + 27 a3^2 a0 with
    C = cbrt((d1 +- sqrt(d1^2 - 4 d0^3)) / 2), picking the sign that gives the
    larger |C| so C never vanishes unless d0 = d1 = 0, which is the triple
    root -a2 / (3 a3).
    """
    a0, a1, a2, a3 = a
    d0 = a2 * a2 - 3.0 * a3 * a1
    d1 = 2.0 * a2 ** 3 - 9.0 * a3 * a2 * a1 + 27.0 * a3 * a3 * a0
    inner = cmath.sqrt(complex(d1 * d1 - 4.0 * d0 ** 3))
    cand_plus = (d1 + inner) / 2.0
    cand_minus = (d1 - inner) / 2.0
    big = cand_plus if abs(cand_plus) >= abs(cand_minus) else cand_minus
    if big == 0:
        r = complex(-a2 / (3.0 * a3))
        return RootSet((r, r, r), "analytic")
    cube = big ** (1.0 / 3.0)  # principal complex cube root
    xi = complex(-0.5, math.sqrt(3.0) / 2.0)
    roots = []
    for i in range(3):
        ci = (xi ** i) * cube
        roots.append(-(a2 + ci + d0 / ci) / (3.0 * a3))
    return RootSet(roots, "analytic")


def durand_kerner(p):
    """All complex roots by Durand-Kerner simultaneous iteration.

    Start points sit on a circle of radius 1 + max|a_i / a_n| (a Cauchy-type
    bound on the root magnitudes) with an irrational angle offset.  Stops
    after a sweep in which no point moved more than ``_DK_STEP_TOL``, or in
    which every point's residual |p(z)| was within the rounding-error bound
    2 d u sum|a_i| |z|^i of its Horner evaluation (u the unit roundoff;
    Higham, *Accuracy and Stability of Numerical Algorithms*, section 5.1).
    The second rule ends the iteration on clustered roots, whose steps can
    hover in rounding noise above the absolute tolerance although every
    point is already a root to working precision.  Raises
    :class:`NoConvergence` (carrying the best iterate) after
    ``_DK_MAX_ITER`` sweeps.
    """
    d = p.degree()
    if d < 1:
        raise DegreeMismatch("root iteration needs degree >= 1, got %d" % d)
    a = _trimmed(p)
    an = a[-1]
    monic = [c / an for c in a]  # monic coefficients, ascending

    radius = 1.0 + max(abs(c) for c in monic[:-1])
    z = [
        radius * cmath.exp(1j * (2.0 * math.pi * j / d + _DK_ANGLE_OFFSET))
        for j in range(d)
    ]
    noise = 2.0 * d * _UNIT_ROUNDOFF

    def peval(x):
        """p(x) and the rounding-error bound of its Horner evaluation."""
        acc = 1.0 + 0.0j
        mag = 1.0
        ax = abs(x)
        for c in reversed(monic[:-1]):
            acc = acc * x + c
            mag = mag * ax + abs(c)
        return acc, noise * mag

    for _ in range(_DK_MAX_ITER):
        moved = 0.0
        settled = True
        for j in range(d):
            pz, bound = peval(z[j])
            settled = settled and abs(pz) <= bound
            denom = 1.0 + 0.0j
            for i in range(d):
                if i != j:
                    denom *= z[j] - z[i]
            if denom == 0:
                denom = complex(_DK_STEP_TOL, _DK_STEP_TOL)
            step = pz / denom
            z[j] = z[j] - step
            moved = max(moved, abs(step))
        if settled or moved < _DK_STEP_TOL:
            return RootSet(z, "iterative")
    raise NoConvergence(
        "root iteration did not converge in %d sweeps" % _DK_MAX_ITER, z
    )


def solve_roots(p):
    """Dispatch to the closed-form solvers (degree <= 3) or Durand-Kerner."""
    d = p.degree()
    if d < 1:
        raise DegreeMismatch("no roots to solve for degree %d" % d)
    a = p.coeffs[: d + 1]
    if d == 1:
        return _linear(a)
    if d == 2:
        return _quadratic(a)
    if d == 3:
        return _cubic(a)
    return durand_kerner(p)


def real_roots(rs, im_tol=DEFAULT_IM_TOL):
    """Real parts of the roots whose imaginary part is negligible.

    A root r counts as real when |Im r| <= im_tol * max(1, |Re r|).
    """
    out = []
    for r in rs.roots:
        if abs(r.imag) <= im_tol * max(1.0, abs(r.real)):
            out.append(r.real)
    return out


def lockstep_roots(p):
    """Closed-form roots of many polynomials, rounded as :func:`solve_roots` rounds them.

    ``p`` holds ascending coefficients, one polynomial per column.  Returns
    (closed, degree, roots): a mask of the columns whose effective degree
    is 1 or 2 and whose coefficients, discriminant and roots are finite;
    each column's effective degree; and its two roots as ((real, imag),
    (real, imag)) arrays, the second one meaningful at degree 2 only.
    Degree 1 is ``_linear``'s -a0 / a1.  Degree 2 is ``_quadratic``: the
    square root of the real discriminant as cmath.sqrt returns it, added
    to -a1 as a complex number and divided by the float 2 a2 as CPython
    divides a complex by a float (Smith's method, zero imaginary part).
    Columns outside ``closed`` need :func:`solve_roots`.
    """
    p = np.asarray(p, dtype=float)
    mag = np.abs(p)
    live = mag > LEADING_ZERO_RTOL * mag.max(axis=0)
    degree = np.where(live.any(axis=0), len(p) - 1 - np.argmax(live[::-1], axis=0), -1)
    a0, a1 = p[0], p[1]
    a2 = p[2] if len(p) > 2 else np.zeros_like(a0)
    with np.errstate(all="ignore"):
        disc = a1 * a1 - 4.0 * a2 * a0
        s = np.sqrt(np.abs(disc))
        s_re = np.where(disc >= 0.0, s, 0.0)
        s_im = np.where(disc >= 0.0, 0.0, s)
        den = 2.0 * a2
        ratio = 0.0 / den
        den = den + 0.0 * ratio
        roots = [
            ((re + im * ratio) / den, (im - re * ratio) / den)
            for re, im in ((-a1 + s_re, 0.0 + s_im), (-a1 - s_re, 0.0 - s_im))
        ]
        quad = degree == 2
        (re1, im1), second = roots
        roots = ((np.where(quad, re1, -a0 / a1), np.where(quad, im1, 0.0)), second)
    closed = (degree == 1) | (
        quad & np.isfinite(disc) & ((disc == 0.0) | (np.abs(disc) >= _TINY_DISC))
    )
    finite = [np.isfinite(re) & np.isfinite(im) for re, im in roots]
    closed &= finite[0] & (finite[1] | ~quad) & np.isfinite(p).all(axis=0)
    return closed, degree, roots


def lockstep_real(re, im):
    """Mask of the roots :func:`real_roots` keeps, from their parts as arrays."""
    return np.abs(im) <= DEFAULT_IM_TOL * np.maximum(1.0, np.abs(re))
