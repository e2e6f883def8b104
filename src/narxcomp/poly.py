"""Dense univariate polynomials with real coefficients, plus root solvers.

Coefficients are stored in ascending order, so ``coeffs[i]`` multiplies
``x**i``.  Degrees 1 and 2 are solved in closed form; higher degrees take
the eigenvalues of the companion matrix.  All solvers return every root
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


def compile_kernel(source):
    """The function ``kernel`` defined by the generated ``source``.

    Kernels take the coefficients as an argument and never hold them as
    literals, so their generators cache one kernel per term structure.  The
    function's ``source`` attribute keeps the text for reading.
    """
    namespace = {}
    exec(compile(source, "<narxcomp kernel>", "exec"), namespace)
    kernel = namespace["kernel"]
    kernel.source = source
    return kernel


def indented(lines, depth):
    """``lines`` indented by ``depth`` levels of four spaces."""
    return ["    " * depth + line for line in lines]


def closed_forms(a0, a1, a2):
    """The degree rule and closed-form roots as source over the coefficients
    ``a0``, ``a1``, ``a2`` and the local ``big``, the largest magnitude: the
    lines of ``tol`` (a coefficient counts where its magnitude exceeds it),
    ``disc``, ``sq`` and ``w``, the linear root and the quadratic roots."""
    return ("tol = LEADING_ZERO_RTOL * big",
            "disc = %s * %s - 4.0 * %s * %s" % (a1, a1, a2, a0), "sq = sqrt(disc)",
            "w = 2.0 * " + a2, "-%s / %s" % (a0, a1),
            *["(-%s %s sq) / w" % (a1, sign) for sign in "+-"])


#: The compensation step inlines these lines; ``_tolerance(big)`` and
#: ``_closed_roots(sqrt, a0, a1[, a2])`` (the linear root as a 1-tuple, or the
#: quadratic roots and disc) run them on floats and numpy columns alike.
_TOL, _DISC, _SQ, _W, _LINEAR, _X1, _X2 = closed_forms("a0", "a1", "a2")
_tolerance = compile_kernel("from %s import LEADING_ZERO_RTOL\ndef kernel(big):\n    %s\n"
                            "    return tol" % (__name__, _TOL))
_closed_roots = compile_kernel("\n".join(["def kernel(sqrt, a0, a1, a2=None):"] + indented(
    ["if a2 is None:", "    return %s," % _LINEAR, _DISC, _SQ, _W,
     "return %s, %s, disc" % (_X1, _X2)], 1)))


class DegreeMismatch(ValueError):
    """The polynomial's degree is outside what the solver handles."""


class NoConvergence(RuntimeError):
    """A root solver did not converge."""


class AlgebraicPolynomial:
    """Immutable dense polynomial a_0 + a_1 x + ... + a_n x^n."""

    __slots__ = ("coeffs", "_degree")

    def __init__(self, coeffs):
        cs = tuple(map(float, coeffs)) or (0.0,)
        object.__setattr__(self, "coeffs", cs)
        object.__setattr__(self, "_degree", effective_degree(cs))

    def __setattr__(self, name, value):
        raise AttributeError("AlgebraicPolynomial is immutable")

    def __repr__(self):
        return "AlgebraicPolynomial(%r)" % (self.coeffs,)

    def __eq__(self, other):
        return isinstance(other, AlgebraicPolynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def degree(self):
        """Effective degree; -1 for the zero polynomial and one with a NaN or an inf.

        Leading coefficients below ``LEADING_ZERO_RTOL`` times the largest
        coefficient magnitude are ignored.
        """
        return self._degree


def effective_degree(coeffs):
    """Degree of the ascending coefficients ``coeffs`` under the
    ``LEADING_ZERO_RTOL`` rule of :meth:`AlgebraicPolynomial.degree`; -1
    also when a coefficient is NaN or infinite, wherever it sits: an
    infinite one makes ``tol`` infinite, which no magnitude exceeds."""
    if any(map(math.isnan, coeffs)):
        return -1
    tol = _tolerance(max(map(abs, coeffs)))
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


def companion_roots(p):
    """All complex roots as the eigenvalues of the companion matrix.

    ``numpy.roots`` computes them, a backward-stable method (Edelman and
    Murakami, "Polynomial roots from companion matrix eigenvalues", *Math.
    Comp.* 64, 1995).  Rounding spreads a root of multiplicity k into points
    about eps^(1/k) off the real axis, so a point at which p is zero within
    the rounding-error bound 2 d u sum|a_i| |z|^i of its Horner evaluation
    (u the unit roundoff; Higham, *Accuracy and Stability of Numerical
    Algorithms*, section 5.1) both at its real part and halfway from there
    to the point is returned as its real part.  Raises
    :class:`NoConvergence` when the eigenvalue iteration fails.
    """
    d = p.degree()
    if d < 1:
        raise DegreeMismatch("root iteration needs degree >= 1, got %d" % d)
    a = p.coeffs[: d + 1]
    try:
        z = np.roots(a[::-1]).tolist()
    except np.linalg.LinAlgError as exc:
        raise NoConvergence("companion eigenvalues did not converge: %s" % exc) from exc
    noise = 2.0 * d * _UNIT_ROUNDOFF

    def vanishes(x):
        """Whether |p(x)| is within the rounding-error bound of Horner's scheme."""
        acc = 0.0 + 0.0j
        mag = 0.0
        ax = abs(x)
        for c in reversed(a):
            acc = acc * x + c
            mag = mag * ax + abs(c)
        return abs(acc) <= noise * mag

    def on_real_root(x):
        return vanishes(complex(x.real)) and vanishes(complex(x.real, x.imag / 2.0))

    return RootSet([complex(x.real) if on_real_root(x) else x for x in z], "iterative")


# perfbench/tracing.py counts calls of this name through the module's __dict__.
durand_kerner = companion_roots


def solve_roots(p):
    """All roots of ``p``: the closed forms of :func:`closed_forms` at its
    effective degrees 1 and 2, companion-matrix eigenvalues above."""
    d = p.degree()
    if d < 1:
        raise DegreeMismatch("no roots to solve for degree %d" % d)
    if d > 2:
        return companion_roots(p)
    return RootSet(_closed_roots(_sqrt, *p.coeffs[: d + 1])[:d], "analytic")


def _sqrt(disc):
    """``math.sqrt`` of a discriminant in (0, inf), as :func:`lockstep_roots`
    and the compensation step take it; ``cmath.sqrt`` of any other."""
    return math.sqrt(disc) if 0.0 < disc < math.inf else cmath.sqrt(complex(disc))


def real_roots(rs, im_tol=DEFAULT_IM_TOL):
    """Real parts of the roots whose imaginary part is negligible.

    A root r counts as real when |Im r| <= im_tol * max(1, |Re r|).
    """
    return [r.real for r in rs.roots if abs(r.imag) <= im_tol * max(1.0, abs(r.real))]


def lockstep_roots(p):
    """Real closed-form roots of many polynomials, rounded as :func:`solve_roots` rounds them.

    ``p`` holds ascending coefficients, one polynomial per column.  Returns
    (closed, degree, roots): a mask of the columns with finite
    coefficients and roots whose effective degree is 1, or 2 with a
    discriminant in (0, inf); each column's effective degree; and its two
    roots as arrays, the second one meaningful at degree 2 only, from
    :func:`closed_forms` with ``numpy.sqrt``.  Columns outside ``closed``,
    complex and double roots among them, need :func:`solve_roots`.
    """
    p = np.asarray(p, dtype=float)
    mag = np.abs(p)
    live = mag > _tolerance(mag.max(axis=0))
    degree = (live * np.arange(1, len(p) + 1)[:, None]).max(axis=0) - 1
    a2 = p[2] if len(p) > 2 else np.zeros_like(p[0])
    quad = degree == 2
    with np.errstate(all="ignore"):
        x1, x2, disc = _closed_roots(np.sqrt, p[0], p[1], a2)
        roots = (np.where(quad, x1, *_closed_roots(np.sqrt, p[0], p[1])), x2)
    closed = (degree == 1) | (quad & (0.0 < disc) & (disc < np.inf))
    closed &= np.isfinite(roots[0]) & (np.isfinite(roots[1]) | ~quad) & np.isfinite(p).all(axis=0)
    return closed, degree, roots
