"""Polynomial NARX models: representation, simulation and steady-state analysis.

A model is a sum of terms; each term is a coefficient times a product of
lagged factors.  Factors refer to the output y, the input u, or the two
hysteresis regressors

    phi1(k) = u(k) - u(k-1)        (input increment)
    phi2(k) = sign(phi1(k))        (with sign(0) = 0)

History arguments are ordered most-recent-first: ``y_hist[0]`` is y(k-1),
``u_hist[0]`` is u(k-1), and so on.
"""

from __future__ import annotations

import json
import operator
from math import inf, isfinite
from dataclasses import dataclass, field, replace
from functools import lru_cache, partial
from enum import Enum

import numpy as np

from . import poly
from .poly import AlgebraicPolynomial, compile_kernel, indented


class Signal(Enum):
    OUTPUT_Y = "y"
    INPUT_U = "u"
    PHI1 = "phi1"
    PHI2 = "phi2"


class Regime(Enum):
    """Which branch of a hysteresis loop the input is traversing."""

    LOADING = 1
    UNLOADING = -1


class InsufficientHistory(ValueError):
    """Not enough past samples to evaluate the model."""


class NonFinite(ArithmeticError):
    """Simulation produced inf or NaN (unstable model or input)."""


class DegenerateStatics(ValueError):
    """The steady-state polynomial vanishes identically: every output value
    is an equilibrium and no discrete fixed-point set exists."""


class NoStableFixedPoint(ValueError):
    """No stable equilibrium inside the output range at this input level."""


class OutOfLoopRange(ValueError):
    """Requested output level is outside the traced hysteresis loop."""


class LoopUnsettled(RuntimeError):
    """Periodic excitation never converged onto a repeating loop."""


class LoopSpecError(ValueError):
    """A loop :func:`hysteresis_loop` cannot trace; ``param`` names the
    offending argument: "center", "amplitude" or "f"."""

    def __init__(self, param, message):
        super().__init__(message)
        self.param = param


class EmptyLoopBranch(LoopSpecError):
    """The settled period has no rising or no falling input sample."""

    def __init__(self, message):
        super().__init__("amplitude", message)


@dataclass(frozen=True)
class Factor:
    signal: Signal
    lag: int
    power: int = 1


@dataclass(frozen=True)
class Term:
    coefficient: float
    factors: tuple = ()


@dataclass(frozen=True)
class NarxModel:
    """A polynomial NARX model.

    ``factors`` is the term structure compiled at construction (and again
    by ``dataclasses.replace``): per term, a tuple of ``(kind, lag, power)``
    with ``kind`` the signal code "y", "u", "phi1" or "phi2", and lags and
    powers integers.  Factors keep the order of ``terms``, so every product
    rounds the same way however it is evaluated.  ``coefficients`` holds the
    coefficients in term order.  ``u_depth`` is the input history the terms
    read, u(k-1) ... u(k-u_depth).
    """

    terms: tuple
    n_y: int
    n_u: int
    tau_d: int
    ell: int
    input_range: tuple
    output_range: tuple
    factors: tuple = field(init=False, repr=False, compare=False)
    coefficients: tuple = field(init=False, repr=False, compare=False)
    u_depth: int = field(init=False, repr=False, compare=False)
    _hysteretic: bool = field(init=False, repr=False, compare=False)
    _max_y_lag: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for order in (self.n_y, self.n_u, self.tau_d, self.ell):
            _index(order)
        factors = tuple(
            tuple((f.signal.value, _index(f.lag), _index(f.power)) for f in t.factors)
            for t in self.terms
        )
        lags = {kind: [] for kind in ("y", "u", "phi1", "phi2")}
        for term in factors:
            for kind, lag, _ in term:
                lags[kind].append(lag)
        phi = lags["phi1"] + lags["phi2"]
        set_ = object.__setattr__
        set_(self, "factors", factors)
        set_(self, "coefficients", tuple(float(t.coefficient) for t in self.terms))
        set_(self, "u_depth", max([self.n_u] + lags["u"] + [lag + 1 for lag in phi]))
        set_(self, "_hysteretic", bool(phi))
        set_(self, "_max_y_lag", max(lags["y"], default=0))

    def is_hysteretic(self):
        return self._hysteretic

    def sigma_y(self):
        """Sum of the coefficients of the purely linear output terms.

        Equal to 1 exactly when constant inputs hold the output wherever it
        is (a continuum of equilibria), the signature of a well-posed
        hysteresis model.
        """
        s = 0.0
        for coef, factors in zip(self.coefficients, self.factors):
            if len(factors) == 1 and factors[0][0] == "y" and factors[0][2] == 1:
                s += coef
        return s

    def max_y_lag(self):
        return self._max_y_lag

    def output_band(self):
        """The output range widened by 10% of its span on each side: the
        equilibria :func:`fixed_points` keeps, the levels static inversion
        accepts."""
        lo, hi = self.output_range
        band = 0.1 * (hi - lo)
        return lo - band, hi + band


def with_coefficients(model, coefs):
    """Copy of ``model`` whose terms carry the coefficients ``coefs``."""
    return replace(model, terms=tuple(
        replace(t, coefficient=c) for t, c in zip(model.terms, np.asarray(coefs).tolist())
    ))


@dataclass(frozen=True)
class FixedPoint:
    u_bar: float
    y_bar: float
    eigen_mags: tuple
    stable: bool


@dataclass(frozen=True)
class HysteresisLoop:
    """One settled period of the input-output loop under a periodic input.

    ``loading`` is sorted by u ascending, ``unloading`` by u descending;
    both are arrays of (u, y) rows.  ``period`` is the period in samples.
    """

    loading: np.ndarray
    unloading: np.ndarray
    period: int

    def y_span(self):
        ys = np.concatenate([self.loading[:, 1], self.unloading[:, 1]])
        return float(ys.min()), float(ys.max())

    def branch(self, regime):
        """The (u, y) rows of the loading or the unloading branch."""
        return self.loading if regime is Regime.LOADING else self.unloading


def validate(model):
    """Structural checks.  Returns a list of violation messages (empty = ok)."""
    problems = []
    if model.tau_d < 1:
        problems.append("tau_d must be >= 1, got %d" % model.tau_d)
    if model.n_u < model.tau_d:
        problems.append("n_u (%d) must be >= tau_d (%d)" % (model.n_u, model.tau_d))
    if model.n_y < 1:
        problems.append("n_y must be >= 1, got %d" % model.n_y)
    if model.ell < 0:
        problems.append("ell must be >= 0, got %d" % model.ell)
    for name in ("input_range", "output_range"):
        ends = getattr(model, name)
        if len(ends) != 2:
            problems.append("%s must have two ends, got %d" % (name, len(ends)))
            continue
        lo, hi = ends
        if not (isfinite(lo) and isfinite(hi)):
            problems.append("%s ends must be finite" % name)
        elif not lo < hi:
            problems.append("%s must satisfy min < max" % name)
    for ti, t in enumerate(model.terms):
        if not isfinite(t.coefficient):
            problems.append("term %d: coefficient must be finite" % ti)
        total = 0
        for f in t.factors:
            if f.power < 1:
                problems.append("term %d: factor power must be >= 1" % ti)
            total += f.power
            if f.signal is Signal.OUTPUT_Y and not 1 <= f.lag <= model.n_y:
                problems.append(
                    "term %d: y lag %d outside [1, %d]" % (ti, f.lag, model.n_y)
                )
            elif f.signal is Signal.INPUT_U and not model.tau_d <= f.lag <= model.n_u:
                problems.append(
                    "term %d: u lag %d outside [%d, %d]"
                    % (ti, f.lag, model.tau_d, model.n_u)
                )
            elif f.signal in (Signal.PHI1, Signal.PHI2) and f.lag < 1:
                problems.append("term %d: phi lag must be >= 1" % ti)
            elif f.signal in (Signal.PHI1, Signal.PHI2) and f.lag < model.tau_d:
                # phi(k-j) reads u(k-j), which the dead time keeps out of y(k)
                problems.append("term %d: %s lag %d is below tau_d (%d)"
                                % (ti, f.signal.value, f.lag, model.tau_d))
        if total > model.ell:
            problems.append(
                "term %d: degree %d exceeds ell=%d" % (ti, total, model.ell)
            )
    return problems


def kernel_factor(kind, lag, power, y_read, u, shared):
    """Source of one (kind, lag, power) factor, read as :func:`one_step`
    reads it: ``y_read`` is the source of the output read at this lag, and
    ``u % i`` the source of the input i + 1 samples back.  A phi factor
    names a variable whose unindented line is added to ``shared`` once per
    lag: ``p<lag>`` holds the phi1 difference, computed once per sample,
    and ``s<lag>`` its phi2 sign, with sign(0) = 0.  A power above 1 is the
    product of that many copies, taken left to right as :func:`_power`
    takes it; a power below 1, which :func:`validate` refuses, has no
    product and raises ValueError."""
    if power < 1:
        raise ValueError("factor power must be >= 1, got %d" % power)
    if kind == "y":
        x = y_read
    elif kind == "u":
        x = u % (lag - 1)
    elif kind in ("phi1", "phi2"):
        x = p = "p%d" % lag
        shared.setdefault(p, "%s = %s - %s" % (p, u % (lag - 1), u % lag))
        if kind == "phi2":
            x = "s%d" % lag
            shared.setdefault(x, "%s = 1.0 if %s > 0.0 else -1.0 if %s < 0.0 else 0.0"
                              % (x, p, p))
    else:
        raise ValueError("unknown factor kind %r" % (kind,))
    return x if power == 1 else "(%s)" % " * ".join([x] * power)


def kernel_coefficients(factors):
    """Source that unpacks the coefficient argument ``c`` into the locals
    ``c<i>``, one per term of ``factors``, that the kernel sources read;
    none for a model with no terms."""
    names = ["c%d" % i for i in range(len(factors))]
    return ["%s, = c" % ", ".join(names)] if names else []


def _output_source(factors, y, u):
    """The shared phi lines and the expression of y(k): per term, the
    coefficient ``c<i>`` times its ``factors`` in order, summed from 0.0 in
    term order; ``y % i`` and ``u % i`` are the sources of the output and
    input i + 1 samples back."""
    shared = {}
    terms = [
        " * ".join(["c%d" % i] + [
            kernel_factor(kind, lag, power, y % (lag - 1), u, shared)
            for kind, lag, power in term
        ])
        for i, term in enumerate(factors)
    ]
    return list(shared.values()), " + ".join(["0.0"] + terms)


@lru_cache(maxsize=256)
def _free_run_loop(factors, n_y, u_depth):
    """The free-run loop ``kernel(c, y_hist, u_hist, inputs)`` of a term
    structure, generated from the expression of :func:`_output_source`.

    ``y_hist`` holds n_y outputs and ``u_hist`` u_depth inputs,
    most-recent-first; the loop keeps them, and the coefficients ``c``, in
    locals and writes the histories back, shifted, at the end.  Returns the
    outputs for the list ``inputs``, each fed back into the output history.
    A non-finite output ends the loop as the last element, the histories
    shifted past the outputs before it.
    """
    ys = ["y%d" % i for i in range(n_y)]
    us = ["u%d" % i for i in range(u_depth)]
    shared, expr = _output_source(factors, "y%d", "u%d")
    return compile_kernel("\n".join(
        ["from math import isfinite", "def kernel(c, y, u, inputs):"]
        + indented(kernel_coefficients(factors)
                   + ["%s, = y" % ", ".join(ys), "%s, = u" % ", ".join(us), "out = []",
                      "append = out.append", "for uk in inputs:"], 1)
        + indented(shared + ["v = " + expr, "append(v)", "if not isfinite(v):", "    break",
                            kernel_shift(ys, "v"), kernel_shift(us, "uk")], 2)
        + indented(["y[:] = [%s]" % ", ".join(ys), "u[:] = [%s]" % ", ".join(us),
                    "return out"], 1)
    ) + "\n")


def _free_run_kernel(model):
    """The model's free-run loop ``run(y_hist, u_hist, inputs)``: the loop
    of :func:`_free_run_loop` with the model's coefficients bound."""
    return partial(_free_run_loop(model.factors, model.n_y, model.u_depth),
                   model.coefficients)


def kernel_shift(names, new):
    """Source that shifts ``new`` into the history held in the locals
    ``names``, most-recent-first."""
    return "%s = %s" % (", ".join(names), ", ".join([new] + names[:-1]))


def one_step(model, y_hist, u_hist):
    """One prediction y(k) from histories ordered most-recent-first: the
    first output of a one-sample free run on copies of the histories."""
    if len(y_hist) < model.n_y:
        raise InsufficientHistory(
            "need %d output samples, got %d" % (model.n_y, len(y_hist))
        )
    if len(u_hist) < model.u_depth:
        raise InsufficientHistory(
            "need %d input samples, got %d" % (model.u_depth, len(u_hist))
        )
    return _free_run_kernel(model)(list(y_hist[:model.n_y]), list(u_hist[:model.u_depth]),
                                   [0.0])[0]


def simulate_free_run(model, u_series, y_init):
    """Free-run simulation: predictions feed back as the output history.

    ``y_init`` holds the pre-series outputs most-recent-first, i.e.
    ``y_init[0]`` is y(-1).  Inputs before the series start are taken equal
    to ``u_series[0]``.  Raises :class:`NonFinite` if the output blows up.
    """
    u = np.asarray(u_series, dtype=float).tolist()
    if len(y_init) < model.n_y:
        raise InsufficientHistory(
            "y_init needs %d samples, got %d" % (model.n_y, len(y_init))
        )
    y_hist = [float(v) for v in y_init[:model.n_y]]
    u_hist = [u[0] if u else 0.0] * model.u_depth
    y = _free_run_kernel(model)(y_hist, u_hist, u)
    if y and not isfinite(y[-1]):
        raise NonFinite("output diverged at sample %d" % (len(y) - 1))
    return np.array(y, dtype=float)


def _power(x, power):
    """``x`` to the integer ``power`` as the kernels compute it, for a float
    or an array alike: 1.0 at power 0, else x * x * ... left to right."""
    out = 1.0 if power == 0 else x
    for _ in range(power - 1):
        out = out * x
    return out


def static_polynomial(model, u_bar, branch_sign=0):
    """Steady-state polynomial in y_bar for a constant input u_bar.

    Encodes f(u_bar, y_bar) - y_bar = 0.  At steady state phi1 = 0, so any
    term containing phi1 drops out; bare phi2 factors take the value
    ``branch_sign`` (0 for strict steady state, +-1 to probe the equilibria
    reached while loading or unloading).
    """
    if branch_sign not in (-1, 0, 1):
        raise ValueError("branch_sign must be -1, 0 or +1")
    coeffs = static_rows(model, model.coefficients, "y", float(u_bar),
                         [0.0] * (model.ell + 2), float(branch_sign))
    coeffs[1] -= 1.0
    return AlgebraicPolynomial(coeffs)


def jacobian_eigen(model, u_bar, y_bar):
    """Magnitudes of the linearization eigenvalues at (u_bar, y_bar),
    descending: :func:`root_magnitudes` of :func:`characteristic`.  A model
    with no output feedback returns an empty list (trivially stable)."""
    return root_magnitudes(characteristic(model, model.coefficients, float(u_bar), float(y_bar)))


def root_magnitudes(char):
    """Magnitudes of the roots of the monic ascending ``char``, descending:
    by :func:`narxcomp.poly.solve_roots`, or by ``numpy.roots`` where the
    ``LEADING_ZERO_RTOL`` rule would trim its structural leading 1."""
    if len(char) == 1:
        return []
    p = AlgebraicPolynomial(char)
    if 0 <= p.degree() < len(char) - 1:
        return sorted(map(abs, np.roots(char[::-1]).tolist()), reverse=True)
    return sorted(map(abs, poly.solve_roots(p).roots), reverse=True)


def fixed_points(model, u_bar, branch_sign=0):
    """Real equilibria near the output range, with their stability.

    Roots of the steady-state polynomial are kept if they fall within the
    output range widened by 10% of its span on each side.  Raises
    :class:`NonFinite` when a coefficient of the polynomial overflows and
    :class:`DegenerateStatics` when it vanishes identically.
    """
    p = static_polynomial(model, u_bar, branch_sign)
    if not all(map(isfinite, p.coeffs)):
        raise NonFinite("steady-state polynomial is not finite at u=%g" % u_bar)
    d = p.degree()
    if d == -1:
        raise DegenerateStatics(
            "steady-state polynomial vanishes identically at u=%g" % u_bar
        )
    if d == 0:
        return []
    reals = poly.real_roots(poly.solve_roots(p))
    y_lo, y_hi = model.output_band()
    out = []
    for y_bar in sorted(reals):
        if not y_lo <= y_bar <= y_hi:
            continue
        char = characteristic(model, model.coefficients, float(u_bar), y_bar)
        mags = tuple(root_magnitudes(char))
        out.append(FixedPoint(float(u_bar), float(y_bar), mags, schur_stable(char)))
    return out


def static_rows(model, coefs, var, value, out, sign=0.0):
    """Adds each term, its coefficient from ``coefs`` times its other
    factors at ``value``, into ``out`` at its power of ``var`` and returns
    ``out``: outputs at ``value`` for :func:`narxcomp.compensator.static_comp_poly`
    (``var`` "u"), inputs for :func:`static_polynomial` (``var`` "y").
    ``coefs`` and ``out`` are a float per term and a list, or for many runs
    an array row per term and per power.  phi1 drops its term; phi2 is
    ``sign`` (floats only), and a term that reaches zero there drops out
    before its later factors.  The constant terms are left to the caller.
    """
    for c, factors in zip(coefs, model.factors):
        xpow = 0
        for kind, _, power in factors:
            if kind == var:
                xpow += power
            elif kind == "phi1":
                c = 0.0
                break
            elif kind == "phi2":
                c *= _power(sign, power)
                if c == 0.0:
                    break
            else:
                c = c * _power(value, power)
        out[xpow] += c
    return out


def characteristic(model, coefs, u_bar, y_bar):
    """Ascending coefficients of the characteristic polynomial lambda^n -
    a_1 lambda^(n-1) - ... - a_n of the linearization at the steady state
    (u_bar, y_bar), n the deepest output lag the terms read, a_i =
    df/dy(k-i); ``coefs`` as in :func:`static_rows`, and with column arrays
    every coefficient is a column per run.  phi1 and phi2 vanish at steady
    state, so a phi factor ends its term, which then adds nothing."""
    a = [0.0] * (model.max_y_lag() + 1)
    for c, factors in zip(coefs, model.factors):
        for fi, (kind, lag, power) in enumerate(factors):
            if kind != "y":
                continue
            part = c * power * _power(y_bar, power - 1)
            for gj, (g_kind, _, g_power) in enumerate(factors):
                if g_kind in ("phi1", "phi2"):
                    break
                if gj != fi:
                    part = part * _power(y_bar if g_kind == "y" else u_bar, g_power)
            else:
                a[lag] += part
    return [-x for x in a[:0:-1]] + [1.0]


def schur_stable(char):
    """Whether every root of the ascending coefficients ``char`` lies
    strictly inside the unit circle, by the Schur-Cohn recursion: |k| < 1
    for k = c_0 / c_n, then the same for (p(z) - k z^n p(1/z)) / (z (1 -
    k^2)), down to degree 0 (Jury, *Theory and Application of the
    z-Transform Method*, 1964).  Every step keeps the leading c_n, so the
    scale cannot drift, and a stable polynomial keeps |c_j| <= C(n, j) |c_n|.
    ``char`` holds floats, or column arrays for a verdict per column.  A NaN
    or inf coefficient, also one a step overflows to, reads as unstable.
    Floats stop at the first unstable step, whose 1 - k^2 may be zero."""
    stable = True
    with np.errstate(all="ignore"):
        while len(char) > 1:
            k = char[0] / char[-1]
            stable = stable & (abs(k) < 1) & (abs(char[-1]) < inf)
            if stable is False:
                break
            scale = 1 - k * k
            char = [(a - k * b) / scale for a, b in zip(char[1:], char[-2::-1])]
    return stable


def static_curve(model, u_grid):
    """Stable steady-state output for each input level in ``u_grid``.

    Picks the stable fixed point near the output range (same 10%-widened
    band as :func:`fixed_points`); ties go to the smallest magnitude.
    Raises :class:`NoStableFixedPoint` when a grid point has none.
    """
    out = []
    for u_bar in u_grid:
        fps = [fp for fp in fixed_points(model, u_bar) if fp.stable]
        if not fps:
            raise NoStableFixedPoint("no stable fixed point at u=%g" % u_bar)
        best = min(fps, key=lambda fp: (abs(fp.y_bar), fp.y_bar))
        out.append((float(u_bar), best.y_bar))
    return out


#: Longest loop period, in samples, that :func:`hysteresis_loop` traces.
MAX_LOOP_PERIOD = 1_000_000


def _period_map(kernel, states, u_hist, u, outputs, settle_tol, periods):
    """The outputs of the first of the next ``periods`` periods that
    settles, predicted by the period map of an output-affine structure; an
    empty array when none settles, None when a prediction up to the
    deciding period is not finite.

    ``outputs`` are two consecutive periods of the free-run ``kernel`` on
    the input list ``u`` from the steady input history ``u_hist``, that
    started from the output histories s0 and s1 of ``states`` and ended on
    s1 and s2.  A period from s0 + x has the outputs y1 + G x and ends on
    s1 + Phi x; the second period is the run along e = s1 - s0, and one run
    from s0 moved along each other output completes the directions.  Period
    j after the second differs from the one before by G Phi^j e.  Blocks of
    predicted periods start at 2,048 floats, or one period, and double up
    to 65,536 floats.
    """
    (s0, s1, s2), (y1, y2) = states, outputs
    base = np.array(y2)
    scale = max(1.0, float(np.abs(base).max()))
    with np.errstate(all="ignore"):
        e = np.subtract(s1, s0)  # 0 only if settle_tol settles nothing: NaN rows
        k = np.abs(e).argmax()
        steps, outs, ends = e.copy(), [base] * len(e), [s2] * len(e)
        for i in range(len(e)):
            if i != k:
                s = s0[:]
                s[i] += scale
                steps[i] = s[i] - s0[i]
                outs[i], ends[i] = kernel(s, u_hist[:], u), s
                if not isfinite(outs[i][-1]):
                    return None
        # in the coordinates c of x = D c, D moving output k by e and each
        # other output i by steps[i], G x is c @ dy and Phi x is D c', c' =
        # c @ power; the rows of v are Phi^i e in c, i from 1, and power
        # becomes the power of Phi that moves a block of v on to the next
        dy = np.array(outs) - np.array(y1)
        power = (np.array(ends) - np.array(s1)) / steps
        e[k] = 0.0
        power -= np.outer(power[:, k], e / steps)
        v, d, first = power[k:k + 1], 0.0, 0
        while len(v) < periods and 2 * len(v) * len(u) <= 1 << 11:
            v, power = np.concatenate((v, v.dot(power))), power.dot(power)
        while first < periods:
            v = v[:periods - first]
            ds = v.cumsum(0) + d
            rows = ds.dot(dy) + base  # one predicted period per row
            # a NaN or inf row has a non-finite span; one that overflows
            # only in its span hands the trace back to the kernel too
            span = rows.max(1) - rows.min(1)
            tol = settle_tol * np.maximum(1.0, span)
            stop = ~np.isfinite(span) | (np.abs(v.dot(dy)).max(1) < tol)
            j = stop.argmax()
            if stop[j]:
                return rows[j] if isfinite(span[j]) else None
            first, d, v = first + len(v), ds[-1], v.dot(power)
            if 2 * len(v) * len(u) <= 1 << 16:
                v, power = np.concatenate((v, v.dot(power))), power.dot(power)
    return np.array(())


def hysteresis_loop(model, amplitude, f_min, u_center,
                    settle_tol=1e-8, max_periods=64):
    """Trace the settled input-output loop under a sinusoidal excitation.

    One period of input, u(i) = amplitude * sin(2 pi f_min i) + u_center for
    i = 0 .. P-1 with P = round(1 / f_min) (f_min in cycles per sample),
    defines the loop: the model is driven by that period, repeated, until
    two consecutive periods agree to ``settle_tol`` (relative to the
    period's output span), and the settled period is split into loading
    (input rising) and unloading (input falling) branches.  The input is
    periodic in P samples even when 1 / f_min is not a whole number, so a
    period of, say, 8.4 samples settles too: a sine sampled on past the
    first period would drift in phase from one window to the next, and no
    two windows would agree.  Raises :class:`LoopSpecError`, naming the
    argument, for a loop it cannot trace (the checks below), and its
    subclass :class:`EmptyLoopBranch` if a branch comes out empty;
    :class:`LoopUnsettled` if agreement is never reached;
    models whose output-coefficient sum exceeds one carry a slowly growing
    drift mode, so a run that contracts onto its loop still stops long
    before the drift resurfaces.

    Periods 0 .. q0 + 2 run the free-run kernel, period q0 = ceil(u_depth /
    P) being the first that starts from the steady input history, the
    period's own last u_depth inputs; a trace that settles by then keeps
    the kernel's bits.  From period q0 on every period sees the same
    inputs, so where every term has output power <= 1 a period's outputs
    are affine in the outputs it starts from, and :func:`_period_map`
    predicts every later period up to ``max_periods`` in closed form, from
    periods q0 + 1 and q0 + 2 and n_y - 1 more kernel runs, and applies the
    same settle test to each; its rows agree with iterated ones to
    rounding.  Every other structure, and a mapped trace whose predictions
    turn non-finite before the deciding period, runs each later period
    through the kernel, which names the period it diverges in.
    """
    if not model.is_hysteretic():
        raise ValueError("hysteresis loop requires a model with phi regressors")
    if not isfinite(u_center):
        raise LoopSpecError("center", "loop center must be finite")
    if not 0 < amplitude < inf:
        raise LoopSpecError("amplitude", "loop amplitude must be positive and finite")
    if u_center + amplitude == u_center or u_center - amplitude == u_center:
        raise LoopSpecError("amplitude", "loop amplitude %g does not move the input off "
                            "its center %g" % (amplitude, u_center))
    if not f_min > 0:
        raise LoopSpecError("f", "loop frequency must be positive")
    if 1.0 / f_min > MAX_LOOP_PERIOD:
        raise LoopSpecError("f", "loop period of %g samples is longer than %d"
                            % (1.0 / f_min, MAX_LOOP_PERIOD))
    period = int(round(1.0 / f_min))
    if period < 8:
        raise LoopSpecError("f", "loop period of %g samples is too coarse" % (1.0 / f_min))

    u_p = amplitude * np.sin(2.0 * np.pi * f_min * np.arange(period, dtype=float)) + u_center
    u = u_p.tolist()
    u_hist = [float(u_center)] * model.u_depth  # u(k-1), u(k-2), ...
    y_hist = [0.0] * model.n_y
    prev = older = start = None
    kernel = _free_run_kernel(model)
    run = partial(kernel, y_hist, u_hist, u)
    # period q starts from the steady input history once q * period inputs
    # have filled it; an output-affine structure is mapped after the third
    first_map = -(-model.u_depth // period) + 3
    for p in range(max_periods):
        if p == first_map and all(sum(power for kind, _, power in term if kind == "y") <= 1
                                  for term in model.factors):
            y = _period_map(kernel, (before, start, y_hist), u_hist, u, (older, prev),
                            settle_tol, max_periods - p)
            if y is not None:
                break
        before, start = start, y_hist[:]
        y = run()
        if not isfinite(y[-1]):
            raise NonFinite("loop trace diverged in period %d" % p)
        # every output is finite (the kernel stops at the first that is
        # not); the last samples, compared first, rule most periods out
        if prev is not None:
            tol = settle_tol * max(1.0, max(y) - min(y))
            if abs(y[-1] - prev[-1]) < tol and max(map(abs, map(operator.sub, y, prev))) < tol:
                break
        # the map reads the period before the last; no other is kept
        older, prev = prev if p + 1 == first_map else None, y
    else:
        y = ()
    if not len(y):
        raise LoopUnsettled(
            "hysteresis loop did not settle within %d periods" % max_periods
        )
    y_p = np.array(y)
    du = np.diff(u_p, prepend=u_p[-1:])  # the period before ends on u_p[-1]
    # each sample's regime is the sign of the last input step that moved
    # (0 before the first); a NaN step does not move
    moved = np.abs(du) > 0
    last = np.maximum.accumulate(np.where(moved, np.arange(period), -1))
    regime = np.where(last >= 0, np.sign(du[last]), 0.0)
    loading = np.column_stack([u_p[regime > 0], y_p[regime > 0]])
    unloading = np.column_stack([u_p[regime < 0], y_p[regime < 0]])
    if not (len(loading) and len(unloading)):
        raise EmptyLoopBranch("loop of amplitude %g around %g has an empty branch"
                              % (amplitude, u_center))
    loading = loading[np.argsort(loading[:, 0], kind="stable")]
    unloading = unloading[np.argsort(unloading[:, 0], kind="stable")[::-1]]
    return HysteresisLoop(loading=loading, unloading=unloading, period=period)


def loop_inverse(loop, y_target, regime):
    """Input that produces ``y_target`` on the given loop branch.

    Linear interpolation between adjacent traced points; raises
    :class:`OutOfLoopRange`, naming the branch's output span, if no branch
    segment brackets the target.
    """
    branch = loop.branch(regime).tolist()
    t = float(y_target)
    for (u0, y0), (u1, y1) in zip(branch, branch[1:]):
        if y0 <= t <= y1 or y1 <= t <= y0:
            return float(u0 if y1 == y0 else u0 + (t - y0) * (u1 - u0) / (y1 - y0))
    ys = loop.branch(regime)[:, 1]
    raise OutOfLoopRange("target %g outside the output span [%g, %g] of the traced %s branch"
                         % (t, ys.min(initial=inf), ys.max(initial=-inf), regime.name.lower()))


# ---------------------------------------------------------------------------
# JSON loading

def _index(value):
    """``value`` as an int by the ``operator.index`` rule, with bool refused
    too: a TypeError for a float, even a whole one, and for True and False,
    which ``operator.index`` would read as 1 and 0."""
    if isinstance(value, bool):
        raise TypeError("an order must be an integer, not a bool")
    return operator.index(value)


def _integer(value, key):
    """``value`` of the field ``key`` as an int by the :func:`_index` rule
    :class:`NarxModel` applies; a ValueError naming ``key`` otherwise."""
    try:
        return _index(value)
    except TypeError:
        raise ValueError("%s must be an integer, got %r" % (key, value)) from None


def model_from_dict(d):
    terms = tuple(
        Term(
            coefficient=float(t["coeff"]),
            factors=tuple(
                Factor(
                    signal=Signal(f["sig"]),
                    lag=_integer(f["lag"], "lag"),
                    power=_integer(f.get("pow", 1), "pow"),
                )
                for f in t.get("factors", ())
            ),
        )
        for t in d["terms"]
    )
    model = NarxModel(
        terms=terms,
        n_y=_integer(d["n_y"], "n_y"),
        n_u=_integer(d["n_u"], "n_u"),
        tau_d=_integer(d["tau_d"], "tau_d"),
        ell=_integer(d["ell"], "ell"),
        input_range=tuple(float(v) for v in d["input_range"]),
        output_range=tuple(float(v) for v in d["output_range"]),
    )
    problems = validate(model)
    if problems:
        raise ValueError("invalid model: " + "; ".join(problems))
    return model


def load_model(path):
    with open(path) as fh:
        return model_from_dict(json.load(fh))
