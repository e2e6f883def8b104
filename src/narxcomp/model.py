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
import math
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from . import poly
from .poly import AlgebraicPolynomial


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

    ``table`` is the terms compiled once at construction (and again by
    ``dataclasses.replace``): one entry ``(coefficient, ((kind, lag, power),
    ...))`` per term, ``kind`` being the signal code "y", "u", "phi1" or
    "phi2".  Factors keep the order of ``terms``, so every product rounds the
    same way however it is evaluated.  ``u_depth`` is the input history the
    table reads, u(k-1) ... u(k-u_depth).
    """

    terms: tuple
    n_y: int
    n_u: int
    tau_d: int
    ell: int
    input_range: tuple
    output_range: tuple
    table: tuple = field(init=False, repr=False, compare=False)
    u_depth: int = field(init=False, repr=False, compare=False)
    _hysteretic: bool = field(init=False, repr=False, compare=False)
    _max_y_lag: int = field(init=False, repr=False, compare=False)
    _max_phi_lag: int = field(init=False, repr=False, compare=False)
    # Per-step compensation plan, built and cached by the compensator.
    _step_plan: tuple = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        table = tuple(
            (float(t.coefficient), tuple((f.signal.value, f.lag, f.power) for f in t.factors))
            for t in self.terms
        )
        lags = {kind: [] for kind in ("y", "u", "phi1", "phi2")}
        for _, factors in table:
            for kind, lag, _ in factors:
                lags[kind].append(lag)
        phi = lags["phi1"] + lags["phi2"]
        set_ = object.__setattr__
        set_(self, "table", table)
        set_(self, "u_depth", max([self.n_u] + lags["u"] + [lag + 1 for lag in phi]))
        set_(self, "_hysteretic", bool(phi))
        set_(self, "_max_y_lag", max(lags["y"], default=0))
        set_(self, "_max_phi_lag", max(phi, default=0))

    def is_hysteretic(self):
        return self._hysteretic

    def sigma_y(self):
        """Sum of the coefficients of the purely linear output terms.

        Equal to 1 exactly when constant inputs hold the output wherever it
        is (a continuum of equilibria), the signature of a well-posed
        hysteresis model.
        """
        s = 0.0
        for coef, factors in self.table:
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

    def max_phi_lag(self):
        return self._max_phi_lag


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


def validate(model):
    """Structural checks.  Returns a list of violation messages (empty = ok)."""
    problems = []
    if model.tau_d < 1:
        problems.append("tau_d must be >= 1, got %d" % model.tau_d)
    if model.n_u < model.tau_d:
        problems.append("n_u (%d) must be >= tau_d (%d)" % (model.n_u, model.tau_d))
    if model.n_y < 1:
        problems.append("n_y must be >= 1, got %d" % model.n_y)
    lo, hi = model.input_range
    if not lo < hi:
        problems.append("input_range must satisfy min < max")
    lo, hi = model.output_range
    if not lo < hi:
        problems.append("output_range must satisfy min < max")
    for ti, t in enumerate(model.terms):
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
        if total > model.ell:
            problems.append(
                "term %d: degree %d exceeds ell=%d" % (ti, total, model.ell)
            )
    return problems


def term_value(value, factors, y_hist, u_hist):
    """``value`` times the product of ``factors``, (kind, lag, power) entries
    of a compiled table, read from histories ordered most-recent-first:
    ``y_hist[0]`` is y(k-1), ``u_hist[0]`` is u(k-1)."""
    for kind, lag, power in factors:
        if kind == "y":
            x = y_hist[lag - 1]
        else:
            x = u_hist[lag - 1]
            if kind != "u":
                x -= u_hist[lag]
                if kind == "phi2":
                    x = 1.0 if x > 0.0 else -1.0 if x < 0.0 else 0.0
        value *= x if power == 1 else x ** power
    return value


def _evaluate(table, y_hist, u_hist):
    acc = 0.0
    for coefficient, factors in table:
        acc += term_value(coefficient, factors, y_hist, u_hist)
    return acc


def _simulate(table, y_hist, u_hist, inputs):
    """Outputs for ``inputs``, each fed back into the histories, which shift
    in place.  Stops before the first non-finite output."""
    out = []
    for u_k in inputs:
        val = _evaluate(table, y_hist, u_hist)
        if not math.isfinite(val):
            break
        out.append(val)
        y_hist.insert(0, val)
        y_hist.pop()
        u_hist.insert(0, u_k)
        u_hist.pop()
    return out


def one_step(model, y_hist, u_hist):
    """One prediction y(k) from histories ordered most-recent-first."""
    if len(y_hist) < model.n_y:
        raise InsufficientHistory(
            "need %d output samples, got %d" % (model.n_y, len(y_hist))
        )
    if len(u_hist) < model.u_depth:
        raise InsufficientHistory(
            "need %d input samples, got %d" % (model.u_depth, len(u_hist))
        )
    return _evaluate(model.table, y_hist, u_hist)


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
    y_hist = [float(v) for v in y_init]
    u_hist = [u[0] if u else 0.0] * model.u_depth
    y = _simulate(model.table, y_hist, u_hist, u)
    if len(y) < len(u):
        raise NonFinite("output diverged at sample %d" % len(y))
    return np.array(y, dtype=float)


def _power(x, power):
    """``x ** power`` as the scalar code computes it, also per element of an
    array (numpy's ``**`` may round differently from the C library's pow)."""
    if power == 1:
        return x
    if power == 0:
        return 1.0
    if isinstance(x, np.ndarray):
        return np.array([v ** power for v in x.tolist()])
    return x ** power


def term_values(value, factors, y_hist, u_hist):
    """:func:`term_value` for many runs at once: ``value`` and the history
    entries may be arrays with one element per run.  Products round as in
    :func:`term_value`; the histories must be finite (phi2 of a NaN
    increment is NaN here)."""
    for kind, lag, power in factors:
        if kind == "y":
            x = y_hist[lag - 1]
        else:
            x = u_hist[lag - 1]
            if kind != "u":
                x = x - u_hist[lag]
                if kind == "phi2":
                    x = np.sign(x)
        value = value * _power(x, power)
    return value


@np.errstate(all="ignore")
def simulate_free_runs(model, u_rows, y_init):
    """:func:`simulate_free_run` on every row of ``u_rows``, in lockstep.

    Returns one entry per row: its outputs, bit for bit those of
    :func:`simulate_free_run`, or the :class:`NonFinite` that it raises.
    """
    u_cols = np.asarray(u_rows, dtype=float).T
    n, runs = u_cols.shape
    y_hist = [float(v) for v in y_init]
    u_hist = [u_cols[0]] * model.u_depth
    y = np.empty((runs, n))
    for k in range(n):
        acc = np.zeros(runs)
        for coefficient, factors in model.table:
            acc += term_values(coefficient, factors, y_hist, u_hist)
        y[:, k] = acc
        y_hist.insert(0, acc)
        y_hist.pop()
        u_hist.insert(0, u_cols[k])
        u_hist.pop()
    finite = np.isfinite(y)
    return [
        row if ok.all() else NonFinite("output diverged at sample %d" % np.argmin(ok))
        for row, ok in zip(y, finite)
    ]


def static_polynomial(model, u_bar, branch_sign=0):
    """Steady-state polynomial in y_bar for a constant input u_bar.

    Encodes f(u_bar, y_bar) - y_bar = 0.  At steady state phi1 = 0, so any
    term containing phi1 drops out; bare phi2 factors take the value
    ``branch_sign`` (0 for strict steady state, +-1 to probe the equilibria
    reached while loading or unloading).
    """
    if branch_sign not in (-1, 0, 1):
        raise ValueError("branch_sign must be -1, 0 or +1")
    u_bar = float(u_bar)
    sign = float(branch_sign)
    coeffs = [0.0] * (model.ell + 2)
    for scalar, factors in model.table:
        xpow = 0
        for kind, _, power in factors:
            if kind == "y":
                xpow += power
            elif kind == "u":
                scalar *= u_bar ** power
            elif kind == "phi1":
                scalar = 0.0
                break
            else:
                scalar *= sign ** power
                if scalar == 0.0:
                    break
        if scalar != 0.0:
            coeffs[xpow] += scalar
    coeffs[1] -= 1.0
    return AlgebraicPolynomial(coeffs)


def jacobian_eigen(model, u_bar, y_bar):
    """Magnitudes of the linearization eigenvalues at (u_bar, y_bar), descending.

    The partial derivatives a_i = df/dy(k-i) evaluated at the steady state
    (where phi1 = phi2 = 0) form the characteristic polynomial
    lambda^n - a_1 lambda^(n-1) - ... - a_n, whose roots are the eigenvalues.
    Only output lags actually present in the terms count; a model with no
    output feedback returns an empty list (trivially stable).
    """
    n_eff = model.max_y_lag()
    if n_eff == 0:
        return []
    a = [0.0] * (n_eff + 1)  # a[i] = df/dy(k-i)
    u_bar = float(u_bar)
    y_bar = float(y_bar)
    for coef, factors in model.table:
        for fi, (kind, lag, power) in enumerate(factors):
            if kind != "y":
                continue
            part = coef * power * y_bar ** (power - 1)
            for gj, (g_kind, _, g_power) in enumerate(factors):
                if gj == fi:
                    continue
                if g_kind == "y":
                    part *= y_bar ** g_power
                elif g_kind == "u":
                    part *= u_bar ** g_power
                else:
                    # phi1 and phi2 both vanish at steady state
                    part = 0.0
                    break
            a[lag] += part
    char = [0.0] * (n_eff + 1)
    char[n_eff] = 1.0
    for i in range(1, n_eff + 1):
        char[n_eff - i] = -a[i]
    rs = poly.solve_roots(AlgebraicPolynomial(char))
    return sorted((abs(r) for r in rs.roots), reverse=True)


def fixed_points(model, u_bar, branch_sign=0):
    """Real equilibria near the output range, with their stability.

    Roots of the steady-state polynomial are kept if they fall within the
    output range widened by 10% of its span on each side.  Raises
    :class:`DegenerateStatics` when the polynomial vanishes identically.
    """
    p = static_polynomial(model, u_bar, branch_sign)
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
        mags = jacobian_eigen(model, u_bar, y_bar)
        stable = all(m < 1.0 for m in mags)
        out.append(FixedPoint(float(u_bar), float(y_bar), tuple(mags), stable))
    return out


def static_rows(model, cols, var, value, size):
    """Steady-state coefficients in powers of ``var`` for many runs: the
    terms summed as :func:`narxcomp.compensator.static_comp_poly` (``var``
    "u", outputs at ``value``) and :func:`static_polynomial` (``var`` "y",
    inputs at ``value``) sum them, one column per run, the model's
    coefficients replaced by the rows of ``cols`` (one row per term).
    Non-hysteretic models only; the constant terms are left to the caller.
    """
    p = np.zeros((size, cols.shape[1]))
    for (_, factors), c in zip(model.table, cols):
        xpow = 0
        for kind, _, power in factors:
            if kind == var:
                xpow += power
            else:
                c = c * _power(value, power)
        p[xpow] += c
    return p


def _stable_lockstep(model, cols, u_bar, y_bar):
    """Per run, whether every :func:`jacobian_eigen` magnitude is below one,
    and the mask of runs whose characteristic polynomial had a closed form."""
    n_eff = model.max_y_lag()
    if n_eff == 0:
        return True, True
    a = np.zeros((n_eff + 1, cols.shape[1]))
    for (_, factors), c in zip(model.table, cols):
        for fi, (kind, lag, power) in enumerate(factors):
            if kind != "y":
                continue
            part = c * power * _power(y_bar, power - 1)
            for gj, (g_kind, _, g_power) in enumerate(factors):
                if gj != fi:
                    part = part * _power(y_bar if g_kind == "y" else u_bar, g_power)
            a[lag] += part
    char = np.zeros_like(a)
    char[n_eff] = 1.0
    char[:n_eff] = -a[:0:-1]
    closed, degree, roots = poly.lockstep_roots(char)
    stable = np.ones(cols.shape[1], dtype=bool)
    for slot, (re, im) in enumerate(roots):
        stable &= (np.hypot(re, im) < 1.0) | (degree <= slot)
    return stable, closed


def stable_fixed_point_lockstep(model, cols, u_bar, y_target, tol):
    """Per run, whether :func:`fixed_points` at ``u_bar`` holds a stable
    point within ``tol`` of ``y_target``, the model's coefficients replaced
    by the rows of ``cols``; and the mask of runs whose static and
    characteristic polynomials had degree 1 or 2.  Only those are decided
    here; the others need :func:`fixed_points`.
    """
    q = static_rows(model, cols, "y", u_bar, model.ell + 2)
    q[1] -= 1.0
    closed, degree, roots = poly.lockstep_roots(q)
    y_lo, y_hi = model.output_band()
    found = np.zeros(cols.shape[1], dtype=bool)
    for slot, (y_bar, im) in enumerate(roots):
        fp = poly.lockstep_real(y_bar, im) & (y_lo <= y_bar) & (y_bar <= y_hi) & (degree > slot)
        stable, eig_closed = _stable_lockstep(model, cols, u_bar, y_bar)
        closed &= eig_closed | ~fp
        found |= fp & stable & (np.abs(y_bar - y_target) < tol)
    return found, closed


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


def hysteresis_loop(model, amplitude, f_min, u_center,
                    settle_tol=1e-8, max_periods=64):
    """Trace the settled input-output loop under a sinusoidal excitation.

    Drives u(k) = amplitude * sin(2 pi f_min k) + u_center (f_min in cycles
    per sample) period by period until two consecutive periods agree to
    ``settle_tol`` (relative to the period's output span), then splits the
    settled period into loading (input rising) and unloading (input falling)
    branches.  Raises :class:`LoopUnsettled` if agreement is never reached;
    models whose output-coefficient sum exceeds one carry a slowly growing
    drift mode, so a run that contracts onto its loop still stops long
    before the drift resurfaces.
    """
    if not model.is_hysteretic():
        raise ValueError("hysteresis loop requires a model with phi regressors")
    if f_min <= 0:
        raise ValueError("f_min must be positive")
    period = int(round(1.0 / f_min))
    if period < 8:
        raise ValueError("period of %d samples is too coarse to trace" % period)

    u_hist = [float(u_center)] * model.u_depth  # u(k-1), u(k-2), ...
    y_hist = [0.0] * model.n_y
    prev_y = None
    settled = None
    settled_start = 0
    for p in range(max_periods):
        ks = np.arange(p * period, (p + 1) * period, dtype=float)
        u_p = amplitude * np.sin(2.0 * np.pi * f_min * ks) + u_center
        y_p = np.array(_simulate(model.table, y_hist, u_hist, u_p.tolist()))
        if len(y_p) < period:
            raise NonFinite("loop trace diverged in period %d" % p)
        if prev_y is not None:
            scale = max(1.0, float(np.ptp(y_p)))
            if float(np.max(np.abs(y_p - prev_y))) < settle_tol * scale:
                settled = (u_p, y_p)
                settled_start = p * period
                break
        prev_y = y_p
    if settled is None:
        raise LoopUnsettled(
            "hysteresis loop did not settle within %d periods" % max_periods
        )
    u_p, y_p = settled
    du = np.empty(period)
    prev_u = amplitude * np.sin(2.0 * np.pi * f_min * (settled_start - 1)) + u_center
    du[0] = u_p[0] - prev_u
    du[1:] = np.diff(u_p)
    regime = np.zeros(period)
    cur = 0.0
    for i in range(period):
        if du[i] > 0:
            cur = 1.0
        elif du[i] < 0:
            cur = -1.0
        regime[i] = cur
    loading = np.column_stack([u_p[regime > 0], y_p[regime > 0]])
    unloading = np.column_stack([u_p[regime < 0], y_p[regime < 0]])
    loading = loading[np.argsort(loading[:, 0], kind="stable")]
    unloading = unloading[np.argsort(unloading[:, 0], kind="stable")[::-1]]
    return HysteresisLoop(loading=loading, unloading=unloading, period=period)


def loop_inverse(loop, y_target, regime):
    """Input that produces ``y_target`` on the given loop branch.

    Linear interpolation between adjacent traced points; raises
    :class:`OutOfLoopRange` if no branch segment brackets the target.
    """
    branch = loop.loading if regime is Regime.LOADING else loop.unloading
    t = float(y_target)
    for i in range(len(branch) - 1):
        u0, y0 = branch[i]
        u1, y1 = branch[i + 1]
        if (y0 - t) * (y1 - t) <= 0.0:
            if y1 == y0:
                return float(u0)
            return float(u0 + (t - y0) * (u1 - u0) / (y1 - y0))
    raise OutOfLoopRange(
        "target %g outside the traced %s branch" % (t, regime.name.lower())
    )


# ---------------------------------------------------------------------------
# JSON serialization

def model_to_dict(model):
    return {
        "n_y": model.n_y,
        "n_u": model.n_u,
        "tau_d": model.tau_d,
        "ell": model.ell,
        "input_range": list(model.input_range),
        "output_range": list(model.output_range),
        "terms": [
            {
                "coeff": t.coefficient,
                "factors": [
                    {"sig": f.signal.value, "lag": f.lag, "pow": f.power}
                    for f in t.factors
                ],
            }
            for t in model.terms
        ],
    }


def model_from_dict(d):
    terms = tuple(
        Term(
            coefficient=float(t["coeff"]),
            factors=tuple(
                Factor(
                    signal=Signal(f["sig"]),
                    lag=int(f["lag"]),
                    power=int(f.get("pow", 1)),
                )
                for f in t.get("factors", ())
            ),
        )
        for t in d["terms"]
    )
    model = NarxModel(
        terms=terms,
        n_y=int(d["n_y"]),
        n_u=int(d["n_u"]),
        tau_d=int(d["tau_d"]),
        ell=int(d["ell"]),
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


def save_model(model, path):
    with open(path, "w") as fh:
        json.dump(model_to_dict(model), fh, indent=2)
        fh.write("\n")
