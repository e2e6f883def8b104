"""Compensation-input synthesis by inverting a NARX polynomial model.

Given a reference trajectory r for the output, each step solves a
polynomial in the unknown input m(k) obtained from the model by swapping
outputs for references and inputs for compensation inputs, then shifting
time forward by the model's dead time tau_d so that m(k) is the only
unknown.  Admissible roots must be real (C1) and inside the input range
(C2); hysteretic models additionally split into a loading polynomial whose
root must exceed m(k-1) (C3) and an unloading polynomial whose root must
lie below it (C4).  When no admissible root exists the previous input is
held.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import poly
from .poly import AlgebraicPolynomial
from .model import (
    Regime,
    fixed_points,
    loop_inverse,
    stable_fixed_point_lockstep,
    static_rows,
    compile_kernel,
    kernel_factor,
    term_values,
    with_coefficients,
)


class IdenticallyZero(ValueError):
    """Every coefficient of the compensation polynomial vanished."""


class NoFeasibleRoot(RuntimeError):
    """No real, in-range, consistent root exists for this reference."""


class UnknownFutureInput(ValueError):
    """A factor would reference an input later than the one being solved for."""


class UnsupportedStructure(ValueError):
    """A phi regressor cannot be resolved into the branch polynomials."""


class _HoldType:
    __slots__ = ()

    def __repr__(self):
        return "HOLD"


#: Sentinel returned by :func:`select_root` when no admissible root exists.
HOLD = _HoldType()


@dataclass(frozen=True)
class BranchPolynomials:
    """Per-step loading/unloading polynomials in m(k), around pivot m(k-1)."""

    loading: AlgebraicPolynomial
    unloading: AlgebraicPolynomial
    pivot: float


@dataclass
class CompensationSession:
    """Mutable state for a step-by-step compensation run.

    ``m_hist`` holds past compensation inputs most-recent-first and must be
    seeded (see :func:`init_dynamic` / :func:`init_hysteresis`) before
    :func:`run`.  ``r`` is attached by :func:`run`; indices past either end
    of the reference clamp to the nearest sample, so r(-1) = r(0).
    """

    model: object
    m_hist: list
    bounds: tuple = None
    r: np.ndarray = None
    branch_state: Regime = None
    hold_count: int = 0
    steps: int = 0
    max_residual: float = 0.0

    def __post_init__(self):
        if self.bounds is None:
            self.bounds = tuple(self.model.input_range)
        need = hist_depth(self.model)
        if len(self.m_hist) < need:
            raise ValueError(
                "m_hist needs %d seeded values, got %d" % (need, len(self.m_hist))
            )
        self.m_hist = [float(v) for v in self.m_hist]

    def hold_rate(self):
        return self.hold_count / self.steps if self.steps else 0.0


def hist_depth(model):
    """How many past inputs the per-step polynomials can reference."""
    d = max(model.n_u - model.tau_d, 1)
    if model.max_phi_lag():
        d = max(d, model.max_phi_lag() - model.tau_d + 1)
    return d


def _clamped(r, start, stop):
    """r(start) ... r(stop - 1) as a list, indices past either end of ``r``
    clamped to the nearest sample."""
    n = len(r)
    return [float(r[min(max(i, 0), n - 1)]) for i in range(start, stop)] if n else []


def static_comp_poly(model, r_bar):
    """Steady-state compensation polynomial in the constant input m_bar.

    Swaps y_bar -> r_bar and u_bar -> m_bar in the steady-state relation
    f(u_bar, y_bar) - y_bar = 0 and collects powers of m_bar.
    """
    if model.is_hysteretic():
        raise ValueError(
            "static inversion is undefined for hysteretic models; "
            "use a traced loop instead"
        )
    r_bar = float(r_bar)
    coeffs = [0.0] * (model.ell + 1)
    for scalar, factors in model.table:
        xpow = 0
        for kind, _, power in factors:
            if kind == "y":
                scalar *= r_bar ** power
            else:  # "u"; phi factors excluded above
                xpow += power
        coeffs[xpow] += scalar
    coeffs[0] -= r_bar
    p = AlgebraicPolynomial(coeffs)
    if p.degree() == -1:
        raise IdenticallyZero("compensation polynomial vanished at r=%g" % r_bar)
    return p


def solve_static(model, r_bar):
    """Constant input whose stable steady state matches ``r_bar``.

    Keeps the real roots inside the input range whose fixed point is stable
    and reproduces r_bar; among those returns the smallest magnitude.
    """
    lo, hi = model.output_range
    span = hi - lo
    r_lo, r_hi = model.output_band()
    if not r_lo <= r_bar <= r_hi:
        raise ValueError(
            "reference %g outside the model output range [%g, %g]"
            % (r_bar, lo, hi)
        )
    p = static_comp_poly(model, r_bar)
    if p.degree() < 1:
        raise NoFeasibleRoot("compensation polynomial has no roots at r=%g" % r_bar)
    u_lo, u_hi = model.input_range
    good = []
    for m_bar in poly.real_roots(poly.solve_roots(p)):
        if not u_lo <= m_bar <= u_hi:
            continue
        fps = fixed_points(model, m_bar)
        if any(fp.stable and abs(fp.y_bar - r_bar) < 1e-6 * span for fp in fps):
            good.append(m_bar)
    if not good:
        raise NoFeasibleRoot("no admissible static input for r=%g" % r_bar)
    return min(good, key=lambda m: (abs(m), m))


@np.errstate(all="ignore")
def solve_static_lockstep(model, coefs, r_bar):
    """:func:`solve_static` of ``r_bar`` for copies of ``model`` carrying the
    table coefficients ``coefs``, one row per run.

    Where the compensation, static and characteristic polynomials all have
    degree 1 or 2 the runs are solved together in closed form, bit for bit
    as :func:`solve_static` solves them; the other runs call it.  Returns
    (m_bar, errors): one input per run, and the exception raised for each
    run index that has none.
    """
    n_runs = len(coefs)
    m_bar = np.zeros(n_runs)
    closed = np.zeros(n_runs, dtype=bool)
    found = np.zeros(n_runs, dtype=bool)
    lo, hi = model.output_range
    span = hi - lo
    r_lo, r_hi = model.output_band()
    if r_lo <= r_bar <= r_hi and not model.is_hysteretic():
        cols = np.asarray(coefs, dtype=float).T
        p = static_rows(model, cols, "u", float(r_bar), model.ell + 1)
        p[0] -= float(r_bar)
        closed, degree, roots = poly.lockstep_roots(p)
        u_lo, u_hi = model.input_range
        for slot, (x, im) in enumerate(roots):
            cand = poly.lockstep_real(x, im) & (u_lo <= x) & (x <= u_hi) & (degree > slot)
            good, fp_closed = stable_fixed_point_lockstep(model, cols, x, r_bar, 1e-6 * span)
            closed &= fp_closed | ~cand
            good &= cand
            # min over the admissible roots by (|m|, m); the first wins ties
            better = good & (~found | (np.abs(x) < np.abs(m_bar))
                             | ((np.abs(x) == np.abs(m_bar)) & (x < m_bar)))
            m_bar = np.where(better, x, m_bar)
            found |= good
    errors = {}
    for i in range(n_runs):
        if not closed[i]:
            try:
                m_bar[i] = solve_static(with_coefficients(model, coefs[i]), r_bar)
            except Exception as e:
                errors[i] = e
        elif not found[i]:
            errors[i] = NoFeasibleRoot("no admissible static input for r=%g" % r_bar)
    return m_bar, errors


def _step_plan(model):
    """The model's table recast for solving in m(k), cached on the model.

    After the forward shift by tau_d, a term is its coefficient times known
    factors -- outputs become references r(k + tau_d - lag), deeper inputs
    and increments become past compensation inputs -- times the unknown
    part x^xpow (x - m(k-1))^d, where x = m(k) and d = m(k) - m(k-1) comes
    from phi1 at lag tau_d.  An odd power of phi2 at lag tau_d is sign(d):
    +1 on the loading branch and -1 on the unloading branch, so it only
    flips the term's sign there.  Returns (terms, size): per term
    (coefficient, known, xpow, d, flip), ``known`` holding (kind, lag,
    power) entries whose lags index the reference window and ``m_hist``
    the way :func:`narxcomp.model.one_step` reads its histories.
    """
    plan = model._step_plan
    if plan is not None:
        return plan
    tau = model.tau_d
    terms = []
    # degree <= ell; branch polynomials carry one trailing zero (criterion 9 reads it)
    size = model.ell + 1 + model.is_hysteretic()
    for coef, factors in model.table:
        known = []
        xpow = d = flip = 0
        for kind, lag, power in factors:
            if kind == "y":
                known.append((kind, lag, power))
            elif lag < tau:
                if kind == "u":
                    raise UnknownFutureInput(
                        "input lag %d is ahead of the dead time %d" % (lag, tau)
                    )
                raise UnsupportedStructure(
                    "%s lag %d is ahead of the dead time %d" % (kind, lag, tau)
                )
            elif lag > tau:
                known.append((kind, lag - tau, power))
            elif kind == "u":
                xpow += power
            elif kind == "phi1":
                d += power
            else:
                flip = (flip + power) % 2
        terms.append((coef, tuple(known), xpow, d, flip))
        size = max(size, xpow + d + 1)
    plan = (tuple(terms), size)
    object.__setattr__(model, "_step_plan", plan)
    return plan


def _step_kernel(model):
    """The model's step-coefficient kernel ``coeffs(r, j, m_hist)``,
    generated from :func:`_step_plan` and cached on the model.

    It returns the loading and unloading coefficient lists of the step-k
    equation f(...) - r(k + tau_d) = 0 in x = m(k), equal for a model with
    no phi2 at lag tau_d; ``r[j]`` is r(k + tau_d) and ``r[j - lag]`` the
    reference an output lag reads.  Per term in table order the known
    factors multiply the coefficient, a zero product is skipped, the rest
    is expanded times (x - m(k-1))^d as [0.0] + part and part + [0.0]
    combine, and added to each list, negated on the unloading branch where
    the term flips; r(k + tau_d) comes off the constant last.
    """
    kernel = model._step_kernel
    if kernel is not None:
        return kernel
    terms, size = _step_plan(model)
    signs = {}
    body = []
    for i, (_, known, xpow, d, flip) in enumerate(terms):
        t = ["c[%d]" % i] + [
            kernel_factor(kind, lag, power, "r[j - %d]" % lag, "m", signs)
            for kind, lag, power in known
        ]
        body += ["    t = " + " * ".join(t), "    if t != 0.0:"]
        part = ["t"]
        for level in range(1, d + 1):  # times (x - m_prev)
            names = ["d%d_%d" % (level, n) for n in range(len(part) + 1)]
            for name, a, b in zip(names, ["0.0"] + part, part + ["0.0"]):
                body.append("        %s = %s - %s * mp" % (name, a, b))
            part = names
        for slot, c in enumerate(part, xpow):
            body.append("        L%d += %s" % (slot, c))
            body.append("        U%d += %s%s" % (slot, "-" if flip else "", c))
    lists = ["[%s0 - rn%s]" % (b, "".join(", %s%d" % (b, i) for i in range(1, size))) for b in "LU"]
    source = "\n".join(
        ["def kernel(c, r, j, m):", "    mp = m[0]"] + list(signs.values())
        + ["    %s = 0.0" % " = ".join(b + str(i) for b in "LU" for i in range(size))]
        + body + ["    rn = r[j]", "    return %s, %s\n" % tuple(lists)]
    )
    kernel = partial(compile_kernel(source), tuple(c for c, *_ in terms))
    object.__setattr__(model, "_step_kernel", kernel)
    return kernel


def _branch_coeffs(session, k):
    """The kernel's coefficient lists at step k of ``session``."""
    model = session.model
    lags = model.max_y_lag()
    top = k + model.tau_d
    return _step_kernel(model)(_clamped(session.r, top - lags, top + 1), lags, session.m_hist)


def dynamic_comp_poly(session, k):
    """Per-step compensation polynomial in m(k) for a non-hysteretic model.

    After the forward shift by tau_d, output factors evaluate to reference
    samples, input factors at lag tau_d contribute powers of the unknown,
    and deeper input lags evaluate to past compensation inputs.
    """
    if session.model.is_hysteretic():
        raise ValueError("model has phi regressors; use hysteresis_comp_polys")
    return AlgebraicPolynomial(_branch_coeffs(session, k)[0])


def hysteresis_comp_polys(session, k):
    """Loading/unloading compensation polynomials for a hysteretic model.

    With the forward shift by tau_d, phi factors at lag tau_d become
    functions of d = m(k) - m(k-1): phi1 contributes powers of d and phi2
    is sign(d), exactly +1 for m(k) > m(k-1) (loading) and -1 for
    m(k) < m(k-1) (unloading).  Each branch therefore gives one polynomial,
    with no root planted at the pivot m(k-1).
    """
    if not session.model.is_hysteretic():
        raise ValueError("model has no phi regressors; use dynamic_comp_poly")
    load, unload = _branch_coeffs(session, k)
    return BranchPolynomials(
        loading=AlgebraicPolynomial(load),
        unloading=AlgebraicPolynomial(unload),
        pivot=float(session.m_hist[0]),
    )


def select_root(candidates, m_prev, bounds, branch=None, im_tol=poly.DEFAULT_IM_TOL):
    """Pick the admissible root closest to the previous input, or HOLD.

    Admissible means real (C1) and within ``bounds`` (C2); with
    ``branch=Regime.LOADING`` the root must exceed ``m_prev`` strictly (C3),
    with ``Regime.UNLOADING`` it must lie strictly below (C4).
    """
    return _nearest(poly.real_roots(candidates, im_tol), m_prev, bounds, branch)


def _nearest(xs, m_prev, bounds, branch):
    """The first of the reals ``xs`` admissible under C2-C4 with the least
    (|x - m_prev|, x), or HOLD."""
    lo, hi = bounds
    best = HOLD
    for x in xs:
        if not lo <= x <= hi:
            continue
        if branch is Regime.LOADING and not x > m_prev:
            continue
        if branch is Regime.UNLOADING and not x < m_prev:
            continue
        if best is HOLD or (abs(x - m_prev), x) < (abs(best - m_prev), best):
            best = x
    return best


def init_dynamic(model, r_at_start):
    """Seed the input history with the static inverse of the first reference."""
    m_bar = solve_static(model, r_at_start)
    return [m_bar] * hist_depth(model)


def init_hysteresis(model, loop, r0, r1):
    """Seed the input history from a traced hysteresis loop.

    The initial regime is loading when the reference starts upward
    (r1 >= r0, ties load), unloading otherwise; the seed is the loop-branch
    input that would produce r1.
    """
    regime = Regime.LOADING if r1 >= r0 else Regime.UNLOADING
    m0 = loop_inverse(loop, r1, regime)
    return [m0] * hist_depth(model)


def _pick(p, m_prev, bounds, branch):
    """:func:`select_root` over the roots of the coefficient list ``p``, or
    HOLD when ``p`` has degree < 1.  Degree 1 and 2 are solved here, rounded
    as :func:`narxcomp.poly.solve_roots` rounds them; higher degrees call it."""
    d = poly.effective_degree(p)
    if d < 1:
        return HOLD
    if d == 1:
        # complex(-a0 / a1) has no imaginary part, so the root is real
        return _nearest((-p[0] / p[1],), m_prev, bounds, branch)
    if d > 2:
        return select_root(poly.solve_roots(AlgebraicPolynomial(p)), m_prev, bounds, branch)
    a0, a1, a2 = p[0], p[1], p[2]
    s = cmath.sqrt(complex(a1 * a1 - 4.0 * a2 * a0))
    reals = [
        r.real for r in ((-a1 + s) / (2.0 * a2), (-a1 - s) / (2.0 * a2))
        if abs(r.imag) <= poly.DEFAULT_IM_TOL * max(1.0, abs(r.real))
    ]
    return _nearest(reals, m_prev, bounds, branch)


def _note_residual(session, p, m):
    """Raise ``session.max_residual`` to the scaled residual of the root
    ``m`` of the full coefficient list ``p``, evaluated as
    :func:`narxcomp.poly.evaluate` evaluates it."""
    acc = 0.0
    for c in reversed(p):
        acc = acc * m + c
    res = abs(acc) / (1.0 + max(map(abs, p)))
    if res > session.max_residual:
        session.max_residual = res


def _step(session, kernel, r, j):
    """One step of :func:`run`: solve for m(k) on the coefficient lists
    ``kernel(r, j, m_hist)``, or hold m(k-1), and shift the chosen input
    into ``session.m_hist``."""
    m_hist = session.m_hist
    m_prev = m_hist[0]
    load, unload = kernel(r, j, m_hist)
    if session.model.is_hysteretic():
        m_load = _pick(load, m_prev, session.bounds, Regime.LOADING)
        m_unload = _pick(unload, m_prev, session.bounds, Regime.UNLOADING)
        m = HOLD
        if m_load is not HOLD and (
            m_unload is HOLD
            or (abs(m_load - m_prev), m_load)
            <= (abs(m_unload - m_prev), m_unload)
        ):
            m = m_load
            session.branch_state = Regime.LOADING
            _note_residual(session, load, m)
        elif m_unload is not HOLD:
            m = m_unload
            session.branch_state = Regime.UNLOADING
            _note_residual(session, unload, m)
    else:
        m = _pick(load, m_prev, session.bounds, None)
        if m is not HOLD:
            _note_residual(session, load, m)
    if m is HOLD:
        m = m_prev
        session.hold_count += 1
    session.steps += 1
    m_hist.insert(0, float(m))
    del m_hist[-1]
    return m


def _reference(r, model):
    """The reference as a list, extended by the clamped samples the step
    equations read before its start and past its end, and the index in it
    of r(tau_d), the newest sample step 0 reads."""
    lead = max(model.max_y_lag() - model.tau_d, 0)
    return _clamped(r, -lead, len(r) + model.tau_d), lead + model.tau_d


def run(session, r_series):
    """Compensate a whole reference trajectory.

    Returns the input series m, one value per reference sample; m(k) is
    solved against the reference window ending at r(k + tau_d).  Steps with
    no admissible root hold the previous input and are counted on the
    session; the run never aborts because of a hold.
    """
    session.r = np.asarray(r_series, dtype=float)
    m_out = np.empty(len(session.r))
    if len(m_out):
        kernel = _step_kernel(session.model)
        r, j = _reference(session.r, session.model)
        for k in range(len(m_out)):
            m_out[k] = _step(session, kernel, r, j + k)
    return m_out


def _select_lockstep(p, m_prev, bounds, loading):
    """:func:`select_root` over the closed-form roots of each column of
    ``p``: (m, found, closed) per column.  ``loading`` is None for no
    branch condition, else a mask of the columns that need m > m_prev (C3);
    the others need m < m_prev (C4)."""
    closed, degree, roots = poly.lockstep_roots(p)
    lo, hi = bounds
    picks = []
    for slot, (x, im) in enumerate(roots):
        ok = poly.lockstep_real(x, im) & (lo <= x) & (x <= hi) & (degree > slot)
        if loading is not None:
            ok &= np.where(loading, x > m_prev, x < m_prev)
        picks.append((x, ok, np.abs(x - m_prev)))
    (x1, ok1, d1), (x2, ok2, d2) = picks
    second = ok2 & (~ok1 | (d2 < d1) | ((d2 == d1) & (x2 < x1)))
    return np.where(second, x2, x1), ok1 | ok2, closed


@np.errstate(all="ignore")
def run_lockstep(models, coefs, seeds, r_series):
    """:func:`run` for many models of one structure, stepped together.

    ``models[i]`` carries the table coefficients ``coefs[i]`` and starts
    from the input history ``seeds[i]`` (most-recent-first, as ``m_hist``).
    Every step builds the polynomials of all runs over the shared
    :func:`_step_plan`, term by term in table order, and solves and selects
    the roots of degree 1 and 2 in closed form with the rounding of the
    scalar path, so each run's inputs equal :func:`run`'s bit for bit.  A
    run whose polynomial at a step has another degree, or non-finite
    coefficients or roots, takes the scalar step.  Returns (m, errors): the
    inputs, one row per run, and the exception raised for each run index
    whose scalar step failed; such a run is not stepped further.
    """
    model = models[0]
    r = np.asarray(r_series, dtype=float)
    n_runs, n = len(models), len(r)
    cols = [np.array([s[j] for s in seeds], dtype=float) for j in range(hist_depth(model))]
    coef_cols = np.asarray(coefs, dtype=float).T.copy()
    terms, size = _step_plan(model)
    hysteretic = model.is_hysteretic()
    loading = np.arange(2 * n_runs) < n_runs if hysteretic else None
    bounds = tuple(model.input_range)
    r_ext, j = _reference(r, model)
    out = np.empty((n_runs, n))
    errors = {}
    for k in range(n):
        m_prev = cols[0]
        r_hist = [r_ext[j + k - lag] for lag in range(1, model.max_y_lag() + 1)]
        p = np.zeros((size, 2 * n_runs if hysteretic else n_runs))
        load, unload = p[:, :n_runs], p[:, n_runs:]
        for coef, (_, known, xpow, d, flip) in zip(coef_cols, terms):
            part = [term_values(coef, known, r_hist, cols)]
            for _ in range(d):  # times (x - m_prev)
                part = [a - b * m_prev for a, b in zip([0.0] + part, part + [0.0])]
            for i, c in enumerate(part, xpow):
                load[i] += c
                if flip:
                    unload[i] -= c
                elif hysteretic:
                    unload[i] += c
        p[0] -= r_ext[j + k]
        if hysteretic:
            both = np.concatenate([m_prev, m_prev])
            x, found, closed = _select_lockstep(p, both, bounds, loading)
            m_load, m_unload = x[:n_runs], x[n_runs:]
            f_load, f_unload = found[:n_runs], found[n_runs:]
            d_load, d_unload = np.abs(m_load - m_prev), np.abs(m_unload - m_prev)
            take_load = f_load & (~f_unload | (d_load < d_unload)
                                  | ((d_load == d_unload) & (m_load <= m_unload)))
            m = np.where(take_load, m_load, np.where(f_unload, m_unload, m_prev))
            slow = ~(closed[:n_runs] & closed[n_runs:])
        else:
            x, found, closed = _select_lockstep(p, m_prev, bounds, None)
            m, slow = np.where(found, x, m_prev), ~closed
        for i in np.flatnonzero(slow):
            if i in errors:
                continue
            session = CompensationSession(models[i], [float(c[i]) for c in cols])
            try:
                m[i] = _step(session, _step_kernel(models[i]), r_ext, j + k)
            except Exception as e:
                errors[i] = e
        out[:, k] = m
        cols.insert(0, m)
        cols.pop()
    return out, errors
