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

from dataclasses import dataclass
from functools import lru_cache, partial

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
    indented,
    kernel_coefficients,
    kernel_factor,
    kernel_shift,
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

# Regime members as module globals: reading them off the class costs about
# ten times as much, and the step loop tests them on every step
LOADING, UNLOADING = Regime.LOADING, Regime.UNLOADING


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
    seeded (see :func:`init_history`) before :func:`run`.  ``r`` is
    attached by :func:`run`; indices past either end of the reference clamp
    to the nearest sample, so r(-1) = r(0).
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
    """How many past inputs the per-step polynomials can reference: the
    model's input history past the delay, at least one."""
    return max(model.u_depth - model.tau_d, 1)


def _clamped(r, start, stop):
    """r(start) ... r(stop - 1) as a list, indices past either end of ``r``
    clamped to the nearest sample."""
    n = len(r)
    idx = np.clip(np.arange(start, stop), 0, n - 1)
    return np.asarray(r, dtype=float)[idx].tolist() if n else []


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
    coeffs = static_rows(model, model.coefficients, "u", r_bar, [0.0] * (model.ell + 1))
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
def solve_static_lockstep(model, coefs, r_bar, runs=None):
    """:func:`solve_static` of ``r_bar`` for copies of ``model`` carrying the
    coefficients ``coefs``, one row per column; ``r_bar`` is one level or
    one per column.

    Where the compensation, static and characteristic polynomials all have
    real closed-form roots the columns are solved together, bit for bit as
    :func:`solve_static` solves them; the other columns call it.  Returns
    (m_bar, errors): one input per column, and the exception raised for
    each column index that has none.  ``runs`` labels the columns: a column
    the closed form leaves without an input, whose label already failed at
    a lower column index, gets that exception instead of being solved.
    """
    n_cols = len(coefs)
    r_bar = np.broadcast_to(np.asarray(r_bar, dtype=float), (n_cols,))
    m_bar = np.zeros(n_cols)
    closed = np.zeros(n_cols, dtype=bool)
    found = np.zeros(n_cols, dtype=bool)
    lo, hi = model.output_range
    span = hi - lo
    r_lo, r_hi = model.output_band()
    if not model.is_hysteretic():
        cols = np.asarray(coefs, dtype=float).T
        p = static_rows(model, cols, "u", r_bar, np.zeros((model.ell + 1, n_cols)))
        p[0] -= r_bar
        closed, degree, roots = poly.lockstep_roots(p)
        closed &= (r_lo <= r_bar) & (r_bar <= r_hi)  # solve_static rejects the rest
        u_lo, u_hi = model.input_range
        for slot, x in enumerate(roots):
            cand = (u_lo <= x) & (x <= u_hi) & (degree > slot)
            if not cand.any():
                continue
            good, fp_closed = stable_fixed_point_lockstep(model, cols, x, r_bar, 1e-6 * span)
            closed &= fp_closed | ~cand
            good &= cand
            # min over the admissible roots by (|m|, m); the first wins ties
            better = good & (~found | (np.abs(x) < np.abs(m_bar))
                             | ((np.abs(x) == np.abs(m_bar)) & (x < m_bar)))
            m_bar = np.where(better, x, m_bar)
            found |= good
    errors, failed = {}, {}
    for i in np.flatnonzero(~(closed & found)).tolist():
        label = i if runs is None else runs[i]
        level = float(r_bar[i])
        if label in failed:
            e = failed[label]
        elif closed[i]:
            e = NoFeasibleRoot("no admissible static input for r=%g" % level)
        else:
            try:
                m_bar[i] = solve_static(with_coefficients(model, coefs[i]), level)
                continue
            except Exception as exc:
                e = exc
        errors[i] = failed[label] = e
    return m_bar, errors


@lru_cache(maxsize=256)
def _step_plan(factors, tau):
    """A term structure recast for solving in m(k).

    After the forward shift by the dead time ``tau``, a term is its
    coefficient times known factors -- outputs become references r(k + tau
    - lag), deeper inputs and increments become past compensation inputs --
    times the unknown part x^xpow (x - m(k-1))^d, where x = m(k) and d =
    m(k) - m(k-1) comes from phi1 at lag tau.  An odd power of phi2 at lag
    tau is sign(d): +1 on the loading branch and -1 on the unloading
    branch, so it only flips the term's sign there.  Returns per term
    (known, xpow, d, flip), ``known`` holding (kind, lag, power) entries
    whose lags index the reference window and ``m_hist`` the way
    :func:`narxcomp.model.one_step` reads its histories.
    """
    terms = []
    for term in factors:
        known = []
        xpow = d = flip = 0
        for kind, lag, power in term:
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
        terms.append((tuple(known), xpow, d, flip))
    return tuple(terms)


def _step_lines(terms, m, branches):
    """Unindented source adding each term of the step-k equation into the
    sums ``L<i>`` (loading) and ``U<i>`` (unloading) of the powers x^i,
    x = m(k), and the slots i that some term reaches.

    ``terms`` are those of :func:`_step_plan`, ``m % i`` is the source of
    m(k-1-i), ``r[j]`` is r(k + tau_d), and the local ``mp`` must hold
    m(k-1); ``branches`` is "LU", or "L" for the loading sums alone.  Per
    term in order the known factors multiply the coefficient ``c<i>``, a zero
    product is skipped, the rest is expanded times (x - m(k-1))^d as [0.0]
    + part and part + [0.0] combine, and added to each sum, negated on the
    unloading branch where the term flips.
    """
    shared = {}
    body = []
    slots = {0}
    for i, (known, xpow, d, flip) in enumerate(terms):
        t = ["c%d" % i] + [
            kernel_factor(kind, lag, power, "r[j - %d]" % lag, m, shared)
            for kind, lag, power in known
        ]
        body += ["t = " + " * ".join(t), "if t != 0.0:"]
        part = ["t"]
        for level in range(1, d + 1):  # times (x - m_prev)
            names = ["d%d_%d" % (level, n) for n in range(len(part) + 1)]
            for name, a, b in zip(names, ["0.0"] + part, part + ["0.0"]):
                body.append("    %s = %s - %s * mp" % (name, a, b))
            part = names
        for slot, c in enumerate(part, xpow):
            slots.add(slot)
            body.append("    L%d += %s" % (slot, c))
            if "U" in branches:
                body.append("    U%d += %s%s" % (slot, "-" if flip else "", c))
    return list(shared.values()) + body, sorted(slots)


#: Where a branch's root must lie against m(k-1): C3 loading, C4 unloading.
_SIDE = {"LOADING": " and {0} > mp", "UNLOADING": " and {0} < mp", "None": ""}


def _pick_lines(p, branch, x, e):
    """Unindented source setting ``x`` to the root :func:`_solve` picks for
    the step polynomial with coefficient sources ``p`` (constant first,
    "0.0" in the slots no term reaches) and ``e`` to its residual; ``x`` is
    HOLD when no root is admissible, and ``e`` is then not to be read.

    ``branch`` is the source of the Regime, or "None"; the locals ``mp``,
    ``bounds``, ``lo`` and ``hi`` must hold m(k-1) and the input range.  A
    finite list whose degree under the ``LEADING_ZERO_RTOL`` rule is 1, or
    2 with a discriminant in (0, inf), is solved here, with the degree rule
    unrolled over the reachable slots.  Its roots are real, computed as
    :func:`narxcomp.poly.solve_roots` computes them.  The nearer of two
    admissible roots wins by (|x - m(k-1)|, x), the first on a tie, as in
    :func:`select_root`.  The residual is Horner's from the top reachable
    slot; starting from 0.0, as :func:`_solve` does, changes only the sign
    of a zero, which ``abs`` drops.  Every other list (an inf or NaN
    coefficient or sum, a complex or double root, degree 3 and up) makes
    one :func:`_solve` call.
    """
    c = ["a"] + list(p[1:])
    live = [i for i, ci in enumerate(c) if ci != "0.0"]
    admit = ("lo <= {0} <= hi" + _SIDE[branch]).format
    horner = c[live[-1]]
    for ci in reversed(c[:live[-1]]):
        horner = "(%s) * %s + %s" % (horner, x, ci)
    residual = "%s = abs(%s) / (1.0 + big)" % (e, horner)
    lines = ["a = " + p[0], "t = " + " + ".join(c[i] for i in live),
             "if t - t == 0.0:", "    big = abs(a)"]
    for i in live[1:]:
        lines += ["    b%d = abs(%s)" % (i, c[i]), "    if b%d > big:" % i, "        big = b%d" % i]
    lines.append("    tol = LEADING_ZERO_RTOL * big")
    general = "".join(" or b%d > tol" % i for i in live if i > 2)
    if 2 in live:
        lines.append("    disc = %s * %s - 4.0 * %s * a" % (c[1], c[1], c[2]))
        general += " or b2 > tol and not 0.0 < disc < inf"
    lines += ["%s = HOLD" % x, "if t - t != 0.0%s:" % general,
              "    %s, %s = _solve(mp, bounds, %s, %s)" % (x, e, branch, ", ".join(c))]
    if 2 in live:
        lines += ["elif b2 > tol:", "    sq = sqrt(disc)"]
        lines += ["    x%d = (-%s %s sq) / (2.0 * %s)" % (n, c[1], sign, c[2])
                  for n, sign in ((1, "+"), (2, "-"))]
        lines += ["    if %s:" % admit("x1"), "        %s = x1" % x,
                  "    if %s and (%s is HOLD or (abs(x2 - mp), x2) < (abs(x1 - mp), x1)):"
                  % (admit("x2"), x), "        %s = x2" % x,
                  "    if %s is not HOLD:" % x, "        " + residual]
    if 1 in live:
        lines += ["elif b1 > tol:", "    x1 = -a / %s" % c[1], "    if %s:" % admit("x1"),
                  "        %s = x1" % x, "        " + residual]
    return lines


#: The names the generated compensation source reads besides its arguments.
_KERNEL_IMPORTS = [
    "from math import inf, sqrt",
    "from %s import LEADING_ZERO_RTOL" % poly.__name__,
    "from %s import HOLD, LOADING, UNLOADING, _solve" % __name__,
]


def _step_source(factors, tau, hysteretic, depth):
    """The locals ``ms`` holding m(k-1), m(k-2), ..., the unindented source
    of one step's coefficient sums from :func:`_step_lines`, and per branch,
    loading first, the sources of the coefficients of f(...) - r(k + tau_d)
    = 0 in x = m(k) through the last reachable slot, three at least.

    The step reads ``r[j]`` = r(k + tau_d) and the locals ``ms``; it sets
    ``mp`` to m(k-1) and ``rn`` to r(k + tau_d), which comes off the
    constant last.  Only the slots some term reaches are summed; the
    others hold a structural "0.0", which changes neither the degree nor
    the residual.  ``depth`` is :func:`hist_depth`.
    """
    branches = "LU" if hysteretic else "L"
    lines, slots = _step_lines(_step_plan(factors, tau), "m%d", branches)
    ms = ["m%d" % i for i in range(depth)]
    step = ["mp = m0", "%s = 0.0" % " = ".join(b + str(i) for b in branches for i in slots)]
    coefs = [["%s0 - rn" % b] + ["%s%d" % (b, i) if i in slots else "0.0"
                                 for i in range(1, max(3, slots[-1] + 1))] for b in branches]
    return ms, step + lines + ["rn = r[j]"], coefs


@lru_cache(maxsize=256)
def _run_loop(factors, tau, hysteretic, depth):
    """The compensation loop ``kernel(c, r, j, n, session)`` of a term
    structure, generated from :func:`_step_source`; ``depth`` is
    :func:`hist_depth`.

    It runs n steps of :func:`run` on ``session``, the first against the
    reference ``r[j]`` = r(k + tau_d), with m(k-1), m(k-2), ... in locals,
    and returns the inputs as a list.  Per branch, loading first, a step
    sums the coefficients in locals and solves them in the same generated
    source (:func:`_pick_lines`): closed form for degree 1 and 2, one
    :func:`_solve` call for the rest.  The session's steps, holds,
    ``max_residual``, ``branch_state`` and ``m_hist`` are written back when
    the loop ends, also when a step raises.
    """
    ms, step, coefs = _step_source(factors, tau, hysteretic, depth)
    regimes = ("LOADING", "UNLOADING") if hysteretic else ("None",)
    for p, regime, b in zip(coefs, regimes, "LU"):
        step += _pick_lines(p, regime, "x" + b, "e" + b)
    if hysteretic:  # the nearer admissible root; loading wins ties
        step += [
            "if xL is not HOLD and (xU is HOLD or (abs(xL - mp), xL) <= (abs(xU - mp), xU)):",
            "    x, state = xL, LOADING", "    if eL > res:", "        res = eL",
            "elif xU is not HOLD:",
            "    x, state = xU, UNLOADING", "    if eU > res:", "        res = eU",
        ]
    else:
        step += ["if xL is not HOLD:", "    x = xL", "    if eL > res:", "        res = eL"]
    step += ["else:", "    x = mp", "    holds += 1", "append(x)", kernel_shift(ms, "x")]
    return compile_kernel("\n".join(
        _KERNEL_IMPORTS + ["def kernel(c, r, j, n, s):"]
        + indented(kernel_coefficients(factors)
                   + ["%s, = s.m_hist[:%d]" % (", ".join(ms), len(ms)),
                    "bounds = s.bounds", "lo, hi = bounds",
                    "holds, res, state = 0, s.max_residual, s.branch_state",
                    "out = []", "append = out.append", "try:",
                    "    for j in range(j, j + n):"], 1)
        + indented(step, 3)
        + indented(["finally:", "    s.steps += len(out)", "    s.hold_count += holds",
                    "    s.max_residual = res", "    s.branch_state = state",
                    "    s.m_hist[:] = (out[::-1] + s.m_hist)[:len(s.m_hist)]",
                    "return out\n"], 1)
    ))


@lru_cache(maxsize=256)
def _coeff_step(factors, tau, hysteretic, depth):
    """``kernel(c, r, j, m_hist)``: the coefficient lists of
    :func:`_step_source` that one step of :func:`_run_loop` solves, loading
    first, with m(k-1), m(k-2), ... read from ``m_hist``."""
    ms, step, coefs = _step_source(factors, tau, hysteretic, depth)
    return compile_kernel("\n".join(
        ["def kernel(c, r, j, m_hist):"]
        + indented(kernel_coefficients(factors)
                   + ["%s, = m_hist[:%d]" % (", ".join(ms), len(ms))] + step
                   + ["return [%s]\n" % ", ".join("[%s]" % ", ".join(p) for p in coefs)], 1)
    ))


def _run_kernel(model):
    """The model's compensation loop ``loop(r, j, n, session)``: the loop
    of :func:`_run_loop` with the model's coefficients bound."""
    return partial(_run_loop(model.factors, model.tau_d, model.is_hysteretic(),
                             hist_depth(model)), model.coefficients)


def _branch_coeffs(session, k):
    """The coefficient lists of step k of ``session``, loading first, as
    :func:`_coeff_step` gives them, padded with structural zeros to a
    common size."""
    model = session.model
    lags = model.max_y_lag()
    top = k + model.tau_d
    # degree <= ell; branch polynomials carry one trailing zero (criterion 9 reads it)
    size = max([model.ell + 1 + model.is_hysteretic()]
               + [xpow + d + 1 for _, xpow, d, _ in _step_plan(model.factors, model.tau_d)])
    step = _coeff_step(model.factors, model.tau_d, model.is_hysteretic(), hist_depth(model))
    lists = step(model.coefficients, _clamped(session.r, top - lags, top + 1), lags,
                 session.m_hist)
    return [(p + [0.0] * size)[:size] for p in lists]


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
    with ``Regime.UNLOADING`` it must lie strictly below (C4).  The first
    root with the least (|x - m_prev|, x) wins.
    """
    lo, hi = bounds
    best = HOLD
    for x in poly.real_roots(candidates, im_tol):
        if not lo <= x <= hi:
            continue
        if branch is LOADING and not x > m_prev:
            continue
        if branch is UNLOADING and not x < m_prev:
            continue
        if best is HOLD or (abs(x - m_prev), x) < (abs(best - m_prev), best):
            best = x
    return best


def init_dynamic(model, r_at_start):
    """Seed the input history with the static inverse of the first reference."""
    m_bar = solve_static(model, r_at_start)
    return [m_bar] * hist_depth(model)


def init_hysteresis(model, loop, r0, r1):
    """Seed the input history from a traced hysteresis loop: the input
    that would produce r1 on the branch :func:`seed_regime` names."""
    m0 = loop_inverse(loop, r1, seed_regime(r0, r1))
    return [m0] * hist_depth(model)


def init_history(model, r, loop=None):
    """Seed the input history for compensating the reference ``r``: from
    the traced ``loop`` for a hysteretic model (:func:`init_hysteresis`),
    else from the static inverse of r(0) (:func:`init_dynamic`)."""
    if not model.is_hysteretic():
        return init_dynamic(model, float(r[0]))
    if loop is None:
        raise ValueError("a hysteretic model is seeded from a traced loop; none given")
    return init_hysteresis(model, loop, float(r[0]), float(r[1]))


def seed_regime(r0, r1):
    """The branch :func:`init_hysteresis` seeds on: loading when the
    reference starts upward (r1 >= r0, ties load), unloading otherwise."""
    return LOADING if r1 >= r0 else UNLOADING


def _solve(m_prev, bounds, branch, *p):
    """(x, residual) for the step polynomial p[0] + p[1] x + ... through
    :func:`narxcomp.poly.solve_roots` and :func:`select_root`, with the
    scaled residual |p(x)| / (1 + max |p_i|) of that root by Horner;
    (HOLD, 0.0) when no root is admissible or the degree is below 1.  The
    generated loop calls it for the lists it does not solve in closed form
    (:func:`_pick_lines`)."""
    q = AlgebraicPolynomial(p)
    if q.degree() < 1:
        return HOLD, 0.0
    x = select_root(poly.solve_roots(q), m_prev, bounds, branch)
    if x is HOLD:
        return HOLD, 0.0
    return x, abs(poly.evaluate(q, x)) / (1.0 + max(map(abs, p)))


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
    n = len(session.r)
    if not n:
        return np.empty(0)
    r, j = _reference(session.r, session.model)
    return np.array(_run_kernel(session.model)(r, j, n, session))
