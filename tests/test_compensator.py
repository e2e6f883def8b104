"""Compensator construction, root selection, initialization, tracking runs."""

import ast
import functools
import hashlib
import math
import os
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import narxcomp.compensator as comp
import narxcomp.evaluation as ev
import narxcomp.model as narx
import narxcomp.poly as poly
from narxcomp.model import Regime
from narxcomp.poly import RootSet

from test_model import chain, mk, term

HEATER_T1, HEATER_T2, HEATER_T3 = 0.8958185, 0.06393347, -0.01746750


def cubic_hys_model():
    """First-order hysteretic model with a cubic input term.

    y(k) = a y(k-1) + b u(k-1)^3 + c phi1 phi2 u(k-1) + d phi1 phi2 y(k-1)
    """
    a, b, c, d = 0.8, 0.4, 0.2, 0.1
    m = mk(
        [
            term(a, ("y", 1, 1)),
            term(b, ("u", 1, 3)),
            term(c, ("phi1", 1, 1), ("phi2", 1, 1), ("u", 1, 1)),
            term(d, ("phi1", 1, 1), ("phi2", 1, 1), ("y", 1, 1)),
        ],
        ell=3,
    )
    return m, (a, b, c, d)


def session_with_r(model, m_hist, r):
    s = comp.CompensationSession(model=model, m_hist=list(m_hist))
    s.r = np.asarray(r, dtype=float)
    return s


# ---------------------------------------------------------------------------
# hist_depth


def test_hist_depth(heater_model, valve_model, bouc_wen_model):
    assert comp.hist_depth(heater_model) == 1
    assert comp.hist_depth(valve_model) == 1
    assert comp.hist_depth(bouc_wen_model) == 1
    # Deeper input memory: u lags up to 4 with dead time 2 -> m(k-1), m(k-2)
    m = mk([term(1.0, ("u", 4, 1))], n_u=4, tau_d=2)
    assert comp.hist_depth(m) == 2
    # phi1(k-3) needs m(k-2) - m(k-3) with dead time 1
    m = mk([term(1.0, ("phi1", 3, 1))], n_u=1, tau_d=1)
    assert comp.hist_depth(m) == 3


def n_u_hist_depth(model):
    """hist_depth as it was computed from n_u and the phi lags alone."""
    d = max(model.n_u - model.tau_d, 1)
    phi = [lag for term in model.factors for kind, lag, _ in term if kind in ("phi1", "phi2")]
    if phi:
        d = max(d, max(phi) - model.tau_d + 1)
    return d


def test_hist_depth_from_u_depth_keeps_the_bundled_kernels(
        heater_model, bouc_wen_model, bouc_wen_sigma1_model, valve_model):
    for model in (heater_model, bouc_wen_model, bouc_wen_sigma1_model, valve_model):
        depth = n_u_hist_depth(model)
        assert comp.hist_depth(model) == depth
        structure = (model.factors, model.tau_d, model.is_hysteretic(), depth)
        assert comp._run_kernel(model).func.source == comp._run_loop(*structure).source
        assert kernel_sources(model)[2] == comp._coeff_step(*structure).source


def test_a_u_lag_beyond_n_u_is_compensated():
    # u(k-3) with n_u = 1: the free run reads it through u_depth, and the
    # compensation loop must keep m(k-1) and m(k-2) for it too
    m = mk([term(0.5, ("y", 1, 1)), term(1.0, ("u", 1, 1)), term(0.1, ("u", 3, 1))],
           n_u=1, tau_d=1)
    assert comp.hist_depth(m) == 2
    r = np.sin(np.arange(30) / 5.0)
    seed = comp.init_dynamic(m, r[0])
    s = comp.CompensationSession(m, seed)
    x = comp.run(s, r)
    assert s.hold_count == 0
    # each input makes the model equation give the next reference sample
    xs = seed[::-1] + x.tolist()
    for k in range(len(r) - 1):
        y = narx.one_step(m, [r[k]], xs[k + 2::-1])
        assert y == pytest.approx(r[k + 1], abs=1e-12)


def test_session_rejects_short_history(heater_model):
    with pytest.raises(ValueError):
        comp.CompensationSession(model=heater_model, m_hist=[])


# ---------------------------------------------------------------------------
# Static inversion


def test_static_comp_poly_heater(heater_model):
    r = 0.13
    p = comp.static_comp_poly(heater_model, r)
    assert p.coeffs[0] == pytest.approx((HEATER_T1 + HEATER_T3) * r - r, rel=1e-12)
    assert p.coeffs[1] == 0.0
    assert p.coeffs[2] == pytest.approx(HEATER_T2, rel=1e-15)


def test_static_comp_poly_rejects_hysteretic(valve_model):
    with pytest.raises(ValueError):
        comp.static_comp_poly(valve_model, 3.0)


def test_static_comp_poly_identically_zero():
    m = mk([term(1.0, ("y", 1, 1))], ell=1)
    with pytest.raises(comp.IdenticallyZero):
        comp.static_comp_poly(m, 0.0)


def test_static_comp_poly_reports_an_overflow_as_non_finite():
    # 1e-3 * r^2 overflows at r = 1e190; the polynomial has not vanished
    m = mk([term(0.5, ("y", 1, 1)), term(1e-3, ("y", 1, 2)), term(1.0, ("u", 1, 1))],
           ell=2, inp=(-1e200, 1e200), out=(-1e200, 1e200))
    for r_bar in (1e190, math.nan):
        with pytest.raises(narx.NonFinite) as info:
            comp.static_comp_poly(m, r_bar)
        assert str(info.value) == "compensation polynomial is not finite at r=%g" % r_bar
    with pytest.raises(narx.NonFinite):
        comp.solve_static(m, 1e190)
    m_bar, errors = comp.solve_static_lockstep(m, [m.coefficients], 1e190)
    assert isinstance(errors[0], narx.NonFinite)


def test_solve_static_heater_round_trip(heater_model):
    gain = HEATER_T2 / (1.0 - HEATER_T1 - HEATER_T3)
    r = gain * 0.25  # the steady output that u = 0.5 produces
    assert comp.solve_static(heater_model, r) == pytest.approx(0.5, abs=1e-12)


def test_solve_static_prefers_smallest_magnitude():
    # Steady state of y = u^2 + 0.5 y is y = 2 u^2, so r = 2 admits u = +-1;
    # the |m| tie resolves to the smaller signed value.
    m = mk([term(1.0, ("u", 1, 2)), term(0.5, ("y", 1, 1))],
           ell=2, inp=(-4.0, 4.0), out=(0.0, 8.0))
    assert comp.solve_static(m, 2.0) == pytest.approx(-1.0, abs=1e-9)


def test_solve_static_rejects_reference_outside_output_range(heater_model):
    with pytest.raises(ValueError):
        comp.solve_static(heater_model, 1.0)


def test_solve_static_no_feasible_root(heater_model):
    # Achievable only with m > 1, outside the input range.
    with pytest.raises(comp.NoFeasibleRoot):
        comp.solve_static(heater_model, 0.54)


@st.composite
def static_models(draw):
    """A non-hysteretic model: y(k-1) with a coefficient in [0.3, 0.9]; maybe
    y(k-2), y(k-1)^2, y(k-1) u(k-1) and a constant; one to three input
    powers; input range [0, 1] or [-1, 1], output range [-2, 2]."""
    terms = [term(draw(st.floats(0.3, 0.9)), ("y", 1, 1))]
    n_y = 1
    for factors in ([("y", 2, 1)], [("y", 1, 2)], [("y", 1, 1), ("u", 1, 1)], []):
        if draw(st.booleans()):
            terms.append(term(draw(st.floats(-0.5, 0.5)), *factors))
            n_y = max([n_y] + [lag for s, lag, _ in factors if s == "y"])
    powers = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3, unique=True))
    gain = st.floats(0.1, 2.0) | st.floats(-2.0, -0.1)
    terms += [term(draw(gain), ("u", 1, p)) for p in powers]
    inp = draw(st.sampled_from([(0.0, 1.0), (-1.0, 1.0)]))
    return mk(terms, n_y=n_y, ell=3, inp=inp, out=(-2.0, 2.0))


def solve_static_outcome(solve, *args):
    """``repr`` of the solved input, or the type and message of the error."""
    try:
        return repr(float(solve(*args)))
    except Exception as e:
        return (type(e), str(e))


def scalar_solve_static(model, r_bar, rim):
    """Static inversion as a walk over the real roots: of those in the input
    range at which every :func:`narxcomp.model.jacobian_eigen` magnitude is
    below 1 + ``rim``, the least by (|m|, m).  A reference for the lockstep
    path, which decides stability by the Schur-Cohn recursion instead."""
    lo, hi = model.output_range
    r_lo, r_hi = model.output_band()
    if not r_lo <= r_bar <= r_hi:
        raise ValueError("reference %g outside the model output range [%g, %g]"
                         % (r_bar, lo, hi))
    p = comp.static_comp_poly(model, r_bar)
    if p.degree() < 1:
        raise comp.NoFeasibleRoot("compensation polynomial has no roots at r=%g" % r_bar)
    u_lo, u_hi = model.input_range
    good = [m for m in poly.real_roots(poly.solve_roots(p))
            if u_lo <= m <= u_hi
            and all(mag < 1.0 + rim for mag in narx.jacobian_eigen(model, m, r_bar))]
    if not good:
        raise comp.NoFeasibleRoot("no admissible static input for r=%g" % r_bar)
    return min(good, key=lambda m: (abs(m), m))


#: How far from the unit circle a rounded eigenvalue magnitude decides
#: stability.  Closer in, the verdict rests on the last bits of the roots,
#: and jacobian_eigen and the Schur-Cohn recursion may round apart:
#: lambda^2 - 0.8999999999999999 lambda - 0.1 has a root 7.6e-17 below 1,
#: which Schur-Cohn reads as inside and the quadratic formula rounds to 1.0.
RIM = 1e-9


def reference_outcomes(model, r_bar):
    """The outcomes of :func:`scalar_solve_static` with a magnitude within
    ``RIM`` of 1 read as unstable and as stable; away from the unit circle
    the set holds one outcome."""
    return {solve_static_outcome(scalar_solve_static, model, r_bar, rim) for rim in (-RIM, RIM)}


@settings(max_examples=300, deadline=None)
@given(static_models(), st.sampled_from([0.01, 0.1, 0.5]), st.integers(0, 2**32 - 1),
       st.floats(-2.6, 2.6) | st.sampled_from([-2.4, 0.0, 2.4]))
def test_solve_static_lockstep_equals_per_run_solve(model, rel_std, seed, r_bar):
    # the output band is [-2.4, 2.4], so some levels lie outside it
    z = np.random.default_rng(seed).standard_normal((15, len(model.terms)))
    coefs = ev.perturbed_coefficients(model, rel_std, z)
    m_bar, errors = comp.solve_static_lockstep(model, coefs, r_bar)
    assert list(errors) == sorted(errors)
    for i, row in enumerate(coefs):
        want = reference_outcomes(narx.with_coefficients(model, row), r_bar)
        if i in errors:
            got = (type(errors[i]), str(errors[i]))
        else:
            got = repr(float(m_bar[i]))
        assert got in want, i


@settings(max_examples=150, deadline=None)
@given(static_models(), st.sampled_from([0.01, 0.1, 0.5]), st.integers(0, 2**32 - 1),
       st.lists(st.floats(-2.6, 2.6) | st.sampled_from([-2.4, 0.0, 2.4]),
                min_size=1, max_size=4, unique=True))
def test_solve_static_lockstep_ends_a_labelled_run_at_its_first_failing_level(
        model, rel_std, seed, levels):
    # six runs at every level, level-major as the static sweep lays them out
    n = 6
    z = np.random.default_rng(seed).standard_normal((n, len(model.terms)))
    coefs = ev.perturbed_coefficients(model, rel_std, z)
    runs = np.tile(np.arange(n), len(levels))
    calls = []  # (coefficients, level) of each column solved on its own
    solve_column = comp._solve_column
    comp._solve_column = lambda m, p, cols, r, closed: (
        calls.append((tuple(cols[:, 0]), r[0])) or solve_column(m, p, cols, r, closed))
    try:
        m_bar, errors = comp.solve_static_lockstep(
            model, coefs[runs], np.repeat(levels, n), runs)
    finally:
        comp._solve_column = solve_column
    solved = set()
    for i, run in enumerate(runs.tolist()):
        level = levels[i // n]
        earlier = [j for j in range(run, i, n) if j in errors]
        if earlier and i in errors:  # failed at a lower level: not solved again
            assert errors[i] is errors[earlier[0]]
            continue
        if not earlier:
            solved.add((tuple(coefs[run]), level))
        want = reference_outcomes(narx.with_coefficients(model, coefs[run]), level)
        got = (type(errors[i]), str(errors[i])) if i in errors else repr(float(m_bar[i]))
        assert got in want, i
    assert set(calls) <= solved


def test_solve_static_lockstep_solves_complex_eigenvalues_run_by_run(monkeypatch):
    # y = y(k-1) - 0.5 y(k-2) + 0.06 u(k-2)^2: the characteristic polynomial
    # x^2 - x + 0.5 has the complex roots 0.5 +- 0.5 i; the Schur-Cohn
    # verdict decides those runs in lockstep, with no root solved per run
    model = mk([term(1.0, ("y", 1, 1)), term(-0.5, ("y", 2, 1)), term(0.06, ("u", 2, 2))],
               n_y=2, n_u=2, tau_d=2, ell=2, inp=(0.0, 1.0), out=(0.0, 0.15))
    coefs = ev.perturbed_coefficients(
        model, 0.05, np.random.default_rng(7).standard_normal((15, 3)))
    calls = []
    solve_roots = poly.solve_roots
    monkeypatch.setattr(poly, "solve_roots", lambda *a: calls.append(a) or solve_roots(*a))
    solved = {r_bar: comp.solve_static_lockstep(model, coefs, r_bar) for r_bar in (0.01, 0.05)}
    monkeypatch.undo()  # the reference below solves every run's roots
    assert len(calls) == 0
    for r_bar, (m_bar, errors) in solved.items():
        assert not errors
        for i, row in enumerate(coefs):
            want = reference_outcomes(narx.with_coefficients(model, row), r_bar)
            assert want == {repr(float(m_bar[i]))}, i


def test_solve_static_admits_a_root_whose_equilibrium_is_stable():
    # r is an equilibrium at m = 0.9192344696093474 (one step from y = r
    # lands within 3e-15 of it) with |lambda| = 0.74; re-solving the steady
    # state in y for a fixed point near r finds one 4.6e-6 away.  The exact
    # root of the rounded static polynomial, by Newton's method in
    # fractions.Fraction, is 0.91923446960934746331...; the companion-matrix
    # root is 0.53 ulp from it
    model = mk([term(0.468511413382764, ("y", 1, 1)), term(1e-12, ("y", 1, 2)),
                term(0.29541210127022755, ("y", 1, 1), ("u", 1, 1)),
                term(-0.06986102879802891), term(0.1, ("u", 1, 1)),
                term(1.5576824959178293, ("u", 1, 3)), term(-0.9184840253807125, ("u", 1, 2))],
               ell=3, inp=(-1.0, 1.0), out=(-2.0, 2.0))
    r_bar = 1.7537961841140173
    assert repr(comp.solve_static(model, r_bar)) == "0.9192344696093474"
    m_bar, errors = comp.solve_static_lockstep(model, [model.coefficients], r_bar)
    assert not errors
    assert repr(float(m_bar[0])) == "0.9192344696093474"
    assert abs(narx.one_step(model, [r_bar], [m_bar[0]]) - r_bar) < 3e-15


def test_solve_static_rejects_an_equilibrium_continuum():
    # sigma_y = 1: every output is an equilibrium at m = 0, and the
    # characteristic polynomial x^2 - 0.5 x - 0.5 has the root 1
    model = mk([term(0.5, ("y", 1, 1)), term(0.5, ("y", 2, 1)), term(0.1, ("u", 1, 1))],
               n_y=2, ell=1)
    with pytest.raises(comp.NoFeasibleRoot):
        comp.solve_static(model, 0.0)
    m_bar, errors = comp.solve_static_lockstep(model, [model.coefficients], 0.0)
    assert type(errors[0]) is comp.NoFeasibleRoot


def test_static_inversion_of_a_model_without_an_input_has_no_root():
    # ell = 0: the compensation polynomial is the constant 0.5 - r
    model = mk([term(0.5)], ell=0, out=(0.0, 1.0))
    with pytest.raises(comp.NoFeasibleRoot, match="has no roots at r=0.2"):
        comp.solve_static(model, 0.2)
    m_bar, errors = comp.solve_static_lockstep(model, [model.coefficients] * 2, [0.2, 0.5])
    assert [type(e) for e in errors.values()] == [comp.NoFeasibleRoot, comp.IdenticallyZero]


def test_solve_static_rejects_an_equilibrium_with_a_huge_pole():
    # y = 1e300 y(k-1) + 0.3 u(k-1): r = 0 is an equilibrium at m = 0 with the
    # pole 1e300, which the degree rule would trim from lambda - 1e300
    model = mk([term(1e300, ("y", 1, 1)), term(0.3, ("u", 1, 1))], ell=1,
               inp=(-1.0, 1.0), out=(-1.0, 1.0))
    with pytest.raises(comp.NoFeasibleRoot, match="no admissible static input for r=0"):
        comp.solve_static(model, 0.0)


@settings(max_examples=300, deadline=None)
@example(mk([term(0.8999999999999999, ("y", 1, 1)), term(0.1, ("y", 2, 1)),
             term(1.0, ("u", 1, 1))], n_y=2, ell=3, inp=(0.0, 1.0), out=(-2.0, 2.0)), 0.0)
@given(static_models(), st.floats(-2.4, 2.4))
def test_solve_static_returns_a_stable_equilibrium(model, r_bar):
    assert solve_static_outcome(comp.solve_static, model, r_bar) in reference_outcomes(model, r_bar)
    try:
        m_bar = comp.solve_static(model, r_bar)
    except comp.NoFeasibleRoot:
        return
    # rounding of one step at |r| <= 2.4, |m| <= 1 and coefficients up to 2
    # in magnitude: 1.9e-14 at worst over 20,000 examples
    y = narx.one_step(model, [r_bar] * model.n_y, [m_bar] * model.u_depth)
    assert abs(y - r_bar) <= 1e-12
    assert all(mag < 1.0 + RIM for mag in narx.jacobian_eigen(model, m_bar, r_bar))


# ---------------------------------------------------------------------------
# Dynamic (non-hysteretic) per-step polynomial


def test_dynamic_comp_poly_heater_oracle(heater_model):
    r = [0.10, 0.20, 0.30, 0.40]
    s = session_with_r(heater_model, [0.5], r)
    p = comp.dynamic_comp_poly(s, 0)
    # theta1 r(k+1) + theta3 r(k) - r(k+2) + theta2 m^2
    assert p.coeffs[0] == pytest.approx(
        HEATER_T1 * 0.20 + HEATER_T3 * 0.10 - 0.30, rel=1e-12
    )
    assert p.coeffs[1] == 0.0
    assert p.coeffs[2] == pytest.approx(HEATER_T2, rel=1e-15)


def test_dynamic_comp_poly_clamps_reference_ends(heater_model):
    r = [0.10, 0.20, 0.30, 0.40]
    s = session_with_r(heater_model, [0.5], r)
    p = comp.dynamic_comp_poly(s, 2)
    # r(k+2) runs past the series end and clamps to the last sample.
    assert p.coeffs[0] == pytest.approx(
        HEATER_T1 * 0.40 + HEATER_T3 * 0.30 - 0.40, rel=1e-12
    )


def per_sample_clamped(r, start, stop):
    """compensator._clamped as it was written one sample at a time."""
    n = len(r)
    return [float(r[min(max(i, 0), n - 1)]) for i in range(start, stop)] if n else []


@settings(max_examples=300, deadline=None)
@example(r=[], start=-2, stop=3)
@example(r=[-0.0], start=-3, stop=4)
@example(r=[math.nan, math.inf, -math.inf], start=-1, stop=5)
@example(r=[1.0, 2.0], start=5, stop=2)
@given(r=st.lists(st.floats() | st.sampled_from([-0.0, math.nan, math.inf, -math.inf]),
                  max_size=6),
       start=st.integers(-8, 10), stop=st.integers(-8, 10))
def test_clamped_equals_the_per_sample_window(r, start, stop):
    for ref in (r, np.array(r, dtype=float)):
        assert repr(comp._clamped(ref, start, stop)) == repr(per_sample_clamped(ref, start, stop))


def test_dynamic_comp_poly_uses_past_inputs():
    # y(k) = 0.5 u(k-1) + 0.25 u(k-2), dead time 1: u(k-2) is m(k-1), known.
    m = mk([term(0.5, ("u", 1, 1)), term(0.25, ("u", 2, 1))], n_u=2, tau_d=1, ell=1)
    s = session_with_r(m, [0.8], [0.0, 1.0])
    p = comp.dynamic_comp_poly(s, 0)
    assert p.coeffs[0] == pytest.approx(0.25 * 0.8 - 1.0)
    assert p.coeffs[1] == pytest.approx(0.5)


def test_dynamic_comp_poly_rejects_hysteretic(valve_model):
    s = comp.CompensationSession(model=valve_model, m_hist=[3.0])
    s.r = np.zeros(4)
    with pytest.raises(ValueError):
        comp.dynamic_comp_poly(s, 0)


def test_dynamic_comp_poly_unknown_future_input():
    # Structurally inconsistent model: input lag ahead of the dead time.
    m = mk([term(1.0, ("u", 1, 1)), term(0.1, ("u", 2, 1))], n_u=2, tau_d=2)
    s = session_with_r(m, [0.0], [0.0, 0.0, 0.0])
    with pytest.raises(comp.UnknownFutureInput):
        comp.dynamic_comp_poly(s, 0)


# ---------------------------------------------------------------------------
# Hysteretic branch polynomials


def test_branch_polys_cubic_model_hand_expansion():
    model, (a, b, c, d) = cubic_hys_model()
    mp, r, rn = 1.2, 2.0, 2.3
    s = session_with_r(model, [mp], [0.0, r, rn])
    bp = comp.hysteresis_comp_polys(s, 1)
    want_load = [a * r - d * mp * r - rn, -c * mp + d * r, c, b]
    want_unload = [a * r + d * mp * r - rn, c * mp - d * r, -c, b]
    assert bp.pivot == mp
    for got, want in ((bp.loading, want_load), (bp.unloading, want_unload)):
        assert len(got.coeffs) >= 4
        for gc, wc in zip(got.coeffs[:4], want):
            assert abs(gc - wc) < 1e-12
        assert all(gc == 0.0 for gc in got.coeffs[4:])


def test_branch_polys_bouc_wen_hand_expansion(bouc_wen_model):
    t1, t2, t3, t4 = 1.000099, 6.630567e-3, -6.247018e-3, 0.7892915
    mp, r, rn = -3.5, 10.0, 10.4
    s = session_with_r(bouc_wen_model, [mp], [0.0, r, rn])
    bp = comp.hysteresis_comp_polys(s, 1)
    want_load = [t1 * r - t3 * mp * r - t4 * mp - rn, -t2 * mp + t3 * r + t4, t2]
    want_unload = [t1 * r + t3 * mp * r - t4 * mp - rn, t2 * mp - t3 * r + t4, -t2]
    for got, want in ((bp.loading, want_load), (bp.unloading, want_unload)):
        for gc, wc in zip(got.coeffs[:3], want):
            assert abs(gc - wc) < 1e-12
        assert all(gc == 0.0 for gc in got.coeffs[3:])


def test_branch_polys_signed_increment_does_not_flip(bouc_wen_model):
    # The bare phi1 regressor keeps its sign on both branches: only the
    # |phi1| pairs (phi1 phi2) flip between loading and unloading.
    s = session_with_r(bouc_wen_model, [0.0], [0.0, 0.0, 0.0])
    bp = comp.hysteresis_comp_polys(s, 1)
    # with mp = r = rn = 0 only the phi1 coefficient survives in c1
    assert bp.loading.coeffs[1] == pytest.approx(0.7892915)
    assert bp.unloading.coeffs[1] == pytest.approx(0.7892915)


def test_branch_polys_bare_sign_is_plus_minus_one():
    # y(k) = 0.5 y(k-1) + 0.3 phi2(k-1) + u(k-1): the bare sign(d) factor is
    # +1 on the loading branch and -1 on the unloading branch, so each branch
    # polynomial is linear with the true root only; the pivot is no root.
    m = mk([term(0.5, ("y", 1, 1)), term(0.3, ("phi2", 1, 1)), term(1.0, ("u", 1, 1))])
    mp, r, rn = 0.4, 1.0, 2.0
    s = session_with_r(m, [mp], [0.0, r, rn])
    bp = comp.hysteresis_comp_polys(s, 1)
    # Loading: 0.5 r + 0.3 + x - rn = 0; unloading: 0.5 r - 0.3 + x - rn = 0
    for p, root in ((bp.loading, rn - 0.5 * r - 0.3), (bp.unloading, rn - 0.5 * r + 0.3)):
        assert p.degree() == 1
        (got,) = poly.solve_roots(p).roots
        assert got == pytest.approx(root, abs=1e-12)
    assert poly.evaluate(bp.loading, mp) == pytest.approx(-0.8, abs=1e-12)
    assert poly.evaluate(bp.unloading, mp) == pytest.approx(-1.4, abs=1e-12)


def test_run_bare_sign_model_satisfies_model_equation():
    # Self-tracking of a model with a bare phi2 term: every step that does
    # not hold must solve the model equation itself, not a polynomial with
    # a root planted at the previous input.
    m = mk(
        [term(0.5, ("y", 1, 1)), term(0.3, ("phi2", 1, 1)), term(1.0, ("u", 1, 1)),
         term(0.2, ("u", 1, 2))],
        inp=(-10.0, 10.0), out=(-5.0, 5.0),
    )
    k = np.arange(400)
    r = 2.0 * np.sin(2.0 * np.pi * k / 100.0)
    session = comp.CompensationSession(model=m, m_hist=[0.0])
    mm = comp.run(session, r)
    prev = np.concatenate([[0.0], mm[:-1]])
    solved = mm != prev  # strict C3/C4: a solved step never equals m(k-1)
    assert solved.sum() == session.steps - session.hold_count > 200
    for i in np.flatnonzero(solved[:-1]):
        got = narx.one_step(m, [r[i]], [mm[i], prev[i]])
        assert abs(got - r[i + 1]) <= 1e-9, (i, got, r[i + 1])


def test_branch_polys_evaluate_like_the_model(valve_model):
    # For any candidate m and the matching branch sign, the branch polynomial
    # value equals f(r-history, m-history) - r(k+tau): construction agrees
    # with direct model evaluation, term for term.
    mp, r0, r, rn = 3.2, 2.9, 3.0, 3.1
    s = session_with_r(valve_model, [mp], [r0, r, rn])
    bp = comp.hysteresis_comp_polys(s, 1)
    for m_k in (mp + 0.25, mp + 1.1):  # loading candidates
        # valve: tau_d=1 -> y(k-1)->r(k), y(k-2)->r(k-1), u(k-1)->m_k
        direct = narx.one_step(valve_model, [r, r0], [m_k, mp]) - rn
        assert poly.evaluate(bp.loading, m_k) == pytest.approx(direct, abs=1e-12)
    for m_k in (mp - 0.25, mp - 1.1):  # unloading candidates
        direct = narx.one_step(valve_model, [r, r0], [m_k, mp]) - rn
        assert poly.evaluate(bp.unloading, m_k) == pytest.approx(direct, abs=1e-12)


def test_branch_polys_expand_increment_powers():
    # phi1(k-1)^2 and phi1(k-1)^3 phi2(k-1) expand into powers of
    # (x - m(k-1)); the quartic term fits ell = 4.
    m = mk([term(0.9, ("y", 1, 1)), term(0.5, ("phi1", 1, 2)),
            term(-0.2, ("phi1", 1, 3), ("phi2", 1, 1)), term(1.0, ("u", 1, 1))], ell=4)
    assert narx.validate(m) == []
    mp, r, rn = 0.7, 1.1, 1.6
    s = session_with_r(m, [mp], [0.0, r, rn])
    bp = comp.hysteresis_comp_polys(s, 1)
    for p, candidates in ((bp.loading, (mp + 0.3, mp + 1.2)),
                          (bp.unloading, (mp - 0.3, mp - 1.2))):
        for m_k in candidates:
            direct = narx.one_step(m, [r], [m_k, mp]) - rn
            assert poly.evaluate(p, m_k) == pytest.approx(direct, abs=1e-12)


def test_branch_polys_deep_phi_lag_uses_history():
    # phi1(k-2) with dead time 1 evaluates to m(k-1) - m(k-2), a known value.
    m = mk([term(0.5, ("y", 1, 1)), term(2.0, ("phi1", 2, 1)),
            term(1.0, ("phi1", 1, 1), ("phi2", 1, 1))], n_u=1, tau_d=1)
    s = session_with_r(m, [1.0, 0.7], [0.0, 0.0, 0.0])
    bp = comp.hysteresis_comp_polys(s, 1)
    # With r = rn = 0 the equation reads 2 (m(k-1) - m(k-2)) +- (x - m(k-1)),
    # i.e. 0.6 + (x - 1) on loading and 0.6 - (x - 1) on unloading.
    assert poly.evaluate(bp.loading, 1.5) == pytest.approx(0.6 + 0.5, abs=1e-12)
    assert poly.evaluate(bp.unloading, 0.5) == pytest.approx(0.6 + 0.5, abs=1e-12)


def test_branch_polys_reject_phi_ahead_of_dead_time():
    m = mk([term(1.0, ("phi1", 1, 1)), term(0.5, ("y", 1, 1))], n_u=2, tau_d=2)
    s = session_with_r(m, [0.0], [0.0, 0.0, 0.0])
    with pytest.raises(comp.UnsupportedStructure):
        comp.hysteresis_comp_polys(s, 0)


def test_branch_polys_reject_non_hysteretic(heater_model):
    s = session_with_r(heater_model, [0.5], [0.1, 0.1, 0.1])
    with pytest.raises(ValueError):
        comp.hysteresis_comp_polys(s, 0)


# ---------------------------------------------------------------------------
# Root selection


def test_select_root_requires_real(bounds=(-10.0, 10.0)):
    rs = RootSet([1.0 + 0.5j, 2.0 + 3.0j], "iterative")
    assert comp.select_root(rs, 0.0, bounds) is comp.HOLD


def test_select_root_respects_bounds():
    rs = RootSet([5.0 + 0j, -5.0 + 0j], "analytic")
    assert comp.select_root(rs, 0.0, (-1.0, 1.0)) is comp.HOLD
    assert comp.select_root(rs, 0.0, (-6.0, 6.0)) == pytest.approx(-5.0)


def test_select_root_picks_nearest_to_previous():
    rs = RootSet([0.2 + 0j, 0.9 + 0j], "analytic")
    assert comp.select_root(rs, 0.85, (0.0, 1.0)) == pytest.approx(0.9)
    assert comp.select_root(rs, 0.3, (0.0, 1.0)) == pytest.approx(0.2)


def test_select_root_tie_breaks_to_smaller_value():
    rs = RootSet([0.4 + 0j, 0.6 + 0j], "analytic")
    assert comp.select_root(rs, 0.5, (0.0, 1.0)) == pytest.approx(0.4)


def test_select_root_branch_constraints_are_strict():
    rs = RootSet([0.5 + 0j], "analytic")
    assert comp.select_root(rs, 0.5, (0.0, 1.0), Regime.LOADING) is comp.HOLD
    assert comp.select_root(rs, 0.5, (0.0, 1.0), Regime.UNLOADING) is comp.HOLD
    assert comp.select_root(rs, 0.4, (0.0, 1.0), Regime.LOADING) == pytest.approx(0.5)
    assert comp.select_root(rs, 0.4, (0.0, 1.0), Regime.UNLOADING) is comp.HOLD
    assert comp.select_root(rs, 0.6, (0.0, 1.0), Regime.UNLOADING) == pytest.approx(0.5)


def test_select_root_im_tol():
    rs = RootSet([0.5 + 1e-12j], "iterative")
    assert comp.select_root(rs, 0.0, (0.0, 1.0)) == pytest.approx(0.5)
    rs = RootSet([0.5 + 1e-3j], "iterative")
    assert comp.select_root(rs, 0.0, (0.0, 1.0)) is comp.HOLD


def test_hold_is_a_singleton_sentinel():
    assert repr(comp.HOLD) == "HOLD"
    assert comp.HOLD is not None


# ---------------------------------------------------------------------------
# Initialization


def test_init_dynamic_seeds_static_inverse(heater_model):
    gain = HEATER_T2 / (1.0 - HEATER_T1 - HEATER_T3)
    r0 = gain * 0.25
    seeds = comp.init_dynamic(heater_model, r0)
    assert seeds == pytest.approx([0.5])


def test_init_hysteresis_picks_branch(valve_model, valve_loop):
    lo, hi = valve_loop.y_span()
    t = 0.5 * (lo + hi)
    up = comp.init_hysteresis(valve_model, valve_loop, t - 0.1, t)
    down = comp.init_hysteresis(valve_model, valve_loop, t + 0.1, t)
    assert len(up) == comp.hist_depth(valve_model)
    assert up[0] == pytest.approx(narx.loop_inverse(valve_loop, t, Regime.LOADING))
    assert down[0] == pytest.approx(narx.loop_inverse(valve_loop, t, Regime.UNLOADING))
    assert up[0] != pytest.approx(down[0], abs=1e-3)
    # A flat start counts as loading.
    flat = comp.init_hysteresis(valve_model, valve_loop, t, t)
    assert flat[0] == up[0]


def test_init_history_seeds_each_model_kind_as_before(
        heater_model, bouc_wen_model, bouc_wen_sigma1_model, valve_model, bouc_wen_loop,
        valve_loop):
    r = np.array([0.2, 0.25])
    want = comp.init_dynamic(heater_model, 0.2)
    assert repr(comp.init_history(heater_model, r)) == repr(want)
    assert repr(comp.init_history(heater_model, r, valve_loop)) == repr(want)
    sigma1_loop = narx.hysteresis_loop(bouc_wen_sigma1_model, 50.0, 0.001, 0.0)
    for model, loop, r0, r1 in ((bouc_wen_model, bouc_wen_loop, 10.0, 12.0),
                                (bouc_wen_model, bouc_wen_loop, 12.0, 10.0),
                                (bouc_wen_sigma1_model, sigma1_loop, 0.0, 0.0),
                                (valve_model, valve_loop, 3.0, 2.9)):
        got = comp.init_history(model, np.array([r0, r1, 7.0]), loop)
        assert repr(got) == repr(comp.init_hysteresis(model, loop, r0, r1))
    with pytest.raises(ValueError, match="seeded from a traced loop; none given"):
        comp.init_history(bouc_wen_model, np.array([10.0, 12.0]))


# ---------------------------------------------------------------------------
# Whole-trajectory runs


def test_run_tracks_heater_model_as_plant(heater_model):
    n = 400
    k = np.arange(n)
    r = 0.25 + 0.15 * np.sin(2 * np.pi * 0.002 * k)
    session = comp.CompensationSession(
        model=heater_model, m_hist=comp.init_dynamic(heater_model, r[0])
    )
    m = comp.run(session, r)
    assert session.hold_count == 0
    assert session.max_residual < 1e-9
    assert np.all((m >= 0.0) & (m <= 1.0))
    # Feeding the computed inputs back through the model reproduces the
    # reference once the mismatch between the assumed and actual initial
    # output history has decayed (dominant pole 0.876 -> ~1e-6 by k=100).
    y = narx.simulate_free_run(heater_model, np.concatenate([[m[0], m[0]], m]),
                               y_init=[r[0], r[0]])[2:]
    err = np.abs(y - r)[100:]
    assert np.max(err) < 1e-6


def test_run_counts_holds_on_unreachable_reference(heater_model):
    # The heater cannot reach 0.54 with u <= 1; those steps must hold.
    n = 120
    r = np.full(n, 0.52)
    r[:10] = np.linspace(0.13, 0.52, 10)
    session = comp.CompensationSession(
        model=heater_model, m_hist=comp.init_dynamic(heater_model, r[0])
    )
    m = comp.run(session, r)
    assert session.hold_count > 0
    assert 0.0 < session.hold_rate() <= 1.0
    assert np.all((m >= 0.0) & (m <= 1.0))
    # Held steps repeat the previous input verbatim.
    assert len(m) == n


def test_run_sets_branch_state(bouc_wen_model, bouc_wen_loop):
    k = np.arange(300)
    r = 20.0 * np.sin(2 * np.pi * 0.01 * k + np.pi / 2)
    seeds = comp.init_hysteresis(bouc_wen_model, bouc_wen_loop, r[0], r[1])
    session = comp.CompensationSession(model=bouc_wen_model, m_hist=seeds)
    m = comp.run(session, r)
    assert session.branch_state in (Regime.LOADING, Regime.UNLOADING)
    assert session.steps == 300
    assert np.all(np.abs(m) <= 80.0)
    # The reference starts at its crest and falls: early steps unload.
    assert m[2] < m[1] or m[1] < m[0]


def test_run_hysteretic_tracks_model_as_plant(bouc_wen_model, bouc_wen_loop):
    n = 300
    k = np.arange(n)
    r = 20.0 * np.sin(2 * np.pi * 0.01 * k + np.pi / 2)
    seeds = comp.init_hysteresis(bouc_wen_model, bouc_wen_loop, r[0], r[1])
    session = comp.CompensationSession(model=bouc_wen_model, m_hist=seeds)
    m = comp.run(session, r)
    assert session.max_residual < 1e-9
    y = narx.simulate_free_run(
        bouc_wen_model, np.concatenate([[seeds[0]], m]), y_init=[r[0]]
    )[1:]
    # The output-coefficient sum sits a hair above one, so the small seed
    # offset decays only through the hysteretic damping: exactness per
    # sample is unattainable, but tracking stays well under 0.1% of span.
    err = np.abs(y - r)[2:]
    assert np.max(err) < 0.01
    assert np.mean(err) / 40.0 < 1e-4


# ---------------------------------------------------------------------------
# Generated kernels


def expand_terms(model, r, k, m_hist):
    """Loading and unloading coefficients of the step-k equation in m(k),
    expanded term by term from the Term and Factor objects."""
    tau = model.tau_d
    mp = m_hist[0]

    def ref(i):
        return float(r[min(max(i, 0), len(r) - 1)])

    parts = []
    for t in model.terms:
        scalar, xpow, d, flip = t.coefficient, 0, 0, 0
        for f in t.factors:
            lag = f.lag - tau  # after the forward shift by tau_d
            if f.signal is narx.Signal.OUTPUT_Y:
                scalar *= chain(ref(k + tau - f.lag), f.power)
            elif lag == 0 and f.signal is narx.Signal.INPUT_U:
                xpow += f.power
            elif lag == 0 and f.signal is narx.Signal.PHI1:
                d += f.power
            elif lag == 0:
                flip += f.power
            else:
                x = m_hist[lag - 1]
                if f.signal is not narx.Signal.INPUT_U:
                    x = m_hist[lag - 1] - m_hist[lag]
                    if f.signal is narx.Signal.PHI2:
                        x = (x > 0.0) - (x < 0.0)
                scalar *= chain(x, f.power)
        parts.append((scalar, xpow, d, flip % 2))
    size = max([model.ell + 1 + model.is_hysteretic()] + [x + d + 1 for _, x, d, _ in parts])
    load, unload = [0.0] * size, [0.0] * size
    for scalar, xpow, d, flip in parts:
        if scalar == 0.0:
            continue
        part = [scalar]
        for _ in range(d):  # times (x - m(k-1))
            part = [a - b * mp for a, b in zip([0.0] + part, part + [0.0])]
        for i, c in enumerate(part, xpow):
            load[i] += c
            unload[i] += -c if flip else c
    load[0] -= ref(k + tau)
    unload[0] -= ref(k + tau)
    return load, unload


# few distinct values, so that equal neighbours (sign(0) = 0) are common
HIST = st.sampled_from([-1.5, -0.25, 0.0, 0.5, 2.0])
# (kind, lag offset, power): inputs and increments lag tau_d + offset,
# outputs 1 + offset
STEP_FACTORS = st.tuples(
    st.sampled_from(["y", "u", "phi1", "phi2"]), st.integers(0, 3), st.integers(1, 3)
)
STEP_TERMS = st.one_of(
    st.lists(STEP_FACTORS, max_size=3),
    st.just([("phi2", 0, 1)]),  # bare sign at the dead-time lag
    st.integers(1, 3).map(lambda d: [("phi1", 0, d), ("phi2", 0, 1)]),
)


@st.composite
def step_models(draw, term_factors=STEP_TERMS, taus=st.integers(1, 3)):
    tau = draw(taus)
    terms = draw(st.lists(
        st.tuples(st.floats(-2.0, 2.0) | st.just(0.0), term_factors), min_size=1, max_size=5
    ))
    factors = [
        [(s, 1 + off if s == "y" else tau + off, p) for s, off, p in fs] for _, fs in terms
    ]
    return mk(
        [term(c, *fs) for (c, _), fs in zip(terms, factors)],
        n_y=max([lag for fs in factors for s, lag, _ in fs if s == "y"], default=1),
        n_u=max([tau] + [lag for fs in factors for s, lag, _ in fs if s == "u"]),
        tau_d=tau,
        ell=max(1, max(sum(p for *_, p in fs) for fs in factors)),
    )


# phi1 at the dead-time lag, squared and times y, and a deeper phi1: each
# expansion level takes 0.0 * m(k-1), which is NaN for an infinite m(k-1)
NON_FINITE_STEP_MODEL = mk([term(0.9, ("y", 1, 1)), term(0.4, ("phi1", 1, 2), ("phi2", 1, 1)),
                            term(0.3, ("phi1", 2, 1), ("u", 1, 1)),
                            term(0.2, ("phi1", 1, 1), ("y", 1, 1))], n_u=2, ell=3)


@settings(max_examples=300, deadline=None)
@example(model=NON_FINITE_STEP_MODEL, m_hist=[math.inf, 0.5] + [0.0] * 4, r=[0.5, 1.0], k=0)
@example(model=NON_FINITE_STEP_MODEL, m_hist=[-math.inf, 0.5] + [0.0] * 4, r=[0.5, 1.0], k=0)
@example(model=NON_FINITE_STEP_MODEL, m_hist=[math.nan, 0.5] + [0.0] * 4, r=[0.5, 1.0], k=0)
@example(model=NON_FINITE_STEP_MODEL, m_hist=[0.5, math.inf] + [0.0] * 4, r=[0.5, 1.0], k=0)
@given(step_models(), st.lists(HIST, min_size=6, max_size=6),
       st.lists(HIST | st.floats(-3.0, 3.0), min_size=1, max_size=6), st.integers(0, 7))
def test_step_kernel_equals_term_expansion(model, m_hist, r, k):
    s = session_with_r(model, m_hist[:comp.hist_depth(model)], r)
    load, unload = expand_terms(model, r, k, s.m_hist)
    if model.is_hysteretic():
        bp = comp.hysteresis_comp_polys(s, k)
        got = (bp.loading.coeffs, bp.unloading.coeffs)
    else:
        p = comp.dynamic_comp_poly(s, k)
        got = (p.coeffs, p.coeffs)
    # repr tells signed zeros apart
    assert repr(got) == repr((tuple(load), tuple(unload)))


def reference_run(model, seeds, r, s=None):
    """:func:`comp.run` step by step through the polynomial builders,
    ``solve_roots`` and ``select_root``; returns m and the session, which
    may be passed in as ``s``."""
    s = s or session_with_r(model, seeds, r)
    out = []

    def pick(p, m_prev, branch):
        if p.degree() < 1:
            return comp.HOLD
        return comp.select_root(poly.solve_roots(p), m_prev, s.model.input_range, branch)

    def note(p, m):
        res = abs(poly.evaluate(p, m)) / (1.0 + max(abs(c) for c in p.coeffs))
        s.max_residual = max(s.max_residual, res)

    for k in range(len(r)):
        m_prev = s.m_hist[0]
        m = comp.HOLD
        if model.is_hysteretic():
            bp = comp.hysteresis_comp_polys(s, k)
            up = pick(bp.loading, m_prev, Regime.LOADING)
            down = pick(bp.unloading, m_prev, Regime.UNLOADING)
            if up is not comp.HOLD and (
                down is comp.HOLD
                or (abs(up - m_prev), up) <= (abs(down - m_prev), down)
            ):
                m, s.branch_state = up, Regime.LOADING
                note(bp.loading, m)
            elif down is not comp.HOLD:
                m, s.branch_state = down, Regime.UNLOADING
                note(bp.unloading, m)
        else:
            p = comp.dynamic_comp_poly(s, k)
            m = pick(p, m_prev, None)
            if m is not comp.HOLD:
                note(p, m)
        if m is comp.HOLD:
            m = m_prev
            s.hold_count += 1
        s.steps += 1
        s.m_hist = [m] + s.m_hist[:-1]
        out.append(m)
    return np.array(out), s


def phi1_squared_model():
    """y(k) = 0.9 y(k-1) + 0.4 u(k-1) + 0.05 phi1(k-1)^2 u(k-1): the
    branch polynomials are cubic in m(k)."""
    return mk([term(0.9, ("y", 1, 1)), term(0.4, ("u", 1, 1)),
               term(0.05, ("phi1", 1, 2), ("u", 1, 1)),
               term(0.02, ("phi1", 1, 1), ("phi2", 1, 1))], ell=3)


def run_outcome(run):
    """(m as bytes, None) or (None, (exception type, message))."""
    try:
        return run().tobytes(), None
    except Exception as e:
        return None, (type(e), str(e))


def run_state(s):
    # repr tells signed zeros apart
    return repr((s.steps, s.hold_count, s.max_residual, s.branch_state, s.m_hist))


def assert_run_equals_reference(model, seeds, r):
    """:func:`comp.run` and :func:`reference_run` agree bit for bit: m, or
    the exception raised, and the session's steps, holds, max_residual,
    branch_state and m_hist.  Returns the session."""
    ref = session_with_r(model, seeds, r)
    want = run_outcome(lambda: reference_run(model, seeds, r, ref)[0])
    s = comp.CompensationSession(model=model, m_hist=list(seeds))
    assert run_outcome(lambda: comp.run(s, r)) == want
    assert run_state(s) == run_state(ref)
    return s


@pytest.mark.parametrize("case", ["heater", "bouc_wen", "cubic", "phi1_squared"])
def test_run_equals_select_root_loop(case, heater_model, bouc_wen_model, bouc_wen_loop):
    k = np.arange(240)
    if case == "heater":
        model = heater_model
        r = 0.3 + 0.25 * np.sin(2 * np.pi * k / 80.0)  # peaks past what u <= 1 reaches
        seeds = comp.init_dynamic(model, r[0])
    elif case == "bouc_wen":
        model = bouc_wen_model
        r = 30.0 * np.sin(2 * np.pi * k / 60.0 + np.pi / 2)
        r[150:170] = 200.0  # out of reach: holds
        seeds = comp.init_hysteresis(model, bouc_wen_loop, r[0], r[1])
    else:
        model = cubic_hys_model()[0] if case == "cubic" else phi1_squared_model()
        r = 2.0 * np.sin(2 * np.pi * k / 50.0)
        r[100:110] = 1e4  # out of reach: holds
        seeds = [0.0]
    s = assert_run_equals_reference(model, seeds, r)
    assert s.hold_count > 0 and s.steps > s.hold_count


# at most two factors of power <= 2 (steps of degree <= 4), and a term
# cubic in m(k); inputs and increments lag tau_d + offset, so the per-step
# polynomials read up to three past inputs
RUN_TERMS = st.one_of(
    st.lists(st.tuples(st.sampled_from(["y", "u", "phi1", "phi2"]), st.integers(0, 2),
                       st.integers(1, 2)), max_size=2),
    st.just([("u", 0, 3)]),
    st.just([("phi2", 0, 1)]),
    st.integers(1, 2).map(lambda d: [("phi1", 0, d), ("phi2", 0, 1)]),
)
REFERENCE = HIST | st.floats(-3.0, 3.0) | st.sampled_from([math.nan, math.inf, -math.inf])


@settings(max_examples=200, deadline=None)
@example(  # m(k-2) and phi1(k-2) deeper than tau_d, a cubic step, a NaN and an inf
    model=mk([term(0.9, ("y", 1, 1)), term(0.4, ("u", 1, 1)), term(0.3, ("u", 2, 1)),
              term(0.05, ("phi1", 1, 2), ("u", 1, 1)),
              term(0.02, ("phi1", 2, 1), ("phi2", 1, 1))], n_u=2, ell=3),
    seeds=[0.5, -0.25, 0.0, 2.0, 0.5, 0.5],
    r=[0.5, 1.0, math.nan, 0.7, 1.2, math.inf, -0.3, 0.2, 1.5, 40.0, 2.0],
)
@example(  # an x^3 coefficient under LEADING_ZERO_RTOL: quadratic steps whose
    # residual still reads it
    model=mk([term(0.5, ("y", 1, 1)), term(1.0, ("u", 1, 2)), term(1.0, ("u", 1, 1)),
              term(3e-15, ("u", 1, 3))], ell=3),
    seeds=[0.5] * 6,
    r=[0.3, 0.7, 1.1, -0.2, 2.0, 0.9],
)
@example(  # degree 1, with a root out of range at r = 25
    model=mk([term(0.5, ("y", 1, 1)), term(2.0, ("u", 1, 1))], ell=1),
    seeds=[0.5] * 6,
    r=[0.3, 1.0, -2.0, 25.0, 0.0],
)
@example(  # degree 2 with two real roots in range: x^2 - 0.5 x - 1 = 0 at steps 0 and 1
    model=mk([term(0.5, ("y", 1, 1)), term(1.0, ("u", 1, 2)), term(-0.5, ("u", 1, 1))], ell=2),
    seeds=[0.5] * 6,
    r=[0.0, 1.0, 1.5, 5.0, -0.2, 0.3],
)
@example(  # x^2 - 2 x + 1 = 0 at steps 0-2 (a discriminant of exactly 0: a
    # double root), x^2 - 2 x + 2 = 0 at step 3 (a discriminant of -4: a hold)
    model=mk([term(0.5, ("y", 1, 1)), term(1.0, ("u", 1, 2)), term(-2.0, ("u", 1, 1))], ell=2),
    seeds=[0.5] * 6,
    r=[0.0, -1.0, -1.5, -1.75, -2.875, 0.5],
)
@example(  # NaN and inf coefficients on a quadratic
    model=mk([term(0.5, ("y", 1, 1)), term(1.0, ("u", 1, 2)), term(-0.5, ("u", 1, 1))], ell=2),
    seeds=[0.5] * 6,
    r=[0.2, math.nan, 0.7, math.inf, -math.inf, 0.4],
)
@example(  # degree 0 at steps 1 and 2, where the x coefficient is under
    # LEADING_ZERO_RTOL times the constant (holds); degree 1 at steps 0 and 3
    model=mk([term(0.5, ("y", 1, 1)), term(1e-13, ("u", 1, 1))], ell=1),
    seeds=[0.5] * 6,
    r=[1.0, 0.5, 0.9, 0.1],
)
@example(  # x - sign(x - m(k-1)) = r(k+1): at steps 0 and 1 the loading and the
    # unloading root lie exactly 1.0 from m(k-1), and the smaller one wins
    model=mk([term(1.0, ("u", 1, 1)), term(-1.0, ("phi2", 1, 1))], ell=1),
    seeds=[0.5] * 6,
    r=[0.5, 0.5, -0.5, 2.0],
)
@example(  # two roots in range at step 0, both a NaN distance from m(k-1) = NaN
    model=mk([term(0.5, ("y", 1, 1)), term(1.0, ("u", 1, 2)), term(-0.5, ("u", 1, 1))], ell=2),
    seeds=[math.nan] * 6,
    r=[0.0, 1.0, 1.5, 0.3],
)
@example(  # ... and an inf distance from m(k-1) = inf: the smaller root wins
    model=mk([term(0.5, ("y", 1, 1)), term(1.0, ("u", 1, 2)), term(-0.5, ("u", 1, 1))], ell=2),
    seeds=[math.inf] * 6,
    r=[0.0, 1.0, 1.5, 0.3],
)
@example(  # loading admits both roots above m(k-1) = -inf, unloading none
    model=mk([term(0.5, ("y", 1, 1)), term(1.0, ("u", 1, 2)), term(-0.5, ("u", 1, 1)),
              term(0.3, ("phi2", 1, 1))], ell=2),
    seeds=[-math.inf] * 6,
    r=[0.0, 1.0, 1.5, 0.3],
)
@example(  # unloading admits both roots below m(k-1) = inf, loading none
    model=mk([term(0.5, ("y", 1, 1)), term(1.0, ("u", 1, 2)), term(-0.5, ("u", 1, 1)),
              term(0.3, ("phi2", 1, 1))], ell=2),
    seeds=[math.inf] * 6,
    r=[0.0, 1.0, 1.5, 0.3],
)
@example(  # phi1 at the dead-time lag: 0.0 * m(k-1) is NaN at m(k-1) = +-inf
    model=mk([term(0.9, ("y", 1, 1)), term(0.4, ("u", 1, 1)),
              term(0.2, ("phi1", 1, 1), ("phi2", 1, 1))]),
    seeds=[-math.inf] * 6,
    r=[0.0, 1.0, 1.5, 0.3],
)
@given(step_models(RUN_TERMS, st.integers(1, 2)), st.lists(HIST, min_size=6, max_size=6),
       st.lists(REFERENCE, min_size=1, max_size=12))
def test_run_equals_select_root_loop_on_random_models(model, seeds, r):
    assert_run_equals_reference(model, seeds[:comp.hist_depth(model)], r)


@pytest.mark.parametrize("case", ["bouc_wen", "phi1_squared", "slot1"])
def test_run_takes_the_full_list_on_non_finite_coefficients(case, bouc_wen_model, bouc_wen_loop):
    if case == "bouc_wen":
        # r(20) = NaN and r(40) = inf reach the coefficients at steps 19 and
        # 39 (as r(k + tau_d)) and 20 and 40 (through the y(k-1) terms): at
        # each of those steps both branches hand the general solve their
        # three reachable slots (of the plan's five)
        model = bouc_wen_model
        k = np.arange(60)
        r = 30.0 * np.sin(2 * np.pi * k / 60.0 + np.pi / 2)
        r[20], r[40] = np.nan, np.inf
        seeds = comp.init_hysteresis(model, bouc_wen_loop, r[0], r[1])
        full = [3] * 8
    elif case == "phi1_squared":
        # slot 3 is reachable: r(10) = NaN and r(15) = inf reach steps 9,
        # 10, 14 and 15, and both branches solve all four slots there, as
        # they do on every finite step
        model = phi1_squared_model()
        r = 2.0 * np.sin(2 * np.pi * np.arange(20) / 20.0)
        r[10], r[15] = np.nan, np.inf
        seeds = [0.0]
        full = [4] * 40
    else:
        # x^2 + 0.2 r(k) x - r(k + 1): at steps 2 and 4 only the x coefficient
        # is non-finite, at steps 1 and 3 only the constant
        model = mk([term(0.2, ("y", 1, 1), ("u", 1, 1)), term(1.0, ("u", 1, 2))], ell=2)
        r = np.array([0.5, 0.6, np.nan, 0.7, np.inf, 0.8])
        seeds = [0.5]
        full = [3] * 4
    assert assert_run_equals_reference(model, seeds, r).hold_count >= 4
    lists = []

    def counting(p):
        lists.append(len(p))
        return degree(p)

    degree = poly.effective_degree
    try:
        poly.effective_degree = counting
        comp.run(comp.CompensationSession(model=model, m_hist=list(seeds)), r)
    finally:
        poly.effective_degree = degree
    assert lists == full


def test_run_solves_cubic_steps():
    # the phi1^2 u model needs the solver above degree 2 on every solved step
    calls = []

    def counting(p):
        calls.append(p.degree())
        return solve_roots(p)

    solve_roots = poly.solve_roots
    model = phi1_squared_model()
    s = comp.CompensationSession(model=model, m_hist=[0.0])
    try:
        poly.solve_roots = counting
        comp.run(s, 2.0 * np.sin(2 * np.pi * np.arange(50) / 50.0))
    finally:
        poly.solve_roots = solve_roots
    assert calls and set(calls) == {3}
    assert s.steps - s.hold_count > 40


def float_literals(source):
    return {node.value for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Constant) and isinstance(node.value, float)}


def test_kernels_are_shared_by_structure(bouc_wen_model, valve_model):
    a = ev.perturbed_model(bouc_wen_model, 0.01, [0.3, -1.2, 0.8, 2.0])
    b = ev.perturbed_model(bouc_wen_model, 0.01, [-0.7, 0.1, 1.5, -0.4])
    assert a.coefficients != b.coefficients
    for kernel in (narx._free_run_kernel, comp._run_kernel):
        ka, kb = kernel(a), kernel(b)
        assert ka.func.__code__ is kb.func.__code__
        assert kernel(valve_model).func.__code__ is not ka.func.__code__
        # coefficients are arguments: only the expansion's constants (and the
        # closed form's 2.0 and 4.0) are literals
        literals = float_literals(ka.func.source)
        assert literals <= {0.0, 1.0, 2.0, 4.0} and not literals & set(a.coefficients)
        assert ka.args == (a.coefficients,)
    # one root selection per branch: a closed form, and the general solve,
    # and one residual per branch for whichever root it takes
    source = comp._run_kernel(a).func.source
    assert source.count("disc = ") == 2 and source.count("_solve(") == 2
    assert source.count("/ (1.0 + big)") == 2 and "t - t == 0.0" not in source
    assert "is None" not in source


def kernel_sources(model):
    """The sources of the free-run, compensation and coefficient kernels
    generated for ``model``'s term structure."""
    step = comp._coeff_step(model.factors, model.tau_d, model.is_hysteretic(),
                            comp.hist_depth(model))
    return [narx._free_run_kernel(model).func.source, comp._run_kernel(model).func.source,
            step.source]


def test_kernels_take_no_complex_square_root(
        heater_model, bouc_wen_model, bouc_wen_sigma1_model, valve_model):
    # complex roots are left to _solve, and poly.real_roots alone decides realness
    # and an integer power is a product, never the C library's pow
    for name in ("cmath", "csqrt", "DEFAULT_IM_TOL", "_TINY_DISC"):
        assert not any(name in line for line in comp._KERNEL_IMPORTS)
    for model in (heater_model, bouc_wen_model, bouc_wen_sigma1_model, valve_model):
        for source in kernel_sources(model):
            for name in ("cmath", "csqrt", "complex(", "DEFAULT_IM_TOL", "_TINY_DISC", "**"):
                assert name not in source


#: sha256 of the generated sources (compensation loop, coefficient step,
#: free-run loop) per model.  A change that alters a generated kernel by
#: design (a new formula, a counter inside the loop, a rescaled degree rule)
#: updates these digests and names the change in CHANGES.md.
KERNEL_DIGESTS = {
    "heater": ("0f54e32acce0b229d8f84386eb063fe2c68124cde3042732fb0eaa2eafc310e5",
               "d305c28d12acaac5b679520b46f30f5951fe397af33e64bd5b830c5d1eaed8d3",
               "886c46cb01f1c69ef2c5fc566618dedcb558f2c9fbccc3e78a5b84b5832babf7"),
    "valve": ("8f5993b5ea6806d28a5998525229e39894a3751f7582d8c6538c391c6297e3c0",
              "a15d0f023a24877e0c43d8a510aa2156b36d4ad9111dd36de6814d42bcd66e06",
              "695a970130af0ff1a216262e640defef998f6b3a82e4ff9dd2d7a55b14d5a825"),
    "bouc_wen": ("38d43c8d87b4d6f6506baa89e75dd0eca6cd1b8274bb5044e483bff441e31fd1",
                 "7e35b19682f31edd8f326edcee7f5ac69b21de30b1e8a85b4d6fdf193e9ba7d5",
                 "5c83e25d279383eaada3abcb25bba2652a3ed84906a97f5ce2bfa8a605d5531e"),
    "cubic_model": ("e06bdef207ad50e30bf96f35a89a3dc74170e4f5ecf45dc8d29c0f04dcc7a34f",
                    "e38341e97830a36f6027feb4b65b47305c69896afa5ca40c9aa3716b24a93943",
                    "87b4ce820599d15905943eb84dabe68d3d78122c03e76ea8c1126de8c96a8035"),
}
KERNEL_DIGESTS["bouc_wen_sigma1"] = KERNEL_DIGESTS["bouc_wen"]  # one term structure


def test_generated_kernel_sources_are_pinned(
        heater_model, valve_model, bouc_wen_model, bouc_wen_sigma1_model):
    cubic = narx.load_model(os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "tools", "cubic_model.json"))
    models = {"heater": heater_model, "valve": valve_model, "bouc_wen": bouc_wen_model,
              "bouc_wen_sigma1": bouc_wen_sigma1_model, "cubic_model": cubic}
    for name, model in models.items():
        structure = (model.factors, model.tau_d, model.is_hysteretic(), comp.hist_depth(model))
        sources = (comp._run_loop(*structure).source, comp._coeff_step(*structure).source,
                   narx._free_run_loop(model.factors, model.n_y, model.u_depth).source)
        digests = tuple(hashlib.sha256(text.encode()).hexdigest() for text in sources)
        assert digests == KERNEL_DIGESTS[name], name


def test_kernels_compute_each_phi1_difference_once(
        heater_model, bouc_wen_model, bouc_wen_sigma1_model, valve_model):
    for model in (bouc_wen_model, valve_model):
        source = kernel_sources(model)[0]
        assert source.count("u0 - u1") == 1
        assert "p1 = u0 - u1" in source and "if p1 > 0.0 else" in source
    # the coefficients are unpacked once per call, never indexed per sample
    for model in (heater_model, bouc_wen_model, bouc_wen_sigma1_model, valve_model):
        for source in kernel_sources(model):
            assert "c[" not in source
            assert source.count(" = c\n") == 1
    # a phi1 deeper than the dead time is a known factor of the step
    deep = mk([term(0.5, ("y", 1, 1)), term(2.0, ("phi1", 2, 1)),
               term(0.3, ("phi1", 2, 1), ("phi2", 2, 1)),
               term(1.0, ("phi1", 1, 1), ("phi2", 1, 1))], n_u=2, tau_d=1)
    for source in kernel_sources(deep):
        assert source.count("m0 - m1") + source.count("u1 - u2") == 1


def empty_model():
    return narx.model_from_dict({"n_y": 2, "n_u": 2, "tau_d": 1, "ell": 2,
                                 "input_range": [-1.0, 1.0], "output_range": [-1.0, 1.0],
                                 "terms": []})


def test_a_model_with_no_terms_predicts_zero_and_holds_every_step():
    m = empty_model()
    assert m.factors == () and not m.is_hysteretic()
    assert all("c0" not in source for source in kernel_sources(m))
    y = narx.simulate_free_run(m, [0.5, -0.25, 1.0], [0.3, 0.1])
    assert y.tolist() == [0.0, 0.0, 0.0]
    assert narx.one_step(m, [0.3, 0.1], [0.5, 0.2]) == 0.0
    s = comp.CompensationSession(m, [0.2, 0.1])
    assert comp.run(s, [0.1, 0.2, 0.3, 0.4]).tolist() == [0.2] * 4
    assert (s.steps, s.hold_count, s.max_residual, s.m_hist) == (4, 4, 0.0, [0.2, 0.2])
    assert comp.dynamic_comp_poly(s, 0).coeffs == (-0.2, 0.0, 0.0)
    assert comp.dynamic_comp_poly(s, 2).coeffs == (-0.4, 0.0, 0.0)


def test_perturbed_copy_builds_no_kernel_source(bouc_wen_model, monkeypatch):
    # the kernels belong to the term structure: once the nominal model has
    # run, a copy with other coefficients generates and compiles nothing
    r = 30.0 * np.sin(2 * np.pi * np.arange(40) / 40.0)
    comp.run(comp.CompensationSession(bouc_wen_model, [0.0]), r)
    narx.simulate_free_run(bouc_wen_model, r, [0.0] * bouc_wen_model.n_y)
    narx.hysteresis_loop(bouc_wen_model, 80.0, 0.005, 0.0)  # settles past the map's first period
    calls = []

    def counting(*args):
        calls.append(args)
        return kernel_factor(*args)

    kernel_factor = narx.kernel_factor
    monkeypatch.setattr(narx, "kernel_factor", counting)
    monkeypatch.setattr(comp, "kernel_factor", counting)
    copy = ev.perturbed_model(bouc_wen_model, 0.01, [0.3, -1.2, 0.8, 2.0])
    m = comp.run(comp.CompensationSession(copy, [0.0]), r)
    y = narx.simulate_free_run(copy, r, [0.0] * copy.n_y)
    narx.hysteresis_loop(copy, 80.0, 0.005, 0.0)
    assert calls == []
    assert comp._run_kernel(copy).func is comp._run_kernel(bouc_wen_model).func
    assert narx._free_run_kernel(copy).func is narx._free_run_kernel(bouc_wen_model).func
    # the copy runs its own coefficients
    assert len(m) == len(y) == len(r)
    assert y.tolist() != narx.simulate_free_run(bouc_wen_model, r, [0.0] * copy.n_y).tolist()


def test_complex_discriminants_make_one_general_solve(heater_model, monkeypatch):
    # a + theta2 m^2 = 0 with a > 0 has complex roots: steps 1, 2 and 5 hold
    # through _solve, the other steps are solved in the generated source
    r = [0.2, 0.25, 0.3, 0.1, 0.05, 0.2, 0.3, 0.02]
    seeds = comp.init_history(heater_model, r)
    lists = [comp.dynamic_comp_poly(session_with_r(heater_model, seeds, r), k).coeffs
             for k in range(len(r))]
    negative = [p for p in lists if p[1] * p[1] - 4.0 * p[2] * p[0] < 0.0]
    assert negative == [lists[1], lists[2], lists[5]]
    solve_roots = poly.solve_roots
    calls = []
    s = comp.CompensationSession(model=heater_model, m_hist=list(seeds))
    with monkeypatch.context() as patch:
        patch.setattr(poly, "solve_roots", lambda p: calls.append(p.coeffs) or solve_roots(p))
        comp.run(s, r)
    assert calls == negative
    assert run_state(assert_run_equals_reference(heater_model, seeds, r)) == run_state(s)


def test_a_nan_coefficient_holds_wherever_it_sits():
    # y = 0.5 y(k-1) + u(k-1) + 0.1 y(k-2) u(k-1)^2: steps 1 and 2 read a NaN
    # constant, step 3 solves -0.3 + x + nan x^2 = 0; none has a degree
    model = mk([term(0.5, ("y", 1, 1)), term(1.0, ("u", 1, 1)),
                term(0.1, ("y", 2, 1), ("u", 1, 2))], n_y=2, ell=2)
    r = [0.2, 0.3, math.nan, 0.4, 0.5, 0.6, 0.7]
    s = comp.CompensationSession(model=model, m_hist=[0.0])
    m = comp.run(s, r)
    assert comp._branch_coeffs(session_with_r(model, [0.0], r), 3)[0][:2] == [-0.3, 1.0]
    assert s.hold_count == 3 and m[1] == m[2] == m[3] == m[0]
    assert run_state(assert_run_equals_reference(model, [0.0], r)) == run_state(s)


def test_run_keeps_roots_within_the_realness_tolerance():
    # x^2 + 0.02 x + 1.0000000000000002e-4 = 0 at step 0: roots -0.01 +- 1.2e-10 i,
    # real by the DEFAULT_IM_TOL test
    model = mk([term(0.5, ("y", 1, 1)), term(1.0, ("u", 1, 2)), term(0.02, ("u", 1, 1))],
               ell=2)
    r = np.array([0.0, -1.0000000000000002e-4])
    roots = poly.solve_roots(comp.dynamic_comp_poly(session_with_r(model, [0.0], r), 0)).roots
    assert all(0.0 < abs(x.imag) <= poly.DEFAULT_IM_TOL for x in roots)
    assert assert_run_equals_reference(model, [0.0], r).hold_count == 0
    assert comp.run(comp.CompensationSession(model=model, m_hist=[0.0]), r)[0] == roots[0].real


def test_run_holds_on_nearly_real_roots():
    # x^2 + x + 0.25 + 2.5e-15 = 0 at step 0: roots -0.5 +- 5e-8 i, whose
    # imaginary part exceeds DEFAULT_IM_TOL relative to the real part
    model = mk([term(0.5, ("y", 1, 1)), term(1.0, ("u", 1, 2)), term(1.0, ("u", 1, 1))],
               ell=2)
    r = np.array([0.0, -0.25 - 2.5e-15])
    want, ref = reference_run(model, [0.0], r)
    s = comp.CompensationSession(model=model, m_hist=[0.0])
    assert np.array_equal(comp.run(s, r), want)
    assert (s.steps, s.hold_count, s.max_residual) == (ref.steps, ref.hold_count, ref.max_residual)
    assert s.hold_count == 1 and want[0] == 0.0 and want[1] != 0.0


def reference_pick(m_prev, bounds, branch, *p):
    """(x, residual) for the coefficients ``p`` through AlgebraicPolynomial,
    solve_roots, select_root and Horner over ``p``, holding below degree 1;
    an exception's type name where one is raised."""
    try:
        q = poly.AlgebraicPolynomial(p)
        if q.degree() < 1:
            return repr((comp.HOLD, 0.0))
        x = comp.select_root(poly.solve_roots(q), m_prev, bounds, branch)
        if x is comp.HOLD:
            return repr((comp.HOLD, 0.0))
        return repr((x, abs(poly.evaluate(q, x)) / (1.0 + max(map(abs, p)))))
    except Exception as e:
        return type(e).__name__


@functools.lru_cache(maxsize=None)
def generated_pick(n, branch):
    """``pick(m_prev, bounds, a0, ..., a<n-1>)``: the source the loop
    generates to solve a step's n coefficients on ``branch``."""
    p = ["a%d" % i for i in range(n)]
    lines = comp._pick_lines(p, branch.name if branch else "None", "x", "e")
    return narx.compile_kernel("\n".join(
        comp._KERNEL_IMPORTS + ["def kernel(mp, bounds, %s):" % ", ".join(p)]
        + narx.indented(["lo, hi = bounds"] + lines
                        + ["return (HOLD, 0.0) if x is HOLD else (x, e)"], 1)
    ))


def pick_or_error(m_prev, bounds, branch, *p):
    try:
        return repr(generated_pick(len(p), branch)(m_prev, bounds, *p))
    except Exception as e:
        return type(e).__name__


# with a1 = 0 and a2 = -1/4 the discriminant is exactly a0; at m(k-1) = 0
# without a branch, a root in (-2, 2) is taken
ROOT_AT = dict(high=[], branch=None, m_prev=0.0)


@example(a0=1.0, a1=2.0, a2=1.0, **ROOT_AT)  # discriminant exactly 0
@example(a0=1e-300, a1=0.0, a2=-0.25, **ROOT_AT)
@example(a0=math.nextafter(1e-300, 1.0), a1=0.0, a2=-0.25, **ROOT_AT)
@example(a0=math.nextafter(1e-300, 0.0), a1=0.0, a2=-0.25, **ROOT_AT)
@example(a0=math.nextafter(8 * sys.float_info.min, 1.0), a1=0.0, a2=-0.25, **ROOT_AT)
@example(a0=8 * sys.float_info.min, a1=0.0, a2=-0.25, **ROOT_AT)
@example(a0=math.nextafter(8 * sys.float_info.min, 0.0), a1=0.0, a2=-0.25,
         **ROOT_AT)  # cmath.sqrt would round apart from math.sqrt from here down
@example(a0=5e-324, a1=0.0, a2=-0.25, **ROOT_AT)  # subnormal
@example(a0=1.0, a1=1e200, a2=1.0, **ROOT_AT)  # a1 * a1 overflows to inf
@example(a0=0.0, a1=1.0, a2=-1.0, **ROOT_AT)  # -a1 + s rounds to +0.0, the root is -0.0
@example(a0=-math.inf, a1=1.0, a2=1.0, **ROOT_AT)
@example(a0=1.0, a1=math.inf, a2=1.0, **ROOT_AT)
@example(a0=1.0, a1=1.0, a2=math.inf, **ROOT_AT)
@example(a0=1.0, a1=1.0, a2=1e308, **ROOT_AT)  # 2 * a2 overflows to inf
@example(a0=-1.0, a1=0.5, a2=1.0, high=[3e-13, -2e-14], branch=None,
         m_prev=0.0)  # a quadratic whose residual reads the slots under the rule
@given(a0=st.floats(), a1=st.floats(), a2=st.floats(),
       high=st.lists(st.floats() | st.floats(-1e-12, 1e-12), max_size=2),
       branch=st.sampled_from([None, Regime.LOADING, Regime.UNLOADING]),
       m_prev=st.floats(-3.0, 3.0))
def test_pick_equals_the_general_solve(a0, a1, a2, high, branch, m_prev):
    args = (m_prev, (-2.0, 2.0), branch, a0, a1, a2, *high)
    assert pick_or_error(*args) == reference_pick(*args)
