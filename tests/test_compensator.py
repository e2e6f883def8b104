"""Compensator construction, root selection, initialization, tracking runs."""

import numpy as np
import pytest

import narxcomp.compensator as comp
import narxcomp.model as narx
import narxcomp.poly as poly
from narxcomp.model import Regime
from narxcomp.poly import RootSet

from test_model import mk, term

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


def test_session_rejects_short_history(heater_model):
    with pytest.raises(ValueError):
        comp.CompensationSession(model=heater_model, m_hist=[])


def test_session_defaults_bounds_to_input_range(heater_model):
    s = comp.CompensationSession(model=heater_model, m_hist=[0.5])
    assert s.bounds == (0.0, 1.0)


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
