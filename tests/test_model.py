"""Model structure, simulation, steady-state analysis, loops, serialization."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import narxcomp.evaluation as ev
import narxcomp.model as narx
from narxcomp.model import Factor, NarxModel, Regime, Signal, Term

F = Factor
SIG = {"y": Signal.OUTPUT_Y, "u": Signal.INPUT_U, "phi1": Signal.PHI1, "phi2": Signal.PHI2}


def term(coefficient, *factors):
    return Term(
        coefficient=coefficient,
        factors=tuple(F(signal=SIG[s], lag=lag, power=p) for s, lag, p in factors),
    )


def mk(terms, n_y=1, n_u=1, tau_d=1, ell=3, inp=(-10.0, 10.0), out=(-10.0, 10.0)):
    return NarxModel(
        terms=tuple(terms),
        n_y=n_y,
        n_u=n_u,
        tau_d=tau_d,
        ell=ell,
        input_range=inp,
        output_range=out,
    )


# ---------------------------------------------------------------------------
# Structure and validation


def test_bundled_models_validate_clean(
    heater_model, bouc_wen_model, bouc_wen_sigma1_model, valve_model
):
    for m in (heater_model, bouc_wen_model, bouc_wen_sigma1_model, valve_model):
        assert narx.validate(m) == []


def test_validate_reports_each_violation():
    bad = NarxModel(
        terms=(
            term(1.0, ("y", 3, 1)),          # y lag beyond n_y
            term(1.0, ("u", 1, 1)),          # u lag below tau_d
            term(1.0, ("u", 2, 4)),          # degree beyond ell
            Term(coefficient=1.0, factors=(F(signal=Signal.PHI1, lag=0, power=0),)),
        ),
        n_y=2,
        n_u=2,
        tau_d=2,
        ell=3,
        input_range=(1.0, 1.0),
        output_range=(5.0, -5.0),
    )
    msgs = narx.validate(bad)
    joined = "\n".join(msgs)
    assert "input_range" in joined
    assert "output_range" in joined
    assert "y lag 3" in joined
    assert "u lag 1" in joined
    assert "degree 4 exceeds ell=3" in joined
    assert "power must be >= 1" in joined
    assert "phi lag must be >= 1" in joined


def test_validate_flags_bad_orders():
    m = mk([term(0.5, ("y", 1, 1))], n_y=0, n_u=1, tau_d=2)
    msgs = "\n".join(narx.validate(m))
    assert "n_y" in msgs
    assert "tau_d" in msgs or "n_u" in msgs


def test_is_hysteretic(heater_model, valve_model, bouc_wen_model):
    assert not heater_model.is_hysteretic()
    assert valve_model.is_hysteretic()
    assert bouc_wen_model.is_hysteretic()


def test_sigma_y_values(heater_model, valve_model, bouc_wen_model):
    # Only coefficients of bare first-power output regressors count.
    assert valve_model.sigma_y() == pytest.approx(1.0, abs=1e-15)
    assert bouc_wen_model.sigma_y() == pytest.approx(1.000099, abs=1e-12)
    assert heater_model.sigma_y() == pytest.approx(0.8958185 - 0.01746750, abs=1e-12)


def test_sigma_y_ignores_nonlinear_output_terms():
    m = mk([term(0.7, ("y", 1, 1)), term(0.2, ("y", 1, 2)), term(0.1, ("y", 1, 1), ("u", 1, 1))])
    assert m.sigma_y() == pytest.approx(0.7)


def test_lag_summaries(valve_model, heater_model):
    assert valve_model.max_y_lag() == 2
    assert valve_model.max_phi_lag() == 1
    assert heater_model.max_y_lag() == 2
    assert heater_model.max_phi_lag() == 0


# ---------------------------------------------------------------------------
# One-step prediction


def test_one_step_polynomial_oracle():
    # y(k) = 0.5 y(k-1) + 2 phi1 phi2 + 0.25 u(k-1)^2
    m = mk(
        [
            term(0.5, ("y", 1, 1)),
            term(2.0, ("phi1", 1, 1), ("phi2", 1, 1)),
            term(0.25, ("u", 1, 2)),
        ]
    )
    # u(k-1)=3, u(k-2)=1 -> phi1=2, phi2=+1
    got = narx.one_step(m, [2.0], [3.0, 1.0])
    assert got == pytest.approx(0.5 * 2.0 + 2.0 * 2.0 * 1.0 + 0.25 * 9.0)
    # Falling input flips phi2
    got = narx.one_step(m, [2.0], [1.0, 3.0])
    assert got == pytest.approx(0.5 * 2.0 + 2.0 * (-2.0) * (-1.0) + 0.25 * 1.0)


def test_one_step_sign_of_zero_increment_is_zero():
    m = mk([term(5.0, ("phi2", 1, 1))])
    assert narx.one_step(m, [0.0], [1.0, 1.0]) == 0.0


def test_one_step_heater_oracle(heater_model):
    got = narx.one_step(heater_model, [0.2, 0.1], [0.5, 0.6])
    want = 0.8958185 * 0.2 + 0.06393347 * 0.6 ** 2 - 0.01746750 * 0.1
    assert got == pytest.approx(want, rel=1e-12)


def test_one_step_insufficient_history():
    m = mk([term(1.0, ("y", 2, 1))], n_y=2)
    with pytest.raises(narx.InsufficientHistory):
        narx.one_step(m, [1.0], [1.0])
    with pytest.raises(narx.InsufficientHistory):
        narx.one_step(m, [1.0, 2.0], [])


def test_one_step_history_needs_phi_lag_plus_one():
    # phi1(k-2) = u(k-2) - u(k-3): three input samples needed.
    m = mk([term(1.0, ("phi1", 2, 1))], n_u=1)
    with pytest.raises(narx.InsufficientHistory):
        narx.one_step(m, [0.0], [1.0, 2.0])
    assert narx.one_step(m, [0.0], [9.0, 5.0, 2.0]) == pytest.approx(3.0)


# ---------------------------------------------------------------------------
# Free-run simulation


def test_free_run_y_init_is_most_recent_first():
    m = mk([term(1.0, ("y", 2, 1))], n_y=2)
    y = narx.simulate_free_run(m, np.zeros(4), y_init=[7.0, 3.0])
    # y(0)=y(-2)=3, y(1)=y(-1)=7, then the pattern repeats.
    assert list(y) == [3.0, 7.0, 3.0, 7.0]


def test_free_run_pads_inputs_with_first_sample():
    m = mk([term(1.0, ("u", 2, 1))], n_u=2, tau_d=2)
    y = narx.simulate_free_run(m, [5.0, 7.0, 9.0, 11.0, 13.0], y_init=[0.0])
    assert list(y) == [5.0, 5.0, 5.0, 7.0, 9.0]


def test_free_run_matches_manual_recursion(heater_model):
    rng = np.random.default_rng(20260817)
    u = rng.uniform(0.0, 1.0, size=50)
    y = narx.simulate_free_run(heater_model, u, y_init=[0.0, 0.0])
    t1, t2, t3 = 0.8958185, 0.06393347, -0.01746750
    yk = {-1: 0.0, -2: 0.0}
    for k in range(50):
        u2 = u[k - 2] if k >= 2 else u[0]
        yk[k] = t1 * yk[k - 1] + t2 * u2 ** 2 + t3 * yk[k - 2]
        assert y[k] == pytest.approx(yk[k], rel=1e-12, abs=1e-15)


def test_free_run_raises_non_finite_on_divergence():
    m = mk([term(2.0, ("y", 1, 1))])
    with pytest.raises(narx.NonFinite):
        narx.simulate_free_run(m, np.zeros(3000), y_init=[1.0])


def test_free_run_checks_initial_history():
    m = mk([term(1.0, ("y", 2, 1))], n_y=2)
    with pytest.raises(narx.InsufficientHistory):
        narx.simulate_free_run(m, np.zeros(3), y_init=[1.0])


# ---------------------------------------------------------------------------
# Compiled term table


def walk_terms(model, y_hist, u_hist):
    """Plain per-term evaluation from the Term and Factor objects."""
    acc = 0.0
    for t in model.terms:
        v = t.coefficient
        for f in t.factors:
            if f.signal is Signal.OUTPUT_Y:
                x = y_hist[f.lag - 1]
            elif f.signal is Signal.INPUT_U:
                x = u_hist[f.lag - 1]
            else:
                x = u_hist[f.lag - 1] - u_hist[f.lag]
                if f.signal is Signal.PHI2:
                    x = (x > 0.0) - (x < 0.0)
            v *= x ** f.power
        acc += v
    return acc


FACTORS = st.tuples(
    st.sampled_from(["y", "u", "phi1", "phi2"]), st.integers(1, 4), st.integers(1, 3)
)
MODELS = st.lists(
    st.tuples(st.floats(-0.6, 0.6), st.lists(FACTORS, max_size=3)),
    min_size=1, max_size=5,
).map(
    lambda terms: mk(
        [term(c, *fs) for c, fs in terms],
        n_y=max([lag for _, fs in terms for s, lag, _ in fs if s == "y"], default=1),
        n_u=max([lag for _, fs in terms for s, lag, _ in fs if s == "u"], default=1),
        ell=max(1, max(sum(p for _, _, p in fs) for _, fs in terms)),
    )
)
# few distinct input values, so that equal neighbours (sign(0) = 0) are common
INPUTS = st.lists(st.sampled_from([-1.5, -0.25, 0.0, 0.5, 2.0]), min_size=6, max_size=6)
OUTPUTS = st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4)


@settings(max_examples=300, deadline=None)
@given(MODELS, OUTPUTS, INPUTS, st.lists(st.floats(-3.0, 3.0), min_size=5, max_size=5))
def test_one_step_equals_term_walk(model, y_hist, u_hist, z):
    assert narx.one_step(model, y_hist, u_hist) == walk_terms(model, y_hist, u_hist)
    # replace() in perturbed_model must compile the new coefficients
    pm = ev.perturbed_model(model, 0.1, z)
    assert narx.one_step(pm, y_hist, u_hist) == walk_terms(pm, y_hist, u_hist)


def iterate_one_step(model, u, y_init):
    y_hist = list(y_init)
    u_hist = [u[0]] * 6
    out = []
    for u_k in u:
        val = narx.one_step(model, y_hist, u_hist)
        if not math.isfinite(val):
            return None
        out.append(val)
        y_hist = [val] + y_hist[:-1]
        u_hist = [u_k] + u_hist[:-1]
    return out


@settings(max_examples=200, deadline=None)
@given(MODELS, st.lists(st.sampled_from([-1.5, -0.25, 0.0, 0.5, 2.0]), min_size=1,
                        max_size=30))
def test_free_run_equals_iterated_one_step(model, u):
    y_init = [0.3] * model.n_y
    try:
        want = iterate_one_step(model, u, y_init)
    except OverflowError:
        want = None
    try:
        got = narx.simulate_free_run(model, u, y_init).tolist()
    except (narx.NonFinite, OverflowError):
        got = None
    assert got == want


# ---------------------------------------------------------------------------
# Steady state: polynomial, fixed points, eigenvalues


def test_static_polynomial_heater(heater_model):
    p = narx.static_polynomial(heater_model, 0.5)
    # theta2 u^2 + (theta1 + theta3 - 1) y = 0
    assert p.coeffs[0] == pytest.approx(0.06393347 * 0.25, rel=1e-12)
    assert p.coeffs[1] == pytest.approx(0.8958185 - 0.01746750 - 1.0, rel=1e-12)
    assert p.degree() == 1


def test_static_polynomial_drops_phi1_terms(valve_model):
    # Every phi-bearing valve term contains phi1, so all of them vanish at
    # steady state and the remaining output terms sum to exactly one.
    p = narx.static_polynomial(valve_model, 3.0)
    assert p.degree() == -1


def test_static_polynomial_branch_sign_controls_bare_phi2():
    m = mk([term(0.5, ("y", 1, 1)), term(0.3, ("phi2", 1, 1)), term(1.0, ("u", 1, 1))])
    for sgn, offset in ((0, 0.0), (1, 0.3), (-1, -0.3)):
        p = narx.static_polynomial(m, 2.0, branch_sign=sgn)
        assert p.coeffs[0] == pytest.approx(2.0 + offset)
        assert p.coeffs[1] == pytest.approx(-0.5)
    with pytest.raises(ValueError):
        narx.static_polynomial(m, 2.0, branch_sign=2)


def test_jacobian_eigen_linear_second_order(heater_model):
    t1, t3 = 0.8958185, -0.01746750
    disc = math.sqrt(t1 ** 2 + 4 * t3)
    expect = sorted([(t1 + disc) / 2, abs((t1 - disc) / 2)], reverse=True)
    got = narx.jacobian_eigen(heater_model, 0.5, 0.1313892)
    assert got == pytest.approx(expect, rel=1e-10)


def test_jacobian_eigen_nonlinear_term():
    m = mk([term(0.3, ("y", 1, 2))])
    # d/dy [0.3 y^2] = 0.6 y
    assert narx.jacobian_eigen(m, 0.0, 0.5) == pytest.approx([0.3])
    assert narx.jacobian_eigen(m, 0.0, 2.0) == pytest.approx([1.2])


def test_jacobian_eigen_without_output_feedback():
    m = mk([term(1.0, ("u", 1, 1))])
    assert narx.jacobian_eigen(m, 1.0, 1.0) == []


def test_fixed_points_heater_oracle(heater_model):
    fps = narx.fixed_points(heater_model, 0.5)
    assert len(fps) == 1
    fp = fps[0]
    assert fp.y_bar == pytest.approx(0.131389222271, abs=1e-9)
    assert fp.stable
    assert fp.eigen_mags[0] == pytest.approx(0.87587559942, abs=1e-9)
    assert fp.eigen_mags[1] == pytest.approx(0.0199429005804, abs=1e-9)


def test_fixed_points_band_widens_output_range(heater_model):
    # At u=1 the equilibrium sits just above the nominal output range but
    # inside the 10%-widened band.
    fps = narx.fixed_points(heater_model, 1.0)
    assert len(fps) == 1
    assert fps[0].y_bar > heater_model.output_range[1]


def test_fixed_points_unstable_when_sigma_exceeds_one(bouc_wen_model):
    fps = narx.fixed_points(bouc_wen_model, 0.0)
    assert len(fps) == 1
    assert fps[0].y_bar == pytest.approx(0.0, abs=1e-12)
    assert not fps[0].stable
    assert fps[0].eigen_mags[0] == pytest.approx(1.000099, abs=1e-9)


def test_fixed_points_degenerate_statics(valve_model):
    with pytest.raises(narx.DegenerateStatics):
        narx.fixed_points(valve_model, 3.0)


def test_static_curve_heater(heater_model):
    pts = narx.static_curve(heater_model, [0.0, 0.25, 0.5, 1.0])
    us = [u for u, _ in pts]
    ys = [y for _, y in pts]
    assert us == [0.0, 0.25, 0.5, 1.0]
    assert ys[0] == pytest.approx(0.0, abs=1e-12)
    assert all(b > a for a, b in zip(ys, ys[1:]))
    gain = 0.06393347 / (1.0 - 0.8958185 + 0.01746750)
    assert ys[3] == pytest.approx(gain, rel=1e-9)


def test_static_curve_requires_stability(bouc_wen_model):
    with pytest.raises(narx.NoStableFixedPoint):
        narx.static_curve(bouc_wen_model, [0.0])


# ---------------------------------------------------------------------------
# Hysteresis loops


def test_loop_requires_hysteretic_model(heater_model):
    with pytest.raises(ValueError):
        narx.hysteresis_loop(heater_model, 0.2, 0.001, 0.5)


def test_loop_rejects_bad_frequency(valve_model):
    with pytest.raises(ValueError):
        narx.hysteresis_loop(valve_model, 2.0, 0.0, 3.0)
    with pytest.raises(ValueError):
        narx.hysteresis_loop(valve_model, 2.0, 0.5, 3.0)


def test_loop_unsettled_raised(valve_model):
    with pytest.raises(narx.LoopUnsettled):
        narx.hysteresis_loop(valve_model, 2.0, 0.01, 3.0,
                             settle_tol=1e-14, max_periods=2)


def test_valve_loop_shape(valve_model, valve_loop):
    loop = valve_loop
    assert loop.period == 1000
    # Branches are sorted by input, loading ascending / unloading descending.
    assert np.all(np.diff(loop.loading[:, 0]) >= 0)
    assert np.all(np.diff(loop.unloading[:, 0]) <= 0)
    # The excitation span is covered up to sine discretization error.
    assert loop.loading[-1, 0] == pytest.approx(5.0, abs=1e-3)
    assert loop.unloading[-1, 0] == pytest.approx(1.0, abs=1e-3)
    lo, hi = loop.y_span()
    assert lo < hi
    # Outputs stay inside the valve operating band.
    assert 0.5 < lo < hi < 4.5


def test_valve_loop_is_settled(valve_model, valve_loop):
    # Resimulating from the traced loop should reproduce it: the loop is a
    # genuine attractor of the periodic excitation, not a transient.
    redo = narx.hysteresis_loop(valve_model, 2.0, 0.001, 3.0)
    assert np.allclose(redo.loading, valve_loop.loading)
    assert np.allclose(redo.unloading, valve_loop.unloading)


def test_loop_branches_differ(valve_loop, bouc_wen_loop):
    # Hysteresis means the two branches disagree in the interior.
    for loop in (valve_loop, bouc_wen_loop):
        mid = 0.5 * (loop.loading[0, 0] + loop.loading[-1, 0])
        y_load = np.interp(mid, loop.loading[:, 0], loop.loading[:, 1])
        unl = loop.unloading[::-1]
        y_unload = np.interp(mid, unl[:, 0], unl[:, 1])
        span = loop.y_span()[1] - loop.y_span()[0]
        assert abs(y_load - y_unload) > 0.01 * span


def test_bouc_wen_loop_symmetric_span(bouc_wen_loop):
    lo, hi = bouc_wen_loop.y_span()
    assert hi == pytest.approx(-lo, rel=1e-2)
    assert hi == pytest.approx(40.08, abs=0.5)


def test_loop_inverse_hits_traced_nodes(valve_loop):
    for branch, regime in (
        (valve_loop.loading, Regime.LOADING),
        (valve_loop.unloading, Regime.UNLOADING),
    ):
        j = len(branch) // 2
        u_j, y_j = branch[j]
        got = narx.loop_inverse(valve_loop, y_j, regime)
        spacing = np.max(np.abs(np.diff(branch[:, 0]))) + 1e-12
        assert abs(got - u_j) <= spacing


def test_loop_inverse_distinguishes_regimes(valve_loop):
    lo, hi = valve_loop.y_span()
    t = 0.5 * (lo + hi)
    m_load = narx.loop_inverse(valve_loop, t, Regime.LOADING)
    m_unload = narx.loop_inverse(valve_loop, t, Regime.UNLOADING)
    assert m_load != pytest.approx(m_unload, abs=1e-3)


def test_loop_inverse_out_of_range(valve_loop):
    lo, hi = valve_loop.y_span()
    with pytest.raises(narx.OutOfLoopRange):
        narx.loop_inverse(valve_loop, hi + 1.0, Regime.LOADING)
    with pytest.raises(narx.OutOfLoopRange):
        narx.loop_inverse(valve_loop, lo - 1.0, Regime.UNLOADING)


# ---------------------------------------------------------------------------
# Serialization


def test_dict_round_trip(valve_model):
    again = narx.model_from_dict(narx.model_to_dict(valve_model))
    assert again == valve_model


def test_file_round_trip(tmp_path, bouc_wen_model):
    path = tmp_path / "m.json"
    narx.save_model(bouc_wen_model, path)
    again = narx.load_model(path)
    assert again == bouc_wen_model


def test_round_trip_preserves_exact_coefficients(heater_model, tmp_path):
    path = tmp_path / "h.json"
    narx.save_model(heater_model, path)
    again = narx.load_model(path)
    for t0, t1 in zip(heater_model.terms, again.terms):
        assert t0.coefficient == t1.coefficient  # bitwise, not approx


def test_model_from_dict_rejects_unknown_signal():
    d = narx.model_to_dict(mk([term(1.0, ("y", 1, 1))]))
    d["terms"][0]["factors"][0]["sig"] = "bogus"
    with pytest.raises(ValueError):
        narx.model_from_dict(d)
