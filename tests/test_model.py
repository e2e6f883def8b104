"""Model structure, simulation, steady-state analysis, loops, JSON loading."""

import json
import math
import pickle
import warnings
from importlib import resources

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import narxcomp.compensator as comp
import narxcomp.evaluation as ev
import narxcomp.model as narx
import narxcomp.poly as poly
from narxcomp.model import Factor, NarxModel, Regime, Signal, Term
from narxcomp.poly import AlgebraicPolynomial

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
    assert "input_range must satisfy min < max" in joined
    assert "output_range must satisfy min < max" in joined
    assert "y lag 3" in joined
    assert "u lag 1" in joined
    assert "degree 4 exceeds ell=3" in joined
    assert "power must be >= 1" in joined
    assert "phi lag must be >= 1" in joined
    assert "finite" not in joined
    # non-finite coefficients and range ends, which the file format admits
    bad = mk([term(0.5, ("y", 1, 1)), term(math.nan, ("u", 1, 1)), term(-math.inf)],
             inp=(-80.0, math.inf), out=(math.nan, 1.0))
    assert narx.validate(bad) == [
        "input_range ends must be finite",
        "output_range ends must be finite",
        "term 1: coefficient must be finite",
        "term 2: coefficient must be finite",
    ]


def test_validate_flags_bad_orders():
    m = mk([term(0.5, ("y", 1, 1))], n_y=0, n_u=1, tau_d=2)
    msgs = "\n".join(narx.validate(m))
    assert "n_y" in msgs
    assert "tau_d" in msgs or "n_u" in msgs


def test_validate_flags_a_negative_ell_and_ranges_without_two_ends():
    m = mk([], ell=-1, inp=(-1.0, 0.0, 1.0), out=(1.0,))
    assert narx.validate(m) == [
        "ell must be >= 0, got -1",
        "input_range must have two ends, got 3",
        "output_range must have two ends, got 1",
    ]


def test_validate_flags_a_phi_lag_below_the_dead_time():
    # phi1(k-1) reads u(k-1), which a dead time of 2 keeps out of y(k)
    m = mk([term(0.5, ("y", 1, 1)), term(0.3, ("u", 2, 1)), term(0.2, ("phi1", 1, 1)),
            term(0.1, ("phi2", 2, 1))], n_u=2, tau_d=2, ell=2)
    assert narx.validate(m) == ["term 2: phi1 lag 1 is below tau_d (2)"]


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
    assert heater_model.max_y_lag() == 2


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


def chain(x, power):
    """``x`` to the integer ``power`` as every path of the package rounds it:
    the product x * x * ... taken left to right (1 at power 0)."""
    return math.prod([x] * power)


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
            v *= chain(x, f.power)
        acc += v
    return acc


FACTORS = st.tuples(
    st.sampled_from(["y", "u", "phi1", "phi2"]), st.integers(1, 4), st.integers(1, 3)
)


def model_of(terms):
    """The model of the (coefficient, factors) ``terms``, its lags and
    degree as small as they allow."""
    return mk(
        [term(c, *fs) for c, fs in terms],
        n_y=max([lag for _, fs in terms for s, lag, _ in fs if s == "y"], default=1),
        n_u=max([lag for _, fs in terms for s, lag, _ in fs if s == "u"], default=1),
        ell=max(1, max(sum(p for _, _, p in fs) for _, fs in terms)),
    )


MODELS = st.lists(
    st.tuples(st.floats(-0.6, 0.6), st.lists(FACTORS, max_size=3)),
    min_size=1, max_size=5,
).map(model_of)
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


def test_integer_powers_are_left_to_right_products():
    # some libms' pow rounds this square one ulp away from x * x, which is
    # correctly rounded; the kernels and _power, floats and arrays, multiply
    x = -1.818447760617123
    assert narx.one_step(mk([term(1.0, ("u", 1, 2))]), [0.0], [x]) == x * x
    assert narx._power(x, 2) == x * x
    assert narx._power(np.array([x]), 2).tolist() == [x * x]


def test_one_step_rejects_non_integer_lag():
    # lags and powers reach the generated evaluator only as integers
    with pytest.raises(TypeError):
        m = mk([term(1.0, ("y", 1.5, 1))])
        narx.one_step(m, [1.0, 2.0], [0.0, 0.0])


def test_kernels_refuse_a_power_below_one():
    # a power is written as a product of copies, and none has fewer than one
    for power in (0, -1):
        with pytest.raises(ValueError, match="factor power must be >= 1"):
            narx.one_step(mk([term(2.0, ("u", 1, power))]), [0.0], [3.0])


def test_float_lag_is_rejected_after_an_int_lag_warmed_the_kernel_cache():
    # 1.0 == 1 and both hash alike, so a cache keyed on the term structure
    # would hand the float-lag model the int-lag model's kernel
    assert narx.one_step(mk([term(0.5, ("y", 1, 1))]), [2.0], [0.0]) == 1.0
    for factor in (("y", 1.0, 1), ("y", 1, 1.0)):
        with pytest.raises(TypeError):
            narx.one_step(mk([term(0.5, factor)]), [2.0], [0.0])


def test_bool_orders_are_refused():
    # operator.index(True) is 1, so a bool would run as lag, power or order 1
    for factor in (("y", True, 1), ("y", 1, True)):
        with pytest.raises(TypeError):
            mk([term(0.5, factor)])
    for order in ("n_y", "n_u", "tau_d", "ell"):
        with pytest.raises(TypeError):
            mk([term(0.5, ("y", 1, 1))], **{order: True})


def test_model_pickles_after_its_kernels_are_built(valve_model):
    want = narx.one_step(valve_model, [3.0, 2.9], [3.2, 3.1])
    narx.simulate_free_run(valve_model, [3.0, 3.5], [3.0, 3.0])
    narx.hysteresis_loop(valve_model, 0.5, 0.1, 3.0)
    comp.run(comp.CompensationSession(valve_model, [3.0]), [3.0, 3.1, 3.2])
    comp.hysteresis_comp_polys(comp.CompensationSession(valve_model, [3.0], r=[3.0, 3.1]), 0)
    copy = pickle.loads(pickle.dumps(valve_model))
    assert copy == valve_model
    assert narx.one_step(copy, [3.0, 2.9], [3.2, 3.1]) == want


def iterate_term_walk(model, u, y_hist, u_hist):
    """:func:`walk_terms` iterated over the inputs ``u`` as a free run feeds
    it, up to the first non-finite output, which ends the outputs: (outputs,
    whether one came, and the histories shifted past the finite outputs)."""
    out = []
    for u_k in u:
        val = walk_terms(model, y_hist, u_hist)
        out.append(val)
        if not math.isfinite(val):
            return out, True, y_hist, u_hist
        y_hist = [val] + y_hist[:-1]
        u_hist = [u_k] + u_hist[:-1]
    return out, False, y_hist, u_hist


U_VALUES = st.lists(st.sampled_from([-1.5, -0.25, 0.0, 0.5, 2.0]), min_size=1, max_size=30)


@settings(max_examples=200, deadline=None)
@example(model=mk([term(2.0, ("y", 1, 1))]), u=[0.0] * 1100)  # overflows at 1025
@given(MODELS, U_VALUES)
def test_free_run_equals_iterated_one_step(model, u):
    y_init = [0.3] * model.n_y
    try:
        want, diverged, *_ = iterate_term_walk(model, u, y_init, [u[0]] * model.u_depth)
    except OverflowError:
        want, diverged = "OverflowError", False
    try:
        got = narx.simulate_free_run(model, u, y_init).tolist()
    except OverflowError:
        got = "OverflowError"
    except narx.NonFinite as e:
        assert diverged and str(e) == "output diverged at sample %d" % (len(want) - 1)
        return
    # repr tells signed zeros apart
    assert not diverged and repr(got) == repr(want)


@settings(max_examples=200, deadline=None)
@example(model=mk([term(2.0, ("y", 1, 1))]), u=[0.0] * 1100, cut=1050)  # inf at 1024
@given(MODELS, U_VALUES, st.integers(0, 30))
def test_free_run_kernel_carries_histories(model, u, cut):
    # two calls on the same history lists continue one free run, and each
    # stops at its first non-finite output, returned last, with the
    # histories shifted past the finite outputs
    y_hist, u_hist = [0.3] * model.n_y, [u[0]] * model.u_depth
    try:
        want = iterate_term_walk(model, u, list(y_hist), list(u_hist))
        first = iterate_term_walk(model, u[:cut], list(y_hist), list(u_hist))
    except OverflowError:
        return
    run = narx._free_run_kernel(model)
    got = run(y_hist, u_hist, u[:cut])
    assert repr((got, y_hist, u_hist)) == repr((first[0], first[2], first[3]))
    if not first[1]:
        got += run(y_hist, u_hist, u[cut:])
    assert repr((got, y_hist, u_hist)) == repr((want[0], want[2], want[3]))


def test_loop_equals_one_step_iterated_on_the_repeated_period(valve_model, valve_loop):
    # the settled period, found by the loop's own rule, from the term walk
    # iterated on one period of input, repeated, on carried histories
    period = valve_loop.period
    u_p = (2.0 * np.sin(2.0 * np.pi * 0.001 * np.arange(period, dtype=float)) + 3.0).tolist()
    y_hist, u_hist = [0.0] * valve_model.n_y, [3.0] * valve_model.u_depth
    prev = None
    for p in range(64):
        y_p, _, y_hist, u_hist = iterate_term_walk(valve_model, u_p, y_hist, u_hist)
        if prev is not None and max(abs(a - b) for a, b in zip(y_p, prev)) < 1e-8 * max(
                1.0, max(y_p) - min(y_p)):
            break
        prev = y_p
    rows = np.vstack([valve_loop.loading, valve_loop.unloading]).tolist()
    assert p > 1
    assert repr(sorted(map(tuple, rows))) == repr(sorted(zip(u_p, y_p)))


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


def scalar_static_polynomial(model, u_bar, branch_sign=0):
    """:func:`narx.static_polynomial` as a plain scalar term walk, the
    reference the shared :func:`narx.static_rows` must match bit for bit."""
    u_bar = float(u_bar)
    sign = float(branch_sign)
    coeffs = [0.0] * (model.ell + 2)
    for scalar, factors in zip(model.coefficients, model.factors):
        xpow = 0
        for kind, _, power in factors:
            if kind == "y":
                xpow += power
            elif kind == "u":
                scalar *= chain(u_bar, power)
            elif kind == "phi1":
                scalar = 0.0
                break
            else:
                scalar *= chain(sign, power)
                if scalar == 0.0:
                    break
        if scalar != 0.0:
            coeffs[xpow] += scalar
    coeffs[1] -= 1.0
    return AlgebraicPolynomial(coeffs)


def scalar_static_comp_poly(model, r_bar):
    """:func:`comp.static_comp_poly` as a plain scalar term walk."""
    if model.is_hysteretic():
        raise ValueError(
            "static inversion is undefined for hysteretic models; "
            "use a traced loop instead"
        )
    r_bar = float(r_bar)
    coeffs = [0.0] * (model.ell + 1)
    for scalar, factors in zip(model.coefficients, model.factors):
        xpow = 0
        for kind, _, power in factors:
            if kind == "y":
                scalar *= chain(r_bar, power)
            else:
                xpow += power
        coeffs[xpow] += scalar
    coeffs[0] -= r_bar
    if not all(map(math.isfinite, coeffs)):
        raise narx.NonFinite("compensation polynomial is not finite at r=%g" % r_bar)
    p = AlgebraicPolynomial(coeffs)
    if p.degree() == -1:
        raise comp.IdenticallyZero("compensation polynomial vanished at r=%g" % r_bar)
    return p


def scalar_jacobian_eigen(model, u_bar, y_bar):
    """:func:`narx.jacobian_eigen` as a plain scalar term walk."""
    n_eff = model.max_y_lag()
    if n_eff == 0:
        return []
    a = [0.0] * (n_eff + 1)
    u_bar = float(u_bar)
    y_bar = float(y_bar)
    for coef, factors in zip(model.coefficients, model.factors):
        for fi, (kind, lag, power) in enumerate(factors):
            if kind != "y":
                continue
            part = coef * power * chain(y_bar, power - 1)
            for gj, (g_kind, _, g_power) in enumerate(factors):
                if gj == fi:
                    continue
                if g_kind == "y":
                    part *= chain(y_bar, g_power)
                elif g_kind == "u":
                    part *= chain(u_bar, g_power)
                else:
                    part = 0.0
                    break
            a[lag] += part
    char = [0.0] * (n_eff + 1)
    char[n_eff] = 1.0
    for i in range(1, n_eff + 1):
        char[n_eff - i] = -a[i]
    p = AlgebraicPolynomial(char)
    if 0 <= p.degree() < n_eff:  # solved at the structural degree, leading 1 kept
        roots = np.roots(char[::-1]).tolist()
    else:
        roots = poly.solve_roots(p).roots
    return sorted((abs(r) for r in roots), reverse=True)


def outcome(f, *args):
    """repr of ``f(*args)`` (repr tells signed zeros apart), or the type and
    message of the exception it raised."""
    try:
        return repr(f(*args))
    except Exception as e:
        return type(e).__name__, str(e)


# zero, huge and non-finite values reach the order in which a term's
# factors are read
STATIC_COEFS = st.floats(-2.0, 2.0) | st.sampled_from([0.0, -0.0, 1e300, -1e300])
STATIC_TERMS = st.lists(FACTORS, max_size=3) | st.lists(
    st.tuples(st.sampled_from(["y", "u"]), st.integers(1, 4), st.integers(1, 3)), max_size=3)
STATIC_MODELS = st.lists(
    st.tuples(STATIC_COEFS, STATIC_TERMS), min_size=1, max_size=5).map(model_of)
LEVELS = st.floats(-3.0, 3.0) | st.sampled_from(
    [0.0, -0.0, 1e10, -1e10, 1e200, math.inf, -math.inf, math.nan])


@settings(max_examples=400, deadline=None)
@example(  # phi2 ahead of a u factor: at sign +-1 the zero term stops there,
    # before 1e200 * 1e200 would overflow to inf and turn the zero term NaN
    model=mk([term(0.0, ("phi2", 1, 1), ("u", 1, 2)), term(0.5, ("y", 1, 1))]),
    u_bar=1e200, y_bar=0.5)
@example(  # an inf product ahead of phi2: sign 0 turns it into a NaN the term adds
    model=mk([term(1e300, ("u", 1, 1), ("phi2", 1, 1)), term(0.5, ("y", 1, 1))]),
    u_bar=1e10, y_bar=0.5)
@example(  # a phi factor ends the Jacobian term before 1e120 cubed would overflow
    model=mk([term(0.4, ("y", 1, 1), ("phi1", 1, 1), ("y", 1, 3)), term(0.5, ("y", 1, 1))],
             ell=5),
    u_bar=1.0, y_bar=1e120)
@given(STATIC_MODELS, LEVELS, LEVELS)
def test_statics_equal_the_scalar_term_walks(model, u_bar, y_bar):
    for sign in (-1, 0, 1):
        assert (outcome(narx.static_polynomial, model, u_bar, sign)
                == outcome(scalar_static_polynomial, model, u_bar, sign))
    assert (outcome(comp.static_comp_poly, model, y_bar)
            == outcome(scalar_static_comp_poly, model, y_bar))
    assert (outcome(narx.jacobian_eigen, model, u_bar, y_bar)
            == outcome(scalar_jacobian_eigen, model, u_bar, y_bar))


def trimmed_characteristic_model():
    """At u = 1e149 the y(k-2) entry of the Jacobian is about -1.6e296,
    enough for the LEADING_ZERO_RTOL rule to trim the monic leading 1."""
    return mk([term(0.4163, ("u", 2, 2)), term(-0.01568, ("u", 1, 2), ("y", 2, 1)),
               term(0.0982, ("y", 3, 1)), term(-0.1501, ("u", 1, 2)), term(0.8975, ("u", 1, 1))],
              n_y=3, n_u=2, ell=3, inp=(-1e150, 2e150), out=(-1000.0, 1000.0))


def test_fixed_points_keep_the_structural_degree_of_the_characteristic():
    fps = narx.fixed_points(trimmed_characteristic_model(), 1e149)
    assert len(fps) == 1
    assert len(fps[0].eigen_mags) == 3
    assert fps[0].eigen_mags[0] > 1e148
    assert not fps[0].stable


def test_a_huge_feedback_gain_is_an_unstable_eigenvalue():
    # y = 1e300 y(k-1) + 0.3 u(k-1): the degree rule would trim lambda - 1e300
    # to a constant
    m = mk([term(1e300, ("y", 1, 1)), term(0.3, ("u", 1, 1))], ell=1,
           inp=(-1.0, 1.0), out=(-1.0, 1.0))
    assert narx.jacobian_eigen(m, 0.0, 0.0) == [1e300]
    fps = narx.fixed_points(m, 0.0)
    assert [(fp.eigen_mags, fp.stable) for fp in fps] == [((1e300,), False)]


def random_polynomial(rng, degree):
    """Real coefficients, ascending, of a polynomial of ``degree`` with
    roots up to |z| = 1.3, some in conjugate pairs, and a random leading
    coefficient."""
    roots = []
    while len(roots) < degree:
        r = 1.3 * np.sqrt(rng.uniform())
        if degree - len(roots) >= 2 and rng.uniform() < 0.5:
            z = r * np.exp(1j * rng.uniform(0.0, np.pi))
            roots += [z, z.conjugate()]
        else:
            roots.append(r * rng.choice([-1.0, 1.0]))
    return (rng.uniform(0.2, 5.0) * np.poly(roots).real)[::-1]


def test_schur_stable_agrees_with_the_roots():
    rng = np.random.default_rng(20260817)
    for degree in range(1, 13):
        polys = []
        while len(polys) < 400:
            c = random_polynomial(rng, degree)
            mags = np.abs(np.roots(c[::-1]))
            if np.min(np.abs(mags - 1.0)) >= 1e-6:
                polys.append(c)
                assert narx.schur_stable(list(c)) == bool(np.all(mags < 1.0))
        # one verdict per column, equal to the per-polynomial ones
        cols = np.array(polys).T
        assert narx.schur_stable(list(cols)).tolist() == [narx.schur_stable(list(c))
                                                          for c in polys]


@pytest.mark.parametrize("a", [0.5, 0.99, 0.999, 1.001, 2.0])
def test_schur_stable_keeps_its_scale_on_deep_polynomials(a):
    # lambda^n - a has every root at |a|^(1/n).  Steps that did not divide
    # by 1 - k^2 would square the leading coefficient, (1 - a^2)^(2^(j-1))
    # after j steps, which underflows to 0 by n = 9 at a = 0.999
    for n in range(1, 21):
        char = [-a] + [0.0] * (n - 1) + [1.0]
        assert narx.schur_stable(char) is (a < 1.0), n
        cols = [np.array([c, c / 3.0]) for c in char]  # a scaled column agrees
        assert narx.schur_stable(cols).tolist() == [a < 1.0] * 2, n


def test_a_deep_stable_pole_set_is_stable():
    # y = 0.999 y(k-9) + 0.1 u(k-1): y = 100 u at steady state, and every
    # pole lies at 0.999^(1/9) ~ 0.99989
    m = mk([term(0.999, ("y", 9, 1)), term(0.1, ("u", 1, 1))], n_y=9, ell=1,
           inp=(-1.0, 1.0), out=(-100.0, 100.0))
    fps = narx.fixed_points(m, 0.5)
    assert [fp.y_bar for fp in fps] == [pytest.approx(50.0, rel=1e-12)]
    assert fps[0].stable
    assert fps[0].eigen_mags == pytest.approx((0.999 ** (1 / 9),) * 9, rel=1e-12)
    assert comp.solve_static(m, 50.0) == pytest.approx(0.5, rel=1e-12)


def test_schur_stable_reads_non_finite_and_overflow_as_unstable():
    cases = [
        [math.nan, 0.0, 1.0],
        [0.5, math.inf, 1.0],
        [0.0, 0.0, -math.inf],
        [-0.9, 1.5e308, 1.5e308, 1.0],  # the first reduction overflows to inf
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for char in cases:
            assert narx.schur_stable(char) is False
            cols = [np.array([c, 0.5 * (i == 0)]) for i, c in enumerate(char[:-1])]
            verdict = narx.schur_stable(cols + [np.array([char[-1], 1.0])])
            assert verdict.tolist() == [False, True]
    assert narx.schur_stable([1.0]) is True  # no output feedback


@pytest.mark.parametrize("char", [[-1.0, 1.0], [1.0, 1.0], [-1.0, -1.0, 1.0]])
def test_schur_stable_reads_a_unit_root_as_unstable(char):
    # |k| = 1 at the first step, where 1 - k^2 = 0: lambda = 1, lambda = -1,
    # and lambda^2 - lambda - 1 (roots 1.618 and -0.618)
    assert narx.schur_stable(char) is False
    # the column form agrees, beside a stable column (lambda^n - 0.5)
    cols = [np.array([c, -0.5 * (i == 0)]) for i, c in enumerate(char)]
    cols[-1][1] = 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert narx.schur_stable(cols).tolist() == [False, True]


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


def test_fixed_points_overflow_is_non_finite(heater_model):
    with pytest.raises(narx.NonFinite, match="u=1e\\+200"):
        narx.fixed_points(heater_model, 1e200)


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


def test_loop_rejects_a_period_beyond_the_bound(valve_model):
    # a 1e12-sample period would be one array of 8 TB
    with pytest.raises(ValueError, match="period of 1e\\+12 samples is longer than 1000000"):
        narx.hysteresis_loop(valve_model, 2.0, 1e-12, 3.0)
    with pytest.raises(ValueError, match="longer than"):
        narx.hysteresis_loop(valve_model, 2.0, 5e-324, 3.0)


def test_loop_with_an_empty_branch_is_rejected(bouc_wen_model):
    # 1e-300 does not move an input centered at 1 in floating point: the
    # trace would settle at once on a flat period with neither branch
    with pytest.raises(narx.LoopSpecError, match="^loop amplitude 1e-300 does not move the "
                       "input off its center 1$") as e:
        narx.hysteresis_loop(bouc_wen_model, 1e-300, 0.005, 1.0)
    assert e.value.param == "amplitude"
    # 2.23e-16 moves 3 by one ulp either way, but no sample of the 9-sample
    # schedule gets near enough to a peak (|sin| at most 0.9896) to move it
    f_min = 22.7 * 0.005
    schedule = 2.23e-16 * np.sin(2.0 * np.pi * f_min * np.arange(9, dtype=float)) + 3.0
    assert 3.0 + 2.23e-16 != 3.0 != 3.0 - 2.23e-16
    assert schedule.tolist() == [3.0] * 9
    with pytest.raises(narx.EmptyLoopBranch, match="^loop of amplitude 2.23e-16 around 3 has an"):
        narx.hysteresis_loop(bouc_wen_model, 2.23e-16, f_min, 3.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("amplitude,f_min,center,param,message", [
    (30.0, math.nan, 0.0, "f", "loop frequency must be positive"),
    (math.inf, 0.005, 0.0, "amplitude", "loop amplitude must be positive and finite"),
    (-30.0, 0.005, 0.0, "amplitude", "loop amplitude must be positive and finite"),
    (30.0, 0.005, math.nan, "center", "loop center must be finite"),
    (30.0, 1 / 7.4, 0.0, "f", "loop period of 7.4 samples is too coarse"),
    (30.0, 1e-7, 0.0, "f", "loop period of 1e+07 samples is longer than 1000000"),
], ids=["nan-f", "inf-amplitude", "negative-amplitude", "nan-center", "period-under-8",
        "period-over-bound"])
def test_loop_spec_errors_name_the_parameter(bouc_wen_model, amplitude, f_min, center,
                                             param, message):
    with pytest.raises(narx.LoopSpecError) as e:
        narx.hysteresis_loop(bouc_wen_model, amplitude, f_min, center)
    assert (e.value.param, str(e.value)) == (param, message)


def term_walk_loop(model, amplitude, f_min, u_center, settle_tol=1e-8, max_periods=64):
    """(loading, unloading) of the settled period, split by the per-sample
    regime loop that :func:`narxcomp.model.hysteresis_loop` ran before it
    took the regime from numpy, or the exception the trace ends with, and
    the period it settled in (None for an exception).  The trace is
    :func:`iterate_term_walk` over one period of input, repeated, on carried
    histories, every period evaluated term by term, and it settles when a
    whole period agrees with the one before to ``settle_tol`` times the
    period's output span (at least 1)."""
    period = int(round(1.0 / f_min))
    u_p = amplitude * np.sin(2.0 * np.pi * f_min * np.arange(period, dtype=float)) + u_center
    u_hist = [float(u_center)] * model.u_depth
    y_hist = [0.0] * model.n_y
    prev = None
    for p in range(max_periods):
        y, diverged, y_hist, u_hist = iterate_term_walk(model, u_p.tolist(), y_hist, u_hist)
        if diverged:
            return narx.NonFinite("loop trace diverged in period %d" % p), None
        if prev is not None and max(abs(a - b) for a, b in zip(y, prev)) < settle_tol * max(
                1.0, max(y) - min(y)):
            break
        prev = y
    else:
        return narx.LoopUnsettled("hysteresis loop did not settle within %d periods"
                                  % max_periods), None
    y_p = np.array(y)
    du = np.empty(period)
    du[0] = u_p[0] - u_p[-1]  # the period before the settled one ends on u_p[-1]
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
    if not (len(loading) and len(unloading)):
        return narx.EmptyLoopBranch("loop of amplitude %g around %g has an empty branch"
                                    % (amplitude, u_center)), None
    loading = loading[np.argsort(loading[:, 0], kind="stable")]
    unloading = unloading[np.argsort(unloading[:, 0], kind="stable")[::-1]]
    return (loading.tolist(), unloading.tolist()), p


def first_mapped_period(model, f_min):
    """The first period :func:`narxcomp.model.hysteresis_loop` predicts from
    the period map: the fourth that starts from the steady input history,
    for an output-affine structure; None for any other."""
    if any(sum(p for kind, _, p in term if kind == "y") > 1 for term in model.factors):
        return None
    return -(-model.u_depth // int(round(1.0 / f_min))) + 3


def loop_outcome(model, *spec, **kwargs):
    """:func:`narxcomp.model.hysteresis_loop`'s rows, or its exception, in
    the form :func:`term_walk_loop` returns them."""
    try:
        loop = narx.hysteresis_loop(model, *spec, **kwargs)
    except (ArithmeticError, RuntimeError, ValueError) as e:
        return e
    return loop.loading.tolist(), loop.unloading.tolist()


def same_outcome(got, want):
    """Rows equal to the bit (repr tells signed zeros apart), or exceptions
    of one type with one message."""
    if isinstance(want, Exception):
        return type(got) is type(want) and str(got) == str(want)
    return repr(got) == repr(want)


#: How far rows predicted by the period map may be from the term walk's,
#: relative to max(1, max |y|): rounding moves them by 3.3e-14 at most on
#: perturbed bundled models, a settle one period off by about 1e-8 of the span.
MAPPED_RTOL = 1e-12


def loop_matches_the_term_walk(model, *spec, **kwargs):
    """:func:`narxcomp.model.hysteresis_loop`'s rows, or its exception, are
    :func:`term_walk_loop`'s: the same exception with the same message, the
    same rows to the bit when the walk settles before the first period the
    map predicts, and otherwise the same inputs with outputs within
    :data:`MAPPED_RTOL`."""
    (want, settled), got = term_walk_loop(model, *spec, **kwargs), loop_outcome(model, *spec,
                                                                                **kwargs)
    first = first_mapped_period(model, spec[1])
    if isinstance(want, Exception) or first is None or settled < first:
        assert same_outcome(got, want), (got, want)
        return
    assert not isinstance(got, Exception), got
    got, want = np.array(got[0] + got[1]), np.array(want[0] + want[1])
    assert got.shape == want.shape and repr(got[:, 0].tolist()) == repr(want[:, 0].tolist())
    off = np.abs(got[:, 1] - want[:, 1]).max() / max(1.0, np.abs(want[:, 1]).max())
    assert off <= MAPPED_RTOL, off


@pytest.mark.parametrize("name,spec", [
    # amplitudes a few ulps of the center: the first step of the settled
    # period and runs of steps around both peaks leave the input unchanged
    ("bouc_wen", (5e-15, 0.005, 3.0)),
    ("valve", (2e-15, 0.005, 3.0)),
    ("bouc_wen", (1e-13, 0.005, 3.0)),  # flat only around the peaks
    ("valve", (2e-15, 1 / 20.45, 3.0)),
    ("bouc_wen", ev.BOUC_WEN_LOOP_SPEC),
    ("bouc_wen", (80.0, 0.005, 0.0)),  # mc-tracking's seeding loop
    ("bouc_wen", (30.0, 0.005, 0.0)),
    ("bouc_wen_sigma1", (80.0, 0.01, 0.0)),
    ("valve", (2.0, 0.001, 3.0)),
    ("valve", (2.0, 0.005, 3.0)),
    ("valve", (2.0, 1e-4, 3.0)),
    # periods that are not a whole number of samples
    ("bouc_wen", (50.0, 0.66 * 0.005, 0.0)),
    ("bouc_wen", (30.0, 0.7 * 0.005, 0.0)),
    ("valve", (1.0, 0.003, 2.5)),
])
def test_loop_regime_equals_the_per_sample_regime_loop(request, name, spec):
    loop_matches_the_term_walk(request.getfixturevalue(name + "_model"), *spec)


# lag 36 reaches further back than any period drawn; the others do not
LOOP_FACTORS = st.tuples(
    st.sampled_from(["y", "u", "phi1", "phi2"]), st.sampled_from([1, 1, 2, 3, 4, 36]),
    st.integers(1, 2)
)
HYSTERETIC_MODELS = st.lists(
    st.tuples(st.floats(-0.6, 0.6), st.lists(LOOP_FACTORS, max_size=3)),
    min_size=1, max_size=5,
).map(model_of).filter(lambda m: m.is_hysteretic())
ONE_COLUMN_MODEL = mk([term(0.9, ("y", 1, 1)), term(0.5, ("phi1", 1, 1))])
DEEP_LAG_MODEL = mk([term(0.9, ("y", 1, 1)), term(0.5, ("u", 1, 1)), term(0.2, ("u", 37, 1)),
                     term(0.3, ("phi1", 36, 1), ("phi2", 36, 1)),
                     term(-0.1, ("y", 1, 1), ("phi1", 1, 1), ("u", 2, 2))], n_u=37, ell=4)


def test_an_unsettled_output_affine_loop_runs_few_kernel_periods(monkeypatch):
    # y(k) = 1.001 y(k-1) + 0.5 phi1(k-1) drifts and never settles: periods
    # 0 .. 3 run the kernel (q0 = 1), the fourth of them is the map's run
    # along e, and n_y = 1 needs no other; iterating ran all 64
    runs = []

    def counting(model):
        run = free_run_kernel(model)
        return lambda *args: runs.append(len(args[2])) or run(*args)

    free_run_kernel = narx._free_run_kernel
    monkeypatch.setattr(narx, "_free_run_kernel", counting)
    model = mk([term(1.001, ("y", 1, 1)), term(0.5, ("phi1", 1, 1))])
    with pytest.raises(narx.LoopUnsettled, match="^hysteresis loop did not settle within 64 "):
        narx.hysteresis_loop(model, 1.0, 1 / 20, 0.0)
    assert runs == [20] * 4
    # a second output adds one run; a u lag past the period, one more
    # period before the map (q0 = 2)
    for model, calls in [
            (mk([term(1.0, ("y", 1, 1)), term(0.001, ("y", 2, 1)), term(0.5, ("phi1", 1, 1))],
                n_y=2), 5),
            (mk([term(1.001, ("y", 1, 1)), term(0.5, ("phi1", 1, 1)), term(0.1, ("u", 21, 1))],
                n_u=21), 5)]:
        runs.clear()
        with pytest.raises(narx.LoopUnsettled):
            narx.hysteresis_loop(model, 1.0, 1 / 20, 0.0)
        assert len(runs) == calls


@pytest.mark.parametrize("run,period", [(7, 5), (1, 10)])
def test_diverging_valve_band_runs_name_the_period_the_kernel_meets(valve_model, run, period):
    # runs of the valve band (rel_std 0.02, seed 20260817) whose loop
    # diverges after the map has taken over: its predictions turn
    # non-finite, and the kernel, resumed, names the period it diverges in
    z = np.random.default_rng(20260817).standard_normal((20, len(valve_model.terms)))
    model = ev.perturbed_model(valve_model, 0.02, z[run])
    with pytest.raises(narx.NonFinite, match="^loop trace diverged in period %d$" % period):
        narx.hysteresis_loop(model, 2.0, 1e-4, 3.0)


@settings(max_examples=200, deadline=None)
# one output term and one phi1 term, mapped from period 4
@example(model=ONE_COLUMN_MODEL, amplitude=1.0, period=32, center=0.0, max_periods=64)
# every term has an output factor
@example(model=mk([term(0.9, ("y", 1, 1)), term(0.5, ("y", 1, 1), ("phi1", 1, 1)),
                   term(0.2, ("y", 1, 1), ("phi2", 2, 1))]),
         amplitude=1.0, period=32, center=0.0, max_periods=64)
# y(k-2) phi1 phi2 u(k-1)^2: a map of two outputs
@example(model=mk([term(0.97, ("y", 1, 1)), term(0.02, ("y", 2, 1)), term(0.5, ("phi1", 1, 1)),
                   term(-0.1, ("y", 2, 1), ("phi1", 1, 1), ("phi2", 1, 1), ("u", 1, 2))],
                  n_y=2, ell=5),
         amplitude=1.5, period=36, center=0.5, max_periods=64)
# a phi1 lag of 36 and a u lag of 37 on a 33-sample period: the periods
# start from the repeating input history from the third on, and the map
# predicts from the sixth
@example(model=DEEP_LAG_MODEL, amplitude=1.0, period=33, center=0.0, max_periods=64)
# diverges in a mapped period: the kernel, resumed, names it
@example(model=mk([term(1.5, ("y", 1, 1)), term(0.5, ("phi1", 1, 1))]),
         amplitude=1.0, period=40, center=0.0, max_periods=64)
# an output squared: not output-affine, every period runs the kernel
@example(model=mk([term(0.9, ("y", 1, 1)), term(0.05, ("y", 1, 2)), term(0.5, ("phi1", 1, 1))]),
         amplitude=1.0, period=32, center=0.0, max_periods=64)
# unsettled just before and just after the map's first period
@example(model=ONE_COLUMN_MODEL, amplitude=1.0, period=32, center=0.0, max_periods=4)
@example(model=ONE_COLUMN_MODEL, amplitude=1.0, period=32, center=0.0, max_periods=5)
@example(model=DEEP_LAG_MODEL, amplitude=1.0, period=33, center=0.0, max_periods=5)
@example(model=DEEP_LAG_MODEL, amplitude=1.0, period=33, center=0.0, max_periods=6)
@given(HYSTERETIC_MODELS, st.sampled_from([0.5, 1.0, 2.5]), st.integers(8, 40),
       st.sampled_from([-1.0, 0.0, 0.25]), st.sampled_from([3, 4, 5, 8, 64]))
def test_loop_equals_the_term_walk_on_random_models(model, amplitude, period, center,
                                                    max_periods):
    # periods run by the kernel give the term walk's bits, and those the
    # map predicts its outputs to rounding, settling in the same period
    loop_matches_the_term_walk(model, amplitude, 1.0 / period, center, max_periods=max_periods)


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


def row_walk_loop_inverse(loop, y_target, regime):
    """narx.loop_inverse as it was written over numpy rows."""
    branch = loop.branch(regime)
    t = float(y_target)
    for i in range(len(branch) - 1):
        u0, y0 = branch[i]
        u1, y1 = branch[i + 1]
        if y0 <= t <= y1 or y1 <= t <= y0:
            if y1 == y0:
                return float(u0)
            return float(u0 + (t - y0) * (u1 - u0) / (y1 - y0))
    ys = [y for _, y in branch.tolist()]
    lo, hi = (float(np.min(ys)), float(np.max(ys))) if ys else (math.inf, -math.inf)
    raise narx.OutOfLoopRange(
        "target %g outside the output span [%g, %g] of the traced %s branch"
        % (t, lo, hi, regime.name.lower())
    )


def inverse_outcome(inverse, loop, y_target, regime):
    try:
        with np.errstate(all="ignore"):
            return repr(inverse(loop, y_target, regime))
    except narx.OutOfLoopRange as e:
        return "OutOfLoopRange: %s" % e


@st.composite
def branches_and_targets(draw):
    """(rows, target): up to six (u, y) rows, their outputs drawn from a few
    levels so that flat segments occur, and a target at either end, NaN or
    anywhere."""
    level = st.sampled_from([-1.0, 0.0, 0.5, 2.0]) | st.floats()
    rows = draw(st.lists(st.tuples(st.floats(), level), max_size=6))
    ends = [y for _, y in rows[:1] + rows[-1:]]
    target = draw(st.sampled_from(ends + [math.nan, -0.0]) | st.floats())
    return rows, target


@settings(max_examples=300, deadline=None)
@example(([], 0.0))
@example(([(1.0, 2.0)], 2.0))
@example(([(1.0, 0.5), (3.0, 0.5), (4.0, 2.0)], 0.5))  # a flat first segment
@example(([(1.0, -1.0), (3.0, 2.0)], math.nan))
@example(([(0.0, 0.0), (0.0, 0.0)], 5e-324))  # (y0 - t) * (y1 - t) underflows to 0
@given(branches_and_targets())
def test_loop_inverse_equals_the_row_walk(case):
    rows, target = case
    branch = np.array(rows, dtype=float).reshape(-1, 2)
    loop = narx.HysteresisLoop(loading=branch, unloading=branch[::-1], period=8)
    for regime in (Regime.LOADING, Regime.UNLOADING):
        assert (inverse_outcome(narx.loop_inverse, loop, target, regime)
                == inverse_outcome(row_walk_loop_inverse, loop, target, regime))


#: A power of two that takes the bundled loops' outputs, exactly, down to
#: about 1e-170, where the product of two output differences underflows.
TINY = 2.0 ** -560


def scaled_outputs(loop, scale):
    return narx.HysteresisLoop(loading=loop.loading * [1.0, scale],
                               unloading=loop.unloading * [1.0, scale], period=loop.period)


def inverse_or_error(loop, y_target, regime):
    try:
        return repr(narx.loop_inverse(loop, y_target, regime))
    except narx.OutOfLoopRange:
        return "OutOfLoopRange"


# outputs 1e-170, 2e-170 and 2.5e-170 and the target 3e-170 past them: every
# product of differences underflows, so a product test takes the first
# segment and extrapolates to u = 2
@example(rows=[(0.0, 1e-170 / TINY), (1.0, 2e-170 / TINY), (2.0, 2.5e-170 / TINY)],
         target=3e-170 / TINY, regime=Regime.LOADING)
@settings(max_examples=100, deadline=None)
@given(rows=st.none(), target=st.floats(-60.0, 60.0), regime=st.sampled_from(list(Regime)))
def test_loop_inverse_is_the_same_on_tiny_outputs(bouc_wen_loop, rows, target, regime):
    # scaling every output and the target by a power of two scales each
    # difference exactly, so the interpolated input stays the same bit for bit
    loop = bouc_wen_loop
    if rows is not None:
        loop = narx.HysteresisLoop(loading=np.array(rows), unloading=np.array(rows), period=8)
    assert (inverse_or_error(scaled_outputs(loop, TINY), target * TINY, regime)
            == inverse_or_error(loop, target, regime))


# ---------------------------------------------------------------------------
# JSON loading


def test_round_trip_preserves_exact_coefficients(heater_model, tmp_path):
    # the bundled file as json.dump writes it, loaded back
    with resources.files("narxcomp").joinpath("models/heater.json").open() as fh:
        d = json.load(fh)
    path = tmp_path / "h.json"
    path.write_text(json.dumps(d, indent=2))
    again = narx.load_model(path)
    assert again == heater_model
    for t0, t1 in zip(heater_model.terms, again.terms):
        assert t0.coefficient == t1.coefficient  # bitwise, not approx


def test_model_from_dict_rejects_unknown_signal():
    d = {"n_y": 1, "n_u": 1, "tau_d": 1, "ell": 1, "input_range": [-1.0, 1.0],
         "output_range": [-1.0, 1.0],
         "terms": [{"coeff": 1.0, "factors": [{"sig": "bogus", "lag": 1, "pow": 1}]}]}
    with pytest.raises(ValueError):
        narx.model_from_dict(d)
