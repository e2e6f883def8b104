"""Metrics, Monte Carlo propagation, and the canned benchmark experiments."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import narxcomp.compensator as comp
import narxcomp.evaluation as ev
import narxcomp.model as narx
import narxcomp.poly as poly
from narxcomp.benchmarks import BoucWenPlant, HammersteinHeater

SEED = 20260817


# ---------------------------------------------------------------------------
# MAPE


def test_mape_oracle():
    assert ev.mape([0.0, 1.0, 2.0], [0.0, 1.0, 2.0]) == 0.0
    # sum |diff| = 2 over N=2 samples of span 2 -> 50%
    assert ev.mape([0.0, 2.0], [1.0, 3.0]) == pytest.approx(50.0)


def test_mape_errors():
    with pytest.raises(ValueError):
        ev.mape([1.0, 2.0], [1.0])
    with pytest.raises(ValueError):
        ev.mape([1.0], [1.0])
    with pytest.raises(ev.DegenerateRange):
        ev.mape([3.0, 3.0, 3.0], [1.0, 2.0, 3.0])


series = st.lists(st.floats(-100, 100), min_size=3, max_size=20)


@given(series, series, st.floats(-50, 50))
@settings(max_examples=100)
def test_mape_shift_invariant(t, a, c):
    n = min(len(t), len(a))
    t, a = np.array(t[:n]), np.array(a[:n])
    if np.ptp(t) < 1e-6:
        return
    assert ev.mape(t + c, a + c) == pytest.approx(ev.mape(t, a), rel=1e-9, abs=1e-9)


@given(series, series, st.floats(0.01, 100))
@settings(max_examples=100)
def test_mape_scale_invariant(t, a, s):
    n = min(len(t), len(a))
    t, a = np.array(t[:n]), np.array(a[:n])
    if np.ptp(t) < 1e-6:
        return
    assert ev.mape(s * t, s * a) == pytest.approx(ev.mape(t, a), rel=1e-9)


def test_mape_is_percentage_of_span():
    t = np.array([0.0, 10.0, 0.0, 10.0])
    a = t + 1.0  # constant absolute error of 1 on a span of 10
    assert ev.mape(t, a) == pytest.approx(10.0)


# ---------------------------------------------------------------------------
# Effort


def test_effort_oracle():
    energy, std = ev.effort([1.0, 2.0, 3.0, 4.0], np.zeros(4), 2)
    assert energy == pytest.approx(9.0 + 16.0)
    assert std == pytest.approx(0.5)


def test_effort_window_validation():
    with pytest.raises(ValueError):
        ev.effort([1.0, 2.0], [0.0, 0.0], 0)
    with pytest.raises(ValueError):
        ev.effort([1.0, 2.0], [0.0, 0.0], 3)
    with pytest.raises(ValueError):
        ev.effort([1.0, 2.0], [0.0], 1)


def test_effort_full_window():
    energy, std = ev.effort([1.0, 1.0], [1.0, 1.0], 2)
    assert energy == 0.0
    assert std == 0.0


# ---------------------------------------------------------------------------
# Coefficient perturbation


def test_perturbed_model_zero_noise_is_identity(heater_model):
    z = np.zeros(len(heater_model.terms))
    assert ev.perturbed_model(heater_model, 0.005, z) == heater_model


def test_perturbed_model_scales_relative_to_magnitude():
    from test_model import mk, term

    m = mk([term(2.0, ("u", 1, 1)), term(-0.5, ("y", 1, 1))])
    got = ev.perturbed_model(m, 0.1, np.array([1.0, -2.0]))
    assert got.terms[0].coefficient == pytest.approx(2.0 + 0.1 * 2.0 * 1.0)
    assert got.terms[1].coefficient == pytest.approx(-0.5 + 0.1 * 0.5 * -2.0)
    # Structure untouched.
    assert got.terms[0].factors == m.terms[0].factors
    assert got.input_range == m.input_range


# ---------------------------------------------------------------------------
# Monte Carlo


def test_monte_carlo_zero_spread_collapses_band(heater_model):
    grid = np.array([0.1, 0.2, 0.3])
    band = ev.monte_carlo(
        heater_model, 0.0, 8, ev.HeaterStaticSweep(grid), SEED, grid=grid
    )
    nominal = ev.HeaterStaticSweep(grid)(heater_model)
    assert np.allclose(band.mean, nominal)
    # All runs are bitwise identical; the residual std is reduction-order
    # rounding in the column mean, a few ulp at most.
    assert np.all(band.std < 1e-14)
    assert np.allclose(band.lo, band.hi)
    assert (band.n_skipped, band.n_runs) == (0, 8)
    assert np.array_equal(band.grid, grid)


def test_monte_carlo_bit_reproducible(heater_model):
    grid = np.array([0.1, 0.25])
    runs = [
        ev.monte_carlo(
            heater_model, 0.005, 50, ev.HeaterStaticSweep(grid), SEED, grid=grid
        )
        for _ in range(2)
    ]
    assert np.array_equal(runs[0].mean, runs[1].mean)
    assert np.array_equal(runs[0].std, runs[1].std)
    other = ev.monte_carlo(
        heater_model, 0.005, 50, ev.HeaterStaticSweep(grid), SEED + 1, grid=grid
    )
    assert not np.array_equal(runs[0].mean, other.mean)


def test_monte_carlo_static_batch_matches_per_run(heater_model):
    grid = np.array([0.15, 0.3])
    sweep = ev.HeaterStaticSweep(grid)
    batch = ev.monte_carlo(heater_model, 0.005, 40, sweep, SEED, grid=grid)
    per_run = ev.monte_carlo(heater_model, 0.005, 40, _plain(sweep), SEED, grid=grid)
    assert _same_band(batch, per_run)
    assert batch.n_skipped == 0


def test_monte_carlo_counts_skipped_runs(heater_model):
    nominal = heater_model.terms[0].coefficient

    def fussy(model):
        if model.terms[0].coefficient > nominal:
            raise comp.NoFeasibleRoot("refusing upward perturbations")
        return np.array([1.0])

    band = ev.monte_carlo(heater_model, 0.01, 40, fussy, SEED)
    assert 0 < band.n_skipped < band.n_runs == 40
    assert np.allclose(band.mean, [1.0])


@pytest.mark.parametrize("shape", [(), (1,), (3,)])
def test_monte_carlo_stacks_runs_as_vstack(heater_model, shape):
    seen = []
    size = int(np.prod(shape))

    def experiment(model):
        seen.append(model.terms[0].coefficient * np.arange(1.0, size + 1.0).reshape(shape))
        return seen[-1]

    band = ev.monte_carlo(heater_model, 0.01, 7, experiment, SEED)
    vals = np.vstack(seen)  # a 0-d result stacks to one column
    assert repr((band.mean.tolist(), band.std.tolist())) == repr(
        (vals.mean(axis=0).tolist(), vals.std(axis=0).tolist()))
    assert np.array_equal(band.grid, np.arange(vals.shape[1]))


def test_monte_carlo_raises_when_every_run_fails(heater_model):
    def broken(model):
        raise comp.NoFeasibleRoot("nope")

    with pytest.raises(comp.NoFeasibleRoot):
        ev.monte_carlo(heater_model, 0.01, 5, broken, SEED)


def test_monte_carlo_band_is_mean_plus_minus_two_std(heater_model):
    grid = np.array([0.2])
    band = ev.monte_carlo(
        heater_model, 0.005, 60, ev.HeaterStaticSweep(grid), SEED, grid=grid
    )
    assert np.allclose(band.lo, band.mean - 2.0 * band.std)
    assert np.allclose(band.hi, band.mean + 2.0 * band.std)
    assert np.all(band.std > 0.0)


def test_monte_carlo_raises_a_batch_runs_unexpected_error(heater_model):
    class Experiment:
        def batch(self, model, coefs):
            return np.zeros((1, 2)), {1: comp.NoFeasibleRoot("skip"), 2: ValueError("bad run")}

    with pytest.raises(ValueError, match="bad run"):
        ev.monte_carlo(heater_model, 0.01, 3, Experiment(), SEED)


def test_monte_carlo_batch_gets_the_perturbed_coefficient_matrix(bouc_wen_model):
    seen = []

    class Experiment:
        def batch(self, model, coefs):
            seen.append(coefs)
            return np.zeros((len(coefs), 1)), {}

    ev.monte_carlo(bouc_wen_model, 0.005, 6, Experiment(), SEED)
    (coefs,) = seen
    z = np.random.default_rng(SEED).standard_normal((6, len(bouc_wen_model.terms)))
    assert coefs.shape == (6, len(bouc_wen_model.terms))
    for row, zi in zip(coefs, z):
        perturbed = list(ev.perturbed_model(bouc_wen_model, 0.005, zi).coefficients)
        assert row.tolist() == perturbed
        assert perturbed == [
            t.coefficient + 0.005 * abs(t.coefficient) * float(v)
            for t, v in zip(bouc_wen_model.terms, zi)
        ]


def test_static_sweep_experiment(heater_model):
    t1, t2, t3 = 0.8958185, 0.06393347, -0.01746750
    grid = np.array([0.2, 0.3])
    out = ev.HeaterStaticSweep(grid)(heater_model)
    for i, r_bar in enumerate(grid):
        m_bar = np.sqrt(r_bar * (1.0 - t1 - t3) / t2)
        assert out[i] == pytest.approx(
            HammersteinHeater.static_output(m_bar), rel=1e-9
        )


# ---------------------------------------------------------------------------
# Model-as-plant


def test_model_plant_holds_its_equilibrium(heater_model):
    gain = 0.06393347 / (1.0 - 0.8958185 + 0.01746750)
    y_eq = gain * 0.25
    plant = ev.ModelPlant(heater_model, 0.5, y_eq)
    y = plant.simulate(np.full(200, 0.5))
    assert len(y) == 200
    assert np.allclose(y, y_eq, atol=1e-12)


def test_model_plant_restarts_each_simulate(bouc_wen_model):
    plant = ev.ModelPlant(bouc_wen_model, 0.0, 0.0)
    u = 10.0 * np.sin(2 * np.pi * 0.01 * np.arange(200))
    a = plant.simulate(u)
    b = plant.simulate(u)
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# Compensation experiments


def test_compensation_experiment_report_shape(heater_model):
    k = np.arange(300)
    r = 0.2 + 0.1 * np.sin(2 * np.pi * 0.005 * k)
    rep = ev.compensation_experiment(
        heater_model, HammersteinHeater, r, effort_window=100
    )
    for arr in (rep.k, rep.r, rep.m, rep.y_comp, rep.y_uncomp):
        assert len(arr) == 300
    assert rep.mape_comp < rep.mape_uncomp
    assert rep.effort_energy >= 0.0
    assert rep.effort_std >= 0.0
    assert 0.0 <= rep.hold_rate <= 1.0


def test_compensation_experiment_eval_window(heater_model):
    k = np.arange(400)
    r = 0.2 + 0.1 * np.sin(2 * np.pi * 0.005 * k)
    full = ev.compensation_experiment(heater_model, HammersteinHeater, r)
    tail = ev.compensation_experiment(
        heater_model, HammersteinHeater, r, eval_window=slice(200, None)
    )
    # The cold-start transient dominates the early error, so the tail
    # window must sharply reduce the reported MAPE.
    assert tail.mape_comp < full.mape_comp


def test_compensation_experiment_default_loop(bouc_wen_model):
    k = np.arange(400)
    r = 20.0 * np.sin(2 * np.pi * 0.01 * k + np.pi / 2)
    rep = ev.compensation_experiment(
        bouc_wen_model, BoucWenPlant, r, effort_window=100
    )
    assert np.isfinite(rep.mape_comp)
    assert rep.mape_comp < rep.mape_uncomp


def test_compensation_experiment_shared_loop(bouc_wen_model, bouc_wen_loop):
    k = np.arange(400)
    r = 20.0 * np.sin(2 * np.pi * 0.01 * k + np.pi / 2)
    rep = ev.compensation_experiment(
        bouc_wen_model, BoucWenPlant, r, loop=bouc_wen_loop
    )
    assert np.isfinite(rep.mape_comp)


# ---------------------------------------------------------------------------
# Table experiments


def test_table_experiment_rejects_bad_mode(heater_model):
    with pytest.raises(ValueError):
        ev.table_experiment(
            heater_model, HammersteinHeater, [(0.001, 0.3)], "check",
            lambda level, f, n: np.zeros(n),
        )


def test_table_experiment_failed_cell_yields_nan(heater_model):
    # A reference peaking at 0.53 stays inside the (widened) output range
    # but needs an input beyond 1, so initialization has no feasible root.
    def signal(r0, f_cps, n):
        k = np.arange(n, dtype=float)
        return r0 * np.sin(2.0 * np.pi * f_cps * k + 0.5 * np.pi) + r0

    rows = ev.table_experiment(
        heater_model, HammersteinHeater, [(0.001, 0.265), (0.001, 0.20)],
        "compensate", signal, ts=ev.HEATER_TS, discard_periods=0,
    )
    assert np.isnan(rows[0][2]) and np.isnan(rows[0][3])
    assert np.isfinite(rows[1][2]) and np.isfinite(rows[1][3])


def test_table_experiment_validate_has_nan_secondary(heater_val_table):
    for f_hz, level, main, secondary in heater_val_table:
        assert np.isfinite(main)
        assert np.isnan(secondary)


def test_heater_validation_table_layout(heater_val_table):
    assert len(heater_val_table) == 9
    assert [row[:2] for row in heater_val_table] == [
        list(c) if isinstance(c, list) else c for c in ev.HEATER_VALIDATION_CELLS
    ]
    # Model degrades near the origin: u0 = 0.3 is the worst column at
    # every frequency.
    by_f = {}
    for f_hz, u0, m, _ in heater_val_table:
        by_f.setdefault(f_hz, {})[u0] = m
    for f_hz, col in by_f.items():
        assert col[0.3] > col[0.5]
        assert col[0.3] > col[0.7]


def test_heater_compensation_table_layout(heater_comp_table):
    assert len(heater_comp_table) == 12
    for f_hz, r0, mape_comp, mape_uncomp in heater_comp_table:
        assert np.isfinite(mape_comp)
        assert np.isfinite(mape_uncomp)
        assert mape_comp < mape_uncomp


def test_bouc_wen_validation_table_layout(bouc_wen_val_table):
    assert len(bouc_wen_val_table) == 9
    for f_hz, g, m, secondary in bouc_wen_val_table:
        assert np.isfinite(m)
        assert np.isnan(secondary)
        assert m < 10.0  # the identified model is a usable surrogate


def test_bouc_wen_compensation_table_layout(bouc_wen_comp_table):
    assert len(bouc_wen_comp_table) == 12
    for f_hz, g0, mape_comp, mape_uncomp in bouc_wen_comp_table:
        assert np.isfinite(mape_comp)
        assert np.isfinite(mape_uncomp)


# ---------------------------------------------------------------------------
# Hold-drift run


def test_drift_hold_run_freezes_input(bouc_wen_model):
    u, y = ev.drift_hold_run(bouc_wen_model, n=2000, hold_at=920)
    assert len(u) == len(y) == 2000
    assert np.all(u[920:] == u[920])
    assert np.any(np.diff(u[:920]) != 0.0)
    assert np.all(np.isfinite(y))


# ---------------------------------------------------------------------------
# Tracking robustness under coefficient uncertainty (slow)


@pytest.mark.slow
def test_monte_carlo_tracking_band_covers_reference(bouc_wen_model):
    ts = ev.BOUC_WEN_TS
    f_hz = 2.0
    n = 500  # five periods at 2 Hz
    k = np.arange(n)
    r = 20.0 * np.sin(2 * np.pi * f_hz * k * ts + np.pi / 2)

    def experiment(pm):
        loop = narx.hysteresis_loop(pm, 50.0, f_hz * ts, 0.0)
        seeds = comp.init_hysteresis(pm, loop, r[0], r[1])
        session = comp.CompensationSession(model=pm, m_hist=list(seeds))
        m = comp.run(session, r)
        plant = BoucWenPlant()
        return plant.simulate(m)

    band = ev.monte_carlo(bouc_wen_model, 0.005, 200, experiment, SEED)
    assert band.n_skipped < 0.1 * band.n_runs
    covered = np.mean((r >= band.lo) & (r <= band.hi))
    assert covered >= 0.95


# ---------------------------------------------------------------------------
# Lockstep Monte Carlo: the static sweep's batch form gives the per-run band
# bit for bit


def _plain(experiment):
    """The same experiment without its batch form, so it runs run by run."""
    return lambda model: experiment(model)


def _same_band(a, b):
    return (
        np.array_equal(a.mean, b.mean)
        and np.array_equal(a.std, b.std)
        and a.n_skipped == b.n_skipped
        and a.skip_reasons == b.skip_reasons
    )


def _self_plant(model, r):
    """Plant factory running the model itself from a run's input seed and
    output r(0)."""
    return lambda seed_value: ev.ModelPlant(model, seed_value, r[0])


def _with_term(model, coefficient, *factors):
    term = narx.Term(coefficient, tuple(narx.Factor(narx.Signal(s), lag, p) for s, lag, p in factors))
    return replace(model, terms=model.terms + (term,), n_u=max(model.n_u, *(f[1] for f in factors)))


@settings(max_examples=4, deadline=None)
@example(seed=7, rel_std=0.3)  # 4, 7 and 12 of 30 runs end at the three levels
@given(seed=st.integers(0, 2**32 - 1), rel_std=st.just(0.05))
def test_static_sweep_band_equals_per_run_band(heater_model, seed, rel_std):
    sweep = ev.HeaterStaticSweep(np.array([0.05, 0.2, 0.45]))
    batch = ev.monte_carlo(heater_model, rel_std, 30, sweep, seed)
    per_run = ev.monte_carlo(heater_model, rel_std, 30, _plain(sweep), seed)
    assert _same_band(batch, per_run)
    assert batch.n_skipped == sum(batch.skip_reasons.values())


#: The grids of the benchmark's static sweep (0.05:0.45:0.05) and of the
#: skip-heavy sweep (0.01:0.53:0.02), as the CLI builds them.
BENCH_GRID = 0.05 + 0.05 * np.arange(9)
SKIP_GRID = 0.01 + 0.02 * np.arange(27)


@pytest.mark.parametrize("rel_std, runs, grid, seed, skipped", [
    (0.005, 1000, BENCH_GRID, SEED, 0),  # blocks of 4, 4 and 1 levels
    (0.05, ev.SWEEP_BLOCK + 404, BENCH_GRID[::4], 4242, 1482),  # one level per block
    (0.05, 1000, SKIP_GRID, 4242, 494),
])
def test_blocked_static_sweep_band_equals_per_run_band(heater_model, rel_std, runs, grid,
                                                        seed, skipped):
    sweep = ev.HeaterStaticSweep(grid)
    batch = ev.monte_carlo(heater_model, rel_std, runs, sweep, seed, grid=grid)
    per_run = ev.monte_carlo(heater_model, rel_std, runs, _plain(sweep), seed, grid=grid)
    assert _same_band(batch, per_run)
    assert batch.n_skipped == skipped


def _count_fallbacks(monkeypatch):
    """The coefficients of every polynomial the static sweep solves root by
    root, off the closed forms."""
    calls = []
    solve_roots = poly.solve_roots
    monkeypatch.setattr(poly, "solve_roots", lambda p: calls.append(p.coeffs) or solve_roots(p))
    return calls


def test_skip_heavy_static_sweep_makes_four_fallback_solves(heater_model, monkeypatch):
    # as many as solving one level at a time for the runs still alive
    calls = _count_fallbacks(monkeypatch)
    band = ev.monte_carlo(heater_model, 0.05, 1000, ev.HeaterStaticSweep(SKIP_GRID), 4242)
    assert band.n_skipped == 494
    assert len(calls) == 4


def test_blocked_static_sweep_makes_the_fallback_solves_of_one_level_at_a_time(
        heater_model, monkeypatch):
    calls = _count_fallbacks(monkeypatch)
    sweep = ev.HeaterStaticSweep(SKIP_GRID)
    ev.monte_carlo(heater_model, 0.1, 300, sweep, 4242)
    blocked = sorted(calls)
    calls.clear()
    monkeypatch.setattr(ev, "SWEEP_BLOCK", 1)
    ev.monte_carlo(heater_model, 0.1, 300, sweep, 4242)
    assert len(blocked) == 23
    assert blocked == sorted(calls)


def test_complex_pole_sweep_stays_in_lockstep(heater_model, monkeypatch):
    # the heater's terms with y(k-1) at 1.2 and y(k-2) at -0.5: every
    # equilibrium has the complex poles of lambda^2 - 1.2 lambda + 0.5, and
    # the stability verdict needs no root of them, so no column is solved
    # root by root
    model = replace(heater_model, terms=(replace(heater_model.terms[0], coefficient=1.2),
                                         heater_model.terms[1],
                                         replace(heater_model.terms[2], coefficient=-0.5)))
    grid = 0.02 + 0.02 * np.arange(9)
    sweep = ev.HeaterStaticSweep(grid)
    calls = _count_fallbacks(monkeypatch)
    batch = ev.monte_carlo(model, 0.005, 1000, sweep, SEED, grid=grid)
    assert calls == []
    assert batch.n_skipped == 0
    assert _same_band(batch, ev.monte_carlo(model, 0.005, 1000, _plain(sweep), SEED, grid=grid))


@pytest.mark.parametrize("runs, columns", [
    (1000, [4000, 4000, 1000]),
    (ev.SWEEP_BLOCK + 1, [ev.SWEEP_BLOCK + 1] * 9),
])
def test_static_sweep_lockstep_calls_stay_within_the_block(heater_model, monkeypatch, runs,
                                                           columns):
    seen = []
    lockstep = comp.solve_static_lockstep

    def recording(model, coefs, r_bar, labels):
        seen.append((coefs.shape, np.shape(r_bar), len(labels)))
        return lockstep(model, coefs, r_bar, labels)

    monkeypatch.setattr(comp, "solve_static_lockstep", recording)
    z = np.random.default_rng(SEED).standard_normal((runs, len(heater_model.terms)))
    coefs = ev.perturbed_coefficients(heater_model, 0.005, z)
    vals, errors = ev.HeaterStaticSweep(BENCH_GRID).batch(heater_model, coefs)
    assert seen == [((n, len(heater_model.terms)), (n,), n) for n in columns]
    assert all(n <= max(ev.SWEEP_BLOCK, runs) for n in columns)
    assert (vals.shape, errors) == ((runs, len(BENCH_GRID)), {})
    assert vals.flags.c_contiguous


def test_lockstep_cases_reach_holds_and_the_scalar_fallback(heater_model, bouc_wen_model):
    k = np.arange(200)
    r = 0.25 + 0.2 * np.sin(2 * np.pi * 0.05 * k)
    session = comp.CompensationSession(heater_model, comp.init_dynamic(heater_model, r[0]))
    comp.run(session, r)
    assert session.hold_count > 0
    # phi1(k-1)^2 u(k-1) makes every step's polynomial a cubic, which `run`
    # hands to the general solver instead of the closed form
    model = _with_term(bouc_wen_model, 2e-4, ("phi1", 1, 2), ("u", 1, 1))
    r = 30.0 * np.sin(2 * np.pi * 0.005 * k[:60] + np.pi / 2)
    loop = narx.hysteresis_loop(model, 80.0, 0.005, 0.0)
    session = comp.CompensationSession(model, comp.init_hysteresis(model, loop, r[0], r[1]))
    session.r = r
    assert comp.hysteresis_comp_polys(session, 0).loading.degree() == 3
    assert np.all(np.isfinite(comp.run(session, r)))
    assert session.steps == len(r)


def test_tracking_experiment_needs_a_loop_spec_for_a_hysteretic_model(bouc_wen_model):
    r = 30.0 * np.sin(2 * np.pi * 0.005 * np.arange(50) + 1.5708)
    experiment = ev.TrackingExperiment(r, lambda seed_value: BoucWenPlant())
    with pytest.raises(ValueError, match="seeded from a traced loop; none given"):
        experiment(bouc_wen_model)


def test_monte_carlo_tracking_band_names_its_skip_reasons(bouc_wen_model):
    # the mc-tracking benchmark band: two perturbed loops never settle
    n = 1000
    r = 30.0 * np.sin(2 * np.pi * 0.005 * np.arange(n) + 1.5708)
    spec = (80.0, 0.005, 0.0)
    band = ev.monte_carlo(
        bouc_wen_model, 0.005, 40,
        ev.TrackingExperiment(r, _self_plant(bouc_wen_model, r), spec), SEED,
    )
    assert band.n_skipped == 2
    assert band.skip_reasons == {"LoopUnsettled": 2}


def test_each_tracking_run_plant_starts_from_that_run_seed(bouc_wen_model):
    # the plant of every run starts from the input that run's own
    # compensator was seeded with, not from the nominal model's seed
    r = 30.0 * np.sin(2 * np.pi * 0.005 * np.arange(60) + 1.5708)
    spec = (80.0, 0.005, 0.0)
    received, plant = [], _self_plant(bouc_wen_model, r)

    def spy(seed_value):
        received.append(seed_value)
        return plant(seed_value)

    runs = []

    def experiment(model):
        runs.append(comp.init_history(model, r, narx.hysteresis_loop(model, *spec))[0])
        return ev.TrackingExperiment(r, spy, spec)(model)

    band = ev.monte_carlo(bouc_wen_model, 0.005, 8, experiment, SEED)
    assert band.n_runs - band.n_skipped == len(received) == len(runs) > 1
    assert received == runs
    nominal = comp.init_history(bouc_wen_model, r, narx.hysteresis_loop(bouc_wen_model, *spec))
    assert all(seed != nominal[0] for seed in received)
