"""Acceptance gate: ten product-level criteria, one printed verdict each.

Every test prints a single

    [criterion NN] PASS|FAIL -- <measurements>

line on the real terminal (capture suspended, so the verdicts appear in
plain ``pytest -v`` output), then asserts.  Tolerances are pinned here and
nowhere else; see the README for what each criterion guards.
"""

import time

import numpy as np
import pytest

import narxcomp.compensator as comp
import narxcomp.evaluation as ev
import narxcomp.model as narx
import narxcomp.poly as poly
from narxcomp.benchmarks import HammersteinHeater

SEED = 20260817


def report(capsys, num, passed, detail):
    line = "[criterion %02d] %s -- %s" % (num, "PASS" if passed else "FAIL", detail)
    with capsys.disabled():
        print("\n" + line, flush=True)
    return line


def cell(table, f_hz, level, col):
    for row in table:
        if row[0] == f_hz and row[1] == level:
            return row[col]
    raise KeyError((f_hz, level))


# ---------------------------------------------------------------------------


def test_criterion_01_heater_equilibrium_eigenvalues(heater_model, capsys):
    """Linearization at the u=0.5 operating point: |lambda| = {0.8759, 0.0199}."""
    fps = narx.fixed_points(heater_model, 0.5)
    y_bar = fps[0].y_bar
    narx.jacobian_eigen(heater_model, 0.5, y_bar)  # warm-up
    t0 = time.perf_counter()
    mags = narx.jacobian_eigen(heater_model, 0.5, y_bar)
    elapsed = time.perf_counter() - t0
    ok_vals = (
        len(mags) == 2
        and abs(mags[0] - 0.8759) < 5e-4
        and abs(mags[1] - 0.0199) < 5e-4
    )
    ok_time = elapsed < 1e-3
    detail = "lambda=(%.6f, %.6f) tol 5e-4, call %.3g ms (budget 1 ms)" % (
        mags[0], mags[1], elapsed * 1e3,
    )
    assert report(capsys, 1, ok_vals and ok_time, detail) and ok_vals and ok_time, detail


def test_criterion_02_heater_model_validation_cells(heater_val_table, capsys):
    """Free-run heater-model MAPE: 3.0% at (f=0.0005, u0=0.5) and 7.0% at
    (f=0.002, u0=0.3), each within 2 percentage points."""
    a = cell(heater_val_table, 0.0005, 0.5, 2)
    b = cell(heater_val_table, 0.002, 0.3, 2)
    ok = abs(a - 3.0) < 2.0 and abs(b - 7.0) < 2.0
    detail = "(0.0005, 0.5)=%.2f%% vs 3.0+-2, (0.002, 0.3)=%.2f%% vs 7.0+-2" % (a, b)
    assert report(capsys, 2, ok, detail) and ok, detail


def test_criterion_03_heater_compensation_cells(heater_comp_table, capsys):
    """Compensated heater tracking: 3.4% +-2 at (f=0.0005, r0=0.20), the
    uncompensated cell 40.8% +-3, 29.5% +-4 at (f=0.004, r0=0.05), and the
    compensated error grows monotonically with frequency in every column."""
    a = cell(heater_comp_table, 0.0005, 0.20, 2)
    b = cell(heater_comp_table, 0.0005, 0.20, 3)
    c = cell(heater_comp_table, 0.004, 0.05, 2)
    ok_cells = abs(a - 3.4) < 2.0 and abs(b - 40.8) < 3.0 and abs(c - 29.5) < 4.0
    freqs = (0.0005, 0.001, 0.002, 0.004)
    ok_trend = all(
        cell(heater_comp_table, fa, r0, 2) < cell(heater_comp_table, fb, r0, 2)
        for r0 in (0.05, 0.10, 0.20)
        for fa, fb in zip(freqs, freqs[1:])
    )
    ok = ok_cells and ok_trend
    detail = (
        "comp(0.0005, 0.20)=%.2f%% vs 3.4+-2, uncomp=%.2f%% vs 40.8+-3, "
        "comp(0.004, 0.05)=%.2f%% vs 29.5+-4, monotone-in-f=%s" % (a, b, c, ok_trend)
    )
    assert report(capsys, 3, ok, detail) and ok, detail


def test_criterion_04_bouc_wen_model_validation_cells(bouc_wen_val_table, capsys):
    """Free-run Bouc-Wen-model MAPE: 1.3% +-2 at (f=1, G=30) and
    7.7% +-3 at (f=5, G=10)."""
    a = cell(bouc_wen_val_table, 1.0, 30.0, 2)
    b = cell(bouc_wen_val_table, 5.0, 10.0, 2)
    ok = abs(a - 1.3) < 2.0 and abs(b - 7.7) < 3.0
    detail = "(1, 30)=%.2f%% vs 1.3+-2, (5, 10)=%.2f%% vs 7.7+-3" % (a, b)
    assert report(capsys, 4, ok, detail) and ok, detail


def test_criterion_05_bouc_wen_compensation_cells(bouc_wen_comp_table, capsys):
    """Compensated Bouc-Wen tracking: 2.5% +-2 at (f=1, G0=30), the
    uncompensated cell 7.0% +-2, and compensation wins in all 12 cells."""
    a = cell(bouc_wen_comp_table, 1.0, 30.0, 2)
    b = cell(bouc_wen_comp_table, 1.0, 30.0, 3)
    wins = sum(1 for row in bouc_wen_comp_table if row[2] < row[3])
    ok = abs(a - 2.5) < 2.0 and abs(b - 7.0) < 2.0 and wins == 12
    detail = (
        "comp(1, 30)=%.2f%% vs 2.5+-2, uncomp=%.2f%% vs 7.0+-2, "
        "comp<uncomp in %d/12 cells" % (a, b, wins)
    )
    assert report(capsys, 5, ok, detail) and ok, detail


def test_criterion_06_hold_drift_dichotomy(
    bouc_wen_model, bouc_wen_sigma1_model, capsys
):
    """Sine input frozen at sample 920: the model whose linear output
    coefficients sum above one drifts monotonically without bound, while the
    sum-exactly-one variant freezes (steps < 1e-9 once the hold has
    propagated through the one-sample input lag)."""
    _, y_free = ev.drift_hold_run(bouc_wen_model)
    d = np.abs(y_free[920:] - y_free[920])
    ok_monotone = bool(np.all(np.diff(d[1:]) >= 0.0))
    ok_grows = d[10000] > 10.0 and d[10000] > 5.0 * d[1000] > 0.0
    _, y_cns = ev.drift_hold_run(bouc_wen_sigma1_model)
    max_step = float(np.max(np.abs(np.diff(y_cns[921:]))))
    ok_frozen = max_step < 1e-9
    ok = ok_monotone and ok_grows and ok_frozen
    detail = (
        "drift +100/+1000/+10000 = %.3f/%.3f/%.3f (monotone=%s), "
        "constrained max step after hold+1 = %.2g" % (
            d[100], d[1000], d[10000], ok_monotone, max_step,
        )
    )
    assert report(capsys, 6, ok, detail) and ok, detail


def test_criterion_07_self_consistency(
    heater_model, bouc_wen_model, bouc_wen_sigma1_model, valve_model, capsys
):
    """Compensating each shipped model against itself tracks to MAPE < 0.1%
    with per-step polynomial residuals < 1e-9; the heater run holds never."""

    def self_track(model, r, loop_spec):
        if model.is_hysteretic():
            loop = narx.hysteresis_loop(model, *loop_spec)
            seed = comp.init_hysteresis(model, loop, r[0], r[1])
        else:
            seed = comp.init_dynamic(model, r[0])
        session = comp.CompensationSession(model, list(seed))
        m = comp.run(session, r)
        y = ev.ModelPlant(model, seed[0], r[0]).simulate(m)
        return ev.mape(r, y), session.max_residual, session.hold_count

    k2000, k1000 = np.arange(2000), np.arange(1000)
    cases = {
        "heater": self_track(
            heater_model, 0.25 + 0.15 * np.sin(2 * np.pi * 0.001 * k2000), None
        ),
        "bouc_wen": self_track(
            bouc_wen_model,
            20.0 * np.sin(2 * np.pi * 1.0 * k1000 * 0.005 + np.pi / 2),
            (50.0, 1.0 * 0.005, 0.0),
        ),
        "bouc_wen_sigma1": self_track(
            bouc_wen_sigma1_model,
            20.0 * np.sin(2 * np.pi * 1.0 * k1000 * 0.005 + np.pi / 2),
            (50.0, 1.0 * 0.005, 0.0),
        ),
        "valve": self_track(
            valve_model,
            3.0 + 0.34 * np.sin(2 * np.pi * 0.1 * k2000 * 0.01),
            (2.0, 0.1 * 0.01, 3.0),
        ),
    }
    ok = all(m < 0.1 and res < 1e-9 for m, res, _ in cases.values())
    ok = ok and cases["heater"][2] == 0
    detail = "; ".join(
        "%s mape=%.2g%% residual=%.2g holds=%d" % (name, m, res, h)
        for name, (m, res, h) in cases.items()
    )
    assert report(capsys, 7, ok, detail) and ok, detail


def test_criterion_08_root_solver_suite(capsys):
    """10^4 random polynomials of degree <= 3 with well-separated known
    roots, all recovered to 1e-8; closed-form and companion-matrix
    quadratic solutions agree to 1e-8; whole suite under 5 s."""
    rng = np.random.default_rng(SEED)
    t0 = time.perf_counter()
    worst = 0.0
    worst_agree = 0.0
    n_quadratics = 0
    for i in range(10_000):
        deg = int(rng.integers(1, 4))
        while True:
            roots = np.sort(rng.uniform(-5.0, 5.0, size=deg))
            if deg == 1 or float(np.min(np.diff(roots))) > 0.5:
                break
        p = poly.from_roots(roots, leading=float(rng.uniform(0.5, 2.0)))
        rs = poly.solve_roots(p)
        got = np.sort([z.real for z in rs.roots])
        worst = max(
            worst,
            float(np.max(np.abs(got - roots))),
            max(abs(z.imag) for z in rs.roots),
        )
        if deg == 2 and i % 5 == 0:
            eig = poly.companion_roots(p)
            a = np.sort_complex(np.asarray(rs.roots))
            b = np.sort_complex(np.asarray(eig.roots))
            worst_agree = max(worst_agree, float(np.max(np.abs(a - b))))
            n_quadratics += 1
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-8 and worst_agree < 1e-8 and elapsed < 5.0
    detail = (
        "worst recovery %.2g, worst closed-form-vs-companion %.2g over %d "
        "quadratics, %.2f s (budget 5 s)" % (worst, worst_agree, n_quadratics, elapsed)
    )
    assert report(capsys, 8, ok, detail) and ok, detail


def test_criterion_09_hysteretic_construction_exactness(
    valve_model, bouc_wen_model, valve_loop, capsys
):
    """Structural guarantees for hysteretic compensation: the valve model's
    linear output coefficients sum to exactly one; the mechanical branch
    polynomial construction reproduces hand-expanded coefficients (for a
    cubic hysteretic model and the Bouc-Wen model) to 1e-12; loop-seeded
    compensation of the valve model against itself tracks to MAPE < 1%."""
    ok_sigma = abs(valve_model.sigma_y() - 1.0) < 1e-12

    # Hand expansion, cubic hysteretic model:
    # y(k) = a y(k-1) + b u(k-1)^3 + c phi1 phi2 u(k-1) + d phi1 phi2 y(k-1)
    # loading:   b m^3 + c m^2 + (-c mp + d r) m + (a r - d mp r - rn)
    # unloading: b m^3 - c m^2 + (+c mp - d r) m + (a r + d mp r - rn)
    from test_compensator import cubic_hys_model, session_with_r

    model, (a, b, c, d) = cubic_hys_model()
    mp, r, rn = 1.2, 2.0, 2.3
    bp = comp.hysteresis_comp_polys(session_with_r(model, [mp], [0.0, r, rn]), 1)
    want_l = [a * r - d * mp * r - rn, -c * mp + d * r, c, b]
    want_u = [a * r + d * mp * r - rn, c * mp - d * r, -c, b]
    err_cubic = max(
        max(abs(g - w) for g, w in zip(bp.loading.coeffs, want_l)),
        max(abs(g - w) for g, w in zip(bp.unloading.coeffs, want_u)),
        max(abs(g) for g in bp.loading.coeffs[4:]),
        max(abs(g) for g in bp.unloading.coeffs[4:]),
    )

    # Hand expansion, Bouc-Wen model:
    # y(k) = t1 y(k-1) + t2 phi1 phi2 u(k-1) + t3 phi1 phi2 y(k-1) + t4 phi1
    # loading:   t2 m^2 + (-t2 mp + t3 r + t4) m + (t1 r - t3 mp r - t4 mp - rn)
    # unloading: -t2 m^2 + (t2 mp - t3 r + t4) m + (t1 r + t3 mp r - t4 mp - rn)
    t1, t2, t3, t4 = 1.000099, 6.630567e-3, -6.247018e-3, 0.7892915
    mp, r, rn = -3.5, 10.0, 10.4
    bp = comp.hysteresis_comp_polys(
        session_with_r(bouc_wen_model, [mp], [0.0, r, rn]), 1
    )
    want_l = [t1 * r - t3 * mp * r - t4 * mp - rn, -t2 * mp + t3 * r + t4, t2]
    want_u = [t1 * r + t3 * mp * r - t4 * mp - rn, t2 * mp - t3 * r + t4, -t2]
    err_bw = max(
        max(abs(g - w) for g, w in zip(bp.loading.coeffs, want_l)),
        max(abs(g - w) for g, w in zip(bp.unloading.coeffs, want_u)),
        max(abs(g) for g in bp.loading.coeffs[3:]),
        max(abs(g) for g in bp.unloading.coeffs[3:]),
    )
    ok_expand = err_cubic < 1e-12 and err_bw < 1e-12

    k = np.arange(2000)
    r_series = 3.0 + 0.34 * np.sin(2 * np.pi * 0.1 * k * 0.01)
    seed = comp.init_hysteresis(valve_model, valve_loop, r_series[0], r_series[1])
    session = comp.CompensationSession(valve_model, list(seed))
    m = comp.run(session, r_series)
    y = ev.ModelPlant(valve_model, seed[0], r_series[0]).simulate(m)
    mape_valve = ev.mape(r_series, y)
    ok_track = mape_valve < 1.0

    ok = ok_sigma and ok_expand and ok_track
    detail = (
        "sum_y-1 = %.2g, coefficient error cubic %.2g / bouc_wen %.2g, "
        "valve self-tracking mape=%.2g%%" % (
            valve_model.sigma_y() - 1.0, err_cubic, err_bw, mape_valve,
        )
    )
    assert report(capsys, 9, ok, detail) and ok, detail


def test_criterion_10_monte_carlo_static_sweep(heater_model, capsys):
    """Heater static sweep under 0.5% coefficient noise, 1000 runs, fixed
    seed, reported as a +-2 sigma band per reference level r.  Three parts:

    (a) the band is bit-identical across two invocations and no run is
        skipped;
    (b) coefficient noise adds no bias: at every level below 0.3 the Monte
        Carlo mean stays within three standard errors of the nominal
        (unperturbed) compensated output;
    (c) the compensation's own static error, nominal - r, is printed for
        every level and must be smaller than the uncompensated error
        static_output(r) - r of the plant.

    (b) is about the spread and (c) about the structural bias, which noise
    averaging cannot remove.  The plant's Hammerstein nonlinearity
    p1 u^2 + p2 u has a linear term that the bundled model's static map
    (about 0.5256 u^2) lacks, so near the origin the bias grows like
    sqrt(r) while the noise spread grows like r: at r = 0.05 the bias
    (+0.0085) exceeds two sigma (0.0036) although the compensated error is
    still five times smaller than the uncompensated one.
    """
    grid = 0.05 + 0.05 * np.arange(9)
    bands = [
        ev.monte_carlo(
            heater_model, 0.005, 1000, ev.HeaterStaticSweep(grid), SEED,
            grid=grid,
        )
        for _ in range(2)
    ]
    band = bands[0]
    ok_repro = (
        np.array_equal(bands[0].mean, bands[1].mean)
        and np.array_equal(bands[0].std, bands[1].std)
        and band.n_skipped == 0
    )

    nominal = ev.HeaterStaticSweep(grid)(heater_model)
    std_err = band.std / np.sqrt(band.n_runs - band.n_skipped)
    shift = np.abs(band.mean - nominal) / std_err
    low = band.grid < 0.3
    ok_noise = bool(np.all(shift[low] < 3.0))

    bias = nominal - band.grid
    raw_err = np.array(
        [HammersteinHeater.static_output(r) - r for r in band.grid]
    )
    ok_bias = bool(np.all(np.abs(bias) < np.abs(raw_err)))

    ok = ok_repro and ok_noise and ok_bias
    detail = (
        "bit-reproducible=%s, skipped %d/%d; noise shift of the mean <= %.2f "
        "standard errors below r=0.3 (limit 3); bias nominal-r vs "
        "uncompensated [2 sigma]: %s"
        % (
            ok_repro,
            band.n_skipped,
            band.n_runs,
            float(np.max(shift[low])),
            ", ".join(
                "r=%.2f %+.4f vs %+.4f [%.4f]" % (r, b, e, 2 * sd)
                for r, b, e, sd in zip(band.grid, bias, raw_err, band.std)
            ),
        )
    )
    assert report(capsys, 10, ok, detail) and ok, detail
