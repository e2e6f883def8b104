"""Experiment metrics, table runners and Monte Carlo robustness sweeps."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import compensator as comp
from . import model as narx
from .benchmarks import BoucWenPlant, HammersteinHeater, SignalSpec, generate

class DegenerateRange(ValueError):
    """The target series is constant, so the error cannot be normalized."""


@dataclass
class ExperimentReport:
    """Aligned series and summary metrics for one compensation run."""

    k: np.ndarray
    r: np.ndarray
    m: np.ndarray
    y_comp: np.ndarray
    y_uncomp: np.ndarray
    mape_comp: float
    mape_uncomp: float
    effort_energy: float
    effort_std: float
    hold_rate: float


@dataclass
class MonteCarloBand:
    """Pointwise mean and +-2 std band over perturbed-model runs.

    ``skip_reasons`` counts the skipped runs by exception class name.
    """

    grid: np.ndarray
    mean: np.ndarray
    std: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    n_runs: int
    n_skipped: int
    skip_reasons: dict = field(default_factory=dict)


def mape(target, actual):
    """Mean absolute error as a percentage of the target's total span.

        100 * sum |target - actual| / (N * (max(target) - min(target)))

    Invariant under shifting both series and under common rescaling.
    """
    t = np.asarray(target, dtype=float)
    a = np.asarray(actual, dtype=float)
    if len(t) != len(a):
        raise ValueError("series lengths differ: %d vs %d" % (len(t), len(a)))
    if len(t) < 2:
        raise ValueError("need at least 2 samples")
    span = float(t.max() - t.min())
    if span == 0.0:
        raise DegenerateRange("target series is constant")
    return float(np.sum(np.abs(t - a)) / (len(t) * span) * 100.0)


def effort(m, r, n0):
    """Control effort over the final ``n0`` samples.

    Returns (energy, std) of the absolute input-reference deviation
    |m - r| over the trailing window.
    """
    m = np.asarray(m, dtype=float)
    r = np.asarray(r, dtype=float)
    if len(m) != len(r):
        raise ValueError("series lengths differ: %d vs %d" % (len(m), len(r)))
    n0 = int(n0)
    if not 1 <= n0 <= len(m):
        raise ValueError("window %d outside [1, %d]" % (n0, len(m)))
    dm = np.abs(m[-n0:] - r[-n0:])
    return float(np.sum(dm * dm)), float(np.std(dm))


#: Exceptions that skip a Monte Carlo run instead of ending the sweep.
SKIPPED_RUN = (comp.NoFeasibleRoot, narx.NonFinite, narx.OutOfLoopRange, narx.LoopUnsettled)


def perturbed_coefficients(model, rel_std, z):
    """The model's coefficients c shifted to c + rel_std*|c|*z; ``z`` holds one
    value per term, or one row of them per run."""
    c = np.array(model.coefficients)
    return c + rel_std * np.abs(c) * z


def perturbed_model(model, rel_std, z):
    """Copy of ``model`` with each coefficient shifted by rel_std*|coeff|*z_i;
    values of ``z`` past the last term are ignored."""
    z = np.asarray(z, dtype=float)[: len(model.terms)]
    return narx.with_coefficients(model, perturbed_coefficients(model, rel_std, z))


def monte_carlo(model, rel_std, n_runs, experiment, seed, grid=None):
    """Propagate coefficient uncertainty through an experiment.

    ``experiment(model) -> np.ndarray`` is evaluated once per run on a copy
    of the model whose coefficients carry independent Gaussian perturbations
    of standard deviation ``rel_std * |coefficient|``.  Runs where the
    perturbed model is unusable -- no feasible root, diverging simulation,
    an initialization loop that never settles or cannot cover the reference
    -- are skipped and counted by reason.  All perturbations are drawn up
    front from ``seed`` into one coefficient matrix, a row per run, so
    results are bit-reproducible.  An experiment with a ``batch(model,
    coefs)`` method gets the whole matrix at once and returns (values,
    errors): a C-contiguous array, a row of results per run without an
    exception, in run order, and {run index: the exception that ended it};
    the band is the same as from calling the experiment run by run.
    """
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n_runs, len(model.terms)))
    coefs = perturbed_coefficients(model, rel_std, z)
    batch = getattr(experiment, "batch", None)
    if batch is not None:
        vals, errors = batch(model, coefs)
    else:
        kept, errors = [], {}
        for i, row in enumerate(coefs):
            try:
                kept.append(experiment(narx.with_coefficients(model, row)))
            except SKIPPED_RUN as e:
                errors[i] = e
        vals = np.array(kept)  # one row per kept run
    reasons = Counter()
    for _, e in sorted(errors.items()):
        if not isinstance(e, SKIPPED_RUN):
            raise e
        reasons[type(e).__name__] += 1
        # its frames would keep the whole batch alive in a reference cycle
        e.__traceback__ = None
    if len(errors) == n_runs:
        raise comp.NoFeasibleRoot("every Monte Carlo run failed")
    if vals.ndim == 1:  # a 0-d result per run: one column
        vals = vals[:, None]
    mean = vals.mean(axis=0)
    std = vals.std(axis=0)
    g = np.arange(vals.shape[1]) if grid is None else np.asarray(grid, dtype=float)
    return MonteCarloBand(
        grid=g,
        mean=mean,
        std=std,
        lo=mean - 2.0 * std,
        hi=mean + 2.0 * std,
        n_runs=n_runs,
        n_skipped=len(errors),
        skip_reasons=dict(sorted(reasons.items())),
    )


#: Most (level, run) columns :meth:`HeaterStaticSweep.batch` solves in one
#: lockstep call, so that its arrays stay small for any sweep size.
SWEEP_BLOCK = 4096


class HeaterStaticSweep:
    """Static inversion per reference level, applied to the heater plant's
    settled response; one run is one model's row of outputs."""

    def __init__(self, grid):
        self.grid = np.asarray(grid, dtype=float)

    def __call__(self, model):
        out = np.empty(len(self.grid))
        for i, r_bar in enumerate(self.grid):
            out[i] = HammersteinHeater.static_output(comp.solve_static(model, r_bar))
        return out

    def batch(self, model, coefs):
        """Every run at every level, as :func:`monte_carlo` takes it, in
        lockstep blocks of whole levels of at most ``SWEEP_BLOCK`` (level,
        run) columns; a run ends at its first failing level, as in the
        scalar path."""
        m_bar = np.empty((len(coefs), len(self.grid)))
        errors = {}
        alive = np.arange(len(coefs))
        width = max(1, SWEEP_BLOCK // max(len(coefs), 1))
        for start in range(0, len(self.grid), width):
            if not alive.size:
                break
            levels = self.grid[start:start + width]
            runs = np.tile(alive, len(levels))  # level-major: a level's runs side by side
            m, errs = comp.solve_static_lockstep(
                model, np.tile(coefs[alive], (len(levels), 1)),
                np.repeat(levels, alive.size), runs)
            m_bar[alive, start:start + len(levels)] = m.reshape(len(levels), alive.size).T
            for j, e in errs.items():
                errors.setdefault(int(runs[j]), e)
            if errs:
                alive = alive[~np.isin(alive, list(errors))]
        return HammersteinHeater.static_output(m_bar[alive]), errors


class TrackingExperiment:
    """Experiment: compensate the reference ``r`` with a perturbed model and
    return the output of a fresh plant from ``plant_factory(seed_value)``,
    ``seed_value`` the run's own first seeded input.

    Hysteretic models are seeded from their own loop traced with
    ``loop_spec`` = (amplitude, f_min_cycles_per_sample, center), which they
    need (:func:`narxcomp.compensator.init_history`); others from the
    static inverse of r(0).
    """

    def __init__(self, r, plant_factory, loop_spec=None):
        self.r = np.asarray(r, dtype=float)
        self.plant_factory = plant_factory
        self.loop_spec = loop_spec

    def __call__(self, model):
        spec = self.loop_spec
        loop = None if spec is None else narx.hysteresis_loop(model, *spec)
        seed = comp.init_history(model, self.r, loop)
        session = comp.CompensationSession(model, seed)
        return self.plant_factory(seed[0]).simulate(comp.run(session, self.r))


# ---------------------------------------------------------------------------
# Compensation experiments


class ModelPlant:
    """The model itself run as the controlled system.

    The input history before the run is ``seed_value`` and the output
    history is ``r_start``; ``simulate`` always restarts from that state.
    A perfect compensator tracks from the first sample only if that state
    is an equilibrium of the model.  A hysteretic model holds any output
    under a constant input only when its linear output coefficients sum to
    one (sigma_y = 1); otherwise the plant starts about
    2 (sigma_y - 1) r_start off the reference, and for sigma_y > 1 the
    offset grows like sigma_y^k.
    """

    def __init__(self, model, seed_value, r_start):
        self.model = model
        self.seed_value = float(seed_value)
        self.r_start = float(r_start)

    def simulate(self, u_series):
        u_ext = np.concatenate(
            [[self.seed_value], np.asarray(u_series, dtype=float)]
        )
        y = narx.simulate_free_run(
            self.model, u_ext, [self.r_start] * self.model.n_y
        )
        return y[1:]


def compensation_experiment(model, plant_factory, r, *, loop=None,
                            eval_window=None, effort_window=None):
    """Run compensated and uncompensated tracking of ``r`` on a plant.

    ``plant_factory()`` must return a fresh plant exposing
    ``simulate(u_series)``.  Hysteretic models are seeded from a traced
    loop; pass one as ``loop`` to reuse it across runs.  The default is a
    loop spanning the model input range in one period over the whole
    reference (at least 64 samples).  Returns an :class:`ExperimentReport`
    whose error metrics are computed over ``eval_window`` (a slice;
    default all).
    """
    r = np.asarray(r, dtype=float)
    if loop is None and model.is_hysteretic():
        lo, hi = model.input_range
        center = 0.5 * (lo + hi)
        loop = narx.hysteresis_loop(model, hi - center, 1.0 / max(len(r), 64), center)
    session = comp.CompensationSession(model, comp.init_history(model, r, loop))
    m = comp.run(session, r)
    y_comp = plant_factory().simulate(m)
    y_uncomp = plant_factory().simulate(r)
    win = eval_window if eval_window is not None else slice(None)
    n0 = effort_window if effort_window is not None else len(r)
    energy, std = effort(m, r, n0)
    return ExperimentReport(
        k=np.arange(len(r)),
        r=r,
        m=m,
        y_comp=y_comp,
        y_uncomp=y_uncomp,
        mape_comp=mape(r[win], y_comp[win]),
        mape_uncomp=mape(r[win], y_uncomp[win]),
        effort_energy=energy,
        effort_std=std,
        hold_rate=session.hold_rate(),
    )


def table_experiment(model, plant_factory, cells, mode, signal, ts=1.0,
                     discard_periods=1, eval_periods=2, loop=None):
    """MAPE grid over (frequency, level) cells.

    ``cells`` is an iterable of (f_hz, level); ``signal(level, f_cps, n)``
    builds the excitation (validation) or reference (compensation) series.
    Each run covers discard + eval whole periods and the MAPE is taken over
    the trailing eval periods.  A failed cell yields NaNs instead of
    aborting the table.

    Returns rows of (f_hz, level, mape_main, mape_secondary): for
    ``mode="validate"`` the main value is the model-vs-plant MAPE and the
    secondary is NaN; for ``mode="compensate"`` they are the compensated
    and uncompensated MAPEs.
    """
    if mode not in ("validate", "compensate"):
        raise ValueError("mode must be 'validate' or 'compensate'")
    rows = []
    for f_hz, level in cells:
        f_cps = f_hz * ts
        period = int(round(1.0 / f_cps))
        n = (discard_periods + eval_periods) * period
        win = slice(discard_periods * period, n)
        try:
            series = signal(level, f_cps, n)
            if mode == "validate":
                y_plant = plant_factory().simulate(series)
                y_model = narx.simulate_free_run(model, series, [0.0] * model.n_y)
                rows.append(
                    (f_hz, level, mape(y_plant[win], y_model[win]), float("nan"))
                )
            else:
                rep = compensation_experiment(
                    model, plant_factory, series, loop=loop, eval_window=win,
                    effort_window=period,
                )
                rows.append((f_hz, level, rep.mape_comp, rep.mape_uncomp))
        except SKIPPED_RUN + (DegenerateRange,):
            rows.append((f_hz, level, float("nan"), float("nan")))
    return rows


# ---------------------------------------------------------------------------
# Canned experiment grids for the bundled benchmark models.  These are the
# recipes behind the CLI `reproduce` targets; the sampling times and
# transient policies are frozen here so reruns stay comparable.

#: Sampling time of the heater benchmark, seconds.
HEATER_TS = 10.0
#: Sampling time of the Bouc-Wen benchmark, seconds.
BOUC_WEN_TS = 0.005

HEATER_VALIDATION_CELLS = tuple(
    (f, u0) for f in (0.0005, 0.001, 0.002) for u0 in (0.3, 0.5, 0.7)
)
HEATER_COMPENSATION_CELLS = tuple(
    (f, r0) for f in (0.0005, 0.001, 0.002, 0.004) for r0 in (0.05, 0.10, 0.20)
)
BOUC_WEN_VALIDATION_CELLS = tuple(
    (f, g) for f in (0.2, 1.0, 5.0) for g in (10.0, 30.0, 50.0)
)
BOUC_WEN_COMPENSATION_CELLS = tuple(
    (f, g0) for f in (0.2, 1.0, 2.0, 5.0) for g0 in (20.0, 30.0, 40.0)
)

#: Loop used to seed every Bouc-Wen compensation run: 50-unit sine at
#: 0.2 Hz around zero (in cycles per sample at BOUC_WEN_TS).
BOUC_WEN_LOOP_SPEC = (50.0, 0.2 * BOUC_WEN_TS, 0.0)


def heater_validation_table(model):
    """Free-run MAPE of the heater model against the heater plant.

    Excitation u(k) = u0 + 0.2 sin(2 pi f k Ts) over the bundled
    (frequency, offset) grid; both plant and model start cold and the
    error is taken over two full periods from the start (the slow heater
    transient is part of what the model must capture).
    """
    def signal(u0, f_cps, n):
        k = np.arange(n, dtype=float)
        return u0 + 0.2 * np.sin(2.0 * np.pi * f_cps * k)

    return table_experiment(
        model, HammersteinHeater, HEATER_VALIDATION_CELLS, "validate",
        signal, ts=HEATER_TS, discard_periods=0, eval_periods=2,
    )


def heater_compensation_table(model):
    """Compensated / uncompensated tracking MAPE on the heater plant.

    Reference r(k) = r0 sin(2 pi f k Ts + pi/2) + r0 over the bundled
    (frequency, level) grid, two cold-start periods per cell, errors over
    the full window.
    """
    def signal(r0, f_cps, n):
        k = np.arange(n, dtype=float)
        return r0 * np.sin(2.0 * np.pi * f_cps * k + 0.5 * np.pi) + r0

    return table_experiment(
        model, HammersteinHeater, HEATER_COMPENSATION_CELLS, "compensate",
        signal, ts=HEATER_TS, discard_periods=0, eval_periods=2,
    )


def bouc_wen_validation_table(model):
    """Free-run MAPE of a Bouc-Wen model against the Bouc-Wen plant.

    Excitation u(k) = G sin(2 pi f k Ts); three transient periods are
    discarded and the error is taken over the next two.
    """
    def signal(g, f_cps, n):
        k = np.arange(n, dtype=float)
        return g * np.sin(2.0 * np.pi * f_cps * k)

    return table_experiment(
        model, BoucWenPlant, BOUC_WEN_VALIDATION_CELLS, "validate",
        signal, ts=BOUC_WEN_TS, discard_periods=3, eval_periods=2,
    )


def bouc_wen_compensation_table(model, loop=None):
    """Compensated / uncompensated tracking MAPE on the Bouc-Wen plant.

    Reference r(k) = G0 sin(2 pi f k Ts + pi/2); three transient periods
    discarded, two evaluated.  The seeding loop is traced once (see
    BOUC_WEN_LOOP_SPEC) and shared by every cell unless one is passed in.
    """
    if loop is None:
        amp, f_min, center = BOUC_WEN_LOOP_SPEC
        loop = narx.hysteresis_loop(model, amp, f_min, center)

    def signal(g0, f_cps, n):
        k = np.arange(n, dtype=float)
        return g0 * np.sin(2.0 * np.pi * f_cps * k + 0.5 * np.pi)

    return table_experiment(
        model, BoucWenPlant, BOUC_WEN_COMPENSATION_CELLS, "compensate",
        signal, ts=BOUC_WEN_TS, discard_periods=3, eval_periods=2, loop=loop,
    )


def drift_hold_run(model, n=10921, hold_at=920, amplitude=30.0, f_hz=2.0):
    """Free-run response to a sine frozen mid-cycle at sample ``hold_at``.

    Exposes the steady-state character of a hysteretic model: with the
    linear output coefficients summing to one the output freezes with the
    input, while a sum above one leaves a slow drift that compounds.
    Returns (u, y).
    """
    spec = SignalSpec(
        "sine_then_hold", amplitude=amplitude, frequency=f_hz, hold_at=hold_at
    )
    u = generate(spec, n, ts=BOUC_WEN_TS)
    y = narx.simulate_free_run(model, u, [0.0] * model.n_y)
    return u, y
