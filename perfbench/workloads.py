"""The benchmark's workloads: the CLI calls of one pass and their output checks.

A workload is a list of operations, each one call of ``narxcomp.cli.main``
that writes one CSV.  A pass runs every operation once; the benchmark
repeats whole passes.  Each check takes the CSV text and the call's
stderr and returns a list of problems (empty when the output is right).
Checks compare against ``reference``, the paper's cells and properties the
method must have, never against a stored copy of earlier output.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

import reference as ref

#: Relative tolerance between a CSV value and its reference value.  The CSV
#: carries 12 significant digits, so rounding alone is below 5e-12.
REL_TOL = 1e-9

REL_STD = 0.005

HEATER_GRID = tuple(0.05 + 0.05 * i for i in range(9))
MC_STATIC_RUNS = 1000

TRACKING_SIGNAL = "sine:G0=30,f=1,phase=1.5708"
TRACKING_AMPLITUDE = 30.0
TRACKING_F_CPS = 1.0 * 0.005  # 1 Hz at the Bouc-Wen sampling time
TRACKING_PHASE = 1.5708
TRACKING_N = 1000  # five periods, the CLI default for this signal
TRACKING_LOOP = (80.0, TRACKING_F_CPS, 0.0)  # the CLI's default seeding loop
MC_TRACKING_RUNS = 40


@dataclass(frozen=True)
class Op:
    label: str
    argv: tuple


@dataclass(frozen=True)
class Workload:
    name: str
    models: tuple  # bundled models the set-up resolves
    ops: object  # ops(seed, pass_index, outdir) -> list of Op
    check: object  # check(label, csv_text, stderr_text, seed) -> list of problems


def close(a, b, floor=0.0):
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), floor)


def parse_csv(text):
    lines = text.splitlines()
    return tuple(lines[0].split(",")), [line.split(",") for line in lines[1:]]


def _compare(problems, what, values, expected, floor=0.0):
    bad = [
        i for i, (a, b) in enumerate(zip(values, expected))
        if not close(a, b, floor)
    ]
    if len(values) != len(expected):
        problems.append("%s: %d values, expected %d" % (what, len(values), len(expected)))
    elif bad:
        i = bad[0]
        problems.append(
            "%s: %d values off the reference, first at row %d: %r vs %r"
            % (what, len(bad), i, values[i], expected[i])
        )


# ---------------------------------------------------------------------------
# reproduce

TABLE_HEADER = ("f", "amplitude", "mape_comp", "mape_uncomp")

#: (f in Hz, level) cells of each table, in the order the paper lists them.
TABLE_CELLS = {
    "table1": [(f, u0) for f in (0.0005, 0.001, 0.002) for u0 in (0.3, 0.5, 0.7)],
    "table3": [(f, r0) for f in (0.0005, 0.001, 0.002, 0.004) for r0 in (0.05, 0.10, 0.20)],
    "table-bw-model": [(f, g) for f in (0.2, 1.0, 5.0) for g in (10.0, 30.0, 50.0)],
    "table-bw-comp": [(f, g0) for f in (0.2, 1.0, 2.0, 5.0) for g0 in (20.0, 30.0, 40.0)],
}
VALIDATION_TABLES = ("table1", "table-bw-model")
REPRODUCE_TARGETS = ("table1", "table3", "table-bw-model", "table-bw-comp", "fig8")

HEATER_TS = 10.0
BOUC_WEN_TS = 0.005

#: Paper cells (criteria 02-05): (table, f, level, column, value, tolerance).
PAPER_CELLS = (
    ("table1", 0.0005, 0.5, 2, 3.0, 2.0),
    ("table1", 0.002, 0.3, 2, 7.0, 2.0),
    ("table3", 0.0005, 0.20, 2, 3.4, 2.0),
    ("table3", 0.0005, 0.20, 3, 40.8, 3.0),
    ("table3", 0.004, 0.05, 2, 29.5, 4.0),
    ("table-bw-model", 1.0, 30.0, 2, 1.3, 2.0),
    ("table-bw-model", 5.0, 10.0, 2, 7.7, 3.0),
    ("table-bw-comp", 1.0, 30.0, 2, 2.5, 2.0),
    ("table-bw-comp", 1.0, 30.0, 3, 7.0, 2.0),
)

FIG8_N = 10921
FIG8_HOLD = 920
FIG8_AMPLITUDE = 30.0
FIG8_F_CPS = 2.0 * BOUC_WEN_TS


def reproduce_ops(seed, pass_index, outdir):
    """The five targets, in an order drawn from the seed and the pass."""
    order = list(REPRODUCE_TARGETS)
    random.Random("%d:%d" % (seed, pass_index)).shuffle(order)
    return [
        Op(t, ("reproduce", t, "-o", "%s/%s.csv" % (outdir, t))) for t in order
    ]


def heater_validation_reference():
    """table1's MAPE per cell: heater plant against the heater model's free run."""
    model = ref.load_model("heater")
    out = []
    for f, u0 in TABLE_CELLS["table1"]:
        f_cps = f * HEATER_TS
        n = 2 * int(round(1.0 / f_cps))
        u = ref.sine(0.2, f_cps, np.arange(n, dtype=float), offset=u0)
        out.append(ref.mape(ref.heater_plant(u), ref.free_run(model, u, [0.0] * model.n_y)))
    return out


def fig8_reference():
    """(u, y of bouc_wen, y of bouc_wen_sigma1) for the sine frozen at FIG8_HOLD."""
    u = ref.sine(FIG8_AMPLITUDE, FIG8_F_CPS, np.arange(FIG8_N, dtype=float))
    u[FIG8_HOLD:] = u[FIG8_HOLD]
    u = [float(v) for v in u]
    ys = []
    for name in ("bouc_wen", "bouc_wen_sigma1"):
        model = ref.load_model(name)
        ys.append(ref.free_run(model, u, [0.0] * model.n_y))
    return u, ys[0], ys[1]


def check_table(label, text):
    header, rows = parse_csv(text)
    problems = []
    if header != TABLE_HEADER:
        return ["%s: header %r" % (label, header)]
    cells = TABLE_CELLS[label]
    if [(float(r[0]), float(r[1])) for r in rows] != cells:
        return ["%s: the (f, level) cells differ from the paper's grid" % label]
    main = [float(r[2]) for r in rows]
    second = [float(r[3]) for r in rows]
    if not all(math.isfinite(v) for v in main):
        problems.append("%s: a NaN or infinite cell" % label)
    if label in VALIDATION_TABLES:
        if not all(math.isnan(v) for v in second):
            problems.append("%s: validation rows must leave mape_uncomp empty (nan)" % label)
    elif not all(math.isfinite(v) for v in second):
        problems.append("%s: a NaN or infinite uncompensated cell" % label)
    for table, f, level, col, value, tol in PAPER_CELLS:
        if table == label:
            got = float(rows[cells.index((f, level))][col])
            if not abs(got - value) < tol:
                problems.append(
                    "%s: cell (%g, %g) column %d is %.4g, paper %.4g +- %g"
                    % (label, f, level, col, got, value, tol)
                )
    if label == "table1":
        _compare(problems, "table1 mape", main, heater_validation_reference())
    if label == "table3":
        for r0 in (0.05, 0.10, 0.20):
            column = [main[i] for i, c in enumerate(cells) if c[1] == r0]
            if not all(a < b for a, b in zip(column, column[1:])):
                problems.append("table3: compensated error not increasing in f at r0=%g" % r0)
    if label == "table-bw-comp":
        wins = sum(1 for a, b in zip(main, second) if a < b)
        if wins != len(cells):
            problems.append("table-bw-comp: compensation wins %d of %d cells" % (wins, len(cells)))
    return problems


def check_fig8(text):
    header, rows = parse_csv(text)
    if header != ("k", "u", "y_unconstrained", "y_constrained"):
        return ["fig8: header %r" % (header,)]
    if [int(r[0]) for r in rows] != list(range(FIG8_N)):
        return ["fig8: k is not 0..%d" % (FIG8_N - 1)]
    cols = [[float(r[j]) for r in rows] for j in (1, 2, 3)]
    if not all(math.isfinite(v) for c in cols for v in c):
        return ["fig8: a NaN or infinite value"]
    u_ref, y_free_ref, y_cns_ref = fig8_reference()
    problems = []
    _compare(problems, "fig8 u", cols[0], u_ref, floor=FIG8_AMPLITUDE)
    _compare(problems, "fig8 y_unconstrained", cols[1], y_free_ref)
    _compare(problems, "fig8 y_constrained", cols[2], y_cns_ref)
    # criterion 06: the sigma_y > 1 model drifts without bound after the
    # hold, the sigma_y = 1 model freezes once the hold reaches its input lag
    y_free, y_cns = cols[1], cols[2]
    d = [abs(v - y_free[FIG8_HOLD]) for v in y_free[FIG8_HOLD:]]
    monotone = all(b >= a for a, b in zip(d[1:], d[2:]))
    grows = d[10000] > 10.0 and d[10000] > 5.0 * d[1000] > 0.0
    frozen = max(abs(b - a) for a, b in zip(y_cns[FIG8_HOLD + 1:], y_cns[FIG8_HOLD + 2:])) < 1e-9
    if not (monotone and grows and frozen):
        problems.append(
            "fig8: drift dichotomy fails (monotone=%s grows=%s frozen=%s)"
            % (monotone, grows, frozen)
        )
    return problems


def check_reproduce(label, text, stderr, seed):
    if label == "fig8":
        return check_fig8(text)
    return check_table(label, text)


# ---------------------------------------------------------------------------
# mc-static: the heater static sweep of criterion 10


def mc_static_ops(seed, pass_index, outdir):
    return [Op("montecarlo", (
        "montecarlo", "-m", "heater", "--rel-std", str(REL_STD),
        "--runs", str(MC_STATIC_RUNS), "--grid", "0.05:0.45:0.05",
        "--seed", str(seed), "-o", "%s/mc-static.csv" % outdir,
    ))]


def static_band_reference(seed):
    """Closed-form band: per run, the perturbed model's static inverse fed to
    the heater plant's static map.  Returns (mean, std) per grid level."""
    model = ref.load_model("heater")
    z = np.random.default_rng(seed).standard_normal((MC_STATIC_RUNS, len(model.terms)))
    runs = [ref.perturbed(model, REL_STD, zi) for zi in z]
    mean, std = [], []
    for r in HEATER_GRID:
        vals = [ref.heater_static(ref.heater_static_inverse(m, r)) for m in runs]
        mu = math.fsum(vals) / len(vals)
        mean.append(mu)
        std.append(math.sqrt(math.fsum((v - mu) ** 2 for v in vals) / len(vals)))
    return mean, std


def check_mc_static(label, text, stderr, seed):
    header, rows = parse_csv(text)
    if header != ("r", "mean", "std", "lo", "hi"):
        return ["mc-static: header %r" % (header,)]
    cols = [[float(r[j]) for r in rows] for j in range(5)]
    problems = []
    _compare(problems, "mc-static r", cols[0], HEATER_GRID)
    if problems:
        return problems
    if "skipped" in stderr:
        problems.append("mc-static: runs were skipped: %s" % stderr.strip())
    mean, std = static_band_reference(seed)
    _compare(problems, "mc-static mean", cols[1], mean)
    _compare(problems, "mc-static std", cols[2], std)
    _compare(problems, "mc-static lo", cols[3], [m - 2.0 * s for m, s in zip(mean, std)])
    _compare(problems, "mc-static hi", cols[4], [m + 2.0 * s for m, s in zip(mean, std)])
    # the compensated static error stays below the plant's own error
    nominal = ref.load_model("heater")
    for r, mc_mean in zip(HEATER_GRID, cols[1]):
        plant_err = abs(ref.heater_static(r) - r)
        nom = ref.heater_static(ref.heater_static_inverse(nominal, r))
        if not (abs(nom - r) < plant_err and abs(mc_mean - r) < plant_err):
            problems.append(
                "mc-static: at r=%g the compensated error (nominal %.4g, band mean %.4g)"
                " is not below the plant's %.4g" % (r, nom - r, mc_mean - r, plant_err)
            )
    return problems


# ---------------------------------------------------------------------------
# mc-tracking: the Bouc-Wen tracking band, plus one compensate call on the
# same reference for the model-equation residual


def mc_tracking_ops(seed, pass_index, outdir):
    return [
        Op("montecarlo", (
            "montecarlo", "-m", "bouc_wen", "--rel-std", str(REL_STD),
            "--runs", str(MC_TRACKING_RUNS), "--signal", TRACKING_SIGNAL,
            "--seed", str(seed), "-o", "%s/mc-tracking.csv" % outdir,
        )),
        Op("compensate", (
            "compensate", "-m", "bouc_wen", "--signal", TRACKING_SIGNAL,
            "-o", "%s/compensate.csv" % outdir,
        )),
    ]


def tracking_reference():
    r = ref.sine(
        TRACKING_AMPLITUDE, TRACKING_F_CPS, np.arange(TRACKING_N, dtype=float),
        phase=TRACKING_PHASE,
    )
    return [float(v) for v in r]


def kept_runs_reference(seed):
    """Runs whose perturbed model settles on a loop that covers r(1)."""
    model = ref.load_model("bouc_wen")
    r = tracking_reference()
    z = np.random.default_rng(seed).standard_normal((MC_TRACKING_RUNS, len(model.terms)))
    kept = 0
    for zi in z:
        loop = ref.settled_loop(ref.perturbed(model, REL_STD, zi), *TRACKING_LOOP)
        if loop is not None and ref.loop_seed(loop, r[0], r[1]) is not None:
            kept += 1
    return kept


def uncompensated_mape_reference():
    """MAPE of the nominal model fed r, from the CLI's seeded rest state."""
    model = ref.load_model("bouc_wen")
    r = tracking_reference()
    seed_value = ref.loop_seed(ref.settled_loop(model, *TRACKING_LOOP), r[0], r[1])
    y = ref.free_run(model, [seed_value] + r, [r[0]] * model.n_y)[1:]
    return ref.mape(r, y)


def check_band(text, stderr, seed):
    header, rows = parse_csv(text)
    if header != ("k", "mean", "std", "lo", "hi"):
        return ["mc-tracking: header %r" % (header,)]
    if [int(float(row[0])) for row in rows] != list(range(TRACKING_N)):
        return ["mc-tracking: k is not 0..%d" % (TRACKING_N - 1)]
    cols = [[float(row[j]) for row in rows] for j in range(1, 5)]
    if not all(math.isfinite(v) for c in cols for v in c):
        return ["mc-tracking: a NaN or infinite band value"]
    problems = []
    skipped, runs = 0, MC_TRACKING_RUNS
    for line in stderr.splitlines():
        if line.startswith("skipped "):
            _, skipped, _, runs, _ = line.split()
            skipped, runs = int(skipped), int(runs)
    kept = kept_runs_reference(seed)
    if runs != MC_TRACKING_RUNS or kept + skipped != runs:
        problems.append(
            "mc-tracking: %d kept by the reference + %d skipped != %d runs"
            % (kept, skipped, MC_TRACKING_RUNS)
        )
    r = tracking_reference()
    band = ref.mape(r, cols[0])
    uncomp = uncompensated_mape_reference()
    if not band < uncomp:
        problems.append(
            "mc-tracking: band-mean MAPE %.4g%% not below the uncompensated %.4g%%"
            % (band, uncomp)
        )
    return problems


def check_compensate(text):
    """m(k) must satisfy the model equation with outputs replaced by r:
    r(k+1) = f(r(k), m(k), m(k) - m(k-1)), at every step that did not hold."""
    header, rows = parse_csv(text)
    if header != ("k", "r", "m", "y_c", "y_u"):
        return ["compensate: header %r" % (header,)]
    if [int(row[0]) for row in rows] != list(range(TRACKING_N)):
        return ["compensate: k is not 0..%d" % (TRACKING_N - 1)]
    r = tracking_reference()
    problems = []
    _compare(problems, "compensate r", [float(row[1]) for row in rows], r,
             floor=TRACKING_AMPLITUDE)
    m = [float(row[2]) for row in rows]
    if not all(math.isfinite(v) for v in m):
        return problems + ["compensate: a NaN or infinite input"]
    model = ref.load_model("bouc_wen")
    worst, worst_k = 0.0, None
    for k in range(1, TRACKING_N - 1):
        if rows[k][2] == rows[k - 1][2]:
            continue  # held: m(k) = m(k-1) solves nothing
        pred = ref.predict(model, r, m, k + 1, None, None)
        scale = max(abs(r[k + 1]), _term_magnitude(model, r, m, k + 1))
        res = abs(pred - r[k + 1]) / scale
        if res > worst:
            worst, worst_k = res, k
    if worst > REL_TOL:
        problems.append(
            "compensate: model-equation residual %.3g at step %d exceeds %g"
            % (worst, worst_k, REL_TOL)
        )
    return problems


def _term_magnitude(model, y, u, t):
    """Sum of the terms' absolute values at time t, the residual's scale."""
    return sum(
        abs(ref.predict(ref.Model(terms=(term,), n_y=model.n_y), y, u, t, None, None))
        for term in model.terms
    )


def check_mc_tracking(label, text, stderr, seed):
    if label == "compensate":
        return check_compensate(text)
    return check_band(text, stderr, seed)


WORKLOADS = {
    w.name: w for w in (
        Workload("reproduce", ("heater", "bouc_wen", "bouc_wen_sigma1"),
                 reproduce_ops, check_reproduce),
        Workload("mc-static", ("heater",), mc_static_ops, check_mc_static),
        Workload("mc-tracking", ("bouc_wen",), mc_tracking_ops, check_mc_tracking),
    )
}
