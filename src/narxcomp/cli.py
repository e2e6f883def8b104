"""Command line front end: batch experiments on NARX models, written as CSV.

Every command loads a model (a JSON file or the name of a bundled model),
runs one experiment and writes one CSV file with a header row.  Each file is
written from typed columns: ints as ``%d``, floats with 12 significant
digits (``%.12g``, which prints ``nan`` and ``inf``), strings as they are,
so rerunning the same configuration produces a byte-identical file.  Exit
codes: 0 success, 2 configuration error (the message names the offending
option), 3 numeric failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
from importlib import resources

import numpy as np

from . import benchmarks
from . import compensator as comp
from . import evaluation as ev
from . import model as narx
from .poly import DegreeMismatch, NoConvergence

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

RUN_HEADER = ("k", "r", "m", "y_c", "y_u")
TABLE_HEADER = ("f", "amplitude", "mape_comp", "mape_uncomp")

BUNDLED_MODELS = ("heater", "bouc_wen", "bouc_wen_sigma1", "valve")

#: Default sampling time per bundled model, seconds.
DEFAULT_TS = {
    "heater": ev.HEATER_TS,
    "bouc_wen": ev.BOUC_WEN_TS,
    "bouc_wen_sigma1": ev.BOUC_WEN_TS,
    "valve": 0.01,
}

DEFAULT_SEED = 20260817

#: Most reference levels a ``start:stop:step`` grid may ask for.
MAX_GRID_LEVELS = 1_000_000

#: Most samples a signal (``--n``, or five periods of ``--signal``) may have.
MAX_SAMPLES = 10_000_000

#: Most Monte Carlo runs ``--runs`` may ask for.
MAX_RUNS = 1_000_000

REPRODUCE_TARGETS = (
    "table1", "table3", "table-bw-model", "table-bw-comp", "fig8",
)


class ConfigError(Exception):
    """Bad configuration; the message starts with the offending key."""

    def __init__(self, key, message):
        super().__init__("%s: %s" % (key, message))
        self.key = key
        self.message = message


#: Exceptions that mean the configuration was fine but the math failed.
NUMERIC_ERRORS = (
    comp.NoFeasibleRoot,
    comp.IdenticallyZero,
    narx.NonFinite,
    narx.OutOfLoopRange,
    narx.LoopUnsettled,
    narx.DegenerateStatics,
    narx.NoStableFixedPoint,
    ev.DegenerateRange,
    NoConvergence,
    DegreeMismatch,
    FloatingPointError,
    OverflowError,
)

_SIGNAL_KEYS = ("amplitude", "frequency", "phase", "offset", "hold_at")
_SIGNAL_ALIASES = {
    "a": "amplitude", "amp": "amplitude", "g": "amplitude", "g0": "amplitude",
    "f": "frequency", "freq": "frequency",
    "u0": "offset", "r0": "offset", "off": "offset",
    "phi": "phase",
    "hold": "hold_at",
}


# ---------------------------------------------------------------------------
# Config parsing helpers


def resolve_model(text):
    """Load a model by bundled name or file path.  Returns (model, name)."""
    if text in BUNDLED_MODELS:
        ref = resources.files("narxcomp").joinpath("models/%s.json" % text)
        with ref.open() as fh:
            return narx.model_from_dict(json.load(fh)), text
    if not os.path.exists(text):
        raise ConfigError(
            "model",
            "%r is neither a file nor one of the bundled models %s"
            % (text, ", ".join(BUNDLED_MODELS)),
        )
    name = os.path.splitext(os.path.basename(text))[0]
    try:
        return narx.load_model(text), name
    except (ValueError, KeyError, TypeError, OSError) as e:
        raise ConfigError("model", "cannot load %r: %s" % (text, e))


def parse_signal(text):
    """Parse ``kind:key=value,...`` into a :class:`benchmarks.SignalSpec`.

    Frequencies are in Hz (converted with --ts at generation time).  Keys:
    amplitude (a, g, g0), frequency (f), phase, offset (u0, r0), hold_at
    (hold, integer sample index).
    """
    kind, _, body = text.partition(":")
    kind = kind.strip().lower()
    if kind not in ("sine", "steps", "sine_then_hold"):
        raise ConfigError("signal", "unknown kind %r" % kind)
    fields = {}
    if body.strip():
        for item in body.split(","):
            key, eq, val = item.partition("=")
            if not eq:
                raise ConfigError("signal", "expected key=value, got %r" % item)
            key = key.strip().lower()
            key = _SIGNAL_ALIASES.get(key, key)
            if key not in _SIGNAL_KEYS:
                raise ConfigError("signal", "unknown parameter %r" % item.split("=")[0].strip())
            try:
                fields[key] = int(val) if key == "hold_at" else float(val)
                if not math.isfinite(fields[key]):
                    raise ValueError
            except ValueError:
                raise ConfigError("signal", "bad value in %r" % item.strip())
    return benchmarks.SignalSpec(kind, **fields)


def parse_grid(text):
    """Parse ``start:stop:step`` (inclusive, at most ``MAX_GRID_LEVELS``
    levels) or a comma-separated list, all finite."""
    try:
        if ":" in text:
            parts = [float(p) for p in text.split(":")]
            if len(parts) != 3:
                raise ValueError
            start, stop, step = parts
            if step <= 0 or stop < start:
                raise ValueError
            steps = (stop - start) / step  # inf when finite ends overflow it
            if not all(map(math.isfinite, parts + [steps])):
                raise ValueError
            # never past stop, but 0.1:0.7:0.1 (5.999999999999999 steps) reaches it
            levels = math.floor(min(steps, MAX_GRID_LEVELS) * (1.0 + 1e-9)) + 1
            if levels > MAX_GRID_LEVELS:
                raise ConfigError("grid", "%g levels is more than %d" % (steps + 1, MAX_GRID_LEVELS))
            return start + step * np.arange(levels)
        vals = [float(p) for p in text.split(",")]
        if not all(map(math.isfinite, vals)):
            raise ValueError
        return np.asarray(vals)
    except ValueError:
        raise ConfigError(
            "grid", "expected start:stop:step or comma-separated values, got %r" % text
        )


def pick_ts(ts_arg, model_name):
    if ts_arg is not None:
        if not 0 < ts_arg < math.inf:
            raise ConfigError("ts", "sampling time must be positive and finite")
        return float(ts_arg)
    return DEFAULT_TS.get(model_name, 1.0)


def choose_n(n_arg, spec, ts):
    """Explicit --n, or five periods of a periodic signal; at most
    ``MAX_SAMPLES`` either way."""
    if n_arg is not None:
        if n_arg < 2:
            raise ConfigError("n", "need at least 2 samples")
        n = n_arg
    else:
        n = 0
        if spec.frequency > 0:
            f_cps = spec.frequency * ts  # 0 when it underflows
            period = 1.0 / f_cps if f_cps else math.inf
            n = 5 * round(period) if period <= MAX_SAMPLES else 5.0 * period
        if n < 10:
            raise ConfigError(
                "n", "cannot infer a length from signal frequency %g at ts=%g; pass --n"
                % (spec.frequency, ts)
            )
    if n > MAX_SAMPLES:
        raise ConfigError("n", "%.12g samples is more than %d" % (n, MAX_SAMPLES))
    return int(n)


def build_signal(spec, n, ts):
    try:
        return benchmarks.generate(spec, n, ts)
    except ValueError as e:
        raise ConfigError("signal", str(e))


def resolve_plant(text, model, r_start):
    """Plant factory for compensation runs, called with a run's first
    seeded input.

    ``heater`` and ``bouc_wen`` are the bundled simulated plants;
    ``model_as_plant`` runs the model itself (optionally
    ``model_as_plant:<path>`` for a different model file) from that input
    and output ``r_start``.
    """
    if text == "heater":
        return lambda seed_value: benchmarks.HammersteinHeater()
    if text == "bouc_wen":
        return lambda seed_value: benchmarks.BoucWenPlant()
    if text == "model_as_plant" or text.startswith("model_as_plant:"):
        _, _, path = text.partition(":")
        try:
            plant_model = model if not path else resolve_model(path)[0]
        except ConfigError as e:
            raise ConfigError("plant", e.message) from None
        return lambda seed_value: ev.ModelPlant(plant_model, seed_value, r_start)
    raise ConfigError(
        "plant",
        "%r is not heater, bouc_wen or model_as_plant[:<path>]" % text,
    )


def check_reachable(key, model, r):
    """Reject references the model cannot produce, naming the reachable span.

    Every level must lie in the model's ``output_band()``, which
    :func:`narxcomp.compensator.solve_static` accepts.
    """
    r = np.asarray(r, dtype=float)
    r_lo, r_hi = model.output_band()
    if not np.all((r_lo <= r) & (r <= r_hi)):
        raise ConfigError(
            key, "reference levels [%g, %g] outside the reachable output span "
            "[%g, %g] of the model" % (r.min(), r.max(), r_lo, r_hi)
        )


def trace_loop(prefix, model, params):
    """:func:`narxcomp.model.hysteresis_loop` of ``model`` under ``params``,
    (amplitude, f_cps, center) with ``f_cps`` in cycles per sample; a loop
    it cannot trace is a ConfigError naming the option: ``prefix`` plus
    ``amplitude``, ``f`` or ``center``."""
    try:
        return narx.hysteresis_loop(model, *params)
    except narx.LoopSpecError as e:
        raise ConfigError(prefix + e.param, str(e)) from None


def loop_params(args, model, spec, ts, n):
    """(amplitude, f_cps, center) for the seeding loop, with defaults.

    Defaults span the full input range at the signal's fundamental
    frequency (or one cycle over the whole run for aperiodic signals).
    """
    lo, hi = model.input_range
    amp = args.loop_amplitude
    center = args.loop_center
    if center is None:
        center = 0.5 * (lo + hi)
    if amp is None:
        amp = hi - center
    if args.loop_f is not None:
        f_cps = args.loop_f * ts
    elif spec is not None and spec.frequency > 0:
        f_cps = spec.frequency * ts
    else:
        f_cps = 1.0 / max(n, 64)
    return amp, f_cps, center


# ---------------------------------------------------------------------------
# Output


def _format(column):
    """The %-format of a column whose cells share one type."""
    first = column[0]
    if isinstance(first, str):
        return "%s"
    return "%d" if isinstance(first, int) else "%.12g"


def write_rows(path, header, columns):
    """Write one CSV from equal-length columns, one per header field.

    The cells of a column share one type: int (written ``%d``), float
    (``%.12g``) or str.  Nothing is left behind if writing fails.
    """
    text = ",".join(header) + "\n"
    if len(columns[0]):
        template = ",".join(map(_format, columns))
        text += "\n".join(map(template.__mod__, zip(*columns))) + "\n"
    if path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except BaseException:
        if os.path.exists(path):
            try:
                os.unlink(path)
            except OSError:
                pass
        raise


# ---------------------------------------------------------------------------
# Commands (each returns (header, columns))


def cmd_simulate(args):
    model, name = resolve_model(args.model)
    ts = pick_ts(args.ts, name)
    spec = parse_signal(args.signal)
    n = choose_n(args.n, spec, ts)
    u = build_signal(spec, n, ts)
    y = narx.simulate_free_run(model, u, [0.0] * model.n_y)
    return ("k", "u", "y"), (range(n), u.tolist(), y.tolist())


def cmd_fixed_points(args):
    model, _ = resolve_model(args.model)
    try:
        levels = [float(p) for p in args.u.split(",")]
        if not all(map(math.isfinite, levels)):
            raise ValueError
    except ValueError:
        raise ConfigError("u", "expected comma-separated finite input levels, got %r" % args.u)
    branch_sign = {"steady": 0, "loading": 1, "unloading": -1}[args.branch]
    n_lam = model.max_y_lag()
    header = ("u", "y") + tuple("lambda%d" % (i + 1) for i in range(n_lam)) + ("stable",)
    fps = [fp for u_bar in levels for fp in narx.fixed_points(model, u_bar, branch_sign)]
    columns = (
        [fp.u_bar for fp in fps],
        [fp.y_bar for fp in fps],
        *([fp.eigen_mags[i] for fp in fps] for i in range(n_lam)),
        ["stable" if fp.stable else "unstable" for fp in fps],
    )
    return header, columns


def cmd_loop(args):
    model, name = resolve_model(args.model)
    if not model.is_hysteretic():
        raise ConfigError("model", "model has no phi regressors; no loop to trace")
    ts = pick_ts(args.ts, name)
    loop = trace_loop("", model, (args.amplitude, args.f * ts, args.center))
    load, unload = loop.loading, loop.unloading
    return ("u", "y", "branch"), (
        load[:, 0].tolist() + unload[:, 0].tolist(),
        load[:, 1].tolist() + unload[:, 1].tolist(),
        ["loading"] * len(load) + ["unloading"] * len(unload),
    )


def tracking_setup(args, model, name):
    """What ``compensate`` and ``montecarlo --signal`` both start from:
    (r, loop_spec, seed, plant_factory).

    ``r`` is the reference of ``--signal``, checked to be reachable.  A
    hysteretic model gets a seeding loop, from the loop options, whose
    branch must cover r(1) (a ConfigError naming ``signal`` otherwise);
    ``loop_spec`` is its (amplitude, f_cps, center), None for other models.
    ``seed`` is the model's input history from
    :func:`narxcomp.compensator.init_history`.  ``plant_factory`` builds
    the ``--plant`` from a run's input seed (:func:`resolve_plant`); a
    model plant starts from that input and output r(0).
    """
    ts = pick_ts(args.ts, name)
    spec = parse_signal(args.signal)
    n = choose_n(args.n, spec, ts)
    r = build_signal(spec, n, ts)
    check_reachable("signal", model, r)
    lp = loop = None
    if model.is_hysteretic():
        lp = loop_params(args, model, spec, ts, n)
        loop = trace_loop("loop-", model, lp)
    try:
        seed = comp.init_history(model, r, loop)
    except narx.OutOfLoopRange as e:
        raise ConfigError("signal", "r(1) is off the seeding loop: %s" % e) from None
    return r, lp, seed, resolve_plant(args.plant, model, float(r[0]))


def cmd_compensate(args):
    model, name = resolve_model(args.model)
    if args.mode == "hysteresis" and not model.is_hysteretic():
        raise ConfigError("mode", "hysteresis mode needs phi regressors in the model")
    if args.mode in ("dynamic", "static") and model.is_hysteretic():
        raise ConfigError("mode", "%s mode cannot handle a hysteretic model" % args.mode)
    r, _, seed, factory = tracking_setup(args, model, name)
    if args.mode == "static":  # settled inversion per sample, no shared state
        m, errors = comp.solve_static_lockstep(model, [model.coefficients] * len(r), r)
        if errors:
            raise next(iter(errors.values()))
        holds = 0
    else:
        session = comp.CompensationSession(model, seed)
        m = comp.run(session, r)
        holds = session.hold_count
    y_c = factory(seed[0]).simulate(m)
    y_u = factory(seed[0]).simulate(r)
    mape_c, mape_u = ev.mape(r, y_c), ev.mape(r, y_u)
    print("mape_comp=%.4g%% mape_uncomp=%.4g%% holds=%d" % (mape_c, mape_u, holds),
          file=sys.stderr)
    return RUN_HEADER, (range(len(r)), r.tolist(), m.tolist(), y_c.tolist(), y_u.tolist())


def cmd_montecarlo(args):
    model, name = resolve_model(args.model)
    if not 0 <= args.rel_std < math.inf:
        raise ConfigError("rel-std", "relative std must be >= 0 and finite")
    if args.runs < 1:
        raise ConfigError("runs", "need at least one run")
    if args.runs > MAX_RUNS:
        raise ConfigError("runs", "%d runs is more than %d" % (args.runs, MAX_RUNS))
    if args.seed < 0:
        raise ConfigError("seed", "seed must be >= 0, got %d" % args.seed)
    if (args.grid is None) == (args.signal is None):
        raise ConfigError("grid", "pass exactly one of --grid or --signal")

    if args.grid is not None:
        if model.is_hysteretic():
            raise ConfigError("model", "the static sweep needs a non-hysteretic model")
        if args.plant != "model_as_plant":
            raise ConfigError(
                "plant", "the static sweep always runs against the heater plant"
            )
        grid = parse_grid(args.grid)
        check_reachable("grid", model, grid)
        band = ev.monte_carlo(
            model, args.rel_std, args.runs,
            ev.HeaterStaticSweep(grid), args.seed, grid=grid,
        )
        header = ("r", "mean", "std", "lo", "hi")
    else:
        r, lp, _, factory = tracking_setup(args, model, name)
        band = ev.monte_carlo(
            model, args.rel_std, args.runs, ev.TrackingExperiment(r, factory, lp),
            args.seed, grid=np.arange(len(r)),
        )
        header = ("k", "mean", "std", "lo", "hi")

    if band.n_skipped:
        print(
            "skipped %d of %d runs" % (band.n_skipped, band.n_runs),
            file=sys.stderr,
        )
        print(
            "skip reasons: %s"
            % ", ".join("%s=%d" % item for item in band.skip_reasons.items()),
            file=sys.stderr,
        )
    return header, [a.tolist() for a in (band.grid, band.mean, band.std, band.lo, band.hi)]


def _bundled(name):
    return resolve_model(name)[0]


def cmd_reproduce(args):
    target = args.target
    if target == "table1":
        rows = ev.heater_validation_table(_bundled("heater"))
    elif target == "table3":
        rows = ev.heater_compensation_table(_bundled("heater"))
    elif target == "table-bw-model":
        rows = ev.bouc_wen_validation_table(_bundled("bouc_wen"))
    elif target == "table-bw-comp":
        rows = ev.bouc_wen_compensation_table(_bundled("bouc_wen"))
    else:
        # fig8: response of both Bouc-Wen variants to a sine frozen mid-cycle
        u, y_free = ev.drift_hold_run(_bundled("bouc_wen"))
        _, y_cns = ev.drift_hold_run(_bundled("bouc_wen_sigma1"))
        header = ("k", "u", "y_unconstrained", "y_constrained")
        return header, (range(len(u)), u.tolist(), y_free.tolist(), y_cns.tolist())
    return TABLE_HEADER, tuple(zip(*rows))


# ---------------------------------------------------------------------------
# Argument wiring


def _add_model(p):
    p.add_argument(
        "--model", "-m", required=True,
        help="model JSON file or bundled name (%s)" % ", ".join(BUNDLED_MODELS),
    )


def _add_output(p):
    p.add_argument(
        "--output", "-o", default="-",
        help="output CSV path ('-' for stdout, the default)",
    )


def _add_ts(p):
    p.add_argument(
        "--ts", type=float, default=None,
        help="sampling time in seconds (default: per bundled model, else 1)",
    )


def _add_signal(p, what):
    p.add_argument(
        "--signal", required=True,
        help="%s, e.g. sine:G0=30,f=2,phase=1.5708 (f in Hz)" % what,
    )
    p.add_argument(
        "--n", type=int, default=None,
        help="number of samples (default: five periods of the signal)",
    )


def _add_loop_flags(p):
    p.add_argument("--loop-amplitude", type=float, default=None,
                   help="seeding loop amplitude (default: half the input range)")
    p.add_argument("--loop-f", type=float, default=None,
                   help="seeding loop frequency in Hz (default: signal frequency)")
    p.add_argument("--loop-center", type=float, default=None,
                   help="seeding loop center (default: middle of the input range)")


@functools.cache  # built on the first call, not at import
def build_parser():
    parser = argparse.ArgumentParser(
        prog="narxcomp",
        description="NARX-model compensation experiments, as reproducible CSV.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="free-run simulation of a model")
    _add_model(p)
    _add_signal(p, "excitation")
    _add_ts(p)
    _add_output(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fixed-points", help="equilibria and their stability")
    _add_model(p)
    p.add_argument("--u", required=True,
                   help="constant input level(s), comma separated")
    p.add_argument("--branch", choices=("steady", "loading", "unloading"),
                   default="steady",
                   help="sign given to bare phi2 regressors (default steady)")
    _add_output(p)
    p.set_defaults(func=cmd_fixed_points)

    p = sub.add_parser("loop", help="trace the settled hysteresis loop")
    _add_model(p)
    p.add_argument("--amplitude", type=float, required=True)
    p.add_argument("--f", type=float, required=True, help="excitation frequency, Hz")
    p.add_argument("--center", type=float, default=0.0)
    _add_ts(p)
    _add_output(p)
    p.set_defaults(func=cmd_loop)

    p = sub.add_parser("compensate", help="track a reference on a plant")
    _add_model(p)
    _add_signal(p, "reference")
    _add_ts(p)
    p.add_argument("--plant", default="model_as_plant",
                   help="heater, bouc_wen or model_as_plant[:<path>] (default)")
    p.add_argument("--mode", choices=("auto", "static", "dynamic", "hysteresis"),
                   default="auto")
    _add_loop_flags(p)
    _add_output(p)
    p.set_defaults(func=cmd_compensate)

    p = sub.add_parser("montecarlo", help="robustness band under coefficient noise")
    _add_model(p)
    p.add_argument("--rel-std", type=float, required=True,
                   help="relative coefficient std, e.g. 0.005")
    p.add_argument("--runs", type=int, required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--grid", default=None,
                   help="static sweep levels (start:stop:step or comma list)")
    p.add_argument("--signal", default=None,
                   help="tracking reference instead of a static sweep")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--plant", default="model_as_plant",
                   help="plant for tracking mode (default model_as_plant)")
    _add_ts(p)
    _add_loop_flags(p)
    _add_output(p)
    p.set_defaults(func=cmd_montecarlo)

    p = sub.add_parser("reproduce", help="regenerate a bundled benchmark grid")
    p.add_argument("target", choices=REPRODUCE_TARGETS)
    _add_output(p)
    p.set_defaults(func=cmd_reproduce)

    return parser


def _glued(argv):
    """``argv`` with each ``--u`` or ``--grid`` value that starts with a
    minus sign and a digit or '.' attached as ``--u=-10,10``: argparse
    reads such a value as an option unless it is a single number."""
    out = []
    for arg in argv:
        if out and out[-1] in ("--u", "--grid") and re.match(r"-[\d.]", arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None):
    args = build_parser().parse_args(_glued(sys.argv[1:] if argv is None else argv))
    try:
        header, columns = args.func(args)
        write_rows(args.output, header, columns)
    except ConfigError as e:
        print("error: %s" % e, file=sys.stderr)
        return EXIT_CONFIG
    except NUMERIC_ERRORS as e:
        print("error: %s: %s" % (type(e).__name__, e), file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as e:
        print("error: output: %s" % e, file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
