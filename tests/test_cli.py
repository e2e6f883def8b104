"""Command-line interface: parsing, exit codes, CSV output, reproducibility."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import narxcomp.cli as cli
import narxcomp.model as narx


def run_cli(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# Signal DSL


def test_parse_signal_basic():
    spec = cli.parse_signal("sine:a=30,f=2")
    assert spec.kind == "sine"
    assert spec.amplitude == 30.0
    assert spec.frequency == 2.0
    assert spec.phase == 0.0


def test_parse_signal_aliases():
    spec = cli.parse_signal("sine:g0=20,f=1,phi=1.5708,r0=3")
    assert spec.amplitude == 20.0
    assert spec.phase == pytest.approx(1.5708)
    assert spec.offset == 3.0
    spec = cli.parse_signal("sine_then_hold:amp=30,freq=2,hold=920")
    assert spec.hold_at == 920
    assert isinstance(spec.hold_at, int)


def test_parse_signal_bare_kind():
    spec = cli.parse_signal("steps:")
    assert spec.kind == "steps"


def test_parse_signal_errors_name_the_key():
    for text in ("triangle:a=1", "sine:a", "sine:bogus=1", "sine:f=wat"):
        with pytest.raises(cli.ConfigError) as e:
            cli.parse_signal(text)
        assert "signal" in str(e.value)


# ---------------------------------------------------------------------------
# Grid parsing


def test_parse_grid_range_inclusive():
    g = cli.parse_grid("0.05:0.45:0.05")
    assert len(g) == 9
    assert g[0] == pytest.approx(0.05)
    assert g[-1] == pytest.approx(0.45)


def test_parse_grid_list():
    assert np.allclose(cli.parse_grid("0.1,0.2,0.5"), [0.1, 0.2, 0.5])


def test_parse_grid_errors():
    for text in ("1:2", "5:1:1", "1:5:0", "a,b", "0:inf:0.1", "0.05:0.45:inf",
                 "nan:1:0.1", "-inf:1:0.1", "0:1e300:1e-10", "-1e308:1e308:1", "0.1,inf",
                 "nan"):
        with pytest.raises(cli.ConfigError) as e:
            cli.parse_grid(text)
        assert "grid" in str(e.value)


@pytest.mark.parametrize("text, levels", [
    ("0:1:0.28", [0.0, 0.28, 0.56, 0.84]),  # 1.12 would pass the stop
    ("0:1:0.3", [0.0, 0.3, 0.6, 0.9]),
    ("2:3:0.6", [2.0, 2.6]),
])
def test_parse_grid_stops_at_or_before_the_stop(text, levels):
    assert np.allclose(cli.parse_grid(text), levels)


@pytest.mark.parametrize("text, count", [
    ("0.1:0.7:0.1", 7),  # (stop - start) / step is 5.999999999999999
    ("0.05:0.45:0.05", 9),
    ("0.01:0.53:0.02", 27),
    ("0:1:0.25", 5),
    ("1:1:0.5", 1),
])
def test_parse_grid_keeps_a_whole_step_count_that_rounding_left_short(text, count):
    assert len(cli.parse_grid(text)) == count


# ---------------------------------------------------------------------------
# Defaults


def test_pick_ts_defaults():
    assert cli.pick_ts(None, "heater") == 10.0
    assert cli.pick_ts(None, "bouc_wen") == 0.005
    assert cli.pick_ts(None, "somefile") == 1.0
    assert cli.pick_ts(2.5, "heater") == 2.5
    with pytest.raises(cli.ConfigError):
        cli.pick_ts(0.0, "heater")


def test_choose_n_five_periods():
    spec = cli.parse_signal("sine:a=1,f=2")
    assert cli.choose_n(None, spec, 0.005) == 500
    assert cli.choose_n(123, spec, 0.005) == 123
    with pytest.raises(cli.ConfigError):
        cli.choose_n(1, spec, 0.005)
    with pytest.raises(cli.ConfigError):
        cli.choose_n(None, cli.parse_signal("steps:a=1"), 1.0)


def per_cell_csv(header, rows):
    """The CSV text of the writer that formatted each cell on its own."""
    def format_value(v):
        if isinstance(v, str):
            return v
        if isinstance(v, (int, np.integer)):
            return "%d" % v
        return "%.12g" % v

    lines = [",".join(header)]
    lines.extend(",".join(format_value(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


#: One cell strategy per column type.  Ints reach 1e12 and beyond, where
#: %d and %.12g differ; floats include NaN, +-inf, -0.0 and subnormals, and
#: numpy float64 cells mixed with float ones, as the table MAPEs come.
CELLS = {
    "int": st.integers() | st.integers(min_value=10**12),
    "float": st.floats() | st.floats().map(np.float64),
    "str": st.text(st.characters(min_codepoint=32, max_codepoint=126,
                                 blacklist_characters=",")),
}


@st.composite
def typed_columns(draw):
    n_rows = draw(st.integers(0, 50))
    kinds = draw(st.lists(st.sampled_from(sorted(CELLS)), min_size=1, max_size=5))
    return [draw(st.lists(CELLS[kind], min_size=n_rows, max_size=n_rows))
            for kind in kinds]


def written(columns, to_file):
    header = ["c%d" % i for i in range(len(columns))]
    if to_file:
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "out.csv")
            cli.write_rows(path, header, columns)
            with open(path, "rb") as fh:
                return fh.read().decode()
    with contextlib.redirect_stdout(io.StringIO()) as out:
        cli.write_rows("-", header, columns)
    return out.getvalue()


@settings(max_examples=300, deadline=None)
@example(columns=[[10**12, -(10**15)], [-0.0, 5e-324], [math.nan, -math.inf], ["", "%d"]],
         to_file=True)
@example(columns=[[], []], to_file=True)
@given(columns=typed_columns(), to_file=st.booleans())
def test_write_rows_equals_the_per_cell_writer(columns, to_file):
    header = ["c%d" % i for i in range(len(columns))]
    expected = per_cell_csv(header, list(zip(*columns)))
    assert written(columns, to_file) == expected


def test_write_rows_cell_formats():
    assert written([[3], [7], ["stable"], [0.1313892222714], [1e-17]], False) == (
        "c0,c1,c2,c3,c4\n3,7,stable,0.131389222271,1e-17\n"
    )
    assert written([[10**12], [1e12], [math.nan]], True) == (
        "c0,c1,c2\n1000000000000,1e+12,nan\n"
    )
    assert written([[], []], False) == "c0,c1\n"


# ---------------------------------------------------------------------------
# End-to-end commands


def test_simulate_stdout(capsys):
    code, out, err = run_cli(
        ["simulate", "-m", "heater", "--signal", "sine:a=0.2,f=0.001,u0=0.5"],
        capsys,
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "k,u,y"
    assert len(lines) == 1 + 500  # five periods at f*ts = 0.01
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[1]) == pytest.approx(0.5)


def test_fixed_points_row(capsys):
    code, out, err = run_cli(
        ["fixed-points", "-m", "heater", "--u", "0.5"], capsys
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "u,y,lambda1,lambda2,stable"
    u, y, l1, l2, verdict = lines[1].split(",")
    assert float(u) == 0.5
    assert float(y) == pytest.approx(0.131389222271, abs=1e-9)
    assert float(l1) == pytest.approx(0.8759, abs=5e-4)
    assert float(l2) == pytest.approx(0.0199, abs=5e-4)
    assert verdict == "stable"


def test_fixed_points_multiple_levels(capsys):
    code, out, _ = run_cli(
        ["fixed-points", "-m", "heater", "--u", "0.2,0.5,0.8"], capsys
    )
    assert code == 0
    assert len(out.strip().split("\n")) == 4


def test_loop_command(capsys):
    code, out, _ = run_cli(
        ["loop", "-m", "valve", "--amplitude", "2", "--f", "0.1",
         "--center", "3", "--ts", "0.01"],
        capsys,
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "u,y,branch"
    branches = {line.split(",")[2] for line in lines[1:]}
    assert branches == {"loading", "unloading"}


def test_compensate_self_tracking(capsys):
    code, out, err = run_cli(
        ["compensate", "-m", "valve", "--ts", "0.01",
         "--signal", "sine:a=0.34,f=0.1,r0=3", "--n", "400"],
        capsys,
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "k,r,m,y_c,y_u"
    assert len(lines) == 401
    assert "mape_comp=" in err
    # Self-tracking: compensated output equals the reference to near
    # machine precision, so every y_c field matches its r field.
    for line in lines[200:205]:
        _, r, m, y_c, y_u = line.split(",")
        assert float(y_c) == pytest.approx(float(r), abs=1e-8)


def test_compensate_static_mode(capsys):
    code, out, err = run_cli(
        ["compensate", "-m", "heater", "--mode", "static",
         "--signal", "sine:a=0.1,f=0.0005,r0=0.25", "--n", "50"],
        capsys,
    )
    assert code == 0
    assert out.startswith("k,r,m,y_c,y_u\n")


def test_compensate_mode_mismatch(capsys):
    code, _, err = run_cli(
        ["compensate", "-m", "valve", "--mode", "dynamic",
         "--signal", "sine:a=0.3,f=0.1,r0=3", "--n", "50"],
        capsys,
    )
    assert code == 2
    assert "mode" in err
    code, _, err = run_cli(
        ["compensate", "-m", "heater", "--mode", "hysteresis",
         "--signal", "sine:a=0.1,f=0.001,r0=0.25", "--n", "50"],
        capsys,
    )
    assert code == 2
    assert "mode" in err


# ---------------------------------------------------------------------------
# Exit codes and failure hygiene


def test_unknown_model_is_config_error(capsys, tmp_path):
    out_file = tmp_path / "x.csv"
    code, _, err = run_cli(
        ["simulate", "-m", "nonexistent", "--signal", "sine:a=1,f=1",
         "-o", str(out_file)],
        capsys,
    )
    assert code == 2
    assert "model" in err
    assert not out_file.exists()


def test_bad_signal_is_config_error(capsys):
    code, _, err = run_cli(
        ["simulate", "-m", "heater", "--signal", "noise:a=1"], capsys
    )
    assert code == 2
    assert "signal" in err


def test_numeric_failure_exit_code(capsys, tmp_path):
    # The valve model's steady-state polynomial vanishes identically, a
    # numeric dead end rather than a configuration mistake.
    out_file = tmp_path / "fp.csv"
    code, _, err = run_cli(
        ["fixed-points", "-m", "valve", "--u", "3", "-o", str(out_file)],
        capsys,
    )
    assert code == 3
    assert "DegenerateStatics" in err
    assert not out_file.exists()


def test_unwritable_output_is_config_error(capsys, tmp_path):
    code, _, err = run_cli(
        ["fixed-points", "-m", "heater", "--u", "0.5",
         "-o", str(tmp_path / "no_such_dir" / "x.csv")],
        capsys,
    )
    assert code == 2
    assert "output" in err


@pytest.mark.parametrize("argv,key", [
    (["--amplitude", "30", "--f", "100"], "f"),  # a 2-sample period
    (["--amplitude", "30", "--f", "1", "--ts", "inf"], "ts"),
    (["--amplitude", "0", "--f", "1"], "amplitude"),
    (["--amplitude", "-5", "--f", "1"], "amplitude"),
    (["--amplitude", "nan", "--f", "1"], "amplitude"),
    (["--amplitude", "30", "--f", "nan"], "f"),
    (["--amplitude", "30", "--f", "1", "--center", "inf"], "center"),
    (["--amplitude", "30", "--f", "1e-9"], "f"),  # a 2e11-sample period
])
def test_loop_rejects_a_loop_it_cannot_trace(capsys, argv, key):
    code, out, err = run_cli(["loop", "-m", "bouc_wen"] + argv, capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: %s: " % key)


BW_REFERENCE = ["--signal", "sine:G0=30,f=1,phase=1.5708"]
TINY_LOOP = ["--signal", "sine:G0=30,f=1", "--loop-amplitude", "1e-300", "--loop-center", "1"]
TINY_MOVE = "loop amplitude 1e-300 does not move the input off its center 1"
# 2.23e-16 moves 3 by one ulp, but no sample of an 8.4-sample period gets
# near enough to the peak to move it
NO_SAMPLE_MOVES = "loop of amplitude 2.23e-16 around 3 has an empty branch"


@pytest.mark.parametrize("argv,message", [
    (["loop", "-m", "bouc_wen", "--amplitude", "1e-300", "--center", "1", "--f", "1"],
     "amplitude: " + TINY_MOVE),
    (["compensate", "-m", "bouc_wen"] + TINY_LOOP, "loop-amplitude: " + TINY_MOVE),
    (["montecarlo", "-m", "bouc_wen", "--rel-std", "0.005", "--runs", "4"] + TINY_LOOP,
     "loop-amplitude: " + TINY_MOVE),
    (["loop", "-m", "bouc_wen", "--amplitude", "2.23e-16", "--center", "3", "--f", "23.8"],
     "amplitude: " + NO_SAMPLE_MOVES),
    (["compensate", "-m", "bouc_wen", "--signal", "sine:G0=30,f=1", "--loop-amplitude",
      "2.23e-16", "--loop-center", "3", "--loop-f", "23.8"], "loop-amplitude: " + NO_SAMPLE_MOVES),
], ids=["loop", "compensate", "montecarlo", "loop-no-sample-moves", "compensate-no-sample-moves"])
def test_loop_amplitude_must_move_the_input(capsys, argv, message):
    # the traced loop would have empty branches
    code, out, err = run_cli(argv, capsys)
    assert (code, out, err) == (2, "", "error: %s\n" % message)


def test_check_loop_needs_the_input_moved_both_ways():
    # 1 - 1e-16 rounds below 1, but 1 + 1e-16 rounds back to 1
    model = cli.resolve_model("bouc_wen")[0]
    with pytest.raises(cli.ConfigError, match="^amplitude: "):
        cli.trace_loop("", model, (1e-16, 0.005, 1.0))
    loop = cli.trace_loop("", model, (1e-15, 0.005, 1.0))
    assert loop.period == 200 and len(loop.loading) and len(loop.unloading)


def test_loop_period_bound_names_the_option(capsys):
    # the seeding loop of compensate; `loop` itself is a case above
    code, out, err = run_cli(["compensate", "-m", "bouc_wen", "--signal", "sine:G0=30,f=1",
                              "--loop-f", "1e-9"], capsys)
    assert (code, out) == (2, "")
    assert err == "error: loop-f: loop period of 2e+11 samples is longer than 1000000\n"
    model = cli.resolve_model("bouc_wen")[0]
    # a period of exactly the bound is accepted: with no period to trace,
    # the spec passes its checks and the trace stops unsettled
    with pytest.raises(narx.LoopUnsettled):
        narx.hysteresis_loop(model, 30.0, 1e-6, 0.0, max_periods=0)
    with pytest.raises(cli.ConfigError, match="^f: loop period of 1e\\+06 samples"):
        cli.trace_loop("", model, (30.0, 1.0 / 1_000_001, 0.0))


@pytest.mark.parametrize("argv,key", [
    (["simulate", "-m", "heater", "--signal", "sine:a=0.1,f=0.001,off=0.5",
      "--n", "50", "--ts", "nan"], "ts"),
    (["simulate", "-m", "heater", "--signal", "sine:a=0.1,f=0.001,off=inf",
      "--n", "50"], "signal"),
    (["fixed-points", "-m", "heater", "--u", "nan"], "u"),
    (["fixed-points", "-m", "heater", "--u", "0.5,inf"], "u"),
    (["fixed-points", "-m", "heater", "--u", "1e400"], "u"),
    (["compensate", "-m", "bouc_wen", "--loop-amplitude", "nan"] + BW_REFERENCE,
     "loop-amplitude"),
    (["compensate", "-m", "bouc_wen", "--loop-center", "inf"] + BW_REFERENCE,
     "loop-center"),
    (["compensate", "-m", "bouc_wen", "--loop-f", "nan"] + BW_REFERENCE, "loop-f"),
    (["montecarlo", "-m", "bouc_wen", "--rel-std", "0.005", "--runs", "4",
      "--loop-amplitude", "inf"] + BW_REFERENCE, "loop-amplitude"),
    (["montecarlo", "-m", "heater", "--rel-std", "nan", "--runs", "5",
      "--grid", "0.1,0.2"], "rel-std"),
])
def test_non_finite_options_are_config_errors(capsys, argv, key):
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: %s: " % key)


def test_montecarlo_argument_exclusivity(capsys):
    base = ["montecarlo", "-m", "heater", "--rel-std", "0.005", "--runs", "5"]
    code, _, err = run_cli(base, capsys)
    assert code == 2
    assert "grid" in err
    code, _, err = run_cli(
        base + ["--grid", "0.1,0.2", "--signal", "sine:a=0.1,f=0.001"], capsys
    )
    assert code == 2


def test_fixed_points_levels_may_start_with_a_minus_sign(capsys):
    # argparse alone reads -10,10 as an option and exits 2
    glued = run_cli(["fixed-points", "-m", "bouc_wen", "--u=-10,10"], capsys)
    assert glued[0] == 0 and len(glued[1].strip().split("\n")) == 3
    assert run_cli(["fixed-points", "-m", "bouc_wen", "--u", "-10,10"], capsys) == glued


def test_montecarlo_grid_may_start_with_a_minus_sign(capsys):
    base = ["montecarlo", "-m", "heater", "--rel-std", "0.005", "--runs", "5"]
    glued = run_cli(base + ["--grid=-0.04,0.2"], capsys)
    assert glued[0] == 3  # NoFeasibleRoot
    assert run_cli(base + ["--grid", "-0.04,0.2"], capsys) == glued
    assert run_cli(base + ["--grid", "-.04:0.2:0.02"], capsys)[0] == 3


def test_montecarlo_negative_seed_is_config_error(capsys, tmp_path):
    out_file = tmp_path / "mc.csv"
    code, _, err = run_cli(
        ["montecarlo", "-m", "heater", "--rel-std", "0.005", "--runs", "5",
         "--grid", "0.1,0.2", "--seed", "-1", "-o", str(out_file)],
        capsys,
    )
    assert code == 2
    assert err.startswith("error: seed:")
    assert not out_file.exists()


def test_compensate_unreachable_reference_is_config_error(capsys, tmp_path):
    # r in [-1, 1] lies outside the valve's output range [0.75, 4]
    out_file = tmp_path / "c.csv"
    code, _, err = run_cli(
        ["compensate", "-m", "valve", "--signal", "sine:G0=1,f=0.01",
         "-o", str(out_file)],
        capsys,
    )
    assert code == 2
    assert err.startswith("error: signal:")
    assert "[0.425, 4.325]" in err
    assert not out_file.exists()


def test_montecarlo_unreachable_reference_is_config_error(capsys):
    code, _, err = run_cli(
        ["montecarlo", "-m", "valve", "--rel-std", "0.005", "--runs", "5",
         "--signal", "sine:G0=1,f=0.01"],
        capsys,
    )
    assert code == 2
    assert err.startswith("error: signal:")
    assert "[0.425, 4.325]" in err


def test_reference_outside_seeding_loop_is_config_error(capsys):
    # a loop of amplitude 10 spans about +-7.9; r(1) is about 30
    code, _, err = run_cli(
        ["compensate", "-m", "bouc_wen", "--signal", "sine:G0=30,f=1,phase=1.5708",
         "--loop-amplitude", "10"],
        capsys,
    )
    assert code == 2
    assert err.startswith("error: signal: r(1) is off the seeding loop: target 29.9")
    assert "seeding loop" in err


def test_reference_outside_seeding_branch_is_config_error(capsys):
    # r(1) = 65.6867 >= r(0) seeds on the loading branch, which tops out at
    # 65.6666, though the loop as a whole reaches 65.709
    signal = ["--signal", "sine:G0=65.69,f=1,phase=1.5294"]
    for argv in (["compensate", "-m", "bouc_wen"],
                 ["montecarlo", "-m", "bouc_wen", "--rel-std", "0.005", "--runs", "4"]):
        code, _, err = run_cli(argv + signal, capsys)
        assert code == 2
        assert err.startswith("error: signal: r(1) is off the seeding loop: target 65.6867 "
                              "outside the output span [-65.709, 65.6666] of the traced "
                              "loading branch")


def test_montecarlo_grid_outside_output_range_is_config_error(capsys):
    code, _, err = run_cli(
        ["montecarlo", "-m", "heater", "--rel-std", "0.005", "--runs", "5",
         "--grid", "0.1,0.6"],
        capsys,
    )
    assert code == 2
    assert err.startswith("error: grid:")


@pytest.mark.parametrize("grid", ["0:inf:0.1", "0.05:0.45:inf", "0:1e300:1e-10"])
def test_montecarlo_non_finite_grid_is_config_error(capsys, grid):
    code, out, err = run_cli(
        ["montecarlo", "-m", "heater", "--rel-std", "0.005", "--runs", "5", "--grid", grid],
        capsys,
    )
    assert (code, out) == (2, "")
    assert err == ("error: grid: expected start:stop:step or comma-separated values, "
                   "got %r\n" % grid)


def test_montecarlo_grid_level_bound_allocates_nothing(capsys, monkeypatch):
    def arange(*args, **kwargs):
        raise AssertionError("np.arange%r ran before the level bound" % (args,))

    assert len(cli.parse_grid("0:%d:1" % (cli.MAX_GRID_LEVELS - 1))) == cli.MAX_GRID_LEVELS
    monkeypatch.setattr(cli.np, "arange", arange)
    for grid in ("0:1e12:1", "0:%d:1" % cli.MAX_GRID_LEVELS):
        with pytest.raises(cli.ConfigError, match="^grid: "):
            cli.parse_grid(grid)
    code, out, err = run_cli(
        ["montecarlo", "-m", "heater", "--rel-std", "0.005", "--runs", "5",
         "--grid", "0:1e12:1"],
        capsys,
    )
    assert (code, out) == (2, "")
    assert err == "error: grid: 1e+12 levels is more than 1000000\n"


def test_sample_count_bound_allocates_nothing(capsys, monkeypatch):
    spec = cli.parse_signal("sine:a=1,f=1")
    assert cli.choose_n(cli.MAX_SAMPLES, spec, 1.0) == cli.MAX_SAMPLES
    assert cli.choose_n(None, spec, 5.0 / cli.MAX_SAMPLES) == cli.MAX_SAMPLES

    def arange(*args, **kwargs):
        raise AssertionError("np.arange%r ran before the sample bound" % (args,))

    monkeypatch.setattr(cli.np, "arange", arange)
    with pytest.raises(cli.ConfigError, match="^n: 10000001 samples is more than 10000000$"):
        cli.choose_n(cli.MAX_SAMPLES + 1, spec, 1.0)
    with pytest.raises(cli.ConfigError, match="^n: 10000005 samples is more than"):
        cli.choose_n(None, spec, 1.0 / (cli.MAX_SAMPLES / 5 + 1))
    for signal, ts, n, message in (
            ("sine:a=0.1,f=1e-320,off=0.5", "1e-10", [], "inf samples"),  # f ts underflows
            ("sine:a=0.1,f=1e-310,off=0.5", "1e-10", [], "inf samples"),  # 1 / (f ts) is inf
            ("sine:a=0.1,f=1e-12,off=0.5", "10", [], "500000000000 samples"),
            ("sine:a=0.1,f=0.001,off=0.5", "10", ["--n", "100000000000"],
             "100000000000 samples")):
        code, out, err = run_cli(
            ["simulate", "-m", "heater", "--signal", signal, "--ts", ts, *n], capsys)
        assert (code, out) == (2, "")
        assert err == "error: n: %s is more than 10000000\n" % message


@pytest.mark.parametrize("frequency", ["1e-320", "1e-310"])
def test_step_ladder_past_the_float_range_is_a_signal_error(capsys, frequency):
    code, out, err = run_cli(
        ["simulate", "-m", "heater", "--signal", "steps:a=0.1,f=%s,off=0.2" % frequency,
         "--ts", "1e-10", "--n", "10"],
        capsys,
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: signal: step length 1 / (f ts) overflows at frequency ")


def test_montecarlo_runs_bound_allocates_nothing(capsys, monkeypatch):
    def monte_carlo(*args, **kwargs):
        raise AssertionError("monte_carlo ran before the runs bound")

    monkeypatch.setattr(cli.ev, "monte_carlo", monte_carlo)
    for runs in (cli.MAX_RUNS + 1, 100000000000):
        code, out, err = run_cli(
            ["montecarlo", "-m", "heater", "--rel-std", "0.005", "--runs", str(runs),
             "--grid", "0.1,0.2"],
            capsys,
        )
        assert (code, out) == (2, "")
        assert err == "error: runs: %d runs is more than 1000000\n" % runs


HEATER_REFERENCE = ["--signal", "sine:a=0.1,f=0.001,off=0.2"]


def bundled_model_file(name):
    return os.path.join(os.path.dirname(cli.__file__), "models", name + ".json")


def test_plant_model_file_runs_like_the_model_itself(capsys, tmp_path):
    argv = ["compensate", "-m", "heater"] + HEATER_REFERENCE
    code, _, err = run_cli(argv + ["-o", str(tmp_path / "self.csv")], capsys)
    assert (code, err) == (0, "mape_comp=0.05162% mape_uncomp=86.48% holds=0\n")
    plant = "model_as_plant:" + bundled_model_file("heater")
    code, _, path_err = run_cli(argv + ["--plant", plant, "-o", str(tmp_path / "path.csv")],
                                capsys)
    assert (code, path_err) == (0, err)
    assert (tmp_path / "path.csv").read_bytes() == (tmp_path / "self.csv").read_bytes()


def test_plant_model_file_errors_name_the_plant(capsys, tmp_path):
    no_terms = tmp_path / "no_terms.json"
    no_terms.write_text('{"n_y": 1}')
    missing = tmp_path / "missing.json"
    for path, message in ((missing, "%r is neither a file" % str(missing)),
                          (no_terms, "cannot load %r: 'terms'" % str(no_terms)),
                          (tmp_path, "cannot load %r: [Errno" % str(tmp_path))):
        code, out, err = run_cli(["compensate", "-m", "heater", "--plant",
                                  "model_as_plant:%s" % path] + HEATER_REFERENCE, capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: plant: " + message)


@pytest.mark.parametrize("name,edit,argv", [
    ("heater", lambda d: d["terms"][1].update(coeff=math.nan),
     ["fixed-points", "--u", "0.5"]),
    ("heater", lambda d: d["terms"][1].update(coeff=math.nan),
     ["compensate"] + HEATER_REFERENCE),
    ("bouc_wen", lambda d: d.update(input_range=[-80.0, math.inf]),
     ["compensate", "--ts", "0.005"] + BW_REFERENCE),
])
def test_model_file_with_non_finite_values_is_config_error(capsys, tmp_path, name, edit, argv):
    with open(bundled_model_file(name)) as fh:
        d = json.load(fh)
    edit(d)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(d))
    code, out, err = run_cli(argv[:1] + ["-m", str(path)] + argv[1:], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: model: cannot load %r: invalid model: " % str(path))
    assert "must be finite" in err


@pytest.mark.parametrize("edit,message", [
    (lambda d: d["terms"][0]["factors"][0].update(lag=1.7), "lag must be an integer, got 1.7"),
    (lambda d: d.update(n_y=2.9), "n_y must be an integer, got 2.9"),
    (lambda d: d["terms"][1]["factors"][0].update(pow=2.0), "pow must be an integer, got 2.0"),
    (lambda d: d.update(tau_d=2.0), "tau_d must be an integer, got 2.0"),
    (lambda d: d["terms"][0]["factors"][0].update(lag=True), "lag must be an integer, got True"),
    (lambda d: d.update(ell=False), "ell must be an integer, got False"),
], ids=["lag", "n_y", "pow", "tau_d", "lag-bool", "ell-bool"])
def test_model_file_with_non_integer_orders_is_config_error(capsys, tmp_path, edit, message):
    # int() would run lag 1.7 as 1 and n_y 2.9 as 2, operator.index lag true as 1
    with open(bundled_model_file("heater")) as fh:
        d = json.load(fh)
    edit(d)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(d))
    code, out, err = run_cli(["simulate", "-m", str(path), "--signal", "sine:a=0.1,f=0.001,off=0.5"],
                             capsys)
    assert (code, out) == (2, "")
    assert err == "error: model: cannot load %r: %s\n" % (str(path), message)


def test_unreadable_model_path_names_the_model(capsys, tmp_path):
    # a directory exists but cannot be opened: the error is the model's, not the output's
    folder = str(tmp_path)
    code, out, err = run_cli(["simulate", "-m", folder, "--signal", "sine:a=0.1,f=0.001,off=0.5",
                              "-o", str(tmp_path / "out.csv")], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: model: cannot load %r: [Errno" % folder)
    assert not (tmp_path / "out.csv").exists()


def test_montecarlo_prints_skip_reasons(capsys):
    argv = ["montecarlo", "-m", "heater", "--rel-std", "0.05", "--runs", "20",
            "--grid", "0.05,0.45", "--seed", "1"]
    code, _, err = run_cli(argv, capsys)
    assert code == 0
    assert err.splitlines() == [
        "skipped 6 of 20 runs", "skip reasons: NoFeasibleRoot=6",
    ]
    code, _, err = run_cli(argv[:4] + ["0.005"] + argv[5:], capsys)
    assert code == 0
    assert err == ""


def test_montecarlo_static_sweep_rejects_hysteretic(capsys):
    code, _, err = run_cli(
        ["montecarlo", "-m", "valve", "--rel-std", "0.005", "--runs", "5",
         "--grid", "1,2"],
        capsys,
    )
    assert code == 2
    assert "model" in err


# ---------------------------------------------------------------------------
# Determinism


def test_output_file_matches_stdout(capsys, tmp_path):
    argv = ["fixed-points", "-m", "heater", "--u", "0.25,0.5"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    out_file = tmp_path / "fp.csv"
    code2, _, _ = run_cli(argv + ["-o", str(out_file)], capsys)
    assert code2 == 0
    assert out_file.read_text() == out


def test_montecarlo_rerun_is_byte_identical(capsys, tmp_path):
    files = []
    for name in ("a.csv", "b.csv"):
        f = tmp_path / name
        code, _, _ = run_cli(
            ["montecarlo", "-m", "heater", "--rel-std", "0.005",
             "--runs", "30", "--grid", "0.1:0.3:0.1", "--seed", "20260817",
             "-o", str(f)],
            capsys,
        )
        assert code == 0
        files.append(f.read_bytes())
    assert files[0] == files[1]


def test_montecarlo_seed_changes_output(capsys, tmp_path):
    outs = []
    for seed in ("1", "2"):
        f = tmp_path / ("s%s.csv" % seed)
        code, _, _ = run_cli(
            ["montecarlo", "-m", "heater", "--rel-std", "0.005",
             "--runs", "20", "--grid", "0.2,0.3", "--seed", seed,
             "-o", str(f)],
            capsys,
        )
        assert code == 0
        outs.append(f.read_bytes())
    assert outs[0] != outs[1]


def test_montecarlo_tracking_mode(capsys):
    code, out, err = run_cli(
        ["montecarlo", "-m", "heater", "--rel-std", "0.002", "--runs", "8",
         "--signal", "sine:a=0.1,f=0.001,r0=0.25", "--n", "60"],
        capsys,
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "k,mean,std,lo,hi"
    assert len(lines) == 61


# ---------------------------------------------------------------------------
# Reproduce targets


@pytest.mark.parametrize(
    "target,header,n_rows",
    [
        ("table1", "f,amplitude,mape_comp,mape_uncomp", 9),
        ("table3", "f,amplitude,mape_comp,mape_uncomp", 12),
        ("table-bw-model", "f,amplitude,mape_comp,mape_uncomp", 9),
        ("table-bw-comp", "f,amplitude,mape_comp,mape_uncomp", 12),
        ("fig8", "k,u,y_unconstrained,y_constrained", 10921),
    ],
)
def test_reproduce_targets(capsys, target, header, n_rows):
    code, out, _ = run_cli(["reproduce", target], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == header
    assert len(lines) == 1 + n_rows


def test_reproduce_rerun_byte_identical(capsys, tmp_path):
    blobs = []
    for name in ("r1.csv", "r2.csv"):
        f = tmp_path / name
        code, _, _ = run_cli(["reproduce", "table1", "-o", str(f)], capsys)
        assert code == 0
        blobs.append(f.read_bytes())
    assert blobs[0] == blobs[1]


# ---------------------------------------------------------------------------
# One parser per process

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def fresh_process(argv):
    """``argv`` through ``python -m narxcomp.cli`` in a new process:
    (exit code, stderr)."""
    done = subprocess.run([sys.executable, "-m", "narxcomp.cli", *argv],
                          env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True)
    return done.returncode, done.stderr


def test_main_reuses_its_parser_and_matches_fresh_processes(capsys, tmp_path):
    static = ["montecarlo", "-m", "heater", "--rel-std", "0.05", "--runs", "40",
              "--grid", "0.01:0.53:0.13", "--seed", "4242"]
    commands = [
        ["fixed-points", "-m", "heater", "--u", "0.3,0.6"],
        static[:6] + ["0"] + static[7:],  # a ConfigError: exit 2
        ["simulate", "-m", "heater", "--signal", "sine:a=0.1,f=0.001,off=0.5", "--n", "50"],
        ["montecarlo", "-m", "heater", "--rel-std", "0.005"],  # argparse: --runs missing
        static,
        ["compensate", "-m", "heater", "--signal", "sine:a=0.1,f=0.001,off=0.2", "--n", "40"],
    ]
    parser = cli.build_parser()
    for i, argv in enumerate(commands):
        here, there = (str(tmp_path / ("%s-%d.csv" % (side, i))) for side in ("here", "there"))
        try:
            code = cli.main(argv + ["-o", here])
        except SystemExit as e:
            code = e.code
        err = capsys.readouterr().err
        assert (code, err) == fresh_process(argv + ["-o", there]), argv
        assert code == 0 or (code == 2 and "error" in err)
        if code == 0:
            with open(here, "rb") as a, open(there, "rb") as b:
                assert a.read() == b.read(), argv
    assert cli.build_parser() is parser


def test_importing_the_cli_builds_no_parser():
    probe = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting(self, *a, **k):\n"
        "    built.append(1)\n"
        "    init(self, *a, **k)\n"
        "argparse.ArgumentParser.__init__ = counting\n"
        "import narxcomp.cli as cli\n"
        "print(len(built))\n"
        "cli.build_parser()\n"
        "print(len(built) > 0)\n"
    )
    done = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, check=True)
    assert done.stdout.split() == ["0", "True"]
