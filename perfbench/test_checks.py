"""The output checks pass on the program's output and fail when it is altered.

Not part of the repository's test suite (timings aside, these run the
program for about half a minute).  Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_checks.py
"""

import os
import shutil
import sys
import tempfile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads as wl  # noqa: E402
from narxcomp import cli  # noqa: E402

SEED = 20260817


@pytest.fixture(scope="module")
def outputs():
    """{(workload, label): (csv text, stderr)} from one pass of each workload."""
    import contextlib
    import io

    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    outdir = tempfile.mkdtemp(prefix="test-", dir=os.path.join(HERE, "out"))
    got = {}
    try:
        for name, workload in wl.WORKLOADS.items():
            for op in workload.ops(SEED, 0, outdir):
                err = io.StringIO()
                with contextlib.redirect_stderr(err):
                    assert cli.main(list(op.argv)) == 0
                with open(op.argv[-1]) as fh:
                    got[name, op.label] = (fh.read(), err.getvalue())
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    return got


def problems(outputs, workload, label, edit=None, stderr=None):
    text, err = outputs[workload, label]
    if edit is not None:
        text = edit(text)
    return wl.WORKLOADS[workload].check(label, text, err if stderr is None else stderr, SEED)


def set_cell(row, col, value):
    """Edit that replaces one CSV cell (row 0 is the first data row)."""
    def edit(text):
        lines = text.splitlines()
        cells = lines[row + 1].split(",")
        cells[col] = value(cells[col])
        lines[row + 1] = ",".join(cells)
        return "\n".join(lines) + "\n"
    return edit


def scaled(factor):
    return lambda cell: repr(float(cell) * factor)


def shifted(delta):
    return lambda cell: repr(float(cell) + delta)


def last_digit_changed(cell):
    return cell[:-1] + ("1" if cell[-1] != "1" else "2")


@pytest.mark.parametrize("workload,label", [
    ("reproduce", t) for t in wl.REPRODUCE_TARGETS
] + [("mc-static", "montecarlo"), ("mc-tracking", "montecarlo"),
     ("mc-tracking", "compensate")])
def test_program_output_passes(outputs, workload, label):
    assert problems(outputs, workload, label) == []


@pytest.mark.parametrize("label,edit", [
    # value off the reference evaluator by 1e-8 relative
    ("table1", set_cell(4, 2, scaled(1 + 1e-8))),
    # grid cell changed in its last digit
    ("table1", set_cell(0, 0, last_digit_changed)),
    # a NaN cell
    ("table3", set_cell(5, 2, lambda c: "nan")),
    # paper cell of criterion 03 moved out of its tolerance
    ("table3", set_cell(2, 3, shifted(6.5))),
    # compensated error no longer increasing in f (column r0 = 0.05)
    ("table3", set_cell(3, 2, scaled(0.1))),
    # paper cell of criterion 04 moved out of its tolerance
    ("table-bw-model", set_cell(4, 2, shifted(4.5))),
    # compensation loses one cell
    ("table-bw-comp", set_cell(0, 2, lambda c: "99")),
    # output value off the reference by 1e-8 relative, and an input value
    ("fig8", set_cell(3000, 2, scaled(1 + 1e-8))),
    ("fig8", set_cell(3000, 3, scaled(1 + 1e-8))),
    ("fig8", set_cell(17, 1, shifted(1e-6))),
    # the sigma_y = 1 model no longer freezes after the hold
    ("fig8", set_cell(5000, 3, shifted(1e-6))),
])
def test_reproduce_checks_catch_altered_output(outputs, label, edit):
    assert problems(outputs, "reproduce", label, edit)


@pytest.mark.parametrize("col", [1, 2, 3, 4])
def test_mc_static_band_shifted_by_1e6_fails(outputs, col):
    assert problems(outputs, "mc-static", "montecarlo", set_cell(3, col, shifted(1e-6)))


def test_mc_static_skipped_run_fails(outputs):
    assert problems(outputs, "mc-static", "montecarlo", stderr="skipped 1 of 1000 runs\n")


def test_mc_tracking_skip_count_must_match_the_reference(outputs):
    text, err = outputs["mc-tracking", "montecarlo"]
    skipped = int(err.split()[1]) if err.startswith("skipped") else 0
    wrong = "skipped %d of 40 runs\n" % (skipped + 1)
    assert problems(outputs, "mc-tracking", "montecarlo", stderr=wrong)


@pytest.mark.parametrize("edit", [
    set_cell(500, 1, lambda c: "nan"),
    lambda text: "\n".join(text.splitlines()[:-1]) + "\n",  # a row short
])
def test_mc_tracking_band_shape_and_finiteness(outputs, edit):
    assert problems(outputs, "mc-tracking", "montecarlo", edit)


def test_mc_tracking_band_mean_must_beat_uncompensated(outputs):
    def offset_mean(text):
        lines = text.splitlines()
        for i in range(1, len(lines)):
            cells = lines[i].split(",")
            cells[1] = repr(float(cells[1]) + 5.0)
            lines[i] = ",".join(cells)
        return "\n".join(lines) + "\n"
    assert problems(outputs, "mc-tracking", "montecarlo", offset_mean)


@pytest.mark.parametrize("edit", [
    set_cell(400, 2, scaled(1 + 1e-6)),  # compensation input off the model equation
    set_cell(400, 1, shifted(1e-6)),  # reference sample altered
])
def test_compensate_residual_check(outputs, edit):
    assert problems(outputs, "mc-tracking", "compensate", edit)
