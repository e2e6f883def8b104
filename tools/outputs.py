"""Run every command of the byte-identity contract twice and digest its outputs.

    python3 tools/outputs.py [--out DIR] [--against REV]

Each command of ``COMMANDS`` runs twice, each time in a fresh process
(``python -m narxcomp.cli`` on the ``src`` next to this script), and
writes ``rerun-<i>-<label>.csv`` and its stderr ``rerun-<i>-<label>.err``
into DIR (created if missing; a temporary directory when ``--out`` is not
given).  The script prints ``sha256  file`` for every CSV and stderr file
of the first run, and exits 1 when a command fails or the two runs differ
in any file.

With ``--against REV`` the second run is made on REV's ``src`` instead,
unpacked by ``git archive`` into a temporary directory; the commands and
the ``tools/*.json`` models stay this tree's.  The script prints ``same``,
``changed`` (with REV's digest after the file) or ``new`` and this tree's
digest for every file; a file REV does not write, and both files of a
command REV's CLI rejects (exit 2), are ``new``.  It exits 1 when a
command fails on this tree, or when a changed or new digest does not
appear in ``CHANGES.md``.

Digests are per machine: every sine reference and excitation goes
through ``numpy.sin``, whose last bit may differ between numpy builds and
CPUs.  Compare them only against a run on the same machine, for example
the same script run in a checkout of the parent commit.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHANGES = os.path.join(ROOT, "CHANGES.md")

TRACKING = ["--signal", "sine:G0=30,f=1,phase=1.5708"]

#: (label, arguments of ``narxcomp.cli``) per command.  ``montecarlo`` is
#: the tracking band at the default seed 20260817; the skip-heavy sweep
#: ``skips`` (494 of 1000 runs skipped) and band ``tracking-skips``
#: (LoopUnsettled=16, OutOfLoopRange=2 of 40) exercise the stderr of skips;
#: ``tracking-fractional``, a band at 0.7 Hz (LoopUnsettled=4 of 40), pins
#: the loop's 64-period cap on a second seeding loop;
#: ``static-5000`` has more runs than a lockstep block of the static sweep
#: holds columns, so each block is one level; the ``compensate`` runs cover
#: each bundled model's loop kernel, and ``cubic`` the degree-3 solve of
#: ``cubic_model.json`` (y = 0.5 y(k-1) + u(k-1)^3 + u(k-1)) in its static
#: seed and on each of its 500 steps; the ``fixed-points`` runs print the
#: eigenvalue magnitudes of ``bouc_wen``'s one-lag and the heater's two-lag
#: Jacobian, whose stability static inversion tests; ``complex-poles`` is a
#: static sweep of ``complex_pole_model.json``, the heater's terms with the
#: characteristic polynomial lambda^2 - 1.2 lambda + 0.5 (|lambda| = 0.71),
#: the one command whose stability test meets a complex pole pair;
#: ``fixed-points-unit-root`` prints the equilibria of ``unit_root_model.json``
#: (y = y(k-1) + 0.5 y(k-1)^2 + 0.1 u(k-1)), whose poles at u = 0 lie on
#: the unit circle, lambda = 1; ``loop-noninteger`` traces a loop whose
#: period, 303.03 samples, is not a whole number of samples;
#: ``loop-deep-lag`` traces ``deep_lag_model.json``, whose phi1 lag of 36
#: and u lag of 37 reach further back than its 33-sample loop period: its
#: periods start from the repeating input history from the third on, and
#: the sixth to the eighth, the settled one, are predicted by the period map.
COMMANDS = [
    *[(t, ["reproduce", t])
      for t in ("table1", "table3", "table-bw-model", "table-bw-comp", "fig8")],
    ("montecarlo", ["montecarlo", "-m", "bouc_wen", "--rel-std", "0.005", "--runs", "40",
                    *TRACKING]),
    ("tracking-4242", ["montecarlo", "-m", "bouc_wen", "--rel-std", "0.005", "--runs", "40",
                       *TRACKING, "--seed", "4242"]),
    ("tracking-skips", ["montecarlo", "-m", "bouc_wen", "--rel-std", "0.02", "--runs", "40",
                        *TRACKING, "--seed", "11"]),
    ("tracking-fractional", ["montecarlo", "-m", "bouc_wen", "--rel-std", "0.005", "--runs", "40",
                             "--signal", "sine:G0=30,f=0.7,phase=1.5708"]),
    ("compensate", ["compensate", "-m", "bouc_wen", *TRACKING]),
    ("static", ["montecarlo", "-m", "heater", "--rel-std", "0.005", "--runs", "1000",
                "--grid", "0.05:0.45:0.05", "--seed", "20260817"]),
    ("skips", ["montecarlo", "-m", "heater", "--rel-std", "0.05", "--runs", "1000",
               "--grid", "0.01:0.53:0.02", "--seed", "4242"]),
    ("static-5000", ["montecarlo", "-m", "heater", "--rel-std", "0.005", "--runs", "5000",
                     "--grid", "0.05:0.45:0.05", "--seed", "7"]),
    ("valve", ["compensate", "-m", "valve", "--signal", "sine:G0=1,f=0.5,phase=1.5708,off=2.5"]),
    ("valve-band", ["montecarlo", "-m", "valve", "--rel-std", "0.02", "--runs", "20",
                    "--signal", "sine:r0=2.5,a=1,f=0.01"]),
    ("heater", ["compensate", "-m", "heater", "--signal", "sine:a=0.1,f=0.001,off=0.2"]),
    ("heater-static", ["compensate", "-m", "heater", "--signal", "sine:a=0.1,f=0.001,off=0.2",
                       "--mode", "static"]),
    ("sigma1", ["compensate", "-m", "bouc_wen_sigma1", "--signal", "sine:G0=30,f=2"]),
    ("cubic", ["compensate", "-m", os.path.join(HERE, "cubic_model.json"),
               "--signal", "sine:a=1,f=0.01"]),
    ("complex-poles", ["montecarlo", "-m", os.path.join(HERE, "complex_pole_model.json"),
                       "--rel-std", "0.005", "--runs", "1000", "--grid", "0.02:0.18:0.02"]),
    ("fixed-points", ["fixed-points", "-m", "bouc_wen", "--u", "-10,10"]),
    ("fixed-points-heater", ["fixed-points", "-m", "heater", "--u", "0.2,0.5,0.9"]),
    ("fixed-points-unit-root", ["fixed-points", "-m", os.path.join(HERE, "unit_root_model.json"),
                                "--u", "0,-0.5"]),
    ("simulate", ["simulate", "-m", "heater", "--signal", "sine:a=0.1,f=0.001,off=0.5",
                  "--n", "500"]),
    ("loop", ["loop", "-m", "bouc_wen", "--amplitude", "30", "--f", "1"]),
    ("loop-noninteger", ["loop", "-m", "bouc_wen", "--amplitude", "50", "--f", "0.66"]),
    ("loop-deep-lag", ["loop", "-m", os.path.join(HERE, "deep_lag_model.json"),
                       "--amplitude", "1", "--f", "0.0303", "--ts", "1"]),
]


def run_all(out, i, src=None):
    """Run every command once into ``out`` on the package in ``src``
    (default ``SRC``); returns each label's exit code."""
    env = dict(os.environ, PYTHONPATH=src or SRC)
    codes = {}
    for label, args in COMMANDS:
        stem = os.path.join(out, "rerun-%d-%s" % (i, label))
        if os.path.exists(stem + ".csv"):  # a failing command writes none: drop an earlier one
            os.remove(stem + ".csv")
        with open(stem + ".err", "wb") as err:
            codes[label] = subprocess.call([sys.executable, "-m", "narxcomp.cli", *args,
                                            "-o", stem + ".csv"], env=env, stderr=err)
    return codes


def failures(codes):
    return ["%s (exit %d)" % (label, code) for label, code in codes.items() if code]


def digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def compare(out):
    """Print the first run's digests; returns the files the runs differ in."""
    differ = []
    for label, _ in COMMANDS:
        for ext in (".csv", ".err"):
            first, second = (os.path.join(out, "rerun-%d-%s%s" % (i, label, ext))
                             for i in (1, 2))
            sha = digest(first)
            print("%s  %s%s" % (sha, label, ext))
            if digest(second) != sha:
                differ.append(label + ext)
    return differ


def against(src, out):
    """Run every command once on this tree and once on the package in
    ``src`` into ``out``; returns (failed, rows): the commands that fail on
    this tree, and a (status, digest, file, REV's digest or None) row per
    file, status ``same``, ``changed`` or ``new``."""
    failed = failures(run_all(out, 1))
    rev_codes = run_all(out, 2, src)
    rows = []
    for label, _ in COMMANDS:
        for ext in (".csv", ".err"):
            mine, theirs = (os.path.join(out, "rerun-%d-%s%s" % (i, label, ext))
                            for i in (1, 2))
            if not os.path.exists(mine):
                continue
            sha = digest(mine)
            old = (digest(theirs) if rev_codes[label] != 2 and os.path.exists(theirs)
                   else None)
            status = "new" if old is None else "same" if old == sha else "changed"
            rows.append((status, sha, label + ext, old))
    return failed, rows


def extract_src(rev, dest):
    """Unpack REV's ``src`` into ``dest`` with ``git archive``; returns its path."""
    tar = subprocess.run(["git", "-C", ROOT, "archive", rev, "src"],
                         stdout=subprocess.PIPE, check=True).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=tar, check=True)
    return os.path.join(dest, "src")


def main_against(rev, out):
    with tempfile.TemporaryDirectory() as tmp:
        failed, rows = against(extract_src(rev, tmp), out or tmp)
    for status, sha, name, old in rows:
        line = "%-7s  %s  %s" % (status, sha, name)
        print(line + ("  (%s: %s)" % (rev, old) if status == "changed" else ""))
    if failed:
        print("failed: " + ", ".join(failed), file=sys.stderr)
        return 1
    with open(CHANGES, encoding="utf-8") as fh:
        changes = fh.read()
    missing = [name for status, sha, name, _ in rows if status != "same" and sha not in changes]
    if missing:
        print("changed or new against %s, digest not in CHANGES.md: %s"
              % (rev, ", ".join(missing)), file=sys.stderr)
        return 1
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", help="directory for the rerun files (default: a temporary one)")
    parser.add_argument("--against", metavar="REV",
                        help="compare with the outputs of REV's src instead of a second run")
    args = parser.parse_args(argv)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
    if args.against:
        return main_against(args.against, args.out)
    with tempfile.TemporaryDirectory() as tmp:
        out = args.out or tmp
        failed = failures(run_all(out, 1)) + failures(run_all(out, 2))
        if failed:
            print("failed: " + ", ".join(failed), file=sys.stderr)
            return 1
        differ = compare(out)
    if differ:
        print("the two runs differ in: " + ", ".join(differ), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
