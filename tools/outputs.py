"""Run every command of the byte-identity contract twice and digest its outputs.

    python3 tools/outputs.py [--out DIR]

Each command of ``COMMANDS`` runs twice, each time in a fresh process
(``python -m narxcomp.cli`` on the ``src`` next to this script), and
writes ``rerun-<i>-<label>.csv`` and its stderr ``rerun-<i>-<label>.err``
into DIR (created if missing; a temporary directory when ``--out`` is not
given).  The script prints ``sha256  file`` for every CSV and stderr file
of the first run, and exits 1 when a command fails or the two runs differ
in any file.

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

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

TRACKING = ["--signal", "sine:G0=30,f=1,phase=1.5708"]

#: (label, arguments of ``narxcomp.cli``) per command.  ``montecarlo`` is
#: the tracking band at the default seed 20260817; the skip-heavy sweep
#: ``skips`` (494 of 1000 runs skipped) and band ``tracking-skips``
#: (LoopUnsettled=16, OutOfLoopRange=2 of 40) exercise the stderr of skips;
#: ``static-5000`` has more runs than a lockstep block of the static sweep
#: holds columns, so each block is one level; the ``compensate`` runs cover
#: each bundled model's loop kernel.
COMMANDS = [
    *[(t, ["reproduce", t])
      for t in ("table1", "table3", "table-bw-model", "table-bw-comp", "fig8")],
    ("montecarlo", ["montecarlo", "-m", "bouc_wen", "--rel-std", "0.005", "--runs", "40",
                    *TRACKING]),
    ("tracking-4242", ["montecarlo", "-m", "bouc_wen", "--rel-std", "0.005", "--runs", "40",
                       *TRACKING, "--seed", "4242"]),
    ("tracking-skips", ["montecarlo", "-m", "bouc_wen", "--rel-std", "0.02", "--runs", "40",
                        *TRACKING, "--seed", "11"]),
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
    ("fixed-points", ["fixed-points", "-m", "bouc_wen", "--u", "-10,10"]),
    ("simulate", ["simulate", "-m", "heater", "--signal", "sine:a=0.1,f=0.001,off=0.5",
                  "--n", "500"]),
    ("loop", ["loop", "-m", "bouc_wen", "--amplitude", "30", "--f", "1"]),
]


def run_all(out, i):
    """Run every command once into ``out``; returns the labels that failed."""
    env = dict(os.environ, PYTHONPATH=SRC)
    failed = []
    for label, args in COMMANDS:
        stem = os.path.join(out, "rerun-%d-%s" % (i, label))
        with open(stem + ".err", "wb") as err:
            code = subprocess.call([sys.executable, "-m", "narxcomp.cli", *args,
                                    "-o", stem + ".csv"], env=env, stderr=err)
        if code:
            failed.append("%s (exit %d)" % (label, code))
    return failed


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


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", help="directory for the rerun files (default: a temporary one)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        out = args.out or tmp
        os.makedirs(out, exist_ok=True)
        failed = run_all(out, 1) + run_all(out, 2)
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
