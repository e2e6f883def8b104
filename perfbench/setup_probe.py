"""Set-up time of one fresh process, printed in seconds.

Times the import of narxcomp (numpy included) and the loading of the
bundled models named on the command line:

    python3 perfbench/setup_probe.py heater bouc_wen
"""

import time

START = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, SRC)

from narxcomp import cli  # noqa: E402

for name in sys.argv[1:]:
    cli.resolve_model(name)
elapsed = time.perf_counter() - START

if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
    sys.exit("narxcomp was imported from %s, not from %s" % (cli.__file__, SRC))
print(repr(elapsed))
