"""Fresh-interpreter set-up probe: import wordrep and answer one small request.

Run as ``python3 perfbench/setup_probe.py <graph file>``.  Prints the
seconds from the start of this script, before wordrep is imported, to the
first verdict.
"""

from time import perf_counter

START = perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from wordrep import cli  # noqa: E402

with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["representable", sys.argv[1]])
print(perf_counter() - START)
sys.exit(0 if code == 0 else 3)
