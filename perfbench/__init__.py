"""The repository's end-to-end benchmark.

Run one workload (from the checkout root)::

    python3 perfbench/run.py --workload train_proposed --seed 1 --seconds 10 --trace 0

or every workload, untraced and then traced, with a full report::

    python3 perfbench/run.py --all --seed 1

See :mod:`perfbench.spec` for the workloads and metrics and
:mod:`perfbench.run` for the command-line contract.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
RESULTS_DIR = os.path.join(ROOT, "perfbench", "results")


def use_checkout_source() -> None:
    """Import ``repro`` from this checkout's ``src`` tree, nowhere else.

    Raises ``SystemExit`` when the checkout holds no ``src/repro`` (for
    example a directory with only the benchmark files in it), so the
    benchmark never measures some other installed copy of the program.
    """
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(f"perfbench: no program source at {SRC}/repro")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import repro

    found = os.path.dirname(os.path.abspath(repro.__file__))
    if found != os.path.join(SRC, "repro"):
        raise SystemExit(f"perfbench: imported repro from {found}, not {SRC}")
