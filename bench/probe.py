"""Set-up probe: a fresh interpreter imports the package, finishes the
first-call initialisation of every entry point one workload uses, prints
``ready`` and exits.  ``run.py`` times launches of this script.

    python3 bench/probe.py WORKLOAD
"""

import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import policypaths  # noqa: E402,F401  (import time is part of set-up)
import workloads  # noqa: E402


def main(name):
    workdir = ROOT / ".bench_work" / f"probe-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workloads.WORKLOADS[name](0, str(workdir)).warm()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("ready", flush=True)


if __name__ == "__main__":
    main(sys.argv[1])
