"""Set-up probe: ``run.py`` starts this as a fresh process and times it
from start to exit, which is what ``setup_s`` reports.

    python3 perfbench/probe.py WORKLOAD SEED
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import workloads  # noqa: E402 - needs the source path above

if __name__ == "__main__":
    workloads.Workload(sys.argv[1], int(sys.argv[2])).setup()
