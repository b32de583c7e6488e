#!/usr/bin/env python3
"""Write perfbench/golden.json: the sha256 digest of every output each
workload's unit produces at the default seed.

    python3 perfbench/freeze_golden.py

The digests pin behaviour: a refactor must reproduce them byte for byte.
Re-freeze only for a change that is meant to alter an output, and say so.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402  (needs sysnc on the path)


def main() -> int:
    checks = workloads.Checks()
    golden = {}
    for name, wl in workloads.WORKLOADS.items():
        unit = wl.run_unit(wl.prepare(workloads.DEFAULT_SEED), checks)
        golden[name] = unit.digests
    if checks.failed:
        return 1
    (HERE / "golden.json").write_text(json.dumps(golden, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
