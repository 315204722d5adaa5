"""Set-up cost of one sivjp command in a fresh process.

Usage: python3 perfbench/setup_probe.py CONFIG.json OUT

Writes to OUT the seconds spent importing ``sivjp.cli`` and loading plus
schema-validating the config, the work every command does before its
first computation.
"""

import sys
import time

t0 = time.perf_counter()
import sivjp.cli  # noqa: E402,F401
from sivjp.harness import ExperimentConfig  # noqa: E402

ExperimentConfig.from_file(sys.argv[1])
elapsed = time.perf_counter() - t0
with open(sys.argv[2], "w", encoding="utf-8") as fh:
    fh.write(repr(elapsed))
