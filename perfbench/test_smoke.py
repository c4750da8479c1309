"""Smoke test of the benchmark: one tiny case per workload, untraced and traced.

Run with ``python3 -m pytest perfbench``. The package's own test suite
(``tests/``) does not collect this directory.
"""

import subprocess
import sys
from pathlib import Path


def test_every_workload_reports_every_declared_metric():
    suite = Path(__file__).with_name("suite.py")
    proc = subprocess.run([sys.executable, str(suite), "--smoke"],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
