"""The CLI tests of ``test_cli.py`` run through the installed ``multireg``
script instead of ``cli.main`` in process: every ``REFUSALS`` row, the
goldens and the smoke runs of each command.

The file name is not ``test_*.py``, so a plain ``pytest`` does not collect
it; run it by path with ``multireg`` on ``PATH``::

    python -m pytest -q tests/console_cli.py

Each command runs in a child process under the same memory ceiling and
timeout, so a refusal that regresses into a large allocation or a long
search fails fast instead of taking the host down."""

import shutil
import subprocess
import sys

import pytest

import test_cli
from test_cli import (REFUSALS, _jammed, _refusal_test, scene_file,
                      test_bench_matches_recorded_bytes,
                      test_crlf_scene_and_label_files_are_read,
                      test_eval_perfect_permuted_and_degraded, test_run_algorithm_failure_exits_1,
                      test_run_em_noiseless_good_split, test_run_results_match_recorded_bytes,
                      test_synth_roundtrip_and_determinism)

MEMORY_LIMIT_KB = 4_000_000  # address space per command
TIMEOUT_S = 10  # the slowest command, the 100-object jammed synth, took 1.4-1.7 s on 2 vCPUs


def run_cli(*argv):
    """Run the installed ``multireg`` with ``argv``; its stdout and stderr go
    to this process's, and its exit code is returned."""
    script = shutil.which("multireg")
    assert script, "the multireg script is not on PATH"
    # the shell sets the ceiling: no Python runs between fork and exec
    limited = ["sh", "-c", f'ulimit -v {MEMORY_LIMIT_KB} && exec "$0" "$@"', script]
    result = subprocess.run([*limited, *map(str, argv)], capture_output=True, text=True,
                            timeout=TIMEOUT_S)
    sys.stdout.write(result.stdout)
    sys.stderr.write(result.stderr)
    return result.returncode


@pytest.fixture(autouse=True)
def through_the_script(monkeypatch):
    monkeypatch.setattr(test_cli, "run_cli", run_cli)


for _name, _entry in REFUSALS.items():
    globals()[_name] = _refusal_test(_entry)

# placement speed guards at two smaller jammed counts, through the script only
test_synth_jammed_in_time = _refusal_test({f"_{objects}_objects": _jammed(objects)
                                           for objects in (40, 60)})
