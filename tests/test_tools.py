"""The measuring scripts in tools/ run end to end."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script,args", [
    ("ab_inprocess.py", ("--batches", "1", "--ops", "10")),
    ("layer_timers.py", ("--ops", "10")),
], ids=["ab_inprocess", "layer_timers"])
def test_tool_runs_with_the_checkout_as_its_baseline(script, args):
    # both scripts reach for private names of the library (the timed
    # layers, _GEN_CACHE, _an_bits.cache_clear), so a rename shows here;
    # ten gp3-low ops in one batch leave a key with one timed op
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / script), str(ROOT),
         "--workload", "gp3-low", *args],
        cwd=ROOT, env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("gp3-low, seed 1101:"), done.stdout
