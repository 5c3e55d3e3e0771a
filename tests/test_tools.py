"""The measuring scripts in tools/ run end to end."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


_TOOLS = {"ab_inprocess": ("--batches", "1", "--ops", "10"),
          "layer_timers": ("--ops", "10")}


# gp3-low, the first workload covered, keeps the bare tool name as its id
@pytest.mark.parametrize("tool,workload", [
    pytest.param(tool, workload,
                 id=tool if workload == "gp3-low" else f"{tool}-{workload}")
    for workload in ("gp3-low", "dim16", "search-small") for tool in _TOOLS])
def test_tool_runs_with_the_checkout_as_its_baseline(tool, workload):
    # both scripts reach for private names of the library (the timed
    # layers, _GEN_CACHE, _an_bits.cache_clear), so a rename shows here;
    # ten ops in one batch leave a key with one timed op, and each
    # in-process workload's ops take their own branches of key() and
    # label()
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / f"{tool}.py"), str(ROOT),
         "--workload", workload, *_TOOLS[tool]],
        cwd=ROOT, env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith(f"{workload}, seed 1101:"), done.stdout
