"""The cold-start contract: commands that never call scipy never load it.

scipy is imported inside the functions that call it, not at module top,
so importing the package and running a campaign, Table 8, a Fig. 11
sweep or a cloud comparison leaves every ``scipy`` module unloaded. A
policy comparison needs ``scipy.special`` (the incomplete-gamma
response-time tails) and nothing else of scipy. Each check runs in a
fresh interpreter, because this test process has long since imported
scipy through other tests. Only module sets are asserted, never timings.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")

_REPORT = """
import json, sys
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""

_NO_SCIPY_SCRIPT = """
import repro, repro.workloads, repro.engine, repro.ta, repro.cli, repro.server
from repro.ta import CLASS_A, TravelAgencyModel
from repro.workloads import (
    run_cloud_comparison, run_fault_campaigns, run_fig_sweep,
)

run_fault_campaigns("lan-host", horizon=100.0, replications=2, workers=1)
TravelAgencyModel().reservation_sweep(CLASS_A, range(1, 4))
run_fig_sweep("11", arrival_rate=100.0, servers_max=2)
run_cloud_comparison()
""" + _REPORT

_POLICIES_SCRIPT = """
from repro.workloads import run_policy_comparison

run_policy_comparison()
""" + _REPORT


def _scipy_modules_after(script):
    """The ``scipy`` modules loaded once *script* has run in a fresh
    interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    return set(json.loads(completed.stdout.splitlines()[-1]))


def test_campaign_table8_sweep_and_cloud_never_load_scipy():
    assert _scipy_modules_after(_NO_SCIPY_SCRIPT) == set()


def test_policy_comparison_loads_only_scipy_special():
    loaded = _scipy_modules_after(_POLICIES_SCRIPT)
    # Positive control: the probe does see scipy when it is loaded.
    assert "scipy.special" in loaded
    for package in ("scipy.sparse", "scipy.optimize", "scipy.stats"):
        assert not any(
            m == package or m.startswith(package + ".") for m in loaded
        ), package
