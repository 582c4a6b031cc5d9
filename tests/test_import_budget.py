"""Import budget: cheap commands never import the solver stack.

Package imports are lazy (:mod:`repro._lazy`) and each CLI command
imports what it runs, so importing the package, ``list``, ``fsck``,
``migrate`` and a store-hit ``run`` stay clear of scipy and the solver
packages.  Every case runs in a fresh interpreter and asserts on
``sys.modules`` — not on timings, which this suite cannot hold steady.
"""

import json
import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.scenarios import AxisSpec, RunStore, ScenarioSpec, run_batch

SRC = Path(__file__).resolve().parent.parent / "src"

#: the builtin sweeps and the case study served from the store below
BUILTIN_TARGETS = ("fig4", "fig5", "fig6", "fig7", "table1", "case_study")
RUN_FLAGS = ("--fast", "--fem-resolution", "coarse", "--no-calibrate")
SOLVER_STACK = ("scipy", "repro.network", "repro.fem", "repro.calibration")

CLI_PROBE = """
import contextlib, io, json, sys
from repro.__main__ import main
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = main(sys.argv[1:])
print(json.dumps({"code": code, "stdout": out.getvalue(), "modules": sorted(sys.modules)}))
"""


def fresh(code: str, *args: str):
    """Run ``code`` with ``args`` in a fresh interpreter; its JSON output."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def loaded(modules, *roots):
    """The loaded modules that are, or live under, any of ``roots``."""
    return sorted(
        m for m in modules if any(m == r or m.startswith(r + ".") for r in roots)
    )


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    """A store holding every builtin target plus one JSON sweep spec."""
    root = tmp_path_factory.mktemp("budget")
    spec = ScenarioSpec(
        scenario_id="budget_sweep",
        title="Import-budget sweep",
        axis=AxisSpec(parameter="radius_um", values=(2.0, 4.0)),
        models=("a:paper", "1d"),
        reference="fem:coarse",
        calibrate=False,
    )
    spec_path = root / "budget_sweep.json"
    spec.dump(spec_path)
    run_batch(
        [*BUILTIN_TARGETS, spec],
        store=RunStore(root / "store"),
        fast=True,
        fem_resolution="coarse",
        calibrate=False,
    )
    return root / "store", spec_path


@pytest.mark.parametrize(
    "module",
    ["repro", "repro.scenarios.store", "repro.scenarios.spec", "repro.__main__"],
)
def test_import_loads_no_numpy(module):
    modules = fresh(
        f"import json, sys; import {module}; print(json.dumps(sorted(sys.modules)))"
    )
    assert loaded(modules, "numpy", "scipy") == []


@pytest.mark.parametrize("command", ["list", "fsck", "migrate"])
def test_store_commands_load_no_numpy(command, store, tmp_path):
    root, _ = store
    args = [command]
    if command != "list":
        # migrate moves files: give each command its own copy
        args.append(str(shutil.copytree(root, tmp_path / "store")))
    result = fresh(CLI_PROBE, *args)
    assert result["code"] == 0
    assert loaded(result["modules"], "numpy", "scipy") == []


@pytest.mark.parametrize("target", [*BUILTIN_TARGETS, "json"])
def test_store_hit_run_skips_the_solver_stack(target, store, capsys):
    root, spec_path = store
    argv = [
        "run",
        str(spec_path) if target == "json" else target,
        "--store",
        str(root),
        *RUN_FLAGS,
    ]
    result = fresh(CLI_PROBE, *argv)
    assert result["code"] == 0
    assert "served from run store" in result["stdout"]
    assert loaded(result["modules"], *SOLVER_STACK) == []
    # the same hit in this process, where the whole stack is imported,
    # prints the same bytes
    assert main(argv) == 0
    assert capsys.readouterr().out == result["stdout"]
