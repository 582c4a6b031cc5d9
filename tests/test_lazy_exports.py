"""Lazy package exports: same names, same objects, resolved on first use.

The package ``__init__`` modules resolve their public names through
:func:`repro._lazy.lazy_exports`.  Each check runs in a fresh interpreter
so no earlier import in the test session can mask a resolution bug.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

LAZY_PACKAGES = (
    "repro",
    "repro.core",
    "repro.perf",
    "repro.analysis",
    "repro.experiments",
    "repro.scenarios",
)

#: exported values that carry no ``__module__`` of their own, with the
#: module that defines them
CONSTANTS = {
    "repro.perf": {
        "DEFAULT_RETRY": "repro.perf.retry",
        "assembly_cache": "repro.perf.cache",
        "factor_cache": "repro.perf.cache",
        "result_cache": "repro.perf.cache",
        "SweepTask": "repro.perf.executors",  # a Union alias
    },
    "repro.experiments": {"REGISTRY": "repro.experiments.runner"},
    "repro.scenarios": {
        "AXIS_LABELS": "repro.scenarios.spec",
        "AXIS_PARAMETERS": "repro.scenarios.spec",
        "SCENARIOS": "repro.scenarios.registry",
    },
}

#: re-exported functions that share their defining submodule's name
SHADOWED = (
    ("repro.core", "sweep"),
    ("repro.analysis", "ascii_plot"),
    ("repro.analysis", "sensitivity"),
    ("repro.perf", "stats"),
)


def run_fresh(code: str):
    """Run ``code`` in a fresh interpreter; return what it prints as JSON."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_every_export_is_its_defining_modules_object(package):
    mismatches = run_fresh(
        f"""
        import importlib, json, types
        pkg = importlib.import_module({package!r})
        constants = {CONSTANTS.get(package, {})!r}
        bad = []
        for name in pkg.__all__:
            value = getattr(pkg, name)
            if name == "__version__":
                ok = isinstance(value, str)
            elif isinstance(value, types.ModuleType):
                ok = value.__name__ == pkg.__name__ + "." + name
            elif name in constants:
                ok = getattr(importlib.import_module(constants[name]), name) is value
            else:
                home = importlib.import_module(value.__module__)
                ok = value.__name__ == name and getattr(home, name) is value
            if not ok:
                bad.append(name)
        missing = sorted(set(pkg.__all__) - set(dir(pkg)))
        print(json.dumps({{"bad": bad, "missing_from_dir": missing}}))
        """
    )
    assert mismatches == {"bad": [], "missing_from_dir": []}


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_unknown_and_dunder_names_import_nothing(package):
    result = run_fresh(
        f"""
        import importlib, json, sys
        pkg = importlib.import_module({package!r})
        before = set(sys.modules)
        raised = []
        for name in ("__path__", "__wrapped__", "no_such_export"):
            try:
                pkg.__getattr__(name)
            except AttributeError:
                raised.append(name)
        print(json.dumps({{
            "raised": raised,
            "hasattr": hasattr(pkg, "no_such_export"),
            "new_modules": sorted(set(sys.modules) - before),
        }}))
        """
    )
    assert result == {
        "raised": ["__path__", "__wrapped__", "no_such_export"],
        "hasattr": False,
        "new_modules": [],
    }


@pytest.mark.parametrize("package, name", SHADOWED)
def test_shadowed_function_survives_its_submodule_import(package, name):
    result = run_fresh(
        f"""
        import importlib, json, sys
        # import the submodule directly first: the import system then
        # binds the module on the package under the function's name
        module = importlib.import_module({package!r} + "." + {name!r})
        pkg = sys.modules[{package!r}]
        exec("from " + {package!r} + " import " + {name!r} + " as imported")
        print(json.dumps({{
            "attribute": getattr(pkg, {name!r}) is module.{name},
            "from_import": imported is module.{name},
        }}))
        """
    )
    assert result == {"attribute": True, "from_import": True}


def test_perf_cache_import_keeps_the_stats_function():
    # perf.cache imports from .stats at module level
    result = run_fresh(
        """
        import json, types
        import repro.perf.cache
        from repro.perf import stats
        print(json.dumps({
            "function": callable(stats) and not isinstance(stats, types.ModuleType),
            "has_caches": "caches" in stats(),
        }))
        """
    )
    assert result == {"function": True, "has_caches": True}


def test_cli_legacy_ids_match_the_experiment_registry():
    import repro.__main__ as cli
    from repro.experiments import REGISTRY

    assert cli._LEGACY_EXPERIMENTS == tuple(REGISTRY)
