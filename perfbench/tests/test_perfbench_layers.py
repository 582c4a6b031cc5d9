"""The layer wrappers are transparent and leave nothing behind."""

import json
import os
import random
from pathlib import Path

from repro import perf
from repro.scenarios import RunStore, run_fleet, run_scenario

from perfbench import layers
from perfbench.run import END_TO_END
from perfbench.tracing import MARKER, Tracer, merge_dir
from perfbench.workloads import canonical, liner_sweep, tracing

ROOT = Path(__file__).resolve().parents[2]


def leftover_wrappers(owners):
    """Names of traced wrappers still bound on ``owners``."""
    found = []
    for owner in owners:
        for attr, value in list(vars(owner).items()):
            if getattr(getattr(value, "__func__", value), MARKER, False):
                found.append(f"{getattr(owner, '__name__', owner)}.{attr}")
    return found


def _spec(n_points, models=("a:paper",), reference="1d"):
    return liner_sweep(random.Random(3), "perfbench_test", n_points, models, reference)


def _stored(spec, root, tracer=None):
    perf.reset()
    with tracing(tracer, 1):
        run = run_scenario(spec, store=RunStore(root))
    return canonical(RunStore(root).get(run.key))


def test_traced_payload_is_byte_identical_and_originals_return(tmp_path):
    spec = _spec(12, models=("a:paper", "b:100"), reference="fem:coarse")
    originals = {
        "put_point": RunStore.put_point,
        "fsync": os.fsync,
        "replace": os.replace,
    }
    import repro.fem.axisym as axisym

    axisym_solve = axisym.solve_sparse
    tracer = Tracer()
    plain = _stored(spec, tmp_path / "plain")
    traced = _stored(spec, tmp_path / "traced", tracer)
    assert traced == plain
    names = {s.name for s in tracer.spans}
    assert {"store.put_point", "store.fsync", "plan.compile", "core.model_b"} <= names
    assert RunStore.put_point is originals["put_point"]
    assert os.fsync is originals["fsync"] and os.replace is originals["replace"]
    assert axisym.solve_sparse is axisym_solve
    from repro.core.base import ThermalTSVModel
    from repro.scenarios.lease import LeaseManager
    from repro.scenarios.spec import ScenarioSpec

    owners = layers.repro_modules() + [os, RunStore, LeaseManager, ScenarioSpec]
    owners += [ThermalTSVModel, *ThermalTSVModel.__subclasses__()]
    assert leftover_wrappers(owners) == []


def test_traced_fleet_lease_calls_match_the_program_counters(tmp_path):
    spec = _spec(6, models=("a:paper", "1d"), reference="fem:coarse")
    tracer = Tracer()
    tracer.flush_dir = tmp_path / "spans"
    tracer.flush_dir.mkdir()
    with tracing(tracer, 1):
        outcome = run_fleet([spec], store=tmp_path / "store", workers=2, timeout_s=60)
    assert outcome.ok
    headers, spans = merge_dir(tracer.flush_dir)
    assert len(headers) == 2
    assert layers.lease_check(spans, outcome.counters) is None
    metrics = layers.op_metrics(spans + tracer.spans, 1.0)
    assert metrics["lease.acquire.calls"] > 0
    assert metrics["fleet.solves_max_share"] > 0


def test_benchmark_json_lists_every_metric():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["end_to_end"]] == [n for n, _ in END_TO_END]
    assert [m["unit"] for m in bench["end_to_end"]] == [u for _, u in END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        tuple(row) for row in layers.PER_LAYER
    ]
