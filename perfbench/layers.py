"""Which of the program's functions the traced run wraps, and what it derives.

:func:`install` wraps the public entry points of each layer where their
callers look them up — class attributes for methods, and every ``repro``
module that bound a function at import time (``fem.axisym`` does ``from
..network.solve import solve_sparse``, so patching ``network.solve``
alone would miss its calls).  ``os.fsync`` and ``os.replace`` are wrapped
too, for the store's durability cost; nothing under ``src/`` changes.
:func:`op_metrics` turns the spans of one traced op into the per-layer
metrics listed in :data:`PER_LAYER`.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
from collections.abc import Iterable
from typing import Any

from .tracing import MARKER, Patches, Span, Tracer, dump, outermost, self_times, union_length

#: layer prefix -> the program module it stands for (the self-time table)
LAYERS = {
    "startup": "repro.__main__ import graph",
    "spec": "repro.scenarios.spec",
    "plan": "repro.scenarios.plan",
    "scheduler": "repro.scenarios.scheduler",
    "executors": "repro.perf.executors",
    "solve": "repro.network.solve",
    "fem": "repro.fem",
    "core": "repro.core",
    "store": "repro.scenarios.store",
    "lease": "repro.scenarios.lease",
    "fleet": "repro.scenarios.fleet",
}

#: (name, unit, better) of every per-layer metric, in report order
PER_LAYER: list[tuple[str, str, str]] = [
    ("startup.import_s", "s", "lower"),
    ("startup.bare_interp_s", "s", "lower"),
    ("startup.modules_loaded", "count", "lower"),
    ("startup.scipy_loaded", "bool", "lower"),
    ("spec.resolve.calls", "count", "lower"),
    ("spec.resolve.busy_s", "s", "lower"),
    ("plan.compile.busy_s", "s", "lower"),
    ("plan.assemble.busy_s", "s", "lower"),
    ("plan.nodes", "count", "lower"),
    ("plan.nodes_deduped", "count", "higher"),
    ("scheduler.execute.busy_s", "s", "lower"),
    ("scheduler.self_s", "s", "lower"),
    ("executors.dispatch.calls", "count", "lower"),
    ("executors.dispatch.busy_s", "s", "lower"),
    ("executors.points_per_dispatch", "points", "higher"),
    ("cache.result.hit_ratio", "ratio", "higher"),
    ("cache.assembly.hit_ratio", "ratio", "higher"),
    ("cache.factor.hit_ratio", "ratio", "higher"),
    ("solve.dense_stacked.calls", "count", "lower"),
    ("solve.dense_stacked.busy_s", "s", "lower"),
    ("solve.sparse.calls", "count", "lower"),
    ("solve.sparse.busy_s", "s", "lower"),
    ("solve.multi.calls", "count", "lower"),
    ("solve.multi.busy_s", "s", "lower"),
    ("solve.dense.calls", "count", "lower"),
    ("solve.dense.busy_s", "s", "lower"),
    ("solve.stacked_batch_size", "points", "higher"),
    ("fem.reference.calls", "count", "lower"),
    ("fem.reference.busy_s", "s", "lower"),
    ("core.model_a.busy_s", "s", "lower"),
    ("core.model_b.busy_s", "s", "lower"),
    ("core.model_1d.busy_s", "s", "lower"),
    ("store.put_point.calls", "count", "lower"),
    ("store.put_point.busy_s", "s", "lower"),
    ("store.get_point.calls", "count", "lower"),
    ("store.get_point.busy_s", "s", "lower"),
    ("store.get_point.hit_ratio", "ratio", "higher"),
    ("store.put.busy_s", "s", "lower"),
    ("store.get.busy_s", "s", "lower"),
    ("store.encode.busy_s", "s", "lower"),
    ("store.decode.busy_s", "s", "lower"),
    ("store.fsync.calls", "count", "lower"),
    ("store.fsync.busy_s", "s", "lower"),
    ("store.rename.calls", "count", "lower"),
    ("store.files_written", "count", "lower"),
    ("store.bytes_written", "B", "lower"),
    ("store.write_share", "ratio", "lower"),
    ("lease.acquire.calls", "count", "lower"),
    ("lease.acquire.busy_s", "s", "lower"),
    ("lease.acquire.success_ratio", "ratio", "higher"),
    ("lease.conflicts", "count", "lower"),
    ("lease.steals", "count", "lower"),
    ("lease.renew.calls", "count", "lower"),
    ("lease.release.busy_s", "s", "lower"),
    ("fleet.spawn_s", "s", "lower"),
    ("fleet.rank_wall_max_s", "s", "lower"),
    ("fleet.rank_busy_s", "s", "lower"),
    ("fleet.rank_wait_s", "s", "lower"),
    ("fleet.solves_max_share", "ratio", "lower"),
    ("fleet.speedup_vs_single", "ratio", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
]

#: modules whose import-time bindings must exist before wrappers go in
_MODULES = (
    "repro.__main__",
    "repro.fem.axisym",
    "repro.fem.cartesian",
    "repro.network.circuit",
    "repro.network.transient",
    "repro.scenarios.physics",
    "repro.scenarios.fsck",
)


def repro_modules() -> list[Any]:
    return [
        m
        for name, m in list(sys.modules.items())
        if m is not None and (name == "repro" or name.startswith("repro."))
    ]


def _rebind(patches: Patches, name: str, original: Any, wrapped: Any) -> None:
    """Replace ``original`` in every repro module that bound it as ``name``."""
    for module in repro_modules():
        if vars(module).get(name) is original:
            patches.replace(module, name, wrapped)


def _task_points(task: Any) -> int:
    for field in ("powers", "members", "models"):
        if hasattr(task, field):
            return len(getattr(task, field))
    return 1


def _is_claim(path: Any) -> bool:
    text = os.fspath(path)
    return text.endswith(".claim") or ".stale." in text


def _rank_main(tracer: Tracer, original: Any) -> Any:
    """A fleet worker entry that records a rank span and flushes at exit."""

    @functools.wraps(original)
    def rank_main(rank, *args, **kwargs):
        from repro import perf

        tracer.spans = []  # the parent's spans, inherited through fork
        try:
            with tracer.span("fleet.rank", rank=rank):
                return original(rank, *args, **kwargs)
        finally:
            if tracer.flush_dir is not None:
                dump(
                    tracer.flush_dir / f"spans-{os.getpid()}.json",
                    tracer.spans,
                    pid=os.getpid(),
                    rank=rank,
                    caches=perf.stats()["caches"],
                )

    setattr(rank_main, MARKER, True)
    return rank_main


def install(tracer: Tracer) -> Patches:
    """Wrap every traced entry point; ``restore()`` the result to undo."""
    for name in _MODULES:
        importlib.import_module(name)
    from repro.core.base import ThermalTSVModel
    from repro.core.model_1d import Model1D
    from repro.core.model_a import ModelA
    from repro.core.model_b import ModelB
    from repro.fem.reference import FEMReference
    from repro.network import solve
    from repro.perf import executors
    from repro.scenarios import fleet, plan, scheduler, store
    from repro.scenarios.lease import LeaseManager
    from repro.scenarios.spec import ScenarioSpec
    from repro.scenarios.store import RunStore

    p = Patches()
    w = tracer.wrap

    def hit(a, k, r, pre):
        return {"hit": r is not None}

    # scenarios.spec
    for attr in ("resolved", "content_hash"):
        p.replace(ScenarioSpec, attr, w(vars(ScenarioSpec)[attr], "spec.resolve"))
    from_dict = vars(ScenarioSpec)["from_dict"].__func__
    p.replace(ScenarioSpec, "from_dict", classmethod(w(from_dict, "spec.resolve")))

    # plan, scheduler, executors: module functions bound by their callers
    functions = {
        "compile_plan": (
            plan.compile_plan,
            "plan.compile",
            lambda a, k, r, pre: {
                "nodes": r.stats.get("nodes_total", 0),
                "deduped": r.stats.get("nodes_deduped", 0),
            },
        ),
        "assemble_scenario": (plan.assemble_scenario, "plan.assemble", None),
        "execute_plan": (scheduler.execute_plan, "scheduler.execute", None),
        "solve_work": (
            executors.solve_work,
            "executors.dispatch",
            lambda a, k, r, pre: {"points": _task_points(a[0])},
        ),
        "solve_dense_stacked": (
            solve.solve_dense_stacked,
            "solve.dense_stacked",
            lambda a, k, r, pre: {"items": len(a[0])},
        ),
        "solve_sparse_stacked": (
            solve.solve_sparse_stacked,
            "solve.sparse",
            lambda a, k, r, pre: {"items": len(a[0])},
        ),
        "solve_sparse": (solve.solve_sparse, "solve.sparse", None),
        "solve_sparse_multi": (solve.solve_sparse_multi, "solve.multi", None),
        "solve_dense_multi": (solve.solve_dense_multi, "solve.multi", None),
        "solve_linear_system_multi": (
            solve.solve_linear_system_multi,
            "solve.multi",
            None,
        ),
        "solve_dense": (solve.solve_dense, "solve.dense", None),
        "render_artifact": (
            store.render_artifact,
            "store.encode",
            lambda a, k, r, pre: {"bytes": len(r)},
        ),
        "parse_artifact": (store.parse_artifact, "store.decode", None),
    }
    for attr, (original, name, attrs) in functions.items():
        _rebind(p, attr, original, w(original, name, attrs=attrs))

    # core and fem: model methods, labelled by the receiver's class
    class_layer = {
        ModelA: "core.model_a",
        ModelB: "core.model_b",
        Model1D: "core.model_1d",
        FEMReference: "fem.reference",
    }

    def label(args):
        return class_layer.get(type(args[0]), "core.other")

    for cls in (ThermalTSVModel, *class_layer):
        for attr in ("solve", "solve_batch", "assemble_system"):
            if attr in vars(cls):
                p.replace(cls, attr, w(vars(cls)[attr], label=label))

    # scenarios.store
    p.replace(RunStore, "put_point", w(RunStore.put_point, "store.put_point"))
    p.replace(RunStore, "get_point", w(RunStore.get_point, "store.get_point", attrs=hit))
    p.replace(RunStore, "put", w(RunStore.put, "store.put"))
    p.replace(RunStore, "get", w(RunStore.get, "store.get", attrs=hit))
    p.replace(os, "fsync", w(os.fsync, "store.fsync"))
    p.replace(
        os,
        "replace",
        w(
            os.replace,
            label=lambda a: "lease.rename" if _is_claim(a[1]) else "store.rename",
            attrs=lambda a, k, r, pre: (
                {"tombstone": True} if ".stale." in os.fspath(a[1]) else None
            ),
        ),
    )

    # scenarios.lease
    p.replace(
        LeaseManager,
        "acquire",
        w(
            LeaseManager.acquire,
            "lease.acquire",
            before=lambda a, k: (a[1] if len(a) > 1 else k["key"]) in a[0].held,
            attrs=lambda a, k, r, pre: {"ok": bool(r), "reentrant": pre},
        ),
    )
    p.replace(LeaseManager, "renew", w(LeaseManager.renew, "lease.renew"))
    p.replace(LeaseManager, "release", w(LeaseManager.release, "lease.release"))

    # scenarios.fleet: run_fleet looks its worker entry up at spawn time
    p.replace(fleet, "_worker_main", _rank_main(tracer, fleet._worker_main))
    return p


# ----------------------------------------------------------------------
# spans of one op -> per-layer metrics
# ----------------------------------------------------------------------
def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def cache_hit_ratios(caches: Iterable[dict[str, Any]]) -> dict[str, float]:
    """``cache.<name>.hit_ratio`` summed over one or more ``perf.stats()`` caches."""
    totals: dict[str, list[int]] = {}
    for snapshot in caches:
        for name, stats in snapshot.items():
            pair = totals.setdefault(name.removesuffix("_cache"), [0, 0])
            pair[0] += stats.get("hits", 0)
            pair[1] += stats.get("hits", 0) + stats.get("misses", 0)
    return {
        f"cache.{name}.hit_ratio": _ratio(hits, total)
        for name, (hits, total) in totals.items()
    }


def op_metrics(spans: list[Span], op_wall: float) -> dict[str, float]:
    """Per-layer metrics of one op from its spans (all processes merged)."""
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def calls(*names: str) -> int:
        return sum(len(by_name.get(n, ())) for n in names)

    def busy(*names: str) -> float:
        return sum(s.duration for s in outermost(spans, set(names)))

    def attr_sum(name: str, key: str) -> float:
        return sum((s.attrs or {}).get(key, 0) for s in by_name.get(name, ()))

    selfs = self_times(spans)
    compiles = by_name.get("plan.compile", [])
    stacked = [
        s for s in by_name.get("solve.dense_stacked", []) + by_name.get("solve.sparse", [])
        if s.attrs and "items" in s.attrs
    ]
    acquires = by_name.get("lease.acquire", [])
    ranks = by_name.get("fleet.rank", [])
    rank_wall = sum(s.duration for s in ranks)

    m: dict[str, float] = {
        "spec.resolve.calls": calls("spec.resolve"),
        "spec.resolve.busy_s": busy("spec.resolve"),
        "plan.compile.busy_s": busy("plan.compile"),
        "plan.assemble.busy_s": busy("plan.assemble"),
        "plan.nodes": max((s.attrs["nodes"] for s in compiles if s.attrs), default=0),
        "plan.nodes_deduped": max(
            (s.attrs["deduped"] for s in compiles if s.attrs), default=0
        ),
        "scheduler.execute.busy_s": busy("scheduler.execute"),
        "scheduler.self_s": sum(selfs[s.sid] for s in by_name.get("scheduler.execute", [])),
        "executors.dispatch.calls": calls("executors.dispatch"),
        "executors.dispatch.busy_s": busy("executors.dispatch"),
        "executors.points_per_dispatch": _ratio(
            attr_sum("executors.dispatch", "points"), calls("executors.dispatch")
        ),
        "solve.dense_stacked.calls": calls("solve.dense_stacked"),
        "solve.dense_stacked.busy_s": busy("solve.dense_stacked"),
        "solve.sparse.calls": calls("solve.sparse"),
        "solve.sparse.busy_s": busy("solve.sparse"),
        "solve.multi.calls": calls("solve.multi"),
        "solve.multi.busy_s": busy("solve.multi"),
        "solve.dense.calls": calls("solve.dense"),
        "solve.dense.busy_s": busy("solve.dense"),
        "solve.stacked_batch_size": _ratio(
            sum(s.attrs["items"] for s in stacked), len(stacked)
        ),
        "fem.reference.calls": calls("fem.reference"),
        "fem.reference.busy_s": busy("fem.reference"),
        "core.model_a.busy_s": busy("core.model_a"),
        "core.model_b.busy_s": busy("core.model_b"),
        "core.model_1d.busy_s": busy("core.model_1d"),
        "store.put_point.calls": calls("store.put_point"),
        "store.put_point.busy_s": busy("store.put_point"),
        "store.get_point.calls": calls("store.get_point"),
        "store.get_point.busy_s": busy("store.get_point"),
        "store.get_point.hit_ratio": _ratio(
            attr_sum("store.get_point", "hit"), calls("store.get_point")
        ),
        "store.put.busy_s": busy("store.put"),
        "store.get.busy_s": busy("store.get"),
        "store.encode.busy_s": busy("store.encode"),
        "store.decode.busy_s": busy("store.decode"),
        "store.fsync.calls": calls("store.fsync"),
        "store.fsync.busy_s": busy("store.fsync"),
        "store.rename.calls": calls("store.rename"),
        "store.files_written": calls("store.encode"),
        "store.bytes_written": attr_sum("store.encode", "bytes"),
        # share of the wall time of the processes doing the work: the op,
        # or the sum of the fleet ranks' walls
        "store.write_share": _ratio(
            busy("store.put_point", "store.put"), rank_wall or op_wall
        ),
        "lease.acquire.calls": len(acquires),
        "lease.acquire.busy_s": busy("lease.acquire"),
        "lease.acquire.success_ratio": _ratio(
            sum(1 for s in acquires if s.attrs and s.attrs["ok"]), len(acquires)
        ),
        "lease.conflicts": sum(1 for s in acquires if s.attrs and not s.attrs["ok"]),
        "lease.steals": attr_sum("lease.rename", "tombstone"),
        "lease.renew.calls": calls("lease.renew"),
        "lease.release.busy_s": busy("lease.release"),
    }
    m.update(_fleet_metrics(spans, ranks, by_name))
    return m


def _fleet_metrics(
    spans: list[Span], ranks: list[Span], by_name: dict[str, list[Span]]
) -> dict[str, float]:
    """Per-rank figures of a fleet op (zeros when no rank span exists)."""
    if not ranks:
        return {
            "fleet.spawn_s": 0.0,
            "fleet.rank_wall_max_s": 0.0,
            "fleet.rank_busy_s": 0.0,
            "fleet.rank_wait_s": 0.0,
            "fleet.solves_max_share": 0.0,
        }
    op_start = min(s.start for s in by_name.get("op", ranks))
    busy, points = [], []
    for rank in ranks:
        # busy: covered by wrapped layer calls other than the scheduler
        # loop itself, whose own time is the idle poll and bookkeeping
        work = [
            (s.start, s.end)
            for s in spans
            if s.pid == rank.pid and s.name not in ("fleet.rank", "scheduler.execute")
        ]
        busy.append(union_length(work, rank.start, rank.end))
        points.append(
            sum(
                (s.attrs or {}).get("points", 0)
                for s in by_name.get("executors.dispatch", [])
                if s.pid == rank.pid
            )
        )
    walls = [r.duration for r in ranks]
    return {
        "fleet.spawn_s": max(r.start for r in ranks) - op_start,
        "fleet.rank_wall_max_s": max(walls),
        "fleet.rank_busy_s": sum(busy) / len(ranks),
        "fleet.rank_wait_s": sum(w - b for w, b in zip(walls, busy)) / len(ranks),
        "fleet.solves_max_share": _ratio(max(points), sum(points)),
    }


def lease_check(spans: list[Span], counters: dict[str, int]) -> str | None:
    """Compare the traced lease calls with the program's own counters.

    Every ``acquire`` that returns False counts one ``lease_conflicts``;
    every non-re-entrant success counts one ``lease_acquired``.  A
    mismatch means the trace missed calls (or double-counted them).
    """
    acquires = [s for s in spans if s.name == "lease.acquire" and s.attrs]
    conflicts = sum(1 for s in acquires if not s.attrs["ok"])
    acquired = sum(1 for s in acquires if s.attrs["ok"] and not s.attrs["reentrant"])
    renews = sum(1 for s in spans if s.name == "lease.renew")
    problems = []
    if conflicts != counters.get("lease_conflicts", 0):
        problems.append(f"conflicts {conflicts} != {counters.get('lease_conflicts', 0)}")
    if acquired != counters.get("lease_acquired", 0):
        problems.append(f"acquired {acquired} != {counters.get('lease_acquired', 0)}")
    if renews < counters.get("lease_renewals", 0):
        problems.append(f"renew calls {renews} < {counters.get('lease_renewals', 0)}")
    return "; ".join(problems) or None


def self_time_table(spans: list[Span]) -> dict[str, tuple[int, float]]:
    """``layer -> (calls, self seconds)`` over all spans given."""
    selfs = self_times(spans)
    table: dict[str, list] = {}
    for s in spans:
        layer = s.name.split(".", 1)[0]
        row = table.setdefault(layer, [0, 0.0])
        row[0] += 1
        row[1] += selfs[s.sid]
    return {k: (v[0], v[1]) for k, v in table.items()}
