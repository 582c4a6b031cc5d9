"""The benchmark's workloads: seeded inputs, set-up, one op, its output check.

Every workload is a closed loop with one client: ``run.py`` starts op
``k + 1`` when op ``k`` has ended.  Each op starts cold (``perf.reset()``
and, where it writes, a fresh store directory inside the checkout, so the
store sits on the checkout's own disk, not a tmpfs where fsync is free).
The program sees only the generated specs, which are saved with the run's
results.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
import time
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import repro.__main__ as cli
from repro import perf
from repro.scenarios import RunStore, ScenarioSpec, run_fleet, run_scenario
from repro.scenarios.spec import AxisSpec, GeometryParams

from .layers import install, lease_check
from .tracing import Span, Tracer, load, merge_dir

#: payload fields that hold wall-clock measurements, the only ones that
#: may differ between two runs of one spec
CLOCK_FIELDS = frozenset({"runtimes_ms", "solve_time"})

#: the builtin sweeps a store-hit CLI op may target
BUILTIN_TARGETS = ("fig4", "fig5", "fig6", "fig7", "table1")

#: run-time choices of every CLI op (and of the store pre-population)
CLI_FLAGS = ("--fem-resolution", "coarse", "--no-calibrate")

SUBPROCESS_TIMEOUT_S = 120.0


@dataclass(frozen=True)
class Context:
    """Where one benchmark run reads and writes, and its seed."""

    root: Path  # the checkout: holds src/ and perfbench/
    work: Path  # stores and span files, removed when the run ends
    out: Path  # results, generated specs, spans
    seed: int

    def env(self) -> dict[str, str]:
        """Environment for child interpreters: the checkout's ``src`` first."""
        paths = [str(self.root / "src")]
        if os.environ.get("PYTHONPATH"):
            paths.append(os.environ["PYTHONPATH"])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
        # import with cached bytecode, as an installed package does; a
        # shell that disables it would otherwise add a compile to every op
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        return env


@dataclass
class Op:
    """One finished op: its wall time, what it landed, and its check."""

    wall_s: float
    points: int  # plan points landed (served, for a store hit)
    bytes_per_point: float  # bytes on disk in the store per point artifact
    error: str | None = None
    #: ``perf.stats()["caches"]`` of every process that solved
    caches: list[dict[str, Any]] = field(default_factory=list)
    #: startup figures measured inside a traced CLI op
    startup: dict[str, float] | None = None
    #: single-process wall over fleet wall (traced fleet ops)
    speedup: float | None = None


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def canonical(payload: Any) -> str:
    """``payload`` as canonical JSON with the wall-clock fields dropped."""

    def strip(value: Any) -> Any:
        if isinstance(value, dict):
            return {k: strip(v) for k, v in value.items() if k not in CLOCK_FIELDS}
        if isinstance(value, list):
            return [strip(v) for v in value]
        return value

    return json.dumps(strip(payload), sort_keys=True)


def store_snapshot(root: Path) -> dict[str, str]:
    """Every run object and point of a store, canonicalised, by key."""
    store = RunStore(root)
    snapshot = {}
    for space in ("objects", "points"):
        for path in sorted((root / space).glob("*/*.json")):
            read = store.get if space == "objects" else store.get_point
            payload = read(path.stem)
            snapshot[f"{space}/{path.stem}"] = (
                "<unreadable>" if payload is None else canonical(payload)
            )
    return snapshot


def store_size(root: Path) -> tuple[int, float]:
    """``(point artifacts, bytes per point artifact)`` of a store directory."""
    points = sum(1 for _ in (root / "points").glob("*/*.json"))
    size = sum(
        (Path(d) / f).stat().st_size for d, _, files in os.walk(root) for f in files
    )
    return points, size / max(points, 1)


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def settle_disk() -> None:
    """Flush earlier writes and deletions before a writing op starts.

    The store fsyncs every artifact; without this, an op's first fsyncs
    also pay for the journal of the previous op's deleted store, which
    makes op times depend on what ran before them.
    """
    os.sync()


@contextlib.contextmanager
def tracing(tracer: Tracer | None, op: int) -> Iterator[None]:
    """Install the layer wrappers around one op (no-op without a tracer)."""
    if tracer is None:
        yield
        return
    patches = install(tracer)
    tracer.op = op
    try:
        with tracer.span("op"):
            yield
    finally:
        tracer.op = None
        patches.restore()


def _distinct(rng: random.Random, n: int, lo: float, hi: float) -> tuple[float, ...]:
    values: set[float] = set()
    while len(values) < n:
        values.add(round(rng.uniform(lo, hi), 6))
    return tuple(sorted(values))


def liner_sweep(
    rng: random.Random,
    scenario_id: str,
    n_points: int,
    models: tuple[str, ...],
    reference: str,
) -> ScenarioSpec:
    """A seeded sweep of ``n_points`` distinct liner thicknesses.

    The block is Fig. 5's and the liners span its 0.2-3 um range; only the
    values vary with the seed, so every seed asks for the same amount of
    work (the FEM mesh size depends on the geometry).
    """
    return ScenarioSpec(
        scenario_id=scenario_id,
        title=f"benchmark liner sweep ({n_points} points)",
        axis=AxisSpec(
            parameter="liner_um", values=_distinct(rng, n_points, 0.2, 3.0)
        ),
        geometry=GeometryParams(
            t_si_upper_um=45.0, t_ild_um=7.0, t_bond_um=1.0, radius_um=5.0
        ),
        models=models,
        reference=reference,
        calibrate=False,
    )


def cli_specs(rng: random.Random) -> list[ScenarioSpec]:
    """Seeded JSON-defined sweeps for the store-hit CLI workload."""
    models = ("a:paper", "b:100", "1d")
    return [
        ScenarioSpec(
            scenario_id="bench_radius",
            title="benchmark radius sweep",
            axis=AxisSpec(parameter="radius_um", values=_distinct(rng, 8, 2.0, 15.0)),
            geometry=GeometryParams(t_si_upper_um=45.0, t_ild_um=7.0, liner_um=1.0),
            models=models,
            reference="fem:coarse",
            calibrate=False,
        ),
        ScenarioSpec(
            scenario_id="bench_substrate",
            title="benchmark substrate sweep",
            axis=AxisSpec(
                parameter="t_si_upper_um", values=_distinct(rng, 8, 5.0, 80.0)
            ),
            geometry=GeometryParams(t_ild_um=7.0, radius_um=8.0, liner_um=1.0),
            models=models,
            reference="fem:coarse",
            calibrate=False,
        ),
        ScenarioSpec(
            scenario_id="bench_cluster",
            title="benchmark cluster sweep",
            axis=AxisSpec(
                parameter="cluster_count",
                values=tuple(sorted(rng.sample(range(1, 17), 5))),
            ),
            geometry=GeometryParams(t_si_upper_um=20.0, radius_um=10.0, liner_um=1.0),
            models=models,
            reference="fem:coarse",
            calibrate=False,
        ),
    ]


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
class SweepStore:
    """``run_scenario`` of a seeded 1000-point liner sweep into a fresh store.

    Models ``a:paper`` against the ``1d`` reference solve as one stacked
    batch, so the store commit (2000 point artifacts) and the plan and
    scheduler overhead dominate.  Check: the stored run payload equals a
    store-less run of the same spec.
    """

    name = "sweep_store"
    n_points = 1000

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.spec = liner_sweep(
            random.Random(f"{self.name}:{ctx.seed}"),
            "bench_sweep_store",
            self.n_points,
            ("a:paper",),
            "1d",
        )
        self.spec.dump(ctx.out / "specs" / f"{self.spec.scenario_id}.json")
        self.expected: str | None = None

    def setup(self) -> None:
        perf.reset()
        self.expected = canonical(run_scenario(self.spec).result.to_payload())

    def op(self, k: int, tracer: Tracer | None = None) -> Op:
        root = fresh_dir(self.ctx.work / f"op{k}")
        settle_disk()
        perf.reset()
        with tracing(tracer, k):
            start = time.perf_counter()
            run = run_scenario(self.spec, store=RunStore(root))
            wall = time.perf_counter() - start
        caches = [perf.stats()["caches"]]
        error = None
        if run.failed or run.from_store:
            error = f"run failed={run.failed} from_store={run.from_store}"
        else:
            stored = RunStore(root).get(run.key)
            if stored is None or canonical(stored) != self.expected:
                error = "stored payload differs from a store-less run"
        points, per_point = store_size(root)
        shutil.rmtree(root, ignore_errors=True)
        return Op(wall, points, per_point, error, caches)


class FleetFem:
    """``run_fleet`` of a seeded 80-point sweep with a coarse FEM reference.

    Two workers (fewer on a one-CPU machine) share one fresh store through
    leases.  Check: the fleet's store equals a single-process store of the
    same spec, its quarantine ledger is empty, and the fleet-wide
    ``plan_point_solves`` equals the single-process count.
    """

    name = "fleet_fem"
    n_points = 80

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.workers = min(2, os.cpu_count() or 1)
        self.spec = liner_sweep(
            random.Random(f"{self.name}:{ctx.seed}"),
            "bench_fleet_fem",
            self.n_points,
            ("a:paper", "b:100", "1d"),
            "fem:coarse",
        )
        self.spec.dump(ctx.out / "specs" / f"{self.spec.scenario_id}.json")
        self.expected: dict[str, str] = {}
        self.expected_solves = 0

    def setup(self) -> None:
        root = fresh_dir(self.ctx.work / "reference")
        perf.reset()
        run_scenario(self.spec, store=RunStore(root))
        self.expected_solves = perf.stats()["counters"].get("plan_point_solves", 0)
        self.expected = store_snapshot(root)
        shutil.rmtree(root, ignore_errors=True)

    def _single(self, k: int, tracer: Tracer | None) -> tuple[float, str | None]:
        """The same spec through single-process ``run_scenario``, checked."""
        root = fresh_dir(self.ctx.work / f"single{k}")
        settle_disk()
        perf.reset()
        with tracing(tracer, -k):
            start = time.perf_counter()
            run_scenario(self.spec, store=RunStore(root))
            wall = time.perf_counter() - start
        error = None
        if store_snapshot(root) != self.expected:
            error = "single-process store differs from the set-up run"
        shutil.rmtree(root, ignore_errors=True)
        return wall, error

    def op(self, k: int, tracer: Tracer | None = None) -> Op:
        """One fleet run; traced, it is paired with a traced single-process
        run of the same spec, which goes first on every other pair."""
        single_first = tracer is not None and (k // 2) % 2 == 0
        single_wall = single_error = None
        if single_first:
            single_wall, single_error = self._single(k, tracer)
        root = fresh_dir(self.ctx.work / f"op{k}")
        spans_dir = self.ctx.work / f"spans{k}"
        if tracer is not None:
            fresh_dir(spans_dir).mkdir()
            tracer.flush_dir = spans_dir
        settle_disk()
        perf.reset()
        with tracing(tracer, k):
            start = time.perf_counter()
            outcome = run_fleet(
                [self.spec],
                store=root,
                workers=self.workers,
                timeout_s=SUBPROCESS_TIMEOUT_S,
            )
            wall = time.perf_counter() - start
        error = self._check(outcome, root)
        headers: list[dict[str, Any]] = []
        if tracer is not None:
            headers, spans = merge_dir(spans_dir)
            tracer.spans.extend(spans)
            mismatch = lease_check(spans, outcome.counters)
            if len(headers) != self.workers:
                error = error or f"{len(headers)} span files from {self.workers} workers"
            elif mismatch:
                error = error or f"traced lease calls disagree with counters: {mismatch}"
            if single_wall is None:
                single_wall, single_error = self._single(k, tracer)
        points, per_point = store_size(root)
        shutil.rmtree(root, ignore_errors=True)
        return Op(
            wall,
            points,
            per_point,
            error or single_error,
            caches=[h["caches"] for h in headers],
            speedup=None if single_wall is None else single_wall / wall,
        )

    def _check(self, outcome: Any, root: Path) -> str | None:
        if not outcome.ok:
            return f"fleet not ok: exit codes {outcome.exit_codes}"
        if any(run.get("failed") for r in outcome.reports for run in r.runs):
            return "a worker reported a failed scenario"
        if any((root / "failures").glob("*/*.json")):
            return "the fleet quarantined nodes"
        solves = outcome.counters.get("plan_point_solves", 0)
        if solves != self.expected_solves:
            return f"fleet solved {solves} points, one process {self.expected_solves}"
        if store_snapshot(root) != self.expected:
            return "fleet store differs from a single-process store"
        return None


class CliStoreHit:
    """A fresh ``python -m repro run <target> --store DIR`` per op.

    Targets are the builtin sweeps plus seeded JSON spec files; set-up
    pre-populates the store, so every op is a store hit: interpreter start,
    the ``repro.__main__`` import, then ``RunStore.get`` with envelope
    verification.  Check: exit code 0 and stdout equal to what set-up
    recorded for the target.
    """

    name = "cli_store_hit"

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        rng = random.Random(f"{self.name}:{ctx.seed}")
        self.targets: list[str] = list(BUILTIN_TARGETS)
        self.specs: dict[str, ScenarioSpec] = {}
        for spec in cli_specs(rng):
            path = spec.dump(ctx.out / "specs" / f"{spec.scenario_id}.json")
            self.targets.append(str(path))
            self.specs[str(path)] = spec
        # seeded shuffles of the whole target list, one after another, so a
        # run's mix of small and large payloads does not depend on the seed
        self.order: list[str] = []
        for _ in range(1000):
            self.order += rng.sample(self.targets, len(self.targets))
        self.store = ctx.work / "store"
        self.expected: dict[str, str] = {}
        self.points: dict[str, int] = {}
        self.bytes_per_point = 0.0

    def _argv(self, target: str) -> list[str]:
        return ["run", target, "--store", str(self.store), *CLI_FLAGS]

    def setup(self) -> None:
        fresh_dir(self.store)
        perf.reset()
        store = RunStore(self.store)
        for target in self.targets:
            run = run_scenario(
                self.specs.get(target, target),
                store=store,
                fem_resolution="coarse",
                calibrate=False,
            )
            spec = run.spec
            self.points[target] = len(spec.axis.values) * (len(spec.models) + 1)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(self._argv(target))
            if code != 0 or "served from run store" not in out.getvalue():
                raise RuntimeError(f"set-up CLI run of {target} was not a store hit")
            self.expected[target] = out.getvalue()
        _, self.bytes_per_point = store_size(self.store)
        # warm-up: the first interpreter start compiles bytecode
        warm = self.op(-1)
        if warm.error:
            raise RuntimeError(f"warm-up op failed: {warm.error}")

    def op(self, k: int, tracer: Tracer | None = None) -> Op:
        target = self.order[k % len(self.order)]
        spans_file = self.ctx.work / f"cli-spans{k}.json"
        if tracer is None:
            cmd = [sys.executable, "-m", "repro", *self._argv(target)]
        else:
            driver = self.ctx.root / "perfbench" / "cli_driver.py"
            cmd = [sys.executable, str(driver), "--spans", str(spans_file), "--"]
            cmd += self._argv(target)
        start = time.perf_counter()
        proc = subprocess.run(
            cmd,
            cwd=self.ctx.root,
            env=self.ctx.env(),
            capture_output=True,
            text=True,
            timeout=SUBPROCESS_TIMEOUT_S,
        )
        wall = time.perf_counter() - start
        error = None
        if proc.returncode != 0:
            error = f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}"
        elif proc.stdout != self.expected[target]:
            error = "stdout differs from the set-up run"
        elif tracer is not None and not spans_file.exists():
            error = "the traced op wrote no spans"
        op = Op(wall, self.points[target], self.bytes_per_point, error)
        if tracer is not None and spans_file.exists():
            header, spans = load(spans_file)
            spans_file.unlink()
            start, end = header["startup"].pop("import_span")
            pid = header["pid"]
            spans.append(Span(pid * 1_000_000_000, None, "startup.import", start, end, k, pid))
            tracer.spans.extend(s._replace(op=k) for s in spans)
            op.caches = [header["caches"]]
            op.startup = header["startup"]
        return op


WORKLOADS = {w.name: w for w in (SweepStore, FleetFem, CliStoreHit)}
