"""Topological execution of compiled plans on the sweep executors.

:func:`execute_plan` walks the merged node graph a
:func:`~repro.scenarios.plan.compile_plan` call produced.  The walk runs
in waves; every wave of ready dispatch nodes passes through the same
phases, one method each on the private scheduler object:

* **resolve** — each ready node is looked up in the global result
  cache, then (``resume=True``) in the
  :class:`~repro.scenarios.store.RunStore`'s point-level object space;
* **group** — the rest become *dispatch units*.  Nodes the fleet-wide
  blame ledger marks as poison are forced solo or quarantined outright.
  Nodes sharing an ``assembly_key`` (the same system matrix, different
  right-hand sides) form a matrix group, solved as one
  :class:`~repro.perf.MatrixGroupTask`: factorise once, back-substitute
  per member.  Of what remains, solve nodes sharing a
  ``batch_class_key`` (congruent systems, *different* matrices) form a
  stacked batch, solved as one :class:`~repro.perf.StackedBatchTask`:
  one batched ``(m, n, n)`` LAPACK call.  Everything else falls into
  per-point buckets, one :class:`~repro.perf.PointTask` per geometry.
  ``group_matrices=False`` / ``stack_batches=False`` disable the first
  two tiers; the paths are bit-identical (asserted by tests and the
  ``multi_rhs_identical`` / ``stacked_identical`` bench checks);
* **dispatch** — the units' tasks stream over the executor's
  capture-mode :meth:`~repro.perf.SweepExecutor.submit_stream_safe`;
* **claim** — with a :class:`~repro.scenarios.lease.LeaseManager`
  (``claims=...``) the scheduler is one member of a cooperating *fleet*
  (:mod:`repro.scenarios.fleet`), and each unit's members are claimed as
  the stream pulls that unit's task, just before it is solved — not
  upfront for the whole wave — so whichever worker is free takes the
  next unclaimed unit and work stealing falls out of the loop itself.
  (The serial stream pulls one task at a time; the process-pool stream
  lists its tasks first, so it still claims the wave upfront.)  Reads
  come before the claim: a peer's committed point finishes the node, a
  failure a peer quarantined during the run is adopted (counter
  ``plan_failures_adopted``), and a live peer claim costs the lease
  layer one read before the node is deferred.
  Deferred nodes are polled by peeking their claims, and only a freed
  or expired claim leads to a store read — a dead peer's expired claims
  are stolen;
* **land** — each solved node is cached and buffered for commit;
* **commit** — the buffer is flushed as one group commit
  (:meth:`~repro.scenarios.store.RunStore.batch`) into the point space
  (``points/<key>.json``), so a killed batch resumes from its solved
  points; only then does each node, in landing order, leave the graph
  and unlock its dependents.  The buffer flushes once it holds
  :data:`COMMIT_MAX_POINTS` points (which also bounds the open tmp
  files), once its oldest point has waited :data:`COMMIT_MAX_AGE_S`
  (checked at each completion), as soon as a buffered node has a
  calibration or case-study dependent (so those still run between
  completions), at the end of every dispatch stream, and before a drain
  releases this worker's leases.  Under claims every commit is fenced —
  ``put_point``-before-release, with a
  :class:`~repro.errors.LeaseLostError` check *at commit time* that
  keeps a usurped worker from publishing over its successor;
* **fail** — failures are *results*, not exceptions that unwind the
  scheduler: a failed multi-node task degrades to per-member solo
  dispatch, solo failures retry under the
  :class:`~repro.perf.RetryPolicy` (backoff with deterministic jitter;
  each attempt is an independent fault-injection draw), and whatever
  exhausts its budget is *quarantined* as a
  :class:`~repro.perf.NodeFailure` in ``ScheduleOutcome.failures`` (and
  the store's ``failures/`` space) while the rest of the plan completes.
  Dependents of a quarantined node cascade into the ledger.

Transient nodes dispatch like solve nodes; nonlinear nodes dispatch
once their linear baseline lands, seeding the k(T) fixed-point chain.
Calibration and case-study nodes run in the parent between completions,
so a calibration's calibrated solves dispatch in the next wave.

Every solve is deterministic and batched solves are bit-identical to
per-point solves, so cache hits, store hits, fresh solves and group
membership are all numerically interchangeable — scheduling order never
changes the assembled results.  Counters land in
:func:`repro.perf.stats`: ``plan_point_solves`` (actual solves
dispatched), ``plan_transient_solves`` / ``plan_nonlinear_solves`` (the
physics-kind subsets), ``plan_matrix_groups`` / ``plan_grouped_solves``
and ``plan_stacked_batches`` / ``plan_stacked_solves`` (units dispatched
and the nodes they carried), ``plan_calibrations``,
``point_store_hits`` / ``point_store_misses``, ``plan_retries``,
``plan_group_degradations`` (multi-node tasks split after a failure),
``plan_quarantined``, ``plan_poison_degradations`` (nodes forced solo by
the blame ledger) and ``plan_poison_quarantined`` (see the store's
``blame/`` space and :class:`~repro.perf.RetryPolicy`'s
``poison_solo_after`` / ``poison_quarantine_after`` thresholds).
"""

from __future__ import annotations

import contextlib
import functools
import os
import time
from collections import defaultdict, deque
from collections.abc import Callable, Hashable, Iterator
from dataclasses import dataclass, field
from typing import Any, NamedTuple

from ..calibration import fit_coefficients
from ..core.nonlinear import NonlinearResult
from ..core.result import ModelResult
from ..errors import DrainError, ExperimentError, LeaseLostError
from ..experiments.harness import calibrated_model_from_fit
from ..network.transient import TransientResult
from ..perf import (
    MatrixGroupTask,
    PointTask,
    SerialExecutor,
    StackedBatchTask,
    SweepExecutor,
    SweepTask,
    calibration_fit_key,
    content_key,
    increment,
    result_cache,
    solve_key,
)
from ..perf.memo import memoized_fit
from ..perf.retry import (
    DEFAULT_RETRY,
    PROPAGATE_TYPES,
    NodeFailure,
    RetryPolicy,
    TaskFailure,
    failure_from_exception,
)
from ..experiments.case_study import StoredCaseStudy
from ..resistances import FittingCoefficients
from .physics import NonlinearModel
from .plan import (
    DISPATCH_NODE_TYPES,
    CalibrationNode,
    CaseStudyNode,
    ExecutionPlan,
    NonlinearNode,
    SolveNode,
    TransientNode,
    is_content_key,
    run_case_study_spec,
)
from .drain import DrainGuard
from .lease import LeaseManager
from .store import RunStore

#: progress callback: one event dict per completed node
#: ``{"done", "total", "key", "kind", "source", "elapsed_s"}`` with source
#: in ``{"solved", "cache", "store"}``; ``elapsed_s`` is the wall-clock
#: time since the previous completion (the stream's per-node cadence).
#: Freshly solved nodes additionally carry ``"dispatch"`` — how the solve
#: was dispatched: ``"point"`` (solo/per-point bucket), ``"group"``
#: (multi-RHS matrix group) or ``"stacked"`` (cross-matrix stacked batch)
ProgressFn = Callable[[dict[str, Any]], None]

#: the landed-point buffer flushes once it holds this many points; every
#: buffered point holds one open tmp file until its group commit
COMMIT_MAX_POINTS = 512
#: ... or once its oldest point has waited this long (seconds), so fleet
#: peers waiting on a result and a killed worker lose little
COMMIT_MAX_AGE_S = 0.25

#: audit hook for the chaos harness: when this names a directory, every
#: *fresh* point commit (a solve landed under this process's own lease —
#: not cache republishes, not store read-backs) appends its node key to
#: ``<dir>/<pid>.solves``.  The append happens after the point's group
#: commit and before the lease is released, so a kill at any instant
#: can only under-record, never attribute a commit that did not happen —
#: which is what lets ``scripts/chaos_soak.py`` assert *zero
#: double-solves*: the lease fencing guarantees at most one committed
#: solve per key fleet-wide, and the union of ledgers proves it.
SOLVE_LEDGER_ENV = "REPRO_SOLVE_LEDGER"


def _record_solve(key: str) -> None:
    ledger_dir = os.environ.get(SOLVE_LEDGER_ENV)
    if not ledger_dir:
        return
    try:
        path = os.path.join(ledger_dir, f"{os.getpid()}.solves")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(key + "\n")
    except OSError:
        # the audit trail must never fail the run it audits
        pass


#: completion hook: ``(node key, node result)`` the moment a node finishes
#: (:func:`repro.scenarios.runner.run_batch` uses it to assemble and store
#: each scenario as soon as its last node lands)
OnNodeFn = Callable[[str, Any], None]


@dataclass
class ScheduleOutcome:
    """Executed node results plus how each unit of work was satisfied.

    ``failures`` is the failure ledger: one
    :class:`~repro.perf.NodeFailure` per quarantined node (a node that
    exhausted its retry budget, failed non-transiently, or depends on one
    that did).  Quarantined keys never appear in ``results``.
    """

    results: dict[str, Any]
    counts: dict[str, int] = field(
        default_factory=lambda: {"solved": 0, "cache": 0, "store": 0}
    )
    failures: dict[str, NodeFailure] = field(default_factory=dict)


def execute_plan(
    plan: ExecutionPlan,
    *,
    executor: SweepExecutor | None = None,
    store: RunStore | None = None,
    resume: bool = False,
    progress: ProgressFn | None = None,
    on_node: OnNodeFn | None = None,
    group_matrices: bool = True,
    stack_batches: bool = True,
    retry: RetryPolicy = DEFAULT_RETRY,
    claims: LeaseManager | None = None,
    poll_s: float = 0.05,
    drain: DrainGuard | None = None,
) -> ScheduleOutcome:
    """Execute every node of ``plan`` and return the per-key results.

    ``store`` enables point-level persistence (always written when given);
    ``resume`` additionally *reads* stored points, so an interrupted batch
    picks up from its solved points instead of re-solving them.
    ``group_matrices`` / ``stack_batches`` switch the matrix-group and
    stacked-batch tiers (bit-identical either way; off is the per-point
    reference the identity tests compare against).  ``retry`` is the
    fault-tolerance policy: transient task failures are retried up to
    ``retry.max_attempts`` dispatches (solo, with backoff), and exhausted
    nodes land in ``ScheduleOutcome.failures`` instead of raising.

    ``claims`` makes this scheduler one cooperating member of a *fleet*
    (see the module docstring's claim and land/commit phases); it
    requires ``store``, the point space being the inter-worker result
    channel, and ``poll_s`` paces the wait for a peer's results.
    Deterministic solves make any interleaving byte-identical to the
    single-process path.

    ``drain`` is a :class:`~repro.scenarios.drain.DrainGuard`: when a
    shutdown signal has been observed, the scheduler stops at its next
    safe point — after every landed point has been committed —
    releases every held lease, and raises
    :class:`~repro.errors.DrainError`.  Landed points stay in the store,
    so ``resume=True`` continues exactly where the drain stopped.
    """
    if claims is not None and store is None:
        raise ExperimentError(
            "claim-aware execution needs a store: the point space is the "
            "only channel through which cooperating workers exchange results"
        )
    return _Scheduler(
        plan=plan, executor=executor or SerialExecutor(), store=store,
        resume=resume, progress=progress, on_node=on_node,
        group_matrices=group_matrices, stack_batches=stack_batches,
        retry=retry, claims=claims, poll_s=poll_s, drain=drain,
    ).run()


class _Entry(NamedTuple):
    """A dispatchable node with the model it solves with and its
    result-cache key (None: never cache)."""

    node: Any
    model: Any
    cache_key: str | None


class _Landed(NamedTuple):
    """A solved node waiting in the commit buffer."""

    entry: _Entry
    result: Any
    dispatch: str


class _Unit(NamedTuple):
    """The nodes one executor task carries.  ``shape`` — ``"group"``,
    ``"stacked"`` or ``"point"`` — picks the task type and is the
    progress event's ``dispatch`` label."""

    shape: str
    members: list[_Entry]


#: unit shapes in task order: multi-node tiers dispatch before the point
#: buckets, and each shape numbers its own tasks' ``index`` from 0 (the
#: completion order follows the task order; fault-injection draw keys
#: follow the numbering)
_SHAPES = ("group", "stacked", "point")
_TASK_SHAPE = {
    MatrixGroupTask: "group",
    StackedBatchTask: "stacked",
    PointTask: "point",
}


def _cache_key(node: Any, model: Any) -> str | None:
    """The result-cache key for a dispatchable node, or None (never cache).

    For concrete picklable models the plan key IS the cache key; opaque
    plan keys are compile-local and must not reach the cache.  Calibrated
    models get their key only now that the fitted coefficients exist.
    """
    if isinstance(node, SolveNode) and node.model is None:
        return solve_key(model, node.stack, node.via, node.power)
    return node.key if is_content_key(node.key) else None


def _decode(node: Any, payload: dict[str, Any]) -> Any:
    """Decode a stored point payload into the node's result type."""
    if isinstance(node, CalibrationNode):
        return FittingCoefficients(
            payload["k1"], payload["k2"], payload["c_bond"]
        )
    if isinstance(node, CaseStudyNode):
        return StoredCaseStudy(payload)
    if isinstance(node, TransientNode):
        return TransientResult.from_payload(payload)
    if isinstance(node, NonlinearNode):
        return NonlinearResult.from_payload(payload)
    return ModelResult.from_payload(payload)


def _split_by(
    entries: list[_Entry], key: Callable[[_Entry], Hashable | None]
) -> tuple[list[list[_Entry]], list[_Entry]]:
    """(groups of >1 entries sharing a non-None key, the rest): the
    key-less entries in order, then the singletons, which gain nothing
    from a tier and fall through to the next."""
    by_key: dict[Hashable, list[_Entry]] = defaultdict(list)
    rest: list[_Entry] = []
    for entry in entries:
        k = key(entry)
        if k is None:
            rest.append(entry)
        else:
            by_key[k].append(entry)
    groups: list[list[_Entry]] = []
    for members in by_key.values():
        if len(members) > 1:
            groups.append(members)
        else:
            rest.extend(members)
    return groups, rest


def _batch_class_key(entry: _Entry) -> str | None:
    node = entry.node
    if isinstance(node, SolveNode):
        return entry.model.batch_class_key(node.stack, node.via)
    return None


def _point_buckets(entries: list[_Entry]) -> list[list[_Entry]]:
    """Regroup ``entries`` into per-point buckets: one dispatch message
    per sweep point, as in the eager sweep.  Two nodes share a bucket
    only when their geometry matches and their model names don't collide
    (e.g. two different ``model_a_cal`` fits)."""
    buckets: list[dict[str, _Entry]] = []
    by_point: dict[str, list[dict[str, _Entry]]] = defaultdict(list)
    for entry in entries:
        node = entry.node
        point_key = content_key(node.stack, node.via, node.power)
        if point_key is None:
            buckets.append({node.model_name: entry})
            continue
        for bucket in by_point[point_key]:
            if node.model_name not in bucket:
                bucket[node.model_name] = entry
                break
        else:
            bucket = {node.model_name: entry}
            by_point[point_key].append(bucket)
            buckets.append(bucket)
    return [list(bucket.values()) for bucket in buckets]


@dataclass
class _Scheduler:
    """One execution of one plan: :meth:`run` drives the waves through
    the phases (:meth:`_resolve`, :meth:`_group`, :meth:`_dispatch` —
    which claims through :meth:`_claim_entry` as its stream pulls each
    task — :meth:`_land`, :meth:`_commit`, :meth:`_fail`);
    :meth:`_complete` is every node's single exit from the graph."""

    plan: ExecutionPlan
    executor: SweepExecutor
    store: RunStore | None
    resume: bool
    progress: ProgressFn | None
    on_node: OnNodeFn | None
    group_matrices: bool
    stack_batches: bool
    retry: RetryPolicy
    claims: LeaseManager | None
    poll_s: float
    drain: DrainGuard | None

    def __post_init__(self) -> None:
        self.nodes = self.plan.nodes
        self.outcome = ScheduleOutcome(results={})
        self.results = self.outcome.results
        self.failures = self.outcome.failures
        self.attempts: dict[str, int] = {}  # failed dispatches per node key
        self.solo: set[str] = set()  # keys that must dispatch alone
        #: this wave's snapshot of the store's fleet-wide poison-unit ledger
        self.blame: dict[str, int] = {}
        self.poison_forced: set[str] = set()  # keys counted as poison-solo
        #: nodes claimed by a cooperating worker, by key
        self.deferred: dict[str, _Entry] = {}
        #: this wave's dispatch units by shape (tasks index into them)
        self.units: dict[str, list[_Unit]] = {}
        self.wall_start = time.time()  # gates peer-failure adoption
        self.last_renew = time.monotonic()
        #: solved nodes awaiting their group commit, in landing order
        self.landed: list[_Landed] = []
        self.landed_since = 0.0  # monotonic time the oldest one landed
        #: a landed node feeds a calibration or case-study node
        self.commit_now = False

        self.ready: list[Any] = []  # dispatch nodes
        self.ready_parent: deque[CalibrationNode | CaseStudyNode] = deque()
        self.indegree: dict[str, int] = {}
        self.dependents: dict[str, list[str]] = defaultdict(list)
        for key, node in self.nodes.items():
            deps = set(node.deps)
            missing = deps.difference(self.nodes)  # O(len(deps)), not O(plan)
            if missing:
                raise ExperimentError(
                    f"plan node {key} depends on unknown node(s) "
                    f"{sorted(missing)}"
                )
            self.indegree[key] = len(deps)
            for dep in deps:
                self.dependents[dep].append(key)
            if not deps:
                self._enqueue(node)

        self.total = len(self.nodes)
        self.done = 0
        self.last_completion = time.perf_counter()

    def run(self) -> ScheduleOutcome:
        while self.done < self.total:
            self._check_drain()
            progressed = self._run_parent_nodes()
            if self.claims is not None and self.deferred:
                progressed = self._poll_deferred() or progressed
            if not self.ready:
                if progressed:
                    continue
                if self.claims is not None and self.deferred:
                    # every remaining node is in a peer's hands: wait for
                    # results (or expired claims) instead of busy-spinning
                    self._check_drain()
                    self._maybe_renew()
                    time.sleep(self.poll_s)
                    continue
                raise ExperimentError("execution plan has a dependency cycle")
            batch, self.ready = self.ready, []
            self._dispatch(self._group(self._resolve(batch)))
        return self.outcome

    def _enqueue(self, node: Any) -> None:
        if isinstance(node, DISPATCH_NODE_TYPES):
            self.ready.append(node)
        else:
            self.ready_parent.append(node)

    def _stores(self, key: str) -> bool:
        # opaque (non-content) keys are compile-local: never persisted
        return self.store is not None and is_content_key(key)

    def _complete(
        self, node: Any, source: str, dispatch: str | None = None
    ) -> None:
        """Shared bookkeeping for a node leaving the graph (success or
        quarantine): counts, dependent unlocking — with failed-dependency
        cascade — and the progress event."""
        self.done += 1
        counts = self.outcome.counts
        counts[source] = counts.get(source, 0) + 1
        for dep_key in self.dependents[node.key]:
            self.indegree[dep_key] -= 1
            if self.indegree[dep_key] == 0:
                dep = self.nodes[dep_key]
                failed_deps = sorted(set(dep.deps) & self.failures.keys())
                if failed_deps:
                    self._quarantine(
                        dep,
                        "DependencyError",
                        "depends on quarantined node(s): "
                        + ", ".join(failed_deps),
                        0,
                    )
                else:
                    self._enqueue(dep)
        now = time.perf_counter()
        elapsed, self.last_completion = now - self.last_completion, now
        if self.progress is not None:
            event = {
                "done": self.done,
                "total": self.total,
                "key": node.key,
                "kind": node.kind,
                "source": source,
                "elapsed_s": elapsed,
            }
            if dispatch is not None:
                event["dispatch"] = dispatch
            self.progress(event)

    def _finish(
        self, node: Any, value: Any, source: str, dispatch: str | None = None
    ) -> None:
        self.results[node.key] = value
        if self._stores(node.key):
            # a success supersedes any quarantine record from an earlier run
            self.store.clear_failure(node.key)
        if self.on_node is not None:
            self.on_node(node.key, value)
        self._complete(node, source, dispatch)

    def _finish_from_store(self, node: Any, cache_key: str | None) -> bool:
        """Finish ``node`` from its stored point payload; False on a miss.

        A payload that is readable JSON but the wrong shape (a healed-over
        write, an older schema) is healed away and treated as a miss, so
        the node re-solves instead of resuming a poisoned point.
        """
        payload = self.store.get_point(node.key)
        if payload is None:
            return False
        try:
            result = _decode(node, payload)
        except (KeyError, TypeError, ValueError):
            self.store.heal_point(node.key)
            return False
        if cache_key is not None:
            result_cache.put(cache_key, result)
        self._finish(node, result, "store")
        return True

    def _run_parent_nodes(self) -> bool:
        ran = False
        while self.ready_parent:
            node = self.ready_parent.popleft()
            ran = True
            if not (
                self.resume
                and self._stores(node.key)
                and self._finish_from_store(node, None)
            ):
                self._run_parent(node)
        return ran

    def _fit(self, node: CalibrationNode) -> Any:
        targets = [self.results[k].max_rise for k in node.sample_keys]
        fit = fit_coefficients(list(node.samples), None, targets=targets)
        increment("plan_calibrations")
        return fit

    def _run_parent(self, node: CalibrationNode | CaseStudyNode) -> None:
        """Compute a calibration fit or the case study in the parent.

        A calibration's node key IS the fit identity (reference config +
        sample solve keys), so the finished fit memoizes under a key
        derived from it — repeated in-process batches skip the
        least-squares fit, not just the point solves.  Parent-side nodes
        get no retries: a deterministic computation that failed once will
        fail again, so it goes straight to the ledger.
        """
        calibration = isinstance(node, CalibrationNode)
        try:
            if calibration:
                fit, from_cache = memoized_fit(
                    calibration_fit_key(node.key)
                    if is_content_key(node.key)
                    else None,
                    functools.partial(self._fit, node),
                )
            else:
                result = run_case_study_spec(node.spec)
        except PROPAGATE_TYPES:
            raise
        except Exception as exc:
            failure = failure_from_exception(exc)
            self._quarantine(
                node, failure.error_class, failure.message, 1,
                failure.traceback_digest,
            )
            return
        if not calibration:
            value, source, payload = result, "solved", result.to_payload()
        else:
            value = fit.coefficients
            source = "cache" if from_cache else "solved"
            payload = {
                "kind": "calibration",
                "k1": value.k1,
                "k2": value.k2,
                "c_bond": value.c_bond,
                "residual_rms": fit.residual_rms,
            }
        if self._stores(node.key):
            self.store.put_point(node.key, payload)
        self._finish(node, value, source)

    def _model(self, node: Any) -> Any:
        """The dispatchable model instance a ready node solves with.

        Solve nodes carry their model (or materialise the calibrated one
        from the landed fit); transient nodes carry their adapter; a
        nonlinear node's chain is seeded with its landed linear baseline.
        """
        if isinstance(node, NonlinearNode):
            return NonlinearModel(
                node.model, node.params, initial=self.results[node.linear]
            )
        if node.model is None:
            return calibrated_model_from_fit(
                self.results[node.calibration], name=node.model_name
            )
        return node.model

    def _resolve(self, batch: list[Any]) -> list[_Entry]:
        """Finish what the cache or the store already holds; return the
        rest as dispatch entries."""
        entries: list[_Entry] = []
        for node in batch:
            model = self._model(node)
            cache_key = _cache_key(node, model)
            cached = (
                result_cache.get(cache_key) if cache_key is not None else None
            )
            if cached is not None:
                # persist cache-satisfied nodes too: resume must not depend
                # on the in-memory cache of the killed process
                if self._stores(node.key):
                    self.store.put_point(node.key, cached.to_payload())
                self._finish(node, cached, "cache")
                continue
            # under claims _claim_entry reads the store again at pull
            # time; this read still runs first so that a stored node
            # never meets the blame ledger's poison filter or shapes a
            # dispatch unit
            if (
                self.resume
                and self._stores(node.key)
                and self._finish_from_store(node, cache_key)
            ):
                continue
            entries.append(_Entry(node, model, cache_key))
        return entries

    def _poison_filter(self, entries: list[_Entry]) -> list[_Entry]:
        """Apply the store's fleet-wide blame ledger to a wave.

        A node whose executors have crashed ``poison_solo_after`` times
        (across every worker and every supervisor respawn) is forced out
        of the batch tiers into solo dispatch; past
        ``poison_quarantine_after`` it goes straight to the failure
        ledger without costing this worker a single pool rebuild.
        """
        if self.store is None or not entries:
            return entries
        self.blame = self.store.blame_counts()
        if not self.blame:
            return entries
        retry = self.retry
        kept: list[_Entry] = []
        for entry in entries:
            key = entry.node.key
            count = self.blame.get(key, 0) if is_content_key(key) else 0
            if count >= retry.poison_quarantine_after:
                increment("plan_poison_quarantined")
                self._quarantine(
                    entry.node,
                    "PoisonedUnitError",
                    f"poison unit: crashed its executor {count}x fleet-wide "
                    f"(threshold {retry.poison_quarantine_after})",
                    self.attempts.get(key, 0),
                )
                continue
            if count >= retry.poison_solo_after and key not in self.solo:
                self.solo.add(key)
                if key not in self.poison_forced:
                    self.poison_forced.add(key)
                    increment("plan_poison_degradations")
            kept.append(entry)
        return kept

    def _group(self, entries: list[_Entry]) -> list[_Unit]:
        """Build the wave's dispatch units, in dispatch order.

        Matrix groups first: nodes sharing an ``assembly_key`` solve the
        identical system matrix and differ only in their RHS, so they
        factor once and back-substitute per member.  Stacked batches
        second: leftover solve nodes sharing a ``batch_class_key``
        assemble congruent systems with *different* matrices, so there is
        no factor to share — the whole class solves as one batched
        ``(m, n, n)`` LAPACK call.  Then per-point buckets.  Nodes that
        already failed once dispatch *solo*, last: out of every
        multi-node unit, so a retry's blame is unambiguous and one repeat
        offender cannot sink innocents again.
        """
        entries = self._poison_filter(entries)
        solo = [e for e in entries if e.node.key in self.solo]
        rest = [e for e in entries if e.node.key not in self.solo]
        units: list[_Unit] = []
        if self.group_matrices:
            groups, rest = _split_by(rest, lambda e: e.node.assembly_key)
            units += [_Unit("group", members) for members in groups]
        if self.stack_batches:
            stacks, rest = _split_by(rest, _batch_class_key)
            units += [_Unit("stacked", members) for members in stacks]
        units += [_Unit("point", members) for members in _point_buckets(rest)]
        units += [_Unit("point", [entry]) for entry in solo]
        return units

    def _adopt_peer_failure(self, node: Any) -> bool:
        """Adopt a failure a peer quarantined *during this run*.

        Records written before this run started are stale — ``--resume``
        deliberately re-attempts them — so adoption is gated on the
        ledger file's age: only a record younger than this execution is
        a cooperating worker's verdict on the very plan we are running.
        """
        failure = self.store.get_failure(node.key)
        if failure is None:
            return False
        age = self.store.failure_age_s(node.key)
        if age is None or time.time() - age < self.wall_start:
            return False
        self.failures[node.key] = failure
        increment("plan_failures_adopted")
        self._complete(node, "failed")
        return True

    def _claim_entry(self, entry: _Entry) -> bool:
        """Secure ``entry`` for local dispatch; False removes it.

        Reads come before the claim: a peer's committed point finishes
        the node from the store, a failure a peer quarantined is
        adopted, and a live peer claim makes
        :meth:`~repro.scenarios.lease.LeaseManager.acquire` lose after a
        single read — the node is deferred and its result read back
        later.  A won claim re-checks the store, because a peer may have
        committed and released the node between our read and our link.
        Nodes without a content key cannot be shared through the store
        at all, so every worker simply computes them locally.
        """
        node = entry.node
        if not is_content_key(node.key):
            return True
        if self._finish_from_store(node, entry.cache_key):
            return False
        if self._adopt_peer_failure(node):
            return False
        if not self.claims.acquire(node.key):
            self.deferred[node.key] = entry
            return False
        # won; a peer may have committed and released it since our read
        if self._finish_from_store(node, entry.cache_key):
            self.claims.release(node.key)
            return False
        return True

    def _poll_deferred(self) -> bool:
        """Resolve deferred nodes; True when any left deferral.

        A deferred node comes back three ways: its holder committed a
        result (read back from the store), its holder quarantined it
        (adopted from the ledger), or its holder died — the lease
        expired, the steal succeeds, and the node returns to our own
        ready set.  Holders commit and record failures before they
        release, so while the claim is live there is nothing to read:
        a deferred node costs one claim peek per poll until then.
        """
        progressed = False
        for key, (node, _, cache_key) in list(self.deferred.items()):
            if self.claims.live(key):
                continue
            if not (
                self._finish_from_store(node, cache_key)
                or self._adopt_peer_failure(node)
            ):
                if not self.claims.acquire(key):
                    continue
                self.ready.append(node)
            del self.deferred[key]
            progressed = True
        return progressed

    def _maybe_renew(self) -> None:
        """Extend this worker's claims well before any can expire."""
        now = time.monotonic()
        claims = self.claims
        if claims is not None and now - self.last_renew >= claims.ttl_s / 3.0:
            claims.renew_all()
            self.last_renew = now

    def _check_drain(self) -> None:
        """Honour a pending drain request at this safe point.

        Everything that already landed is committed; every lease this
        worker still holds is released so peers (or a later ``--resume``)
        pick the nodes up immediately instead of waiting out the TTL.
        """
        if self.drain is not None and self.drain.requested is not None:
            self._commit()
            if self.claims is not None:
                self.claims.release_all()
            raise DrainError(self.drain.requested)

    def _task(self, unit: _Unit, index: int) -> SweepTask:
        members = unit.members
        node, model, _ = members[0]
        if unit.shape == "group":
            increment("plan_matrix_groups")
            increment("plan_grouped_solves", len(members))
            return MatrixGroupTask(
                index=index,
                stack=node.stack,
                via=node.via,
                model=model,
                powers=tuple(e.node.power for e in members),
            )
        if unit.shape == "stacked":
            increment("plan_stacked_batches")
            increment("plan_stacked_solves", len(members))
            return StackedBatchTask(
                index=index,
                members=tuple(
                    (e.model, e.node.stack, e.node.via, e.node.power)
                    for e in members
                ),
            )
        return PointTask(
            index=index,
            value=node.value,
            stack=node.stack,
            via=node.via,
            power=node.power,
            models=tuple(e.model for e in members),
            # retries draw fresh fault-injection decisions
            attempt=self.attempts.get(node.key, 0) if len(members) == 1 else 0,
        )

    def _task_members(self, task: SweepTask) -> list[_Entry]:
        unit = self.units[_TASK_SHAPE[type(task)]][task.index]
        if isinstance(task, PointTask):
            return unit.members
        # a parallel executor may have split the unit into sub-blocks;
        # task.offset realigns them with the members
        size = len(
            task.powers if isinstance(task, MatrixGroupTask) else task.members
        )
        return unit.members[task.offset : task.offset + size]

    def _tasks(self, units: list[_Unit]) -> Iterator[SweepTask]:
        """Each unit's task in dispatch order, registered in
        :attr:`units` so ``task.index`` resolves.  Under claims a unit's
        members are claimed only when the stream pulls its task; the
        members claimed elsewhere drop out, and so does an emptied unit.
        """
        self.units = {shape: [] for shape in _SHAPES}
        for shape in _SHAPES:
            for unit in units:
                if unit.shape != shape:
                    continue
                if self.claims is not None:
                    members = [e for e in unit.members if self._claim_entry(e)]
                    if not members:
                        continue
                    unit = _Unit(shape, members)
                self.units[shape].append(unit)
                yield self._task(unit, len(self.units[shape]) - 1)

    def _dispatch(self, units: list[_Unit]) -> None:
        stream = self.executor.submit_stream_safe(
            self._tasks(units), timeout_s=self.retry.node_timeout_s
        )
        for task, solved in stream:
            # drain between completions: everything landed so far is
            # committed first; anything still in flight is abandoned
            # (its lease is released, a peer or a resume re-solves it)
            self._check_drain()
            self._maybe_renew()
            if isinstance(solved, TaskFailure):
                self._fail(task, solved)
            else:
                members = self._task_members(task)
                shape = _TASK_SHAPE[type(task)]
                if shape == "point":
                    solved = [solved[e.node.model_name] for e in members]
                for entry, result in zip(members, solved):
                    self._land(entry, result, shape)
            if self.commit_now or (
                self.landed
                and time.monotonic() - self.landed_since >= COMMIT_MAX_AGE_S
            ):
                self._commit()
            # calibrations whose samples just committed run immediately,
            # unlocking their calibrated solves for the next wave
            self._run_parent_nodes()
        self._commit()

    def _land(self, entry: _Entry, result: Any, dispatch: str) -> None:
        """Cache a solved node and buffer it for the next group commit."""
        node = entry.node
        increment("plan_point_solves")
        if isinstance(node, (TransientNode, NonlinearNode)):
            increment(f"plan_{node.kind}_solves")
        if entry.cache_key is not None:
            result_cache.put(entry.cache_key, result)
        if not self.landed:
            self.landed_since = time.monotonic()
        self.landed.append(_Landed(entry, result, dispatch))
        self.commit_now = self.commit_now or any(
            not isinstance(self.nodes[k], DISPATCH_NODE_TYPES)
            for k in self.dependents[node.key]
        )
        if len(self.landed) >= COMMIT_MAX_POINTS:
            self._commit()

    def _commit(self) -> None:
        """Flush the landed buffer: stage every point in one store batch,
        then — with every point renamed onto its name — record, absolve,
        release and finish each node in landing order."""
        if not self.landed:
            return
        landed, self.landed, self.commit_now = self.landed, [], False
        store = self.store
        with store.batch() if store is not None else contextlib.nullcontext():
            published = [self._publish(item) for item in landed]
        for (entry, result, dispatch), ok in zip(landed, published):
            key = entry.node.key
            if ok:
                _record_solve(key)
                if key in self.blame:
                    # it finally solved cleanly: absolve it so a lingering
                    # blame count cannot poison-quarantine future runs
                    self.store.clear_blame(key)
                    self.blame.pop(key, None)
                if self.claims is not None:
                    self.claims.release(key)
            self._finish(entry.node, result, "solved", dispatch)

    def _publish(self, item: _Landed) -> bool:
        """Stage ``item``'s point into the open batch; False when it is
        not this worker's to publish."""
        key = item.entry.node.key
        if not self._stores(key):
            return False
        if self.claims is not None:
            try:
                # the zombie write guard: commit only while the lease is
                # provably still ours (put-before-release)
                self.claims.check(key)
            except LeaseLostError:
                # usurped since the claim — the usurper publishes; our
                # byte-identical result still satisfies this worker's
                # own plan locally
                return False
        self.store.put_point(key, item.result.to_payload())
        return True

    def _fail(self, task: SweepTask, failure: TaskFailure) -> None:
        members = self._task_members(task)
        if len(members) > 1:
            # blame inside a multi-node dispatch is unknowable from the
            # outside (one bad RHS column, one crashing model) — degrade
            # to per-member solo dispatch instead of charging anyone an
            # attempt, so innocents complete and the culprit identifies
            # itself on its own retry
            increment("plan_group_degradations")
            for entry in members:
                self.solo.add(entry.node.key)
                self.ready.append(entry.node)
            return
        node = members[0].node
        n = self.attempts.get(node.key, 0) + 1
        self.attempts[node.key] = n
        # a solo crash is unambiguous blame: count it in the fleet-wide
        # ledger so peers (and respawned workers) stop feeding this unit
        # to fresh executors, and quarantine it here the moment it
        # crosses the threshold
        poisoned = (
            self._stores(node.key)
            and failure.error_class == "WorkerCrashError"
            and self.store.add_blame(node.key)
            >= self.retry.poison_quarantine_after
        )
        if poisoned:
            increment("plan_poison_quarantined")
        elif failure.transient and n < self.retry.max_attempts:
            increment("plan_retries")
            self.solo.add(node.key)
            time.sleep(self.retry.delay_s(n, node.key))
            self.ready.append(node)
            return
        self._quarantine(
            node, failure.error_class, failure.message, n,
            failure.traceback_digest,
        )

    def _quarantine(
        self,
        node: Any,
        error_class: str,
        message: str,
        attempts: int,
        traceback_digest: str = "",
    ) -> None:
        """Retire ``node`` into the failure ledger; the plan keeps going."""
        failure = NodeFailure(
            key=node.key,
            kind=node.kind,
            error_class=error_class,
            message=message,
            traceback_digest=traceback_digest,
            attempts=attempts,
        )
        self.failures[node.key] = failure
        increment("plan_quarantined")
        if self._stores(node.key):
            # ledger-before-release: peers observing the freed claim find
            # the failure record and adopt it instead of re-attempting
            self.store.put_failure(node.key, failure)
        if self.claims is not None:
            self.claims.release(node.key)
        self._complete(node, "failed")
