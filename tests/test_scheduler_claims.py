"""The scheduler's fleet branches, driven in-process.

Two :class:`~repro.scenarios.lease.LeaseManager` owners share one
:class:`~repro.scenarios.store.RunStore`: "peer" plays a cooperating
worker by hand (holding, releasing and stealing claims, recording
failures) while :func:`~repro.scenarios.scheduler.execute_plan` runs
under "me".  Every claimed run must produce the results of a claim-free
run, and plan-graph mistakes must raise before anything is solved.
"""

import signal
import time

import pytest

from repro import perf
from repro.errors import DrainError, ExperimentError
from repro.perf import NodeFailure, SerialExecutor, counter
from repro.scenarios import (
    AxisSpec,
    RunStore,
    ScenarioSpec,
    compile_plan,
    execute_plan,
)
from repro.scenarios import scheduler
from repro.scenarios.drain import DrainGuard
from repro.scenarios.lease import LeaseManager
from repro.scenarios.plan import CalibrationNode, ExecutionPlan


def claims_plan(calibrate=False):
    spec = ScenarioSpec(
        scenario_id="claims_tiny",
        title="Claimed sweep",
        axis=AxisSpec(parameter="radius_um", values=(3.0, 5.0)),
        models=("1d",),
        reference="fem:coarse",
        calibrate=calibrate,
        calibration_samples=2,
    ).resolved()
    return compile_plan([spec])


def payloads(results):
    out = {}
    for key, result in results.items():
        payload = dict(result.to_payload())
        payload.pop("solve_time", None)
        out[key] = payload
    return out


@pytest.fixture
def reference():
    """The claim-free, store-free results of :func:`claims_plan`."""
    perf.reset()
    plan = claims_plan()
    return plan, payloads(execute_plan(plan).results)


@pytest.fixture
def store(tmp_path):
    return RunStore(tmp_path / "store")


def run_claimed(plan, store, me, **kwargs):
    # a cold cache: cache hits finish before the claim phase
    perf.reset()
    return execute_plan(
        plan, store=store, resume=True, claims=me, poll_s=0.02, **kwargs
    )


def failure_record(key, message="peer verdict"):
    return NodeFailure(
        key=key,
        kind="solve",
        error_class="SolverError",
        message=message,
        traceback_digest="",
        attempts=3,
    )


class TestDeferAndSteal:
    def test_peer_claim_is_deferred_then_stolen_after_its_ttl(
        self, reference, store
    ):
        plan, expected = reference
        victim = sorted(plan.nodes)[0]
        peer = LeaseManager(store, owner="peer", ttl_s=0.3)
        me = LeaseManager(store, owner="me", ttl_s=30.0)
        assert peer.acquire(victim)  # a peer that claims, then dies
        start = time.monotonic()
        outcome = run_claimed(plan, store, me)
        assert counter("lease_conflicts") >= 1  # deferred first
        assert counter("lease_steals") == 1  # then stolen once expired
        assert time.monotonic() - start >= 0.3
        assert not outcome.failures
        assert payloads(outcome.results) == expected
        assert set(store.point_keys()) == set(plan.nodes)
        assert me.held == {}  # every claim released after its commit


class TestFailureAdoption:
    def test_failure_recorded_by_a_peer_during_the_run_is_adopted(
        self, reference, store
    ):
        plan, expected = reference
        victim = sorted(plan.nodes)[0]
        peer = LeaseManager(store, owner="peer", ttl_s=30.0)
        me = LeaseManager(store, owner="me", ttl_s=30.0)
        assert peer.acquire(victim)
        recorded = []

        def peer_quarantines(event):
            # the peer gives up on its claim mid-run: ledger first, then
            # release, as the scheduler's own quarantine does
            if not recorded:
                time.sleep(0.05)  # clear of the run's start on any clock
                store.put_failure(victim, failure_record(victim))
                peer.release(victim)
                recorded.append(victim)

        outcome = run_claimed(plan, store, me, progress=peer_quarantines)
        assert counter("plan_failures_adopted") == 1
        assert set(outcome.failures) == {victim}
        assert outcome.failures[victim].message == "peer verdict"
        assert outcome.counts["failed"] == 1
        assert victim not in outcome.results
        assert counter("plan_point_solves") == len(plan.nodes) - 1
        rest = {k: v for k, v in expected.items() if k != victim}
        assert payloads(outcome.results) == rest

    def test_failure_recorded_before_the_run_is_reattempted(
        self, reference, store
    ):
        plan, expected = reference
        victim = sorted(plan.nodes)[0]
        store.put_failure(victim, failure_record(victim, "earlier run"))
        time.sleep(0.05)  # the record is older than the run
        me = LeaseManager(store, owner="me", ttl_s=30.0)
        outcome = run_claimed(plan, store, me)
        assert counter("plan_failures_adopted") == 0
        assert not outcome.failures
        assert payloads(outcome.results) == expected
        assert store.get_failure(victim) is None  # success clears it


class PeerStealsBeforeCommit(SerialExecutor):
    """Solves each task, then lets ``peer`` steal every claim ``mine``
    holds before the result reaches the scheduler's commit."""

    def __init__(self, mine, peer):
        self.mine = mine
        self.peer = peer

    def submit_stream_safe(self, tasks, *, timeout_s=None):
        for task, solved in super().submit_stream_safe(
            tasks, timeout_s=timeout_s
        ):
            time.sleep(self.mine.ttl_s * 1.5)  # our claims expire
            for key in list(self.mine.held):
                assert self.peer.acquire(key)
            yield task, solved


class TestLeaseLost:
    def test_lease_lost_before_commit_finishes_locally_unpublished(
        self, reference, store
    ):
        plan, expected = reference
        me = LeaseManager(store, owner="me", ttl_s=0.05)
        peer = LeaseManager(store, owner="peer", ttl_s=30.0)
        outcome = run_claimed(
            plan, store, me, executor=PeerStealsBeforeCommit(me, peer)
        )
        assert not outcome.failures
        assert payloads(outcome.results) == expected
        assert outcome.counts["solved"] == len(plan.nodes)
        # the usurper publishes, never the usurped worker
        assert store.point_keys() == []
        assert counter("lease_lost") >= len(plan.nodes)
        assert set(peer.held) == set(plan.nodes)


class PeerStealsAfterLanding(SerialExecutor):
    """Yields every solve, then — with all of them landed in the
    scheduler's commit buffer — lets ``peer`` steal every claim ``mine``
    holds before the end-of-stream commit."""

    def __init__(self, mine, peer):
        self.mine = mine
        self.peer = peer

    def submit_stream_safe(self, tasks, *, timeout_s=None):
        yield from super().submit_stream_safe(tasks, timeout_s=timeout_s)
        time.sleep(self.mine.ttl_s * 1.5)  # our claims expire
        for key in list(self.mine.held):
            assert self.peer.acquire(key)


class DrainsAfterFirstCompletion(SerialExecutor):
    """Requests a drain once the first completion has landed."""

    def __init__(self, guard):
        self.guard = guard

    def submit_stream_safe(self, tasks, *, timeout_s=None):
        for task, solved in super().submit_stream_safe(
            tasks, timeout_s=timeout_s
        ):
            yield task, solved
            self.guard._signum = signal.SIGTERM  # as if the handler fired


@pytest.fixture
def commit_at_stream_end(monkeypatch):
    """Only the structural triggers flush the commit buffer."""
    monkeypatch.setattr(scheduler, "COMMIT_MAX_AGE_S", 3600.0)


@pytest.fixture
def calls(monkeypatch):
    """Every ``put_point`` and lease ``release``, in call order."""
    log = []
    put_point, release = RunStore.put_point, LeaseManager.release

    def spy_put(self, key, payload):
        log.append(("put", key))
        return put_point(self, key, payload)

    def spy_release(self, key):
        log.append(("release", key))
        return release(self, key)

    monkeypatch.setattr(RunStore, "put_point", spy_put)
    monkeypatch.setattr(LeaseManager, "release", spy_release)
    return log


class TestBufferedCommit:
    def test_lease_lost_while_buffered_finishes_locally_unpublished(
        self, reference, store, tmp_path, monkeypatch, commit_at_stream_end,
        calls,
    ):
        plan, expected = reference
        ledger = tmp_path / "ledger"
        ledger.mkdir()
        monkeypatch.setenv(scheduler.SOLVE_LEDGER_ENV, str(ledger))
        # long enough for the stream's renewals to keep every claim alive
        me = LeaseManager(store, owner="me", ttl_s=0.5)
        peer = LeaseManager(store, owner="peer", ttl_s=30.0)
        outcome = run_claimed(
            plan, store, me, executor=PeerStealsAfterLanding(me, peer)
        )
        assert not outcome.failures
        assert payloads(outcome.results) == expected
        assert outcome.counts["solved"] == len(plan.nodes)
        # the commit-time fence caught every buffered node
        assert [op for op, _ in calls if op == "put"] == []
        assert store.point_keys() == []
        assert not any(f.read_text() for f in ledger.glob("*.solves"))
        assert set(peer.held) == set(plan.nodes)

    def test_drain_commits_the_buffer_before_releasing_leases(
        self, reference, store, commit_at_stream_end, calls
    ):
        plan, _ = reference
        guard = DrainGuard()
        me = LeaseManager(store, owner="me", ttl_s=30.0)
        with pytest.raises(DrainError):
            run_claimed(
                plan, store, me, executor=DrainsAfterFirstCompletion(guard),
                drain=guard,
            )
        puts = [i for i, (op, _) in enumerate(calls) if op == "put"]
        releases = [i for i, (op, _) in enumerate(calls) if op == "release"]
        assert puts and releases
        assert max(puts) < min(releases)
        # the first completion's nodes are stored, nothing else landed
        stored = {key for op, key in calls if op == "put"}
        assert set(store.point_keys()) == stored
        assert stored < set(plan.nodes)
        assert me.held == {}
        assert not list(store.leases.glob("**/*.claim"))

    def test_calibration_sample_commits_and_runs_between_completions(
        self, store, commit_at_stream_end
    ):
        plan = claims_plan(calibrate=True)
        (calibration,) = [
            k for k, n in plan.nodes.items() if isinstance(n, CalibrationNode)
        ]
        samples = set(plan.nodes[calibration].deps)
        events = []

        def record(event):
            if event["key"] == calibration:
                # its samples were committed before it ran
                assert all(store.get_point(k) is not None for k in samples)
            events.append(event)

        perf.reset()
        execute_plan(plan, store=store, progress=record)
        order = [e["key"] for e in events]
        at = order.index(calibration)
        assert set(order[:at]) == samples
        # the first wave's other solves completed after the calibration ran
        first_wave = {
            k for k, n in plan.nodes.items() if not n.deps
        } - samples
        assert first_wave and first_wave <= set(order[at + 1 :])


class TestDependencyCascade:
    def test_quarantined_dependency_cascades_as_a_dependency_error(
        self, store, monkeypatch
    ):
        from repro.errors import SolverError

        def failing_fit(*args, **kwargs):
            raise SolverError("injected fit failure")

        monkeypatch.setattr(scheduler, "fit_coefficients", failing_fit)
        plan = claims_plan(calibrate=True)
        (calibration,) = [
            k for k, n in plan.nodes.items() if isinstance(n, CalibrationNode)
        ]
        dependents = {
            k for k, n in plan.nodes.items() if calibration in n.deps
        }
        assert dependents
        me = LeaseManager(store, owner="me", ttl_s=30.0)
        outcome = run_claimed(plan, store, me)
        assert set(outcome.failures) == {calibration} | dependents
        assert outcome.failures[calibration].error_class == "SolverError"
        assert outcome.failures[calibration].attempts == 1
        for key in dependents:
            record = store.get_failure(key)
            assert record is not None
            assert record.error_class == "DependencyError"
            assert record.attempts == 0
            assert record.message == (
                f"depends on quarantined node(s): {calibration}"
            )
            assert outcome.failures[key] == record
        assert me.held == {}  # quarantine releases every claim
        assert counter("plan_quarantined") == 1 + len(dependents)


class TestPlanGraphErrors:
    def test_unknown_dependency_raises(self, store):
        plan = ExecutionPlan(
            nodes={
                "fit": CalibrationNode(
                    key="fit", sample_keys=("missing",), samples=()
                )
            }
        )
        me = LeaseManager(store, owner="me", ttl_s=30.0)
        with pytest.raises(ExperimentError, match="depends on unknown node"):
            run_claimed(plan, store, me)

    def test_dependency_cycle_raises(self, store):
        plan = ExecutionPlan(
            nodes={
                "a": CalibrationNode(key="a", sample_keys=("b",), samples=()),
                "b": CalibrationNode(key="b", sample_keys=("a",), samples=()),
            }
        )
        me = LeaseManager(store, owner="me", ttl_s=30.0)
        with pytest.raises(ExperimentError, match="dependency cycle"):
            run_claimed(plan, store, me)


class RecordingExecutor(SerialExecutor):
    """A serial stream that records each task it pulls and, at each
    solve, which claims ``mine`` holds."""

    def __init__(self, mine=None):
        self.mine = mine
        self.pulled = []
        self.held_at_solve = []

    def submit_stream_safe(self, tasks, *, timeout_s=None):
        return super().submit_stream_safe(
            self._pulled(tasks), timeout_s=timeout_s
        )

    def _pulled(self, tasks):
        for task in tasks:
            self.pulled.append(task)
            if self.mine is not None:
                self.held_at_solve.append(set(self.mine.held))
            yield task


class TestClaimAtDispatch:
    def test_each_unit_is_claimed_only_when_its_task_is_pulled(
        self, reference, store, monkeypatch
    ):
        plan, expected = reference
        me = LeaseManager(store, owner="me", ttl_s=30.0)
        unit_keys = []
        build_task = scheduler._Scheduler._task

        def recording_task(self, unit, index):
            unit_keys.append({e.node.key for e in unit.members})
            return build_task(self, unit, index)

        monkeypatch.setattr(scheduler._Scheduler, "_task", recording_task)
        executor = RecordingExecutor(me)
        outcome = run_claimed(plan, store, me, executor=executor)
        assert payloads(outcome.results) == expected
        assert len(unit_keys) == len(executor.held_at_solve) >= 2
        for k, held in enumerate(executor.held_at_solve):
            later = set().union(*unit_keys[k + 1 :])
            # while task k solves, no later task's member is claimed
            assert not held & later
            assert unit_keys[k] <= held

    def test_a_committed_peer_point_is_read_not_claimed(
        self, reference, store, monkeypatch
    ):
        plan, expected = reference
        victim = sorted(plan.nodes)[0]
        peer = LeaseManager(store, owner="peer", ttl_s=30.0)
        me = LeaseManager(store, owner="me", ttl_s=30.0)
        # the peer solved, committed and released the node before we
        # reached it (resume=False: only the claim step reads the store)
        assert peer.acquire(victim)
        perf.reset()
        solved = execute_plan(plan)
        store.put_point(victim, solved.results[victim].to_payload())
        peer.release(victim)
        claimed = []
        acquire = LeaseManager.acquire
        monkeypatch.setattr(
            LeaseManager,
            "acquire",
            lambda self, key: claimed.append(key) or acquire(self, key),
        )
        perf.reset()
        outcome = execute_plan(
            plan, store=store, resume=False, claims=me, poll_s=0.02
        )
        assert payloads(outcome.results) == expected
        assert outcome.counts["store"] == 1
        assert victim not in claimed
        assert sorted(claimed) == sorted(set(plan.nodes) - {victim})

    def test_claim_free_dispatch_keeps_task_order_and_numbering(self):
        from repro.scenarios import SCENARIOS

        spec = SCENARIOS.get("fem3d_power").resolved(
            fast=True, fem_resolution="coarse", calibrate=False
        )
        plan = compile_plan([spec])
        perf.reset()
        executor = RecordingExecutor()
        execute_plan(plan, executor=executor)
        # shapes in tier order, each numbering its own tasks from 0
        assert [(type(t).__name__, t.index) for t in executor.pulled] == [
            ("MatrixGroupTask", 0),
            ("StackedBatchTask", 0),
            ("PointTask", 0),
            ("PointTask", 1),
        ]

    def test_poll_over_a_live_peer_claim_reads_only_the_claim(
        self, reference, store, monkeypatch
    ):
        plan, _ = reference
        victim = sorted(plan.nodes)[0]
        peer = LeaseManager(store, owner="peer", ttl_s=30.0)
        me = LeaseManager(store, owner="me", ttl_s=30.0)
        assert peer.acquire(victim)
        sched = scheduler._Scheduler(
            plan=plan, executor=SerialExecutor(), store=store, resume=True,
            progress=None, on_node=None, group_matrices=True,
            stack_batches=True, retry=perf.DEFAULT_RETRY, claims=me,
            poll_s=0.02, drain=None,
        )
        node = plan.nodes[victim]
        sched.deferred[victim] = scheduler._Entry(node, node.model, None)
        reads = []
        for name in ("get_point", "get_failure"):
            original = getattr(RunStore, name)
            monkeypatch.setattr(
                RunStore,
                name,
                lambda self, key, _f=original, _n=name: (
                    reads.append(_n) or _f(self, key)
                ),
            )
        for _ in range(3):
            assert not sched._poll_deferred()
        assert reads == []
        assert counter("lease_conflicts") == 0  # no acquire attempted
        peer.release(victim)
        assert sched._poll_deferred()  # freed: read the store, then claim
        assert reads[:2] == ["get_point", "get_failure"]
        assert victim in me.held and victim not in sched.deferred
