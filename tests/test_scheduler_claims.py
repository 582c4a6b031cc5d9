"""The scheduler's fleet branches, driven in-process.

Two :class:`~repro.scenarios.lease.LeaseManager` owners share one
:class:`~repro.scenarios.store.RunStore`: "peer" plays a cooperating
worker by hand (holding, releasing and stealing claims, recording
failures) while :func:`~repro.scenarios.scheduler.execute_plan` runs
under "me".  Every claimed run must produce the results of a claim-free
run, and plan-graph mistakes must raise before anything is solved.
"""

import time

import pytest

from repro import perf
from repro.errors import ExperimentError
from repro.perf import NodeFailure, SerialExecutor, counter
from repro.scenarios import (
    AxisSpec,
    RunStore,
    ScenarioSpec,
    compile_plan,
    execute_plan,
)
from repro.scenarios import scheduler
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
