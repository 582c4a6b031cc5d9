"""Lease protocol races and the sharded store layout.

Two :class:`LeaseManager` drivers on one store stand in for two fleet
workers: claim conflicts, renewals, expiry, steals of stale and corrupt
claims, and the fencing-token guard that stops a zombie holder from
publishing over its usurper.  The store half covers the sharded layout's
transparent legacy (flat) read-back and the ``migrate`` sweep.  A
hypothesis state machine then drives the whole protocol — several owners,
an injected clock, calls interleaved inside another owner's ``acquire``
— against its invariants.
"""

import json
import os
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro import perf
from repro.errors import LeaseLostError, ValidationError
from repro.perf import counter
from repro.perf.retry import NodeFailure
from repro.scenarios import RunStore
from repro.scenarios import lease as lease_module
from repro.scenarios.lease import Lease, LeaseManager
from repro.scenarios.store import shard_prefix


@pytest.fixture
def store(tmp_path):
    perf.reset()
    return RunStore(tmp_path / "store")


def manager(store, owner, ttl_s=30.0):
    return LeaseManager(store, owner=owner, ttl_s=ttl_s)


KEY = "deadbeef" * 8


class TestLeaseProtocol:
    def test_claim_is_exclusive_between_drivers(self, store):
        w1, w2 = manager(store, "w1"), manager(store, "w2")
        assert w1.acquire(KEY)
        assert not w2.acquire(KEY)
        assert counter("lease_conflicts") == 1
        # the claim file lives in the sharded leases space
        claim = store.leases / shard_prefix(KEY) / f"{KEY}.claim"
        assert claim.exists()
        payload = json.loads(claim.read_text())
        assert payload["owner"] == "w1"
        # the wall-clock twin of the monotonic deadline rides along for
        # offline tooling (fsck after a reboot / on a foreign host)
        assert payload["deadline_unix"] == pytest.approx(
            time.time() + 30.0, abs=5.0
        )

    def test_renewal_refreshes_the_wall_clock_deadline(self, store):
        w1 = manager(store, "w1")
        assert w1.acquire(KEY)
        first = w1.peek(KEY).deadline_unix
        assert first > 0.0
        assert w1.renew(KEY)
        assert w1.peek(KEY).deadline_unix >= first
        # legacy claims without the field parse with the 0.0 sentinel
        legacy = dict(w1.peek(KEY).to_payload())
        legacy.pop("deadline_unix")
        assert Lease.from_payload(legacy).deadline_unix == 0.0

    def test_reacquire_is_reentrant_and_renews(self, store):
        w1 = manager(store, "w1")
        assert w1.acquire(KEY)
        first_deadline = w1.peek(KEY).deadline
        assert w1.acquire(KEY)  # same holder: refresh, not a race with self
        assert len(w1.held) == 1
        assert w1.peek(KEY).deadline >= first_deadline
        assert counter("lease_renewals") == 1

    def test_release_frees_the_key_for_a_peer(self, store):
        w1, w2 = manager(store, "w1"), manager(store, "w2")
        assert w1.acquire(KEY)
        w1.release(KEY)
        assert not w1.held
        assert w2.acquire(KEY)

    def test_expired_claim_is_stolen_not_conflicted(self, store):
        w1 = manager(store, "w1", ttl_s=0.05)
        w2 = manager(store, "w2")
        assert w1.acquire(KEY)
        time.sleep(0.06)
        assert w2.acquire(KEY)
        assert counter("lease_steals") == 1
        assert w2.peek(KEY).owner == "w2"

    def test_stale_holder_cannot_renew_or_release_over_usurper(self, store):
        w1 = manager(store, "w1", ttl_s=0.05)
        w2 = manager(store, "w2")
        assert w1.acquire(KEY)
        time.sleep(0.06)
        assert w2.acquire(KEY)
        assert not w1.renew(KEY)
        assert KEY not in w1.held
        assert counter("lease_lost") == 1
        # release by the old holder is a no-op on the usurper's claim
        w1.held[KEY] = 123  # resurrect the zombie's bookkeeping
        w1.release(KEY)
        assert w2.peek(KEY).owner == "w2"

    def test_zombie_write_guard_raises_after_steal(self, store):
        w1 = manager(store, "w1", ttl_s=0.05)
        w2 = manager(store, "w2")
        assert w1.acquire(KEY)
        time.sleep(0.06)
        assert w2.acquire(KEY)
        with pytest.raises(LeaseLostError):
            w1.check(KEY)
        # the usurper's own guard still passes
        w2.check(KEY)

    def test_fencing_token_rejects_same_owner_stale_claim(self, store):
        # even with the owner id matching, an outdated fencing token is
        # rejected: a zombie that somehow re-reads a newer claim written
        # under its own name (e.g. after a restart reusing the owner id)
        # must not publish with its old token
        w1 = manager(store, "w1")
        assert w1.acquire(KEY)
        claim_path = store.leases / shard_prefix(KEY) / f"{KEY}.claim"
        newer = Lease(
            key=KEY,
            owner="w1",
            token=w1.held[KEY] + 1,
            deadline=time.monotonic() + 30.0,
            ttl_s=30.0,
        )
        claim_path.write_text(json.dumps(newer.to_payload()))
        with pytest.raises(LeaseLostError):
            w1.check(KEY)
        assert counter("lease_lost") == 1

    def test_corrupt_claim_heals_by_steal(self, store):
        w2 = manager(store, "w2")
        claim_path = store.leases / shard_prefix(KEY) / f"{KEY}.claim"
        claim_path.parent.mkdir(exist_ok=True)
        claim_path.write_text('{"torn')  # a worker died mid-write
        assert w2.peek(KEY) is None
        assert w2.acquire(KEY)
        assert counter("lease_steals") == 1
        assert w2.peek(KEY).owner == "w2"

    def test_renew_refuses_an_already_expired_claim(self, store):
        w1 = manager(store, "w1", ttl_s=0.05)
        assert w1.acquire(KEY)
        time.sleep(0.06)
        # a stealer may own the name the moment the deadline passed; the
        # old holder must treat its own expired claim as lost
        assert not w1.renew(KEY)
        assert KEY not in w1.held

    def test_acquire_many_reports_only_wins(self, store):
        w1, w2 = manager(store, "w1"), manager(store, "w2")
        keys = [f"{i:02x}" * 32 for i in range(4)]
        assert w1.acquire(keys[1])
        assert w2.acquire_many(keys) == [keys[0], keys[2], keys[3]]

    def test_ttl_must_be_positive(self, store):
        with pytest.raises(ValueError, match="ttl_s"):
            LeaseManager(store, ttl_s=0.0)

    def test_concurrent_steal_of_one_stale_claim_has_one_winner(self, store):
        # both drivers see the same expired claim; the rename-tombstone
        # dance lets exactly one of them through
        w0 = manager(store, "w0", ttl_s=0.05)
        assert w0.acquire(KEY)
        time.sleep(0.06)
        w1, w2 = manager(store, "w1"), manager(store, "w2")
        wins = [w.acquire(KEY) for w in (w1, w2)]
        assert wins == [True, False]
        assert counter("lease_steals") == 1


class TestShardedLayout:
    def test_writes_land_sharded(self, store):
        store.put_point(KEY, {"x": 1})
        assert (store.points / shard_prefix(KEY) / f"{KEY}.json").exists()

    def test_legacy_flat_points_read_back(self, store):
        legacy = store.points / f"{KEY}.json"
        legacy.write_text(json.dumps({"x": 41}))
        assert store.get_point(KEY) == {"x": 41}
        # a rewrite lands sharded and retires the flat twin
        store.put_point(KEY, {"x": 42})
        assert not legacy.exists()
        assert store.get_point(KEY) == {"x": 42}
        assert KEY in store.point_keys()

    def test_legacy_flat_runs_read_back(self, store, tmp_path):
        from repro.scenarios import SCENARIOS

        spec = SCENARIOS.get("fig7").resolved(fast=True)
        key = spec.content_hash()
        store.put(key, {"kind": "sweep"}, spec)
        # rewrite history: flatten the object like a pre-shard store
        sharded = store.objects / shard_prefix(key) / f"{key}.json"
        flat = store.objects / f"{key}.json"
        flat.write_text(sharded.read_text())
        sharded.unlink()
        reopened = RunStore(store.root)
        assert reopened.get(key) == {"kind": "sweep"}

    def test_migrate_moves_flat_artifacts_and_is_idempotent(self, store):
        from repro.scenarios import SCENARIOS

        spec = SCENARIOS.get("fig7").resolved(fast=True)
        run_key = spec.content_hash()
        store.put(run_key, {"kind": "sweep"}, spec)
        # flatten every space the way a legacy store laid them out
        for space, key, suffix, text in (
            (store.objects, run_key, ".json", None),
            (store.points, KEY, ".json", json.dumps({"x": 1})),
            (store.failures, "ab" * 32, ".json", None),
            (store.leases, "cd" * 32, ".claim", json.dumps({"torn": 1})),
        ):
            if text is None and suffix == ".json" and space is store.objects:
                sharded = space / shard_prefix(key) / f"{key}{suffix}"
                (space / f"{key}{suffix}").write_text(sharded.read_text())
                sharded.unlink()
                continue
            if space is store.failures:
                failure = NodeFailure(
                    key=key, kind="solve", error_class="SolverError",
                    message="m", traceback_digest="d", attempts=1,
                )
                (space / f"{key}{suffix}").write_text(
                    json.dumps(failure.to_payload())
                )
                continue
            (space / f"{key}{suffix}").write_text(text)

        migrated = RunStore(store.root)
        moved = migrated.migrate()
        assert moved == {
            "objects": 1, "points": 1, "failures": 1, "blame": 0, "leases": 1,
        }
        assert migrated.get(run_key) == {"kind": "sweep"}
        assert migrated.get_point(KEY) == {"x": 1}
        assert migrated.get_failure("ab" * 32) is not None
        entry = migrated.manifest["runs"][run_key]
        assert entry["path"].startswith(f"objects/{shard_prefix(run_key)}/")
        # idempotent: nothing flat remains
        assert RunStore(store.root).migrate() == {
            "objects": 0, "points": 0, "failures": 0, "blame": 0, "leases": 0,
        }

    def test_short_keys_pad_into_a_distinct_shard(self, store):
        store.put_point("a", {"v": 1})
        assert shard_prefix("a") == "a_"
        assert store.get_point("a") == {"v": 1}


class TestLaggyFilesystem:
    """The steal dance under :mod:`repro.fsshim`'s laggy renames.

    The shim injects deterministic sleeps before every ``os.replace`` /
    ``os.rename`` / ``os.link``, widening exactly the windows — between
    reading an expired claim and tombstoning it, between tombstoning and
    re-linking — where NFS-grade latency could let two workers disagree
    about who stole a lease.
    """

    def test_shim_installs_and_uninstalls_cleanly(self):
        import os as os_mod

        from repro import fsshim

        originals = (os_mod.replace, os_mod.rename, os_mod.link)
        with fsshim.installed(0.0, seed=1):
            assert fsshim.active()
            assert os_mod.replace is not originals[0]
        assert not fsshim.active()
        assert (os_mod.replace, os_mod.rename, os_mod.link) == originals

    def test_expired_claim_steal_survives_laggy_renames(self, store):
        from repro import fsshim

        w1 = manager(store, "w1", ttl_s=0.05)
        w2 = manager(store, "w2")
        assert w1.acquire(KEY)
        time.sleep(0.06)
        with fsshim.installed(0.02, seed=3):
            assert w2.acquire(KEY)
        assert counter("lease_steals") == 1
        assert w2.peek(KEY).owner == "w2"
        # the tombstone dance never leaves the claim itself torn
        claim = store.leases / shard_prefix(KEY) / f"{KEY}.claim"
        json.loads(claim.read_text())

    def test_zombie_is_fenced_out_despite_slow_commit(self, store):
        from repro import fsshim

        w1 = manager(store, "w1", ttl_s=0.05)
        w2 = manager(store, "w2")
        assert w1.acquire(KEY)
        time.sleep(0.06)
        with fsshim.installed(0.02, seed=5):
            assert w2.acquire(KEY)
            # the usurped holder discovers the loss at its write guard no
            # matter how slowly the steal's renames landed
            with pytest.raises(LeaseLostError):
                w1.check(KEY)
            w2.check(KEY)

    def test_concurrent_steal_race_has_exactly_one_winner(self, store):
        import threading

        from repro import fsshim

        w1 = manager(store, "w1", ttl_s=0.05)
        assert w1.acquire(KEY)
        time.sleep(0.06)
        contenders = [manager(store, f"s{i}") for i in range(3)]
        results = {}
        with fsshim.installed(0.02, seed=7):
            threads = [
                threading.Thread(
                    target=lambda m: results.__setitem__(m.owner, m.acquire(KEY)),
                    args=(m,),
                )
                for m in contenders
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert sum(results.values()) == 1
        (winner,) = [owner for owner, won in results.items() if won]
        final = manager(store, "observer").peek(KEY)
        assert final.owner == winner
        # and the loser(s) recorded a conflict or lost the tombstone race;
        # either way nobody tore the claim file
        claim = store.leases / shard_prefix(KEY) / f"{KEY}.claim"
        json.loads(claim.read_text())


class TestPeekFirstConflict:
    """Losing a claim costs one read: nothing is written, linked or
    unlinked while a live claim holds the name."""

    def test_conflict_on_a_live_claim_writes_nothing(self, store, monkeypatch):
        w1, w2 = manager(store, "w1"), manager(store, "w2")
        assert w1.acquire(KEY)
        links, writes = [], []
        link, write_unique = os.link, LeaseManager._write_unique
        monkeypatch.setattr(
            os, "link", lambda *a, **k: links.append(a) or link(*a, **k)
        )
        monkeypatch.setattr(
            LeaseManager,
            "_write_unique",
            lambda self, *a: writes.append(a) or write_unique(self, *a),
        )
        assert not w2.acquire(KEY)
        assert counter("lease_conflicts") == 1
        assert links == [] and writes == []
        shard = store.leases / shard_prefix(KEY)
        assert [p.name for p in shard.iterdir()] == [f"{KEY}.claim"]
        assert w2.peek(KEY).owner == "w1"

    def test_live_reports_unexpired_claims_of_any_owner(self, store):
        w1, w2 = manager(store, "w1"), manager(store, "w2")
        assert not w2.live(KEY)
        assert w1.acquire(KEY)
        assert w1.live(KEY) and w2.live(KEY)

    def test_live_is_false_once_the_claim_expires(self, store):
        w1, w2 = manager(store, "w1", ttl_s=0.05), manager(store, "w2")
        assert w1.acquire(KEY)
        time.sleep(0.06)
        assert not w1.live(KEY) and not w2.live(KEY)


# ----------------------------------------------------------------------
# the lease protocol as a state machine
# ----------------------------------------------------------------------
OWNERS = ("o0", "o1", "o2")
KEYS = ("aa" * 32, "bb" * 32)
TTL_S = 1.0


class FakeClock:
    """Stands in for the lease module's ``time``: it moves only when the
    state machine advances it.  ``monotonic_ns`` still ticks on every
    call, as fencing tokens and temp-file names need."""

    def __init__(self) -> None:
        self.now = 1000.0
        self.ticks = 0

    def monotonic(self) -> float:
        return self.now

    def monotonic_ns(self) -> int:
        self.ticks += 1
        return int(self.now * 1e9) + self.ticks

    def time(self) -> float:
        return self.now + 1.7e9


class HookedOS:
    """The lease module's view of ``os``: ``link`` and ``replace`` fire
    the machine's interleaving hook first and are counted."""

    def __init__(self, machine) -> None:
        self.machine = machine
        self.links = 0

    def __getattr__(self, name):
        return getattr(os, name)

    def link(self, src, dst):
        self.links += 1
        self.machine.fire("link")
        return os.link(src, dst)

    def replace(self, src, dst):
        self.machine.fire("replace")
        return os.replace(src, dst)


class LeaseMachine(RuleBasedStateMachine):
    """Several owners acquire, renew, check, release and steal two keys
    on one store under an injected clock; an interleaving rule runs a
    second owner's call (and a clock jump) inside another's ``acquire``
    — between its peek and its ``link``, or before its tombstone rename.

    The model is what each owner has been told: ``mine`` maps
    ``(owner, key)`` to the token of the grant the owner still believes
    in, and ``current`` to the grant the claim file must carry.
    Invariants: at most one live holder per key, strictly increasing
    fencing tokens, a new grant only over a released, corrupt or expired
    claim, and no ``check`` passing for a lost lease.
    """

    def __init__(self) -> None:
        super().__init__()
        self.tmp = tempfile.TemporaryDirectory()
        self.patches = pytest.MonkeyPatch()
        self.clock = FakeClock()
        self.os = HookedOS(self)
        self.patches.setattr(lease_module, "time", self.clock)
        self.patches.setattr(lease_module, "os", self.os)
        read = LeaseManager._read_lease

        def hooked_read(path):
            lease = read(path)
            self.fire("read")
            return lease

        self.patches.setattr(LeaseManager, "_read_lease", staticmethod(hooked_read))
        self.store = RunStore(Path(self.tmp.name) / "store")
        self.managers = {
            o: LeaseManager(self.store, owner=o, ttl_s=TTL_S) for o in OWNERS
        }
        self.observer = LeaseManager(self.store, owner="observer", ttl_s=TTL_S)
        self.mine: dict[tuple[str, str], int] = {}
        self.current: dict[str, tuple[str, int] | None] = dict.fromkeys(KEYS)
        self.deadline: dict[str, float] = dict.fromkeys(KEYS, 0.0)
        self.top_token: dict[str, int] = dict.fromkeys(KEYS, 0)
        self.hook = None  # (point, action) armed inside one acquire

    def teardown(self) -> None:
        self.patches.undo()
        self.tmp.cleanup()

    # -- model updates --------------------------------------------------
    def fire(self, point: str) -> None:
        if self.hook is not None and self.hook[0] == point:
            _, action = self.hook
            self.hook = None  # once, and never inside the hook's own calls
            action()

    def _live(self, key: str) -> bool:
        return self.current[key] is not None and self.deadline[key] > self.clock.now

    def _granted(self, owner: str, key: str) -> None:
        """``owner``'s acquire of ``key`` just returned True."""
        token = self.managers[owner].held[key]
        claim = self.observer.peek(key)
        assert claim is not None
        assert (claim.owner, claim.token) == (owner, token)
        if self.current[key] != (owner, token):
            # a fresh grant: only over a free claim, with a larger token
            assert not self._live(key), f"{owner} granted over a live claim"
            assert token > self.top_token[key], "fencing token went backwards"
            self.top_token[key] = token
            self.current[key] = (owner, token)
        self.deadline[key] = claim.deadline
        self.mine[(owner, key)] = token

    def _acquire(self, owner: str, key: str) -> bool:
        won = self.managers[owner].acquire(key)
        if won:
            self._granted(owner, key)
        else:
            self.mine.pop((owner, key), None)
        return won

    def _renew(self, owner: str, key: str) -> bool:
        token = self.mine.get((owner, key))
        expected = (
            token is not None
            and self.current[key] == (owner, token)
            and self._live(key)
        )
        assert self.managers[owner].renew(key) == expected
        if expected:
            self.deadline[key] = self.observer.peek(key).deadline
        else:
            self.mine.pop((owner, key), None)
        return expected

    def _release(self, owner: str, key: str) -> None:
        token = self.mine.pop((owner, key), None)
        self.managers[owner].release(key)
        if token is not None and self.current[key] == (owner, token):
            self.current[key] = None

    # -- rules ----------------------------------------------------------
    @rule(owner=st.sampled_from(OWNERS), key=st.sampled_from(KEYS))
    def acquire(self, owner, key):
        token = self.mine.get((owner, key))
        reentrant = (
            token is not None
            and self.current[key] == (owner, token)
            and self._live(key)
        )
        conflict = not reentrant and self._live(key)
        links = self.os.links
        assert self._acquire(owner, key) == (not conflict)
        if conflict:
            # the peek-first path: one read, no link
            assert self.os.links == links

    @rule(owner=st.sampled_from(OWNERS), key=st.sampled_from(KEYS))
    def renew(self, owner, key):
        self._renew(owner, key)

    @rule(owner=st.sampled_from(OWNERS), key=st.sampled_from(KEYS))
    def release(self, owner, key):
        self._release(owner, key)

    @rule(owner=st.sampled_from(OWNERS), key=st.sampled_from(KEYS))
    def check(self, owner, key):
        token = self.mine.get((owner, key))
        lost = token is None or self.current[key] != (owner, token)
        if lost:
            with pytest.raises(LeaseLostError):
                self.managers[owner].check(key)
            self.mine.pop((owner, key), None)
        else:
            self.managers[owner].check(key)

    @rule(seconds=st.floats(min_value=0.0, max_value=2.5 * TTL_S))
    def advance(self, seconds):
        self.clock.now += seconds

    @rule(key=st.sampled_from(KEYS))
    def corrupt(self, key):
        path = self.observer._claim_path(key)
        path.parent.mkdir(exist_ok=True)
        path.write_text('{"torn')  # a writer died mid-claim
        self.current[key] = None

    @rule(
        owner=st.sampled_from(OWNERS),
        other=st.sampled_from(OWNERS),
        key=st.sampled_from(KEYS),
        point=st.sampled_from(("read", "link", "replace")),
        seconds=st.floats(min_value=0.0, max_value=2.5 * TTL_S),
        call=st.sampled_from(("acquire", "renew", "release", "none")),
    )
    def acquire_interleaved(self, owner, other, key, point, seconds, call):
        """``other`` acts (after a clock jump) inside ``owner``'s acquire:
        after its first claim read, or before its first link or rename.
        A claim can expire between ``owner``'s peek and its ``link``.

        An owner that holds the key is left out: its acquire is a
        renewal, whose verify-then-write is not atomic against a steal
        by design — that race needs a holder silent for a whole TTL
        inside one call (see the lease module docstring)."""
        if owner == other:
            other = OWNERS[(OWNERS.index(owner) + 1) % len(OWNERS)]
        if key in self.managers[owner].held:
            return

        def action():
            self.clock.now += seconds
            if call != "none":
                getattr(self, f"_{call}")(other, key)

        self.hook = (point, action)
        try:
            self._acquire(owner, key)
        finally:
            self.hook = None

    # -- invariants -----------------------------------------------------
    @invariant()
    def claim_file_names_the_current_grant(self):
        for key in KEYS:
            claim = self.observer.peek(key)
            if self.current[key] is None:
                assert claim is None
            else:
                assert claim is not None
                assert (claim.owner, claim.token) == self.current[key]

    @invariant()
    def at_most_one_live_holder(self):
        for key in KEYS:
            holders = [
                o
                for o in OWNERS
                if self.mine.get((o, key)) is not None
                and self.current[key] == (o, self.mine[(o, key)])
                and self._live(key)
            ]
            assert len(holders) <= 1

    @invariant()
    def bookkeeping_matches_the_model(self):
        for owner, m in self.managers.items():
            held = {k: t for (o, k), t in self.mine.items() if o == owner}
            assert m.held == held

    @invariant()
    def no_temp_or_tombstone_files_left(self):
        for path in self.store.leases.rglob("*"):
            assert path.is_dir() or path.name.endswith(".claim"), path.name


LeaseMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)
TestLeaseStateMachine = LeaseMachine.TestCase
