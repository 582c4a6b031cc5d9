"""The store's durability and crash-consistency contract.

A rename only survives a machine crash once its directory is fsynced.
The system-of-record writes (run objects, the manifest, failure and
blame records) pay for that; point writes deliberately do not — a lost
point reads as a miss and re-solves to the same bytes.

Every point, alone or in a :meth:`RunStore.batch` group commit, reaches
its name as tmp file → fsync → rename, so a failure or a kill at any
syscall of the sequence leaves each key readable as its exact payload or
as a miss — never as a different payload.
"""

import os
import stat

import pytest

from repro.perf import NodeFailure
from repro.scenarios import SCENARIOS, RunStore, scrub


@pytest.fixture
def dir_fsyncs(monkeypatch):
    """(st_dev, st_ino) of every directory fd passed to ``os.fsync``."""
    synced = []
    real_fsync = os.fsync

    def spy(fd):
        info = os.fstat(fd)
        if stat.S_ISDIR(info.st_mode):
            synced.append((info.st_dev, info.st_ino))
        return real_fsync(fd)

    monkeypatch.setattr(os, "fsync", spy)
    return synced


def identity(path):
    info = os.stat(path)
    return info.st_dev, info.st_ino


def test_put_point_syncs_no_directory(tmp_path, dir_fsyncs):
    store = RunStore(tmp_path)
    for i in range(3):
        store.put_point(f"{i:064x}", {"i": i})
    assert dir_fsyncs == []


def test_batched_points_sync_no_directory(tmp_path, dir_fsyncs):
    store = RunStore(tmp_path)
    with store.batch():
        for i in range(3):
            store.put_point(f"{i:064x}", {"i": i})
    assert dir_fsyncs == []


def test_put_syncs_the_object_and_manifest_directories_once(tmp_path, dir_fsyncs):
    store = RunStore(tmp_path / "store")
    path = store.put("ab" + "0" * 62, {"x": 1}, SCENARIOS.get("fig7"))
    # the run object renames into its shard, manifest.json into the root
    assert sorted(dir_fsyncs) == sorted(
        [identity(path.parent), identity(store.root)]
    )


def test_failure_and_blame_records_sync_their_directory(tmp_path, dir_fsyncs):
    store = RunStore(tmp_path)
    key = "cd" + "0" * 62
    failure = NodeFailure(
        key=key,
        kind="solve",
        error_class="SolverError",
        message="boom",
        traceback_digest="0" * 12,
        attempts=1,
    )
    failure_path = store.put_failure(key, failure)
    assert dir_fsyncs == [identity(failure_path.parent)]
    dir_fsyncs.clear()
    store.add_blame(key)
    assert dir_fsyncs == [identity(store.blame / key[:2])]


# ----------------------------------------------------------------------
# group commit: ordering and crash consistency
# ----------------------------------------------------------------------
#: three points in three shards, one of them a rewrite of an older payload
KEYS = ["ab" + "0" * 62, "cd" + "1" * 62, "ef" + "2" * 62]
PAYLOADS = {key: {"key": key, "value": i} for i, key in enumerate(KEYS)}
OLD = {"key": KEYS[0], "value": "old"}

#: the syscalls of a point commit, in the order a batch issues them
COMMIT_OPS = ("open", "write", "fsync", "replace")


class Killed(BaseException):
    """The simulated death of the writing process."""


class SyscallSpy:
    """Records the commit syscalls and can fail the ``n``-th call of one.

    ``mode="raise"`` makes that one call raise ``OSError`` (the process
    lives on and cleans up); ``mode="kill"`` raises :class:`Killed` and
    fails every later filesystem call too, so nothing the dead process
    would have done afterwards — cleanup included — reaches the disk.
    """

    def __init__(self, monkeypatch, fail_op=None, fail_at=0, mode="raise"):
        self.calls = {op: 0 for op in COMMIT_OPS}
        self.events = []  # (op, tmp path)
        self.fd_paths = {}
        self.fail_op, self.fail_at, self.mode = fail_op, fail_at, mode
        self.dead = False
        for op in (*COMMIT_OPS, "close", "unlink"):
            monkeypatch.setattr(os, op, self._wrap(op, getattr(os, op)))

    def _wrap(self, op, real):
        def spy(*args, **kwargs):
            if self.dead:
                raise Killed(op)
            if op in self.calls:
                self.calls[op] += 1
                if op == self.fail_op and self.calls[op] == self.fail_at:
                    if self.mode == "kill":
                        self.dead = True
                        raise Killed(op)
                    raise OSError(f"injected {op} failure")
            result = real(*args, **kwargs)
            if op == "open":
                self.fd_paths[result] = os.fspath(args[0])
            elif op in ("write", "fsync"):
                self.events.append((op, self.fd_paths.get(args[0])))
            elif op == "replace":
                self.events.append((op, os.fspath(args[0])))
            return result

        return spy


def commit_batch(root):
    store = RunStore(root)
    store.put_point(KEYS[0], OLD)
    with store.batch():
        for key in KEYS:
            store.put_point(key, PAYLOADS[key])


def test_batch_fsyncs_every_tmp_before_any_rename(tmp_path, monkeypatch):
    store = RunStore(tmp_path)
    spy = SyscallSpy(monkeypatch)
    with store.batch():
        for key in KEYS:
            assert store.put_point(key, PAYLOADS[key]) is not None
        # staged, not yet visible under any name
        assert store.point_keys() == []
        assert not [op for op, _ in spy.events if op in ("fsync", "replace")]
    fsynced = [path for op, path in spy.events if op == "fsync"]
    renamed = [path for op, path in spy.events if op == "replace"]
    assert sorted(fsynced) == sorted(renamed)
    assert len(renamed) == len(KEYS)
    assert all(path.endswith(".tmp") for path in renamed)
    ops = [op for op, _ in spy.events]
    last_fsync = len(ops) - 1 - ops[::-1].index("fsync")
    assert last_fsync < ops.index("replace")
    monkeypatch.undo()
    assert {key: store.get_point(key) for key in KEYS} == PAYLOADS


def test_exception_inside_a_batch_lands_nothing(tmp_path):
    store = RunStore(tmp_path)
    with pytest.raises(RuntimeError, match="boom"):
        with store.batch():
            store.put_point(KEYS[1], PAYLOADS[KEYS[1]])
            raise RuntimeError("boom")
    assert store.point_keys() == []
    assert not list(tmp_path.glob("**/*.tmp"))


def test_batches_do_not_nest(tmp_path):
    store = RunStore(tmp_path)
    with store.batch():
        with pytest.raises(RuntimeError, match="do not nest"):
            with store.batch():
                pass


def clean_call_counts(tmp_path, monkeypatch):
    with monkeypatch.context() as patch:
        spy = SyscallSpy(patch)
        commit_batch(tmp_path / "clean")
    return spy.calls


@pytest.mark.parametrize("mode", ["raise", "kill"])
@pytest.mark.parametrize("op", COMMIT_OPS)
def test_failure_at_any_commit_syscall_never_reads_a_different_payload(
    tmp_path, monkeypatch, op, mode
):
    counts = clean_call_counts(tmp_path, monkeypatch)
    # the rewrite's own commit, then the batch
    assert counts[op] >= len(KEYS) + 1
    litter = 0
    for n in range(1, counts[op] + 1):
        root = tmp_path / f"{op}{n}"
        with monkeypatch.context() as patch:
            SyscallSpy(patch, fail_op=op, fail_at=n, mode=mode)
            with pytest.raises((OSError, Killed)):
                commit_batch(root)
        reopened = RunStore(root)
        for key in KEYS:
            assert reopened.get_point(key) in (
                PAYLOADS[key], OLD if key == KEYS[0] else None, None
            ), (op, n, key)
        assert set(reopened.point_keys()) <= set(KEYS)
        report = scrub(root)
        assert report.damage == []
        assert {note.kind for note in report.notes} <= {"tmp-litter"}
        litter += len(report.notes)
        if mode == "raise":
            # a living writer removes what it could not commit
            assert not list(root.glob("**/*.tmp"))
    # a kill after a tmp file exists strands it (and fsck notes it)
    assert (litter > 0) == (mode == "kill")
