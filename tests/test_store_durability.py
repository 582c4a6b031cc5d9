"""Which store writes fsync their parent directory after the rename.

A rename only survives a machine crash once its directory is fsynced.
The system-of-record writes (run objects, the manifest, failure and
blame records) pay for that; point writes deliberately do not — a lost
point reads as a miss and re-solves to the same bytes.
"""

import os
import stat

import pytest

from repro.perf import NodeFailure
from repro.scenarios import SCENARIOS, RunStore


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
