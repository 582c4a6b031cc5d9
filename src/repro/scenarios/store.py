"""Content-addressed storage of finished scenario runs and solved points.

A :class:`RunStore` is a directory holding three object spaces:

* **runs** — one JSON artifact per completed scenario, addressed by the
  :meth:`~repro.scenarios.spec.ScenarioSpec.content_hash` of the
  (resolved) spec that produced it, indexed by ``manifest.json``.
  Re-running an unchanged spec is a store hit — the experiment layer
  returns the stored payload without solving anything.
* **points** — one JSON artifact per executed plan node (a model solved
  at one sweep point, a finished calibration fit, a case-study run),
  addressed by the node's plan key.  The
  :mod:`~repro.scenarios.scheduler` writes each point as it completes and
  (under ``--resume``) reads them back, so an interrupted batch resumes
  from its solved points instead of re-solving them.
* **failures** — the quarantine ledger: one JSON record per plan node
  that exhausted its retry budget (error class, message, attempts,
  traceback digest — the
  :class:`~repro.perf.NodeFailure` payload).  A later successful solve
  of the same key clears the record, so ``--resume`` naturally
  re-attempts exactly the quarantined/missing points.

All writes are atomic: the payload is fsynced to a tmp file before the
rename, so neither a killed process nor a machine crash leaves a
half-written artifact behind a name.  The system-of-record writes — run
objects, ``manifest.json``, failure records and blame counts — are also
durable: the parent directory is fsynced after the rename, so the new
name itself survives a machine crash.  Point writes skip that directory
fsync (one per solved point would dominate a large sweep's commit cost);
a point whose rename is lost in a crash reads as a miss and re-solves
deterministically to the same bytes.  A corrupt or unreadable object is
treated as a miss (and healed out of the manifest) rather than an error.

Points can also be committed as a group: inside ``with store.batch():``
each :meth:`RunStore.put_point` only stages its tmp file, and the block's
exit fsyncs every staged file before renaming any of them onto its name
— the same tmp → fsync → rename sequence per point, but one pass of
fsyncs per group instead of one interleaved with every rename, which is
what the scheduler's per-wave commit uses.  A kill at any instant leaves
each point either at its final name with its full payload or absent
(plus ``*.tmp`` litter that ``fsck`` reports and ``--repair`` removes);
an exception inside the block discards the staged files.

Every ``objects/``, ``points/``, ``failures/`` and ``blame/`` payload is
written inside an **integrity envelope**: a one-line JSON header carrying
a blake2b checksum of the body, followed by the body document itself ::

    {"repro_envelope": 1, "checksum": "<blake2b-128-hex>"}
    {
      ... the payload ...
    }

Readers verify the checksum against the raw body bytes before parsing —
a bit flip, a truncation, or bytes lost between write and fsync all read
as a *miss* (plus the usual healing), never as silently different
physics.  Envelope-less artifacts written by earlier versions parse as
legacy documents without verification, so old stores keep working;
``python -m repro fsck <store>`` (see :mod:`repro.scenarios.fsck`)
scrubs a whole store for damage and ``--repair`` heals it in place.

The ``blame/`` space is the fleet-wide poison-unit ledger: one small
record per plan node that has crashed its executor, counted across every
cooperating worker (and across supervisor respawns).  The scheduler
consults it to force-degrade repeat offenders to solo dispatch and to
quarantine them outright before each worker burns its own
``max_pool_rebuilds`` on the same poison unit.

Hits and misses are counted into :func:`repro.perf.stats` under
``run_store_hits`` / ``run_store_misses`` and ``point_store_hits`` /
``point_store_misses``.

Fault injection: every run/point write passes through the
:mod:`repro.faults` ``store-write`` site, so CI can exercise the
reader-side healing paths (truncated payloads, slow disks) with
deterministic, seedable failures.

Layout (sharded by the first two characters of the key — hex digits for
content keys — so no directory ever holds more than ~1/256th of the
artifacts and listings stay fast at millions of stored points)::

    <root>/manifest.json
    <root>/objects/<xx>/<key>.json     (whole runs)
    <root>/points/<xx>/<key>.json      (individual plan nodes)
    <root>/failures/<xx>/<key>.json    (quarantined plan nodes)
    <root>/blame/<xx>/<key>.json       (fleet-wide poison-unit counts)
    <root>/leases/<xx>/<key>.claim     (fleet worker claims; see
                                        :mod:`repro.scenarios.lease`)

Stores written by earlier versions kept every artifact flat in its space
directory.  Reads fall back to the flat path transparently, so a legacy
store keeps working unmodified; writes always land sharded, and
:meth:`RunStore.migrate` (CLI: ``python -m repro migrate <dir>``) moves a
legacy store over wholesale.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import time
from collections.abc import Iterator
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, NamedTuple

from .. import faults
from ..errors import CorruptArtifactError, ValidationError
from ..perf import increment
from ..perf.retry import NodeFailure
from .spec import ScenarioSpec

MANIFEST_NAME = "manifest.json"
OBJECTS_DIR = "objects"
POINTS_DIR = "points"
FAILURES_DIR = "failures"
BLAME_DIR = "blame"
LEASES_DIR = "leases"
MANIFEST_VERSION = 1

ENVELOPE_KEY = "repro_envelope"
ENVELOPE_VERSION = 1
#: every envelope header starts with exactly these bytes (json.dumps of a
#: dict whose first key is ENVELOPE_KEY) — the legacy/envelope detector
ENVELOPE_PREFIX = f'{{"{ENVELOPE_KEY}"'


def artifact_checksum(body_text: str) -> str:
    """The envelope checksum of an artifact body: blake2b-128 of its bytes.

    Hashing the serialised bytes (not a re-canonicalised document) keeps
    verify-on-read cheap — one hash pass over the text that was going to
    be parsed anyway, no second ``json.dumps``.
    """
    return hashlib.blake2b(body_text.encode(), digest_size=16).hexdigest()


def render_artifact(payload: Any, *, envelope: bool = True) -> str:
    """Serialise ``payload`` for storage, integrity envelope included."""
    body = json.dumps(payload, indent=2) + "\n"
    if not envelope:
        return body
    header = json.dumps(
        {ENVELOPE_KEY: ENVELOPE_VERSION, "checksum": artifact_checksum(body)}
    )
    return header + "\n" + body


def parse_artifact(text: str, *, verify: bool = True) -> tuple[Any, bool]:
    """``(payload, enveloped)`` for a stored artifact's text.

    Enveloped artifacts are checksum-verified (unless ``verify=False``)
    before the body is parsed; envelope-less text parses as a legacy
    single-document artifact.  Any damage — torn header, checksum
    mismatch, unparseable body — raises
    :class:`~repro.errors.CorruptArtifactError`, which every store reader
    treats as a miss-plus-heal.
    """
    if text.startswith(ENVELOPE_PREFIX):
        header_text, sep, body = text.partition("\n")
        if not sep:
            raise CorruptArtifactError("artifact envelope has no body")
        try:
            header = json.loads(header_text)
        except json.JSONDecodeError as exc:
            raise CorruptArtifactError(
                f"unreadable artifact envelope header: {exc}"
            ) from None
        if verify and header.get("checksum") != artifact_checksum(body):
            increment("store_checksum_failures")
            raise CorruptArtifactError(
                "artifact body does not match its envelope checksum"
            )
        try:
            return json.loads(body), True
        except json.JSONDecodeError as exc:
            raise CorruptArtifactError(
                f"unparseable artifact body: {exc}"
            ) from None
    try:
        return json.loads(text), False
    except json.JSONDecodeError as exc:
        raise CorruptArtifactError(f"unparseable legacy artifact: {exc}") from None


def shard_prefix(key: str) -> str:
    """The shard directory a key files under: its first two characters.

    Content keys are blake2b hex digests, so this spreads artifacts
    uniformly over 256 buckets; the handful of non-hex keys (e.g.
    ``case_study:<hash>``) simply bucket by their prefix, which is still a
    valid directory name.  Keys shorter than two characters are padded so
    the shard name never collides with a flat ``<key>.json`` artifact.
    """
    return key[:2] if len(key) >= 2 else (key + "__")[:2]


def _fsync_dir(directory: Path) -> None:
    """Flush ``directory``'s entries, making a rename into it durable."""
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


#: a tmp file is created fresh (or truncated) and only ever written
_TMP_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_TRUNC


class _Staged(NamedTuple):
    """A fully written, not yet fsynced tmp file and the name it commits to."""

    fd: int
    tmp: Path
    path: Path


def _encode(
    payload: Any, fault_key: str | None = None, *, envelope: bool = False
) -> bytes:
    """The bytes an artifact is stored as.

    ``fault_key`` routes the write through the ``store-write``
    fault-injection site (delay or payload corruption) when the
    :mod:`repro.faults` registry is armed; ``envelope=True`` wraps the
    payload in the integrity envelope (injected corruption is applied to
    the *enveloped* text, so a truncated write always fails its own
    checksum).
    """
    text = render_artifact(payload, envelope=envelope)
    if fault_key is not None and faults.active():
        faults.inject("store-write", fault_key)
        text = faults.corrupt_text("store-write", fault_key, text)
    return text.encode()


def _stage(path: Path, data: bytes) -> _Staged:
    """Write ``data`` to a fresh tmp file beside ``path``, left open.

    The tmp name is unique per writer: cooperating fleet workers write
    the same (deterministic) artifacts concurrently, and a shared tmp
    name would let one worker rename another's half-written file away.
    A missing directory (a new shard, or one removed since) is made on
    demand, so the common write costs no ``mkdir``.
    """
    tmp = path.with_suffix(f".{os.getpid()}.{time.monotonic_ns():x}.tmp")
    try:
        fd = os.open(tmp, _TMP_FLAGS, 0o666)
    except FileNotFoundError:
        path.parent.mkdir(exist_ok=True)
        fd = os.open(tmp, _TMP_FLAGS, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view) :]
    except BaseException:
        os.close(fd)
        tmp.unlink(missing_ok=True)
        raise
    return _Staged(fd, tmp, path)


def _discard(staged: list[_Staged], *, close: bool) -> None:
    """Best-effort removal of tmp files that will never be renamed."""
    for item in staged:
        if close:
            os.close(item.fd)
        with contextlib.suppress(OSError):
            item.tmp.unlink(missing_ok=True)


def _commit_staged(staged: list[_Staged]) -> None:
    """fsync every staged tmp file, then rename each onto its name.

    The fsync-before-rename matters: without it a machine crash shortly
    after the rename can surface the *new name with old (empty) contents*
    on some filesystems — exactly the truncated-artifact shape the
    readers heal, but better never to write it.  Every fsync precedes
    every rename, so a group pays one pass of journal commits rather than
    one per file.  Whatever is not renamed when this raises is unlinked.
    """
    renamed = 0
    try:
        try:
            for item in staged:
                os.fsync(item.fd)
        finally:
            for item in staged:
                os.close(item.fd)
        for item in staged:
            os.replace(item.tmp, item.path)
            renamed += 1
    except BaseException:
        _discard(staged[renamed:], close=False)
        raise


def _write_json_atomic(
    path: Path,
    payload: Any,
    fault_key: str | None = None,
    *,
    envelope: bool = False,
    sync_dir: bool = False,
) -> None:
    """Write JSON atomically: serialise, fsync the tmp file, then rename.

    The rename itself is only durable once the parent directory is
    fsynced too, which ``sync_dir=True`` does (the system-of-record
    writes).  ``fault_key`` and ``envelope`` are :func:`_encode`'s.
    """
    data = _encode(payload, fault_key, envelope=envelope)
    _commit_staged([_stage(path, data)])
    if sync_dir:
        _fsync_dir(path.parent)


class RunStore:
    """A content-addressed artifact store for scenario results."""

    def __init__(self, root: str | Path, *, verify: bool = True) -> None:
        self.root = Path(root)
        #: checksum-verify enveloped artifacts on read (the production
        #: default; ``verify=False`` exists for the paired
        #: ``checksum_overhead`` bench measurement)
        self.verify = verify
        self.objects = self.root / OBJECTS_DIR
        self.objects.mkdir(parents=True, exist_ok=True)
        self.points = self.root / POINTS_DIR
        self.points.mkdir(parents=True, exist_ok=True)
        self.failures = self.root / FAILURES_DIR
        self.failures.mkdir(parents=True, exist_ok=True)
        self.blame = self.root / BLAME_DIR
        self.blame.mkdir(parents=True, exist_ok=True)
        self.leases = self.root / LEASES_DIR
        self.leases.mkdir(parents=True, exist_ok=True)
        # tracks "might any failure record exist?" so the per-point clear
        # on the happy path costs a boolean, not an unlink syscall
        self._has_failures = any(self._space_paths(self.failures))
        #: spaces that may hold legacy flat artifacts — only these pay a
        #: flat-twin unlink per write (a read falling back adds its space)
        spaces = (self.objects, self.points, self.failures, self.blame)
        self._flat_spaces = {s for s in spaces if any(s.glob("*.json"))}
        #: the open :meth:`batch`'s staged point writes (None: no batch)
        self._staged: list[_Staged] | None = None
        self._manifest_path = self.root / MANIFEST_NAME
        self._manifest = self._load_manifest()

    def _read_artifact(self, space: Path, key: str) -> Any | None:
        """The parsed (and checksum-verified) payload for ``key``, or None.

        Missing, unreadable, truncated, or checksum-failing artifacts all
        read as None; the caller decides whether to heal the file away.
        """
        path = self._read_path(space, key)
        if path is None:
            return None
        try:
            payload, _ = parse_artifact(path.read_text(), verify=self.verify)
        except (OSError, CorruptArtifactError):
            return None
        return payload

    # ------------------------------------------------------------------
    # sharded layout with transparent legacy (flat) read-back
    # ------------------------------------------------------------------
    @staticmethod
    def _sharded_path(space: Path, key: str, suffix: str = ".json") -> Path:
        return space / shard_prefix(key) / f"{key}{suffix}"

    @staticmethod
    def _flat_path(space: Path, key: str, suffix: str = ".json") -> Path:
        return space / f"{key}{suffix}"

    def _read_path(self, space: Path, key: str) -> Path | None:
        """The existing artifact for ``key``, sharded layout preferred."""
        path = self._sharded_path(space, key)
        if path.exists():
            return path
        legacy = self._flat_path(space, key)
        if legacy.exists():
            self._flat_spaces.add(space)
            return legacy
        return None

    def _write_path(self, space: Path, key: str) -> Path:
        """The (sharded) path a fresh artifact for ``key`` lands at."""
        if space in self._flat_spaces:
            # a rewrite must not leave a stale flat twin shadow-readable
            self._flat_path(space, key).unlink(missing_ok=True)
        return self._sharded_path(space, key)

    def _unlink(self, space: Path, key: str) -> None:
        """Remove ``key``'s artifact from ``space`` (both layouts)."""
        self._sharded_path(space, key).unlink(missing_ok=True)
        if space in self._flat_spaces:
            self._flat_path(space, key).unlink(missing_ok=True)

    @staticmethod
    def _space_paths(space: Path, suffix: str = ".json") -> list[Path]:
        """Every artifact in a space, flat and sharded layouts combined."""
        return [*space.glob(f"*{suffix}"), *space.glob(f"*/*{suffix}")]

    def migrate(self) -> dict[str, int]:
        """Move a legacy flat layout into shards; returns moved counts.

        Idempotent: an already-sharded store migrates zero artifacts.
        Run objects keep their manifest entries pointing at the new
        relative paths.
        """
        moved: dict[str, int] = {}
        spaces = (
            ("objects", self.objects, ".json"),
            ("points", self.points, ".json"),
            ("failures", self.failures, ".json"),
            ("blame", self.blame, ".json"),
            ("leases", self.leases, ".claim"),
        )
        for name, space, suffix in spaces:
            count = 0
            for path in sorted(space.glob(f"*{suffix}")):
                target = self._sharded_path(space, path.stem, suffix)
                target.parent.mkdir(exist_ok=True)
                path.replace(target)
                count += 1
            moved[name] = count
            self._flat_spaces.discard(space)
        if moved["objects"]:
            for key, entry in self._manifest["runs"].items():
                path = self._sharded_path(self.objects, key)
                if path.exists():
                    entry["path"] = str(path.relative_to(self.root))
            self._write_manifest()
        return moved

    def _load_manifest(self) -> dict[str, Any]:
        if not self._manifest_path.exists():
            return {"version": MANIFEST_VERSION, "runs": {}}
        try:
            manifest = json.loads(self._manifest_path.read_text())
        except json.JSONDecodeError as exc:
            raise ValidationError(
                f"corrupt run-store manifest {self._manifest_path}: {exc}"
            ) from None
        if manifest.get("version") != MANIFEST_VERSION:
            raise ValidationError(
                f"run-store manifest {self._manifest_path} has version "
                f"{manifest.get('version')!r}; this build understands {MANIFEST_VERSION}"
            )
        return manifest

    def _write_manifest(self) -> None:
        _write_json_atomic(self._manifest_path, self._manifest, sync_dir=True)

    # ------------------------------------------------------------------
    # content-addressed access: whole runs
    # ------------------------------------------------------------------
    def get(self, key: str) -> dict[str, Any] | None:
        """The stored payload for ``key``, or None (counts a hit/miss).

        An unreadable or corrupt object is a miss, not an error: the stale
        manifest entry is healed away so the next run re-solves and
        re-stores cleanly.
        """
        entry = self._manifest["runs"].get(key)
        path = self._read_path(self.objects, key)
        if entry is None or path is None:
            increment("run_store_misses")
            return None
        try:
            payload, _ = parse_artifact(path.read_text(), verify=self.verify)
        except (CorruptArtifactError, OSError):
            # heal: drop the manifest entry for the corrupt artifact
            del self._manifest["runs"][key]
            self._write_manifest()
            path.unlink(missing_ok=True)
            increment("store_integrity_heals")
            increment("run_store_misses")
            return None
        increment("run_store_hits")
        return payload

    def put(
        self, key: str, payload: dict[str, Any], spec: ScenarioSpec
    ) -> Path:
        """Store ``payload`` under ``key`` and index it in the manifest."""
        path = self._write_path(self.objects, key)
        _write_json_atomic(
            path, payload, fault_key=f"run:{key}", envelope=True, sync_dir=True
        )
        self._manifest["runs"][key] = {
            "scenario_id": spec.scenario_id,
            "path": str(path.relative_to(self.root)),
            "spec": spec.to_dict(),
            "created_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        }
        # merge entries a cooperating fleet worker indexed since we loaded
        # the manifest — a plain overwrite would un-index its runs (the
        # read-modify-write race stays, but every writer converges on the
        # union because run objects themselves are immutable)
        try:
            disk_runs = self._load_manifest()["runs"]
        except ValidationError:
            disk_runs = {}
        self._manifest["runs"] = {**disk_runs, **self._manifest["runs"]}
        self._write_manifest()
        return path

    # ------------------------------------------------------------------
    # content-addressed access: individual plan nodes
    # ------------------------------------------------------------------
    def get_point(self, key: str) -> dict[str, Any] | None:
        """The stored point payload for a plan-node ``key``, or None.

        Corrupt point objects are removed and counted as misses — the
        scheduler simply re-solves the node.
        """
        path = self._read_path(self.points, key)
        if path is None:
            increment("point_store_misses")
            return None
        try:
            payload, _ = parse_artifact(path.read_text(), verify=self.verify)
        except (CorruptArtifactError, OSError):
            path.unlink(missing_ok=True)
            increment("store_integrity_heals")
            increment("point_store_misses")
            return None
        increment("point_store_hits")
        return payload

    def put_point(self, key: str, payload: dict[str, Any]) -> Path | None:
        """Persist one plan node's payload (atomically; never raises on
        unserialisable payload metadata — the point is just not resumable).

        Inside :meth:`batch` the point is staged and lands when the block
        exits.  Not durable against a machine crash: no directory fsync,
        so a lost rename reads back as a miss and the node re-solves."""
        try:
            data = _encode(payload, f"point:{key}", envelope=True)
        except (TypeError, ValueError):
            increment("point_store_skipped")
            return None
        path = self._write_path(self.points, key)
        staged = _stage(path, data)
        if self._staged is None:
            _commit_staged([staged])
        else:
            self._staged.append(staged)
        return path

    @contextlib.contextmanager
    def batch(self) -> Iterator[None]:
        """Group-commit every :meth:`put_point` made inside the block.

        Each point is written to its tmp file as it is put; a normal exit
        fsyncs all of them, then renames each onto its name (see the
        module docstring for the crash guarantees).  An exception inside
        the block discards the staged files: none of its points land.
        """
        if self._staged is not None:
            raise RuntimeError("RunStore.batch() blocks do not nest")
        staged: list[_Staged] = []
        self._staged = staged
        try:
            yield
        except BaseException:
            _discard(staged, close=True)
            raise
        finally:
            self._staged = None
        _commit_staged(staged)

    def heal_point(self, key: str) -> None:
        """Drop a stored point whose payload turned out to be unusable.

        :meth:`get_point` already heals *unreadable* JSON; this is the
        hook for payloads that parse but decode to the wrong shape —
        the scheduler deletes them so the node re-solves cleanly.
        """
        self._unlink(self.points, key)

    def point_keys(self) -> list[str]:
        """Keys of every stored point object (both layouts)."""
        return sorted(p.stem for p in self._space_paths(self.points))

    # ------------------------------------------------------------------
    # the failure ledger: quarantined plan nodes
    # ------------------------------------------------------------------
    def put_failure(self, key: str, failure: NodeFailure) -> Path:
        """Record a quarantined node in the ``failures/`` space."""
        path = self._write_path(self.failures, key)
        _write_json_atomic(path, failure.to_payload(), envelope=True, sync_dir=True)
        self._has_failures = True
        return path

    def get_failure(self, key: str) -> NodeFailure | None:
        """The quarantine record for ``key``, or None (corruption = None)."""
        path = self._read_path(self.failures, key)
        if path is None:
            return None
        try:
            payload, _ = parse_artifact(path.read_text(), verify=self.verify)
            return NodeFailure.from_payload(payload)
        except (CorruptArtifactError, OSError, KeyError, TypeError):
            path.unlink(missing_ok=True)
            return None

    def failure_age_s(self, key: str) -> float | None:
        """Seconds since ``key``'s quarantine record was written, or None.

        Cooperating fleet workers use this to tell a failure quarantined
        *during the current run* (adopt it, don't burn a fresh retry
        budget on every worker) from a stale record left by an earlier
        invocation (which ``--resume`` deliberately re-attempts).
        """
        path = self._read_path(self.failures, key)
        if path is None:
            return None
        try:
            return max(0.0, time.time() - path.stat().st_mtime)
        except OSError:
            return None

    def clear_failure(self, key: str) -> None:
        """Erase ``key``'s quarantine record (a later solve succeeded)."""
        if self._has_failures:
            self._unlink(self.failures, key)

    def failure_keys(self) -> list[str]:
        """Keys of every quarantined node, sorted."""
        return sorted(p.stem for p in self._space_paths(self.failures))

    # ------------------------------------------------------------------
    # the blame ledger: fleet-wide poison-unit counts
    # ------------------------------------------------------------------
    def add_blame(self, key: str) -> int:
        """Count one executor crash against plan node ``key``; new total.

        A read-modify-write without locking: two workers blaming the same
        key at the same instant may lose one increment.  That only delays
        the poison threshold by one extra crash — acceptable for a ledger
        whose job is to stop *repeat* offenders — and every write is
        atomic, so the count never tears.
        """
        count = self.get_blame(key) + 1
        path = self._write_path(self.blame, key)
        _write_json_atomic(
            path,
            {"key": key, "count": count, "updated_unix": time.time()},
            envelope=True,
            sync_dir=True,
        )
        return count

    def get_blame(self, key: str) -> int:
        """Crash count recorded against ``key`` (0 if none/corrupt)."""
        payload = self._read_artifact(self.blame, key)
        if not isinstance(payload, dict):
            return 0
        count = payload.get("count")
        return count if isinstance(count, int) and count > 0 else 0

    def blame_counts(self) -> dict[str, int]:
        """Every blamed key and its count — one scan, for per-wave use."""
        counts: dict[str, int] = {}
        for path in self._space_paths(self.blame):
            count = self.get_blame(path.stem)
            if count:
                counts[path.stem] = count
        return counts

    def clear_blame(self, key: str) -> None:
        """Erase ``key``'s blame record (it finally solved cleanly)."""
        self._unlink(self.blame, key)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def manifest(self) -> dict[str, Any]:
        """The manifest index (a copy; mutate via :meth:`put` only)."""
        return json.loads(json.dumps(self._manifest))

    def keys(self) -> list[str]:
        """Stored run keys, in insertion order."""
        return list(self._manifest["runs"])

    def __contains__(self, key: object) -> bool:
        return key in self._manifest["runs"]

    def __len__(self) -> int:
        return len(self._manifest["runs"])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<RunStore {self.root} ({len(self)} runs)>"
