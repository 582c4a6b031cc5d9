#!/usr/bin/env python
"""Chaos soak: a supervised fleet survives kills, faults and laggy renames.

The self-healing stack (PR 9) makes four promises — supervision respawns
the dead, leases fence the commits, the store heals what breaks, drains
are graceful.  This harness checks them *together*, because the failure
modes compose: a worker SIGKILLed mid-``put_point`` while the rename
seam is laggy and a retry storm is in flight is exactly the state no
unit test constructs.

One soak cycle:

1. a **clean baseline**: the scenario batch runs single-process,
   fault-free, into its own store;
2. a **chaos run**: the same batch runs on a ``--workers`` supervised
   fleet while

   * a killer thread SIGKILLs random live workers (pids read from the
     fleet's heartbeat files) on a seeded schedule,
   * the :mod:`repro.faults` registry injects transient solver errors
     and delays (``error``/``delay`` kinds — ``crash`` is carried by the
     real SIGKILLs and ``corrupt`` is exercised by the fsck test suite;
     deterministically corrupting the same store write on every retry
     would *force* double-solves by design),
   * the :mod:`repro.fsshim` laggy-rename shim stretches every
     ``os.replace``/``os.link`` so lease renewals and steals race for
     real,
   * every worker appends its fenced point commits to a per-pid solve
     ledger (``REPRO_SOLVE_LEDGER``);

3. the gate asserts:

   * the fleet **completes**, every rank's final incarnation exits 0,
     and every kill was answered by a respawn (``respawns >= kills``);
   * the chaos store is **byte-identical** to the clean baseline — every
     assembled run payload (modulo wall-clock ``runtimes_ms``) and every
     point artifact (modulo ``solve_time``);
   * **zero double-solves**: no node key appears twice in the union of
     solve ledgers — the lease fencing held under every kill;
   * **no phantom commits**: every key in the union of solve ledgers is
     a stored point — a fenced commit that never became a file (a
     ledger entry written ahead of its group commit) fails the soak;
   * ``repro fsck`` finds **no damage** in the surviving store (notes
     such as tmp litter from killed writers are expected and allowed).

Usage::

    PYTHONPATH=src python scripts/chaos_soak.py [--seed 11] [--kills 2]
        [--workers 3] [--scenario fig7] [--deadline 300]
"""

from __future__ import annotations

import argparse
import os
import random
import shutil
import signal
import sys
import tempfile
import threading
import time
import warnings
from pathlib import Path

from repro import faults, fsshim
from repro.perf import RetryPolicy
from repro.scenarios import RunStore, run_batch, scrub
from repro.scenarios.fleet import run_fleet
from repro.scenarios.scheduler import SOLVE_LEDGER_ENV
from repro.scenarios.supervisor import read_heartbeat

#: retry budget matched to the soak's error rate (0.15): six independent
#: draws leave ~1e-5 per node of exhausting the budget — a failed soak
#: means broken machinery, not an unlucky seed
SOAK_RETRY = RetryPolicy(max_attempts=6, backoff_s=0.0)

FAULT_RATE = 0.15
FAULT_DELAY_S = 0.02
FSSHIM_DELAY_S = 0.01


def normalized_run(payload: dict) -> dict:
    payload = dict(payload)
    payload.pop("runtimes_ms", None)
    return payload


def normalized_point(payload: dict) -> dict:
    payload = dict(payload)
    payload.pop("solve_time", None)
    return payload


def _signalled(pid: int) -> bool:
    """Wait for worker ``pid`` to exit, without reaping it, and tell
    whether a signal ended it.

    A worker that has already exited (a zombie still answers signal 0;
    a respawned worker whose peers finished the batch exits at once,
    without a progress beat) or is inside its exit ignores the SIGKILL
    and keeps its own exit code, so the supervisor rightly respawns
    nothing: that SIGKILL is not a kill.
    """
    try:
        info = os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
    except ChildProcessError:  # reaped already, or not this process's child
        return True
    return info.si_code in (os.CLD_KILLED, os.CLD_DUMPED)


class Killer(threading.Thread):
    """Seeded SIGKILLs against live fleet workers, via their heartbeats."""

    def __init__(
        self, root: Path, workers: int, kills: int, seed: int
    ) -> None:
        super().__init__(daemon=True)
        self.root = root
        self.workers = workers
        self.kills = kills
        self.rng = random.Random(seed)
        self.stop = threading.Event()
        self.killed: list[int] = []
        #: pids the SIGKILL reached only after they had begun to exit
        self.missed: list[int] = []

    def _live_pids(self) -> list[int]:
        pids = []
        for rank in range(self.workers):
            beat = read_heartbeat(self.root, rank)
            # a fresh beat is the only evidence the pid is still the
            # worker's (stale heartbeats may name an exited incarnation,
            # and a killed pid stays signal-able as a zombie until the
            # supervisor reaps it — never spend a kill on it twice)
            if beat is None or beat.age_s() > 5.0 or beat.pid == os.getpid():
                continue
            if beat.pid in self.killed:
                continue
            # a worker that already reported full progress is finishing
            # up (or a completed zombie) — killing it proves nothing
            if beat.total > 0 and beat.done >= beat.total:
                continue
            try:
                os.kill(beat.pid, 0)
            except (ProcessLookupError, PermissionError):
                continue
            pids.append(beat.pid)
        return pids

    def run(self) -> None:
        delay = self.rng.uniform(0.2, 0.5)  # first kill lands early
        while len(self.killed) < self.kills and not self.stop.wait(delay):
            delay = self.rng.uniform(0.4, 1.0)
            pids = self._live_pids()
            if not pids:
                continue
            pid = self.rng.choice(sorted(pids))
            try:
                os.kill(pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                continue
            if _signalled(pid):
                self.killed.append(pid)
            else:
                self.missed.append(pid)


def soak(args: argparse.Namespace, work: Path) -> list[str]:
    """One soak cycle; returns the list of failed assertions."""
    clean_root = work / "clean"
    chaos_root = work / "chaos"
    ledger_dir = work / "ledger"
    ledger_dir.mkdir()
    problems: list[str] = []

    # ---- clean single-process baseline ------------------------------
    print(f"[soak] baseline: {args.scenario} single-process, fault-free")
    faults.reset()
    clean = RunStore(clean_root)
    run_batch(
        list(args.scenario), store=clean, fast=args.fast, retry=SOAK_RETRY
    )

    # ---- chaos fleet ------------------------------------------------
    print(
        f"[soak] chaos: {args.workers} supervised workers, "
        f"{args.kills} kills, faults armed (seed {args.seed})"
    )
    faults.configure(
        rate=FAULT_RATE,
        kinds=("error", "delay"),
        sites=faults.SITES,
        seed=args.seed,
        delay_s=FAULT_DELAY_S,
    )
    os.environ[fsshim.ENV_DELAY_S] = repr(FSSHIM_DELAY_S)
    os.environ[fsshim.ENV_SEED] = str(args.seed)
    os.environ[SOLVE_LEDGER_ENV] = str(ledger_dir)
    killer = Killer(chaos_root, args.workers, args.kills, args.seed)
    start = time.perf_counter()
    try:
        killer.start()
        outcome = run_fleet(
            list(args.scenario),
            store=chaos_root,
            workers=args.workers,
            fast=args.fast,
            ttl_s=2.0,
            retry=SOAK_RETRY,
            supervise=True,
            max_respawns=args.kills + 3,
            stall_timeout_s=30.0,
            deadline_s=args.deadline,
        )
    finally:
        killer.stop.set()
        killer.join(2.0)
        faults.reset()
        for var in (fsshim.ENV_DELAY_S, fsshim.ENV_SEED, SOLVE_LEDGER_ENV):
            os.environ.pop(var, None)
    elapsed = time.perf_counter() - start
    print(
        f"[soak] fleet finished in {elapsed:.1f}s: exit_codes="
        f"{outcome.exit_codes} kills={len(killer.killed)} "
        f"respawns={len(outcome.respawns)}"
    )
    for pid in killer.missed:
        print(f"[soak]   SIGKILL reached pid {pid} after its exit: not a kill")
    for event in outcome.respawns:
        print(
            f"[soak]   respawned rank {event['rank']} "
            f"(#{event['respawn']}, {event['reason']}, "
            f"prior exit {event['exit_code']}) at t+{event['at_s']}s"
        )

    # ---- gate: completion -------------------------------------------
    if not outcome.complete:
        problems.append("fleet did not complete the batch")
    if outcome.deadline_exceeded:
        problems.append("fleet hit the soak deadline")
    if any(code != 0 for code in outcome.exit_codes):
        problems.append(f"non-zero final exit codes: {outcome.exit_codes}")
    if len(outcome.respawns) < len(killer.killed):
        problems.append(
            f"{len(killer.killed)} kills but only "
            f"{len(outcome.respawns)} respawns recorded"
        )

    # ---- gate: byte-identity with the clean baseline ----------------
    chaos = RunStore(chaos_root)
    if sorted(clean.keys()) != sorted(chaos.keys()):
        problems.append(
            f"run-key mismatch: clean={sorted(clean.keys())} "
            f"chaos={sorted(chaos.keys())}"
        )
    run_diffs = sum(
        1
        for key in clean.keys()
        if normalized_run(clean.get(key) or {})
        != normalized_run(chaos.get(key) or {})
    )
    if run_diffs:
        problems.append(f"{run_diffs} assembled run payloads differ")
    clean_points = {k: clean.get_point(k) for k in clean.point_keys()}
    chaos_points = {k: chaos.get_point(k) for k in chaos.point_keys()}
    if sorted(clean_points) != sorted(chaos_points):
        only_clean = sorted(set(clean_points) - set(chaos_points))
        only_chaos = sorted(set(chaos_points) - set(clean_points))
        problems.append(
            f"point-key mismatch: {len(only_clean)} only-clean, "
            f"{len(only_chaos)} only-chaos"
        )
    point_diffs = sum(
        1
        for key in set(clean_points) & set(chaos_points)
        if normalized_point(clean_points[key] or {})
        != normalized_point(chaos_points[key] or {})
    )
    if point_diffs:
        problems.append(f"{point_diffs} point payloads differ")
    print(
        f"[soak] byte-identity: {len(clean_points)} points, "
        f"{len(clean.keys())} runs compared"
    )

    # ---- gate: zero double-solves -----------------------------------
    committed: list[str] = []
    for ledger in sorted(ledger_dir.glob("*.solves")):
        committed.extend(ledger.read_text().splitlines())
    doubles = sorted(
        {key for key in committed if committed.count(key) > 1}
    )
    if doubles:
        problems.append(
            f"{len(doubles)} keys committed twice (fencing broken): "
            f"{doubles[:3]}"
        )
    phantoms = sorted(set(committed) - set(chaos_points))
    if phantoms:
        problems.append(
            f"{len(phantoms)} ledgered commits are not stored points: "
            f"{phantoms[:3]}"
        )
    print(
        f"[soak] solve ledger: {len(committed)} fenced commits across "
        f"{len(list(ledger_dir.glob('*.solves')))} worker incarnations, "
        f"{len(doubles)} doubles, {len(phantoms)} phantoms"
    )

    # ---- gate: fsck finds no damage ---------------------------------
    report = scrub(chaos_root)
    if report.damage:
        problems.append(
            f"fsck found damage: "
            f"{[(f.kind, f.key) for f in report.damage][:5]}"
        )
    print(
        f"[soak] fsck: {report.scanned} artifacts scanned, "
        f"{len(report.damage)} damage, {len(report.notes)} notes"
    )
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scenario",
        nargs="+",
        default=["fig7", "fig5", "transient_spike"],
        help="scenario ids to soak (default: fig7 fig5 transient_spike — "
        "enough plan nodes that every kill lands on a worker with work "
        "left, so each one exercises a real respawn-and-resume)",
    )
    parser.add_argument("--workers", type=int, default=3)
    parser.add_argument(
        "--kills",
        type=int,
        default=2,
        help="SIGKILLs delivered to random live workers (default 2)",
    )
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument(
        "--deadline",
        type=float,
        default=300.0,
        help="whole-soak supervision deadline in seconds (default 300)",
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="full-size sweeps (default: fast mode)",
    )
    parser.add_argument(
        "--keep",
        type=Path,
        default=None,
        metavar="DIR",
        help="keep the stores/ledgers under DIR instead of a tempdir",
    )
    args = parser.parse_args(argv)
    args.fast = not args.full

    warnings.filterwarnings("ignore")
    if args.keep is not None:
        args.keep.mkdir(parents=True, exist_ok=True)
        work, cleanup = args.keep, False
    else:
        work, cleanup = Path(tempfile.mkdtemp(prefix="chaos-soak-")), True
    try:
        problems = soak(args, work)
    finally:
        if cleanup:
            shutil.rmtree(work, ignore_errors=True)
    if problems:
        print("[soak] FAILED:")
        for problem in problems:
            print(f"[soak]   - {problem}")
        return 1
    print(
        "[soak] PASSED: completion, byte-identity, zero double-solves, "
        "no phantom commits, fsck clean"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
