"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sweep_store --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py``): ``sweep_store``, ``fleet_fem`` and
``cli_store_hit``; each is a closed loop with one client, its inputs made
from ``--seed``.  Stores live under ``.perfbench_work/`` in the checkout,
on its own filesystem.  ``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json`` with
no wrapper installed.  ``--trace 1`` alternates untraced and traced ops
for the same time and reports the per-layer metrics; traced ops wrap the
program's layer entry points from outside (see ``layers.py``) and print a
per-layer self-time table.  ``--workload all`` runs every workload in
turn.  Human-readable lines go first; the last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
exit code is 1 when any op's output check failed, 2 when the checkout has
no program source to measure.  Results, the generated specs and (traced)
the spans land in ``.perfbench_out/<workload>-seed<n>-trace<t>/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: set-up is repeated this many times per run and its median reported
SETUP_REPEATS = 3

#: (name, unit) of every end-to-end metric, in report order
END_TO_END = [
    ("setup_s", "s"),
    ("op_p50_s", "s"),
    ("points_per_s", "points/s"),
    ("ok_share", "ratio"),
    ("peak_rss_mb", "MB"),
    ("store_bytes_per_point", "B"),
]


def _child_import(ctx) -> dict[str, float]:
    """Import the program in a fresh interpreter; its startup figures."""
    out = ctx.work / "probe.json"
    subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "cli_driver.py"), "--probe", str(out)],
        cwd=ROOT,
        env=ctx.env(),
        check=True,
        timeout=120,
    )
    startup = json.loads(out.read_text())["startup"]
    startup.pop("import_span")
    out.unlink()
    return startup


def _bare_interpreter_s() -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)
    return time.perf_counter() - start


def _fs_type(path: Path) -> str:
    """Filesystem type of the mount holding ``path`` (from /proc/mounts)."""
    best, fstype = "", "unknown"
    try:
        lines = Path("/proc/mounts").read_text().splitlines()
    except OSError:
        return fstype
    target = str(path.resolve())
    for line in lines:
        parts = line.split()
        if len(parts) < 3:
            continue
        mount = parts[1]
        inside = target == mount or target.startswith(mount.rstrip("/") + "/")
        if inside and len(mount) > len(best):
            best, fstype = mount, parts[2]
    return fstype


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=30,
        )
    except OSError:
        return "unknown"
    return proc.stdout.strip() or "unknown"


def provenance(ctx, workload: str, seconds: int, trace: bool) -> dict:
    import numpy
    import scipy

    return {
        "workload": workload,
        "seed": ctx.seed,
        "seconds": seconds,
        "trace": trace,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "store_fs": _fs_type(ctx.work),
        "git_commit": _git_commit(),
        "platform": platform.platform(),
    }


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process and of its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _run_op(workload, k: int, tracer):
    """One op; one that raises is a failed op, not the end of the run."""
    from perfbench.workloads import Op

    start = time.perf_counter()
    try:
        return workload.op(k, tracer)
    except Exception as exc:  # noqa: BLE001 - the failure is reported per op
        return Op(time.perf_counter() - start, 0, 0.0, f"{type(exc).__name__}: {exc}")


def run_workload(name: str, seed: int, seconds: int, trace: bool, import_s: float) -> dict:
    """Set up, loop for ``seconds``, and summarise one workload."""
    from perfbench.tracing import Tracer, dump
    from perfbench.workloads import WORKLOADS, Context

    out = ROOT / ".perfbench_out" / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(out, ignore_errors=True)
    (out / "specs").mkdir(parents=True)
    work = ROOT / ".perfbench_work" / f"{name}-{os.getpid()}"
    ctx = Context(root=ROOT, work=work, out=out, seed=seed)
    tracer = Tracer() if trace else None
    try:
        work.mkdir(parents=True, exist_ok=True)
        workload = WORKLOADS[name](ctx)
        setups = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - start)

        # closed loop, one client; a traced run alternates plain and traced ops
        plain, traced = [], []
        start = time.perf_counter()
        while not plain or (trace and not traced) or time.perf_counter() - start < seconds:
            k = len(plain) + len(traced)
            if trace and k % 2 == 1:
                traced.append((k, _run_op(workload, k, tracer)))
            else:
                plain.append(_run_op(workload, k, None))
        startups = [op.startup for _, op in traced if op.startup]
        if trace and not startups:
            startups = [_child_import(ctx) for _ in range(SETUP_REPEATS)]
        info = provenance(ctx, name, seconds, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it

    ops = plain + [op for _, op in traced]
    failed = [op.error for op in ops if op.error]
    result = {
        "provenance": info,
        "attempted": len(ops),
        "failed": len(failed),
        "errors": failed[:10],
        "op_wall_s": [op.wall_s for op in plain],
        "import_s": import_s,
        "setup_s": setups,
    }
    if not trace:
        result.update(_end_to_end(plain, len(failed) / len(ops), import_s, setups))
    else:
        result.update(_per_layer(plain, traced, tracer, startups))
        dump(out / "spans.json", tracer.spans, workload=name, seed=seed)
    (out / "results.json").write_text(json.dumps(result, indent=2) + "\n")
    return result


def _end_to_end(plain, failed_share: float, import_s: float, setups) -> dict:
    """The ``BENCHMARK.json`` end-to-end metrics of an untraced run.

    ``setup_s`` is this process's import of the program plus the median of
    the workload's repeated set-ups.
    """
    from perfbench import summary

    walls = [op.wall_s for op in plain]
    return {
        "metrics": {
            "setup_s": import_s + summary.median(setups),
            "op_p50_s": summary.median(walls),
            "points_per_s": sum(op.points for op in plain) / sum(walls),
            "ok_share": 1.0 - failed_share,
            "peak_rss_mb": peak_rss_mb(),
            "store_bytes_per_point": summary.median([op.bytes_per_point for op in plain]),
        },
        "points_per_op": summary.median([op.points for op in plain]),
        "op_tail": summary.tail(walls),
    }


def _per_layer(plain, traced, tracer, startups) -> dict:
    """The per-layer metrics: medians over traced ops, plus the self-time table."""
    from perfbench import layers, summary

    per_op = []
    for k, op in traced:
        metrics = layers.op_metrics([s for s in tracer.spans if s.op == k], op.wall_s)
        metrics.update(layers.cache_hit_ratios(op.caches))
        per_op.append(metrics)
    metrics = {
        n: summary.median([m[n] for m in per_op if n in m]) for n, _, _ in layers.PER_LAYER
    }
    for key in ("startup.import_s", "startup.modules_loaded", "startup.scipy_loaded"):
        metrics[key] = summary.median([s[key] for s in startups])
    metrics["startup.bare_interp_s"] = summary.median(
        [_bare_interpreter_s() for _ in range(SETUP_REPEATS)]
    )
    metrics["fleet.speedup_vs_single"] = summary.median(
        [op.speedup for _, op in traced if op.speedup is not None]
    )
    traced_walls = [op.wall_s for _, op in traced]
    metrics["trace.overhead_ratio"] = summary.median(traced_walls) / summary.median(
        [op.wall_s for op in plain]
    )
    traced_ops = {k for k, _ in traced}
    return {
        "metrics": metrics,
        "self_time": layers.self_time_table([s for s in tracer.spans if s.op in traced_ops]),
        "traced_wall_s": sum(traced_walls),
    }


def report(name: str, result: dict, units: dict[str, str]) -> None:
    """Human-readable lines for one workload."""
    info = result["provenance"]
    print(
        f"[{name}] seed={info['seed']} attempted={result['attempted']} "
        f"failed={result['failed']} cpus={info['cpu_count']} fs={info['store_fs']} "
        f"python={info['python']} numpy={info['numpy']} scipy={info['scipy']} "
        f"commit={info['git_commit'][:12]}"
    )
    for error in result["errors"]:
        print(f"[{name}] FAILED CHECK: {error}")
    for metric, value in result["metrics"].items():
        print(f"[{name}] {metric} = {value:.6g} {units[metric]}")
    if "op_tail" in result:
        print(
            f"[{name}] failed_share = {result['failed'] / result['attempted']:.6g} ratio"
        )
        print(f"[{name}] points per op = {result['points_per_op']:g}")
        tail = result["op_tail"]
        if tail is None:
            print(
                f"[{name}] op_tail_s omitted: {len(result['op_wall_s'])} samples "
                "leave no percentile above the median with 10 beyond it"
            )
        else:
            pct, value, beyond = tail
            print(
                f"[{name}] op_tail_s = {value:.6g} s (p{pct:.1f}, "
                f"{len(result['op_wall_s'])} samples, {beyond} beyond)"
            )
    if "self_time" in result:
        from perfbench.layers import LAYERS

        wall = result["traced_wall_s"]
        note = ""
        if "fleet" in result["self_time"]:
            note = " (workers run in parallel: shares can pass 100%)"
        print(f"[{name}] per-layer self time over {wall:.3f} s of traced ops{note}:")
        rows = sorted(result["self_time"].items(), key=lambda kv: -kv[1][1])
        for layer, (calls, self_s) in rows:
            module = LAYERS.get(layer, "(benchmark op, unwrapped code)")
            share = self_s / wall if wall else 0.0
            print(
                f"    {layer:<10} {module:<32} calls={calls:<8d} "
                f"self={self_s:9.4f} s  {share:6.1%}"
            )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"error: no program source under {ROOT / 'src'}; "
            "run from the root of a full checkout",
            file=sys.stderr,
        )
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    start = time.perf_counter()
    from perfbench.workloads import WORKLOADS  # imports the program

    import_s = time.perf_counter() - start
    from perfbench.layers import PER_LAYER

    names = list(WORKLOADS) if args.workload == "all" else args.workload.split(",")
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        print(f"error: unknown workload(s) {unknown}; known: {list(WORKLOADS)}", file=sys.stderr)
        return 2
    units = dict(END_TO_END) | {n: u for n, u, _ in PER_LAYER}
    results = {}
    for name in names:
        results[name] = run_workload(
            name, args.seed, args.seconds, bool(args.trace), import_s
        )
        report(name, results[name], units)

    def entry(metric: str, value: float) -> dict:
        return {"value": value, "unit": units[metric.rsplit("/", 1)[-1]]}

    if len(names) == 1:
        metrics = {m: entry(m, v) for m, v in results[names[0]]["metrics"].items()}
    else:
        metrics = {
            f"{n}/{m}": entry(m, v)
            for n, r in results.items()
            for m, v in r["metrics"].items()
        }
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
