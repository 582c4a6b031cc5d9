#!/usr/bin/env sh
# One-command local PR gate: lint + tier-1 tests + benchmark quick mode.
#
# Usage:  scripts/check.sh
#   JOBS=N   worker count for the parallel bench measurement (default 4)
#
# Lint runs only when ruff is installed (the base image does not ship it);
# the tier-1 suite and the benchmark-regression quick gate always run.
set -eu
cd "$(dirname "$0")/.."

if command -v ruff >/dev/null 2>&1; then
    echo "== lint (ruff check)"
    ruff check src tests benchmarks
else
    echo "== lint skipped: ruff not installed (pip install ruff)" >&2
fi

echo "== tier-1 tests"
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m pytest -x -q

echo "== end-to-end benchmark harness tests (scheduler/executor trace seams)"
PYTHONPATH="src:.${PYTHONPATH:+:$PYTHONPATH}" python -m pytest -q perfbench/tests

echo "== physics-kind quick scenarios (transient + nonlinear)"
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m repro run transient_spike --fast >/dev/null
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m repro run nonlinear_hotspot --fast >/dev/null

echo "== all paper results as one plan (six payloads + EXPERIMENTS.md)"
all_tmp=$(mktemp -d)
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m repro all --fast \
    --fem-resolution coarse --no-calibrate --output-dir "$all_tmp" >/dev/null
for f in EXPERIMENTS.md fig4.json fig5.json fig6.json fig7.json table1.json \
    case_study.json; do
    if [ ! -s "$all_tmp/$f" ]; then
        echo "all: $f was not written" >&2
        exit 1
    fi
done
rm -rf "$all_tmp"

echo "== fault-injection matrix (crash/error/delay/corrupt at rate 0.2)"
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python scripts/fault_matrix.py

echo "== chaos soak (supervised fleet under kills + faults + laggy renames)"
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python scripts/chaos_soak.py

echo "== fsck CLI on a post-run store"
fsck_tmp=$(mktemp -d)
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" \
    python -m repro run fig7 --fast --store "$fsck_tmp/store" >/dev/null
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" \
    python -m repro fsck "$fsck_tmp/store"
rm -rf "$fsck_tmp"

echo "== benchmark quick gate"
benchmarks/run_bench.sh

echo "== all checks passed"
