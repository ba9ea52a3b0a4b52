#!/usr/bin/env bash
# The one-command CI gate: lint, tier-1 and benchmark-harness tests,
# then the smoke experiment matrix against its committed baseline
# (docs/EXPERIMENTS.md).
#
#   scripts/check.sh            # everything
#   SKIP_TESTS=1 scripts/check.sh   # lint + matrix gate only
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== ruff =="
if command -v ruff >/dev/null 2>&1; then
    ruff check .
elif python -c 'import ruff' >/dev/null 2>&1; then
    python -m ruff check .
else
    echo "ruff not installed; skipping lint"
fi

if [ "${SKIP_TESTS:-0}" != "1" ]; then
    echo "== tier-1 pytest =="
    python -m pytest -x -q

    # The benchmark imports the cluster and server builders directly;
    # its own tests catch a refactor that breaks them.
    echo "== benchmark harness tests =="
    python -m pytest -q perfbench/tests
fi

echo "== smoke experiment matrix =="
python -m repro expt run --smoke --out results/smoke
python -m repro expt gate --manifest results/smoke/matrix.json

echo "== cluster smoke scenario =="
python -m repro cluster --smoke

echo "== profiler smoke =="
python -m repro profile --smoke

echo "check.sh: all gates passed"
