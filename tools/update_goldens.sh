#!/usr/bin/env bash
# Regenerates tests/golden/cycles.json from the current build. Run this
# only after an *intentional* timing-model change, and say why in the
# commit message — every other drift is a bug the goldens exist to catch.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake --preset default >/dev/null
cmake --build build --target golden_cycles_test -j"$(nproc)" >/dev/null

FPGADP_UPDATE_GOLDENS=1 ./build/tests/golden_cycles_test \
  --gtest_filter='GoldenCycles.MatchesBaseline'

# The refreshed baselines must hold under BOTH engines before they are
# worth committing: a golden that only the default event scheduler
# reproduces would lock in an equivalence bug, not a timing model, so the
# level-tick reference loop re-verifies it.
./build/tests/golden_cycles_test --gtest_filter='GoldenCycles.MatchesBaseline'
FPGADP_ENGINE=tick ./build/tests/golden_cycles_test \
  --gtest_filter='GoldenCycles.MatchesBaseline'

echo "updated tests/golden/cycles.json (verified under event + tick engines):"
cat tests/golden/cycles.json
