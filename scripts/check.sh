#!/usr/bin/env bash
# Full verification in one invocation:
#   1. regular build, with every compiler warning an error, + the
#      complete test suite, then the cluster benchmark's smoke run
#      (clusterbench/smoke.py: every workload for 2 s, untraced and
#      traced, through the rig's dispatcher front),
#   2. ThreadSanitizer build + the tier-1 and chaos labeled tests,
#   3. AddressSanitizer build + the tier-1 and chaos labeled tests,
#   4. UndefinedBehaviorSanitizer build (recovery off) + tier-1 tests.
# The parallel execution layer's data-race budget is zero, and every new
# parallel stage (sharded study, multi-start fits, metric fan-out) is
# covered by tier-1 determinism contracts, so both sanitizers run the
# whole tier-1 label rather than a hand-picked regex. The chaos label
# (deterministic fault-injection sweeps over the replication service) runs
# under TSan and ASan too: fault paths exercise exception propagation
# across threads, watchdog cancellation, and server shutdown — exactly
# where races and lifetime bugs hide.
#
# The cluster label (TCP/Unix transports, consistent-hash dispatcher,
# disk cache, supervised backend processes) gets its own TSan and ASan
# stage instead of riding in the main sweeps: those tests spin real
# listening sockets, client pools, and fork/exec'd child processes, so
# they are kept apart both for runtime and so a cluster-layer failure is
# immediately attributable.
#
# The overload label (two-lane admission, deadline propagation, hedged
# reads, net.* transport chaos) also gets dedicated TSan and ASan
# stages: every dispatcher worker shares the per-backend connection
# pools, and a hedged attempt juggles two pooled connections, closing
# the loser mid-reply while its backend is still writing — precisely the
# code a data-race or use-after-free detector must see under load.
#
# The streaming label (live-population arrivals, incremental window
# state, cold refits of each window, the served stream op family)
# likewise runs as its own TSan and ASan stage: its cluster suites spin
# socket-served backends and a replicating dispatcher, and the absorb
# path mutates per-stream state under the server's worker threads — the
# exact shape where a missing lock shows up only under a race detector.
#
# The smoke run builds the benchmark's own Release tree into .bench_build/
# on first use (a few minutes on 4 cores); later runs rebuild only what
# changed. It fails when any run answers wrongly, fails a request, or
# reports metric names BENCHMARK.json does not list.
#
# The soak label (20x kill/restart endurance loop under load) is excluded
# from every default sweep; opt in with --soak.
#
# Several suites fork/exec real cluster_backend processes. Leaking one
# would poison every later stage (port/socket collisions, stray writes
# to /tmp caches), so after each stage that runs them we fail fast if
# any orphaned backend survived, or if the stage left a test socket
# (/tmp/decompeval-*.sock) that was not there before it.
#
# Usage: scripts/check.sh [--sanitizers-only] [--soak]
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 2)"

RUN_SOAK=0
RUN_REGULAR=1
for arg in "$@"; do
  case "$arg" in
    --sanitizers-only) RUN_REGULAR=0 ;;
    --soak) RUN_SOAK=1 ;;
    *) echo "unknown flag: $arg" >&2; exit 2 ;;
  esac
done

# Fail fast on orphaned backend processes: a supervisor or test that
# exits without reaping its fork/exec'd children leaves cluster_backend
# processes behind, and every later stage inherits the mess.
assert_no_orphaned_backends() {
  # Any cluster_backend invocation counts, not only '--socket' ones —
  # new spawn styles must not slip past the check — and a leaked test
  # binary still serving sockets is the same poison with a different name.
  if pgrep -f '[c]luster_backend' >/dev/null 2>&1; then
    echo "FATAL: orphaned cluster_backend process(es) after $1:" >&2
    pgrep -af '[c]luster_backend' >&2
    exit 1
  fi
  if pgrep -f '[t]est_(cluster_chaos|supervisor|soak|overload_chaos|streaming)' >/dev/null 2>&1; then
    echo "FATAL: orphaned test process(es) after $1:" >&2
    pgrep -af '[t]est_(cluster_chaos|supervisor|soak|overload_chaos|streaming)' >&2
    exit 1
  fi
  # The streaming walkthrough serves sockets in-process; a leaked run
  # squats on /tmp log dirs the same way a leaked backend squats caches.
  if pgrep -f '[s]treaming_demo' >/dev/null 2>&1; then
    echo "FATAL: orphaned streaming_demo process(es) after $1:" >&2
    pgrep -af '[s]treaming_demo' >&2
    exit 1
  fi
}

# Fail on leaked test sockets: each test removes the sockets it binds,
# including one a SIGKILLed backend could not unlink. snapshot_sockets
# records the ones already there before a stage.
test_sockets() {
  find /tmp -maxdepth 1 -name 'decompeval-*.sock' | sort
}
snapshot_sockets() {
  SOCKETS_BEFORE="$(test_sockets)"
}
assert_no_leaked_sockets() {
  local leaked
  leaked="$(comm -13 <(echo "$SOCKETS_BEFORE") <(test_sockets))"
  if [[ -n "$leaked" ]]; then
    echo "FATAL: test socket(s) left in /tmp after $1:" >&2
    echo "$leaked" >&2
    exit 1
  fi
}

if [[ "$RUN_REGULAR" == 1 ]]; then
  echo "=== regular build (warnings are errors) + full test suite ==="
  cmake -B build -S . -DDECOMPEVAL_WARNINGS_AS_ERRORS=ON
  cmake --build build -j "$JOBS"
  snapshot_sockets
  ctest --test-dir build --output-on-failure -j "$JOBS" -LE soak
  echo "=== streaming walkthrough: crash, journal replay, same bytes ==="
  # The walkthrough exits non-zero when the replayed stream's digest or
  # dashboard bytes differ from those before its simulated crash.
  ./build/examples/streaming_demo
  assert_no_orphaned_backends "the regular test suite"
  assert_no_leaked_sockets "the regular test suite"

  echo "=== cluster benchmark smoke: every workload, untraced and traced ==="
  python3 clusterbench/smoke.py

  if [[ "$RUN_SOAK" == 1 ]]; then
    echo "=== soak: restart endurance loop under load (label: soak) ==="
    snapshot_sockets
    ctest --test-dir build --output-on-failure -L soak
    assert_no_orphaned_backends "the soak stage"
    assert_no_leaked_sockets "the soak stage"
  fi
fi

echo "=== ThreadSanitizer build + tier-1 + chaos tests ==="
cmake -B build-tsan -S . -DDECOMPEVAL_SANITIZE=thread
cmake --build build-tsan -j "$JOBS"
ctest --test-dir build-tsan --output-on-failure -j "$JOBS" -L 'tier1|chaos' -LE 'cluster|streaming|soak'

echo "=== ThreadSanitizer: cluster tests (transports, dispatcher, cache) ==="
snapshot_sockets
ctest --test-dir build-tsan --output-on-failure -j "$JOBS" -L cluster -LE 'streaming|soak'
assert_no_orphaned_backends "the TSan cluster stage"
assert_no_leaked_sockets "the TSan cluster stage"

echo "=== ThreadSanitizer: overload suite (lanes, deadlines, hedged reads) ==="
snapshot_sockets
ctest --test-dir build-tsan --output-on-failure -L overload
assert_no_orphaned_backends "the TSan overload stage"
assert_no_leaked_sockets "the TSan overload stage"

echo "=== ThreadSanitizer: streaming suite (arrivals, windows, refits) ==="
snapshot_sockets
ctest --test-dir build-tsan --output-on-failure -L streaming
assert_no_orphaned_backends "the TSan streaming stage"
assert_no_leaked_sockets "the TSan streaming stage"

echo "=== AddressSanitizer build + tier-1 + chaos tests ==="
cmake -B build-asan -S . -DDECOMPEVAL_SANITIZE=address
cmake --build build-asan -j "$JOBS"
ctest --test-dir build-asan --output-on-failure -j "$JOBS" -L 'tier1|chaos' -LE 'cluster|streaming|soak'

echo "=== AddressSanitizer: cluster tests (transports, dispatcher, cache) ==="
snapshot_sockets
ctest --test-dir build-asan --output-on-failure -j "$JOBS" -L cluster -LE 'streaming|soak'
assert_no_orphaned_backends "the ASan cluster stage"
assert_no_leaked_sockets "the ASan cluster stage"

echo "=== AddressSanitizer: overload suite (lanes, deadlines, hedged reads) ==="
snapshot_sockets
ctest --test-dir build-asan --output-on-failure -L overload
assert_no_orphaned_backends "the ASan overload stage"
assert_no_leaked_sockets "the ASan overload stage"

echo "=== AddressSanitizer: streaming suite (arrivals, windows, refits) ==="
snapshot_sockets
ctest --test-dir build-asan --output-on-failure -L streaming
assert_no_orphaned_backends "the ASan streaming stage"
assert_no_leaked_sockets "the ASan streaming stage"

echo "=== UndefinedBehaviorSanitizer build + tier-1 tests ==="
cmake -B build-ubsan -S . -DDECOMPEVAL_SANITIZE=undefined
cmake --build build-ubsan -j "$JOBS"
ctest --test-dir build-ubsan --output-on-failure -j "$JOBS" -L tier1 -LE soak

echo "=== UBSan kernel differentials, forced-scalar (-DDECOMPEVAL_NO_SIMD) ==="
# The tier-1 sweep above already ran the kernel differential tests with
# the fast kernels on; this stage rebuilds just those binaries with the
# escape hatch engaged so the reference fallbacks also run UB-clean.
# test_embed's golden corpus and model digests then run on the map-based
# reference co-occurrence counting, which the escape hatch selects.
cmake -B build-ubsan-nosimd -S . -DDECOMPEVAL_SANITIZE=undefined \
  -DDECOMPEVAL_NO_SIMD=ON
cmake --build build-ubsan-nosimd -j "$JOBS" --target test_kernels test_embed
./build-ubsan-nosimd/tests/test_kernels
./build-ubsan-nosimd/tests/test_embed

echo "=== UBSan mixed-model oracles, forced-scalar ==="
# The escape hatch also puts both fitters on the dense reference
# factorization, so the frozen GLMM/LMM oracles run here against the
# dense path, as the tier-1 sweep ran them against the block-arrow one.
cmake --build build-ubsan-nosimd -j "$JOBS" \
  --target test_oracle_mixed test_mixed_models
./build-ubsan-nosimd/tests/test_oracle_mixed
./build-ubsan-nosimd/tests/test_mixed_models

echo "=== UBSan annotate differentials, forced-scalar ==="
# The annotate op carries its own differential contracts — served
# responses bit-identical to offline lint at every thread count, warm
# (incremental) bit-identical to cold (from-scratch) — so the suites
# that enforce them run against the forced-scalar build too, proving
# the annotation engine's sliced-parallel path UB-clean on both kernel
# configurations.
cmake --build build-ubsan-nosimd -j "$JOBS" --target test_annotate test_spans
./build-ubsan-nosimd/tests/test_annotate
./build-ubsan-nosimd/tests/test_spans

echo "=== all checks passed ==="
