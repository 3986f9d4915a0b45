#!/bin/sh
# Build and run the fault-injection-heavy tests under each sanitizer
# configuration. The fault plane's whole point is to exercise rarely
# taken error paths; this makes sure those paths are also clean under
# ASan+UBSan (memory / UB), UBSan alone, and TSan (the injected
# failures race against the executor pool, the router's health prober
# and the slab store's cross-process locking). The compiler pass
# tests ride along: their hand-built IR drives LVN, DCE,
# if-conversion and the allocator's spill paths, block- and
# vreg-indexed code of the kind ASan and UBSan catch reading out of
# bounds, and the golden O1 test pins the whole mid-end. The
# stage-1 artifact test covers the shared image templates and the
# build-once memo that concurrent evaluations race on. The parallel
# test checks the one production slab path (stage-1 fan-out, stream
# TaskGroup, lockstep walks, fold) at 1 and 4 threads and against the
# live per-cell oracle, so TSan sees the slab's whole pool fan-out;
# its shared-phase test (CampaignDeterminism.SharedPhasesMatchRecompute)
# folds slabs from the cross-slab PhaseSimMemo, in order and with a
# P/F slab pair computing at once over one memo, which is the memo's
# TSan case.
# The timing test's seeded differential cases drive the vector
# kernel, per-cell replay and the live engine over random slices,
# cells and traces, including stamps near the vector kernel's 32-bit
# bound, so ASan and UBSan see every cycle kernel's indexing.
#
# Not registered with ctest (it configures and builds three extra
# trees); run it by hand or from CI:
#
#   scripts/san_tests.sh [jobs]
set -eu

jobs="${1:-$(nproc 2>/dev/null || echo 4)}"
root="$(cd "$(dirname "$0")/.." && pwd)"

tests="test_faultinject test_slabstore test_service test_passes \
test_compile_units test_artifact test_parallel test_uarch"

run_config() {
    name="$1"
    dir="$root/build-$name"
    echo "=== $name: cmake -DCISA_SANITIZE=$name ==="
    mkdir -p "$dir"
    cmake -S "$root" -B "$dir" -DCISA_SANITIZE="$name" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo >"$dir/configure.log" \
        2>&1 || {
        cat "$dir/configure.log" >&2
        exit 1
    }
    # shellcheck disable=SC2086  # $tests is a deliberate word list
    cmake --build "$dir" -j "$jobs" --target $tests \
        >"$dir/build.log" 2>&1 || {
        tail -40 "$dir/build.log" >&2
        exit 1
    }
    for t in $tests; do
        echo "--- $name/$t ---"
        CISA_THREADS=4 "$dir/tests/$t"
    done
}

run_config asan
run_config ubsan
run_config tsan

echo "san tests: ok (asan+ubsan, ubsan, tsan)"
