#!/bin/sh
# dcsim smoke test: run the datacenter simulator twice on the same
# seed — once answering slab queries in-process, once against a live
# 2-worker cisa-serve fleet behind a router — and require the
# deterministic JSON summaries to be byte-identical. This is the
# determinism contract's hardest leg: the whole placement trace must
# not care where the tables came from. Before the fleet starts, a
# refused --cores must exit 2.
#
# Registered with ctest as dcsim_smoke (tests/CMakeLists.txt).
#
# Usage: scripts/dcsim_smoke.sh [build-dir]
set -eu

build="${1:-build}"
root="$(cd "$(dirname "$0")/.." && pwd)"
case "$build" in
/*) bin="$build" ;;
*) bin="$root/$build" ;;
esac

serve="$bin/tools/cisa_serve"
router="$bin/tools/cisa_router"
dcsim="$bin/tools/cisa_dcsim"
for b in "$serve" "$router" "$dcsim"; do
    if [ ! -x "$b" ]; then
        echo "error: $b not built (cmake --build)" >&2
        exit 1
    fi
done

# Tiny budget unless the caller pinned one; a private slab store so
# parallel test runs never collide. Both the workers and the local
# run share the store path, so the tables themselves are identical —
# what the test checks is the transport and the simulator.
: "${CISA_SIM_UOPS:=600}"
export CISA_SIM_UOPS
: "${CISA_SIM_WARMUP:=100}"
export CISA_SIM_WARMUP
tmp="$(mktemp -d /tmp/cisa_dcsim_smoke.XXXXXX)"
export CISA_DSE_CACHE="$tmp/store.bin"

pids=""
cleanup() {
    for p in $pids; do kill "$p" 2>/dev/null || true; done
    for p in $pids; do wait "$p" 2>/dev/null || true; done
    rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

# A malformed or out-of-range integer flag exits 2 before the
# simulator allocates anything: --cores -1 once wrapped to 2^64-1
# tiles.
set +e
timeout 20 "$dcsim" --cores -1 --json >"$tmp/bad.log" 2>&1
rc=$?
set -e
if [ "$rc" -ne 2 ] ||
    ! grep -qF -- "--cores: '-1' is not an integer" "$tmp/bad.log"; then
    echo "error: 'cisa_dcsim --cores -1' exited $rc" \
        "(want 2, the flag named)" >&2
    cat "$tmp/bad.log" >&2
    exit 1
fi

wait_addr() {
    i=0
    while [ ! -s "$1" ]; do
        i=$((i + 1))
        if [ "$i" -gt 300 ]; then
            echo "error: $1 never appeared" >&2
            exit 1
        fi
        sleep 0.1
    done
    cat "$1"
}

"$serve" --address 127.0.0.1:0 --print-address "$tmp/w1" \
    >"$tmp/w1.log" 2>&1 &
pids="$pids $!"
"$serve" --address 127.0.0.1:0 --print-address "$tmp/w2" \
    >"$tmp/w2.log" 2>&1 &
pids="$pids $!"
w1="$(wait_addr "$tmp/w1")"
w2="$(wait_addr "$tmp/w2")"

"$router" --worker "$w1" --worker "$w2" --address 127.0.0.1:0 \
    --print-address "$tmp/rt" >"$tmp/rt.log" 2>&1 &
pids="$pids $!"
rt="$(wait_addr "$tmp/rt")"

# Two tile classes -> two slabs, small enough for the tiny budget.
args="--cores 48 --jobs 300 --mix x86=2,thumb=1 --seed 11 --json"

# Fleet-served run first: the workers compute the slabs and persist
# them into the shared store, so the local run that follows reads
# the very same bytes instead of recomputing.
# shellcheck disable=SC2086  # word splitting of $args is the point
"$dcsim" $args --fleet "$rt" >"$tmp/fleet.json"
"$dcsim" $args >"$tmp/local.json"

if ! cmp -s "$tmp/local.json" "$tmp/fleet.json"; then
    echo "error: local and fleet-served runs diverged" >&2
    diff "$tmp/local.json" "$tmp/fleet.json" >&2 || true
    exit 1
fi

# A different policy must change the trace (the simulator is not
# ignoring its policy input), while rerunning the same one must not.
# shellcheck disable=SC2086
"$dcsim" $args --policy random >"$tmp/rnd.json"
if cmp -s "$tmp/local.json" "$tmp/rnd.json"; then
    echo "error: policy change did not change the run" >&2
    exit 1
fi

echo "dcsim smoke: ok (local == fleet via $rt)"
