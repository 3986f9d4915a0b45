#!/bin/sh
# Fleet smoke test: two cisa_serve workers on TCP loopback behind a
# cisa_router, with a short mixed load pushed through the router by
# cisa_loadgen — zero lost requests required. First, each count flag
# (cisa_router --replicas, cisa_fleetd --workers, cisa_loadgen
# --conns) must refuse a malformed or out-of-range value with exit 2
# before its tool binds, forks or starts a thread, and so must
# cisa_loadgen's other integers (--count, --slab, a --mix weight) and
# cisa_client's operands before either connects. Seconds-scale at
# the tiny default simulation budget, and sanitizer-friendly: the
# fleet is real processes wired by --print-address files, so
# ASan/TSan/UBSan builds run it unchanged (no in-process forking).
#
# Registered with ctest as fleet_smoke (tests/CMakeLists.txt).
#
# Usage: scripts/fleet_smoke.sh [build-dir]
set -eu

build="${1:-build}"
root="$(cd "$(dirname "$0")/.." && pwd)"
case "$build" in
/*) bin="$build" ;;
*) bin="$root/$build" ;;
esac

serve="$bin/tools/cisa_serve"
router="$bin/tools/cisa_router"
fleetd="$bin/tools/cisa_fleetd"
loadgen="$bin/tools/cisa_loadgen"
client="$bin/tools/cisa_client"
for b in "$serve" "$router" "$fleetd" "$loadgen" "$client"; do
    if [ ! -x "$b" ]; then
        echo "error: $b not built (cmake --build)" >&2
        exit 1
    fi
done

# Tiny budget unless the caller pinned one; a private slab store so
# parallel test runs never collide.
: "${CISA_SIM_UOPS:=600}"
export CISA_SIM_UOPS
: "${CISA_SIM_WARMUP:=100}"
export CISA_SIM_WARMUP
tmp="$(mktemp -d /tmp/cisa_fleet_smoke.XXXXXX)"
export CISA_DSE_CACHE="$tmp/store.bin"

pids=""
cleanup() {
    for p in $pids; do kill "$p" 2>/dev/null || true; done
    for p in $pids; do wait "$p" 2>/dev/null || true; done
    rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

# Rejections: only zero, negative, malformed and just-past-the-end
# values, so a tool that wrongly accepted one would start small (and
# be stopped by the timeout). test_common checks the upper bounds on
# the parser. A --mix item is refused by its weight, the part after
# '='. The address is unreachable: a tool that got as far as
# connecting would fail with another status.
# Usage: refuse TOOL FLAG VALUE [ARGS...]
refuse() {
    tool="$1" flag="$2" value="$3"
    shift 3
    set +e
    timeout 20 "$tool" "$@" "$flag" "$value" --address 127.0.0.1:0 \
        --print-address "$tmp/bad" >"$tmp/bad.log" 2>&1
    rc=$?
    set -e
    if [ "$rc" -ne 2 ] || [ -e "$tmp/bad" ] ||
        ! grep -qF -- "$flag: '${value#*=}' is not an integer" \
            "$tmp/bad.log"; then
        echo "error: '$tool $flag $value' exited $rc" \
            "(want 2, nothing bound, the flag named)" >&2
        cat "$tmp/bad.log" >&2
        exit 1
    fi
}
refuse "$router" --replicas 0 --worker 127.0.0.1:1
refuse "$router" --replicas 12x --worker 127.0.0.1:1
refuse "$fleetd" --workers 0 --dir "$tmp/fleetd"
refuse "$fleetd" --workers -2 --dir "$tmp/fleetd"
refuse "$loadgen" --conns 0 --count 1
refuse "$loadgen" --conns x --count 1
refuse "$loadgen" --count 3x
refuse "$loadgen" --mix ping=x --count 1
refuse "$loadgen" --slab 29 --count 1
refuse "$client" slab abc
[ ! -e "$tmp/fleetd" ] || {
    echo "error: cisa_fleetd acted on a refused flag" >&2
    exit 1
}

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

# Mixed traffic through the router, one pinned slab (computing the
# whole slab set is the perf bench's job, not the smoke's). The
# loadgen exits non-zero if any request is lost.
"$loadgen" --address "$rt" --conns 2 --count 80 --slab 2 \
    --mix "slab=4,ping=2,table=1,eval=1" --retries 2
echo "fleet smoke: ok ($w1 + $w2 behind $rt)"
