#!/bin/sh
# Chaos soak: a supervised 4-worker fleet (cisa_fleetd) with the
# deterministic fault plane armed at ~1% on every syscall boundary
# (CISA_FAULTS on the fleet process tree only — the load generator
# runs clean), driven by cisa_loadgen with byte-identity verification
# while the script runs three drills against it:
#
#   1. stale drill    — SIGTERM each worker in turn; its drain window
#                       serves cached answers with the stale bit set
#                       before the supervisor restarts it
#   2. kill drill     — SIGKILL one worker repeatedly; the router
#                       marks it down on its first failed relay and
#                       counts a rejoin when a health ping (or a
#                       relay) reaches the restarted worker
#   3. crash-loop     — the repeated kills land under the lowered
#                       CISA_SUPERVISE_CRASHLOOP threshold, so the
#                       supervisor declares the worker crash-looping,
#                       holds it at max backoff, and lets it rejoin
#
# Pass criteria: zero lost requests, zero byte mismatches, >= 1 stale
# serve observed by the client, >= 1 down-mark and rejoin,
# supervisor restarts for every kill, injected faults actually fired,
# and the fleet still answers a clean load after the chaos.
#
# Registered with ctest as chaos_soak (LABELS chaos).
#
# Usage: scripts/chaos_soak.sh [build-dir]
set -eu

build="${1:-build}"
root="$(cd "$(dirname "$0")/.." && pwd)"
case "$build" in
/*) bin="$build" ;;
*) bin="$root/$build" ;;
esac

fleetd="$bin/tools/cisa_fleetd"
loadgen="$bin/tools/cisa_loadgen"
client="$bin/tools/cisa_client"
for b in "$fleetd" "$loadgen" "$client"; do
    if [ ! -x "$b" ]; then
        echo "error: $b not built (cmake --build)" >&2
        exit 1
    fi
done

: "${CISA_SIM_UOPS:=600}"
export CISA_SIM_UOPS
: "${CISA_SIM_WARMUP:=100}"
export CISA_SIM_WARMUP
tmp="$(mktemp -d /tmp/cisa_chaos.XXXXXX)"
export CISA_DSE_CACHE="$tmp/store.bin"

pids=""
cleanup() {
    for p in $pids; do kill "$p" 2>/dev/null || true; done
    for p in $pids; do wait "$p" 2>/dev/null || true; done
    rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

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

fail() {
    echo "chaos soak: FAIL: $*" >&2
    echo "--- fleetd log ---" >&2
    cat "$tmp/fleetd.log" >&2 || true
    echo "--- load json ---" >&2
    cat "$tmp/load.json" >&2 || true
    exit 1
}

# One numeric field out of the loadgen's --json report.
jget() {
    sed -n "s/^  \"$1\": \([0-9]*\),*\$/\1/p" "$2"
}

# The fault plane is armed on the fleet only; the seed is pinned so a
# failure reproduces with the same injected schedule. exec.delay is
# deliberately chunky (120 ms on half the executor jobs) so there is
# nearly always work in flight — that is what holds a SIGTERM'd
# worker's drain window open long enough for the stale drill to land
# cache hits inside it.
soak_faults="net.read:p=0.01;net.write:p=0.01;net.connect:p=0.01"
soak_faults="$soak_faults;disk.write:p=0.02;disk.fsync:nth=7"
soak_faults="$soak_faults;exec.delay:p=0.5,ms=120"

env CISA_FAULTS="$soak_faults" CISA_FAULTS_SEED=1234 \
    CISA_SUPERVISE_BACKOFF_MS=50 CISA_SUPERVISE_BACKOFF_MAX_MS=400 \
    CISA_SUPERVISE_STABLE_MS=1500 CISA_SUPERVISE_CRASHLOOP=3 \
    "$fleetd" --dir "$tmp/socks" --workers 4 --address 127.0.0.1:0 \
    --print-address "$tmp/rt" >"$tmp/fleetd.log" 2>&1 &
fleetd_pid=$!
pids="$pids $fleetd_pid"
rt="$(wait_addr "$tmp/rt")"

# Warm the workers' response caches so the stale drill's drain
# windows have something cached to serve. No evals here or in the
# main mix: a cold eval computes a whole slab (seconds), which would
# stall the closed-loop connections and starve the drill windows.
"$loadgen" --address "$rt" --conns 2 --count 60 --slab 2 \
    --mix "slab=3,table=2,ping=1" --retries 8 >"$tmp/warm.txt" ||
    fail "warm-up load lost requests"

# Main verified load, running through all three drills.
"$loadgen" --address "$rt" --conns 4 --duration-ms 12000 --slab 2 \
    --mix "slab=4,ping=2,table=2" --retries 8 \
    --verify-bytes --json >"$tmp/load.json" 2>"$tmp/load.err" &
lg=$!
pids="$pids $lg"

sleep 1
# Drill 1: drain every worker once (slab 2's replica owners are
# among them, so some cached answers get served stale mid-drain).
for i in 0 1 2 3; do
    pkill -TERM -f "$tmp/socks/w$i.sock" 2>/dev/null || true
    sleep 0.7
done
# Drills 2+3: kill w0 hard, repeatedly. The first death follows a
# stable run; the next three are short runs, crossing the lowered
# crash-loop threshold, and the router marks w0 down after each.
kills=0
for i in 1 2 3 4; do
    if pkill -KILL -f "$tmp/socks/w0.sock" 2>/dev/null; then
        kills=$((kills + 1))
    fi
    sleep 0.6
done

rc=0
wait "$lg" || rc=$?
[ "$rc" -eq 0 ] || fail "verified load exited $rc (see load.json)"

ok="$(jget ok "$tmp/load.json")"
stale="$(jget stale "$tmp/load.json")"
lost="$(jget lost "$tmp/load.json")"
mism="$(jget mismatched "$tmp/load.json")"
[ "${ok:-0}" -gt 0 ] || fail "no successful requests"
[ "${lost:-1}" -eq 0 ] || fail "$lost lost requests"
[ "${mism:-1}" -eq 0 ] || fail "$mism byte mismatches"

# The stale drill is probabilistic (a request has to land inside a
# drain window); if the main run never caught one, re-drill with a
# shorter pinned load until it does.
round=0
while [ "${stale:-0}" -eq 0 ] && [ "$round" -lt 3 ]; do
    round=$((round + 1))
    "$loadgen" --address "$rt" --conns 4 --duration-ms 4000 \
        --slab 2 --mix "slab=4,ping=2,table=2" --retries 8 \
        --verify-bytes --json >"$tmp/load$round.json" &
    lg=$!
    pids="$pids $lg"
    sleep 0.5
    for i in 0 1 2 3; do
        pkill -TERM -f "$tmp/socks/w$i.sock" 2>/dev/null || true
        sleep 0.6
    done
    rc=0
    wait "$lg" || rc=$?
    [ "$rc" -eq 0 ] || fail "stale re-drill $round exited $rc"
    stale="$(jget stale "$tmp/load$round.json")"
done
[ "${stale:-0}" -ge 1 ] || fail "no stale serve observed (got $stale)"

# Deadline propagation under load: a 1 ms budget cannot cover an
# uncached eval, so requests come back DEADLINE — shed, not lost.
"$loadgen" --address "$rt" --conns 2 --count 20 --slab 2 \
    --mix "eval=1" --deadline-ms 1 --retries 8 --json \
    >"$tmp/deadline.json" || fail "deadline probe lost requests"
dl="$(jget deadline "$tmp/deadline.json")"
[ "${dl:-0}" -ge 1 ] || fail "deadline budget never shed (got $dl)"

# The fleet must still serve a clean verified load after the chaos.
"$loadgen" --address "$rt" --conns 2 --count 60 --slab 2 \
    --mix "slab=3,table=2,ping=1" --retries 8 --verify-bytes \
    >"$tmp/after.txt" || fail "post-chaos load lost requests"

# Fleet-wide counters: one stats call against the router rolls up
# workers, router health, supervisor, and fault-plane counters. The
# router's own net faults still fire, so the call retries as the
# load generator does.
CISA_CLIENT_RETRIES=8 "$client" --address "$rt" stats \
    >"$tmp/stats.txt" || fail "stats request failed"

downs="$(sed -n \
    's/^fleet: .* \([0-9][0-9]*\) down-marks.*/\1/p' \
    "$tmp/stats.txt")"
rejoins="$(sed -n \
    's/^fleet: .* \([0-9][0-9]*\) rejoins.*/\1/p' \
    "$tmp/stats.txt")"
restarts="$(sed -n \
    's/^supervisor: [0-9]* workers, \([0-9]*\) restarts.*/\1/p' \
    "$tmp/stats.txt")"
fired="$(awk '/^fault / { sum += $(NF - 1) } END { print sum + 0 }' \
    "$tmp/stats.txt")"
[ "${downs:-0}" -ge 1 ] || fail "no worker down-mark recorded"
[ "${rejoins:-0}" -ge 1 ] || fail "no worker rejoin recorded"
[ "${restarts:-0}" -ge "$kills" ] ||
    fail "only ${restarts:-0} restarts for $kills kills + 4 drains"
[ "$fired" -ge 1 ] || fail "fault plane never fired"
grep -q "crash-looping" "$tmp/fleetd.log" ||
    fail "crash-loop was never declared"

# Clean shutdown: fleetd drains the router, terminates the workers,
# and exits 0.
kill -TERM "$fleetd_pid"
frc=0
wait "$fleetd_pid" || frc=$?
pids=""
[ "$frc" -eq 0 ] || fail "fleetd shutdown exited $frc"

echo "chaos soak: ok ($ok ok, $stale stale, $downs down-marks," \
    "$rejoins rejoins, $restarts restarts, $fired faults fired)"
