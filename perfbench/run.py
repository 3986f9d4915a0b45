#!/usr/bin/env python3
"""Benchmark runner: build the harness, run one workload, print metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run builds the harness
(perfbench/CMakeLists.txt, which compiles ../src and the two fleet
daemons) into .bench_build/ and fills a warm slab store there with one
cold campaign; later runs reuse both while the sources are unchanged.

A run repeats the workload in fresh harness processes until --seconds
have passed (at least one repetition), each on a private copy of the
store, and reports the fastest repetition's timings (of each named
operation, where the harness names them) and the median set-up time
and RSS. --trace 1 runs one untraced and one traced
repetition and reports the per-layer metrics instead. The last line of
stdout is the JSON result; see perfbench/README.md.

    python3 perfbench/run.py --write-pins

recomputes perfbench/pins.json from the current build; do that only
when a change to the model is meant to change its results.
"""

import argparse
import hashlib
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "cmake")
HARNESS = os.path.join(CMAKE_DIR, "perfbench")
TOOLS = os.path.join(CMAKE_DIR, "tools")
WARM_STORE = os.path.join(BUILD, "warm_store.bin")
STAMP = os.path.join(BUILD, "stamp")
PINS = os.path.join(HERE, "pins.json")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

WORKLOADS = ("campaign_cold", "paper_warm", "fleet_open", "dcsim_grid")
# Pinned digest keys each workload must report (by prefix); other
# keys are checked for agreement across the repetitions of one run.
PIN_PREFIX = {
    "campaign_cold": "slab.",
    "paper_warm": "fig",
    "fleet_open": None,
    "dcsim_grid": "dcsim.pinned",
}
# Threads of each workload's harness (None: nproc). The simulator
# gains nothing from the pool at this size, and one thread keeps the
# other guests of a shared host out of its timings.
THREADS = {"dcsim_grid": 1}
# Workloads whose operations run one after the other: their work is
# the sum of the operations' best times.
SEQUENTIAL_OPS = ("campaign_cold", "dcsim_grid")
# Workloads whose operation latency runs from the start of the work
# until the operation is done: a slab is ready when every slab before
# it is.
CUMULATIVE_OPS = ("campaign_cold",)
# Workloads that name the windows of a fixed-rate leg (p50.wNN and
# p99.wNN): their latencies are the median window's, each window at
# its best repetition.
WINDOWED_OPS = ("fleet_open",)
# Set-ups take milliseconds on most workloads, so a median over a few
# is one host hiccup away from another value.
MIN_SETUPS = 9
REP_TIMEOUT_S = 150
BUILD_TIMEOUT_S = 840


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def die(msg):
    log(msg)
    sys.exit(1)


def clean_env(threads):
    """The environment of every harness process: no ambient CISA_*
    knob (opt level, pass list, batch/replay engine, faults, sim
    budget, ...) leaks in, and the thread count is explicit."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("CISA_")}
    env["CISA_THREADS"] = str(threads)
    return env


def host_steal_s():
    """Seconds of CPU steal summed over all CPUs since boot (0 where
    /proc/stat has no steal column)."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def source_stamp():
    """Digest of every input of the build."""
    h = hashlib.sha256()
    dirs = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tools"), HERE]
    for top in dirs:
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                if not name.endswith((".cc", ".hh", ".txt")):
                    continue
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


# The child process group running now, killed if this script is
# stopped by a signal.
RUNNING = []


def on_signal(signum, frame):
    for p in RUNNING:
        if p.poll() is None:
            kill_group(p)
    sys.exit(128 + signum)


def run_checked(cmd, logf, timeout, env=None):
    with open(logf, "ab") as out:
        p = subprocess.Popen(cmd, stdout=out, stderr=subprocess.STDOUT,
                             env=env, start_new_session=True)
        RUNNING[:] = [p]
        try:
            rc = p.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            kill_group(p)
            die("timed out: " + " ".join(cmd))
    if rc != 0:
        with open(logf, "r", errors="replace") as f:
            tail = f.read()[-3000:]
        die("failed (%d): %s\n%s" % (rc, " ".join(cmd), tail))


def kill_group(p):
    try:
        os.killpg(p.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    p.wait()


def ensure_built(env, pins):
    """Build the harness and the warm store unless the stamp says the
    sources are unchanged since the last build."""
    stamp = source_stamp()
    if (os.path.exists(STAMP) and open(STAMP).read() == stamp
            and os.path.exists(HARNESS) and os.path.exists(WARM_STORE)):
        return
    os.makedirs(BUILD, exist_ok=True)
    if os.path.exists(STAMP):
        os.unlink(STAMP)
    logf = os.path.join(BUILD, "build.log")
    open(logf, "w").close()
    t0 = time.monotonic()
    jobs = str(os.cpu_count() or 1)
    run_checked(["cmake", "-S", HERE, "-B", CMAKE_DIR,
                 "-DCMAKE_BUILD_TYPE=Release"], logf, BUILD_TIMEOUT_S)
    run_checked(["cmake", "--build", CMAKE_DIR, "-j", jobs], logf,
                BUILD_TIMEOUT_S - (time.monotonic() - t0))
    # The warm store is one cold campaign, checked against the pins
    # before anything reads it.
    tmp = WARM_STORE + ".tmp"
    for p in (tmp, WARM_STORE):
        if os.path.exists(p):
            os.unlink(p)
    rundir = os.path.join(BUILD, "warmup")
    shutil.rmtree(rundir, ignore_errors=True)
    os.makedirs(rundir)
    rep = harness_rep("campaign_cold", 1, None, tmp, rundir, env)
    shutil.rmtree(rundir, ignore_errors=True)
    if pins is not None:
        bad = check_pins("campaign_cold", [rep], pins)
        if bad:
            die("warm store does not match the pins: " + "; ".join(bad))
    os.rename(tmp, WARM_STORE)
    with open(STAMP, "w") as f:
        f.write(stamp)
    log("built in %.1f s" % (time.monotonic() - t0))


def harness_rep(workload, seed, trace, store, rundir, env, setup_only=False):
    """One harness process; returns its parsed report."""
    cmd = [HARNESS, workload, "--store", store, "--seed", str(seed),
           "--tools", TOOLS, "--scratch", rundir]
    if trace:
        cmd += ["--trace", trace]
    if setup_only:
        cmd.append("--setup-only")
    errf = os.path.join(rundir, "harness.err")
    with open(errf, "wb") as err:
        p = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err,
                             env=env, start_new_session=True)
        RUNNING[:] = [p]
        try:
            out, _ = p.communicate(timeout=REP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            kill_group(p)
            die("%s repetition timed out" % workload)
        finally:
            # Fleet children die with the harness; make sure of it.
            try:
                os.killpg(p.pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
    if p.returncode != 0:
        with open(errf, "r", errors="replace") as f:
            tail = f.read()[-3000:]
        die("%s repetition failed (%d):\n%s" % (workload, p.returncode, tail))
    with open(errf, "r", errors="replace") as f:
        for line in f:
            if "check failed" in line:
                sys.stderr.write(line)
    lines = out.decode().strip().splitlines()
    if not lines:
        die("%s repetition printed no report" % workload)
    return json.loads(lines[-1])


def check_pins(workload, reps, pins):
    """Mismatches of the reported digests against the pins and across
    repetitions, one line each."""
    bad = []
    prefix = PIN_PREFIX[workload]
    want = pins.get(workload, {}) if pins else {}
    for i, rep in enumerate(reps):
        got = rep["digests"]
        for key, val in want.items():
            if got.get(key) != val:
                bad.append("rep %d: %s is %s, pinned %s"
                           % (i, key, got.get(key), val))
        for key, val in got.items():
            if prefix and key.startswith(prefix):
                if key not in want:
                    bad.append("rep %d: %s is not pinned" % (i, key))
            elif val != reps[0]["digests"].get(key):
                bad.append("rep %d: %s differs from rep 0" % (i, key))
    return bad


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-pins", action="store_true")
    args = ap.parse_args()
    for sig in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(sig, on_signal)

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")) or \
            not os.path.isfile(os.path.join(ROOT, "tools", "CMakeLists.txt")):
        die("no library sources at %s (run from a full checkout)" % ROOT)
    if not os.path.isfile(SPEC):
        die("missing " + SPEC)
    spec = json.load(open(SPEC))
    if not args.write_pins and args.workload not in WORKLOADS:
        die("unknown workload %r (one of %s)" % (args.workload,
                                                  ", ".join(WORKLOADS)))
    pins = None if args.write_pins else json.load(open(PINS))
    nproc = os.cpu_count() or 1
    ensure_built(clean_env(nproc), pins)
    env = clean_env(THREADS.get(args.workload) or nproc)

    rundir = os.path.join(BUILD, "runs", str(os.getpid()))
    shutil.rmtree(rundir, ignore_errors=True)
    os.makedirs(rundir)
    try:
        if args.write_pins:
            write_pins(rundir, env)
            return
        result = run_workload(args, spec, pins, rundir, env)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    print(json.dumps(result))


def new_store(workload, rundir, n):
    """Private store path of one repetition: empty for the cold
    campaign, a copy of the warm store otherwise."""
    path = os.path.join(rundir, "store%d.bin" % n)
    if workload != "campaign_cold":
        shutil.copyfile(WARM_STORE, path)
    return path


def nearest_rank(values, q):
    """The quantile the harness uses: nearest rank of the sorted values."""
    v = sorted(values)
    return v[min(int(q * (len(v) - 1) + 0.5), len(v) - 1)]


def best_per_op(reps):
    """Each operation's fastest time (us) over the repetitions, by name
    in the harness's order; empty when the workload names none."""
    names = reps[0]["op_us"]
    for r in reps:
        if r["op_us"].keys() != names.keys():
            die("repetitions timed different operations")
    return {k: min(r["op_us"][k] for r in reps) for k in names}


def run_workload(args, spec, pins, rundir, env):
    w = args.workload
    counter = [0]

    def rep(trace=None, setup_only=False):
        counter[0] += 1
        store = new_store(w, rundir, counter[0])
        r = harness_rep(w, args.seed, trace, store, rundir, env, setup_only)
        for p in (store, store + ".corrupt"):
            if os.path.exists(p):
                os.unlink(p)
        return r

    reps = []
    t0 = time.monotonic()
    steal0 = host_steal_s()
    if args.trace:
        reps.append(rep())
        traced = rep(trace=os.path.join(rundir, "trace.json"))
        keep = os.path.join(BUILD, "trace-%s.json" % w)
        all_reps = reps + [traced]
    else:
        while not reps or time.monotonic() - t0 < args.seconds:
            reps.append(rep())
        all_reps = reps
    setups = [r["setup_s"] for r in all_reps]
    while len(setups) < MIN_SETUPS:
        setups.append(rep(setup_only=True)["setup_s"])

    bad = check_pins(w, all_reps, pins)
    attempted = sum(int(r["attempted"]) for r in all_reps)
    failed = sum(int(r["failed"]) for r in all_reps) + len(bad)
    for line in bad:
        log("check failed: " + line)
    info = dict(all_reps[0]["info"])
    # CPU time the hypervisor gave to other guests during the run: a
    # run with seconds of steal measured a contended host.
    info["steal_s"] = "%.2f" % (host_steal_s() - steal0)
    log("%s seed %d: %d repetition(s), host %s"
        % (w, args.seed, len(all_reps), json.dumps(info, sort_keys=True)))
    # Every repetition's full report (layer extras, rung loads, ...).
    with open(os.path.join(BUILD, "last-%s.json" % w), "w") as f:
        json.dump({"seed": args.seed, "trace": args.trace,
                   "reps": all_reps}, f, indent=1)

    metrics = {}
    if args.trace:
        layers = dict(traced["layers"])
        layers["trace.overhead_s"] = traced["work_s"] - reps[0]["work_s"]
        layers["fail_ratio"] = failed / max(1, attempted)
        for m in spec["per_layer"]:
            metrics[m["name"]] = {"value": float(layers.get(m["name"], 0.0)),
                                  "unit": m["unit"]}
        if os.path.exists(os.path.join(rundir, "trace.json")):
            shutil.copyfile(os.path.join(rundir, "trace.json"), keep)
            log("spans written to " + os.path.relpath(keep, ROOT))
    else:
        # Other guests on a shared host only ever slow a repetition
        # down, by up to a quarter within seconds, so the timings take
        # the fastest repetition (the rate the highest): the least
        # disturbed measurement of the same work. Where operations are
        # timed by name, each operation's fastest repetition counts.
        # Every repetition's value stays in last-<workload>.json.
        values = {
            "setup_s": statistics.median(setups),
            "work_s": min(r["work_s"] for r in reps),
            "ops_per_s": max(r["ops_per_s"] for r in reps),
            "op_p50_us": min(r["op_p50_us"] for r in reps),
            "op_p99_us": min(r["op_p99_us"] for r in reps),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        }
        best = best_per_op(reps)
        times = list(best.values())
        if best and w in SEQUENTIAL_OPS:
            values["work_s"] = sum(times) * 1e-6
            values["ops_per_s"] = reps[0]["attempted"] / values["work_s"]
        if best and w in CUMULATIVE_OPS:
            times = list(itertools.accumulate(times))
        if best and w in WINDOWED_OPS:
            for q in ("p50", "p99"):
                win = [v for k, v in best.items() if k.startswith(q + ".")]
                values["op_%s_us" % q] = nearest_rank(win, 0.50)
        elif best:
            values["op_p50_us"] = nearest_rank(times, 0.50)
            values["op_p99_us"] = nearest_rank(times, 0.99)
        for m in spec["end_to_end"]:
            metrics[m["name"]] = {"value": values[m["name"]],
                                  "unit": m["unit"]}
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def write_pins(rundir, env):
    pins = {}
    for w in WORKLOADS:
        prefix = PIN_PREFIX[w]
        if not prefix:
            continue
        store = os.path.join(rundir, "pin.bin")
        if w != "campaign_cold":
            shutil.copyfile(WARM_STORE, store)
        elif os.path.exists(store):
            os.unlink(store)
        r = harness_rep(w, 1, None, store, rundir, env)
        os.unlink(store)
        pins[w] = {k: v for k, v in sorted(r["digests"].items())
                   if k.startswith(prefix)}
        pins["host"] = r["info"]
    with open(PINS, "w") as f:
        json.dump(pins, f, indent=1, sort_keys=True)
        f.write("\n")
    log("wrote " + PINS)


if __name__ == "__main__":
    main()
