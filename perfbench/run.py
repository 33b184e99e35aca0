#!/usr/bin/env python3
"""The benchmark's one command: build, generate, run, check, report.

    python3 perfbench/run.py --workload wire|road|batch --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout. It builds the repository and the perfbench
harness into .bench_build/, generates the workload's inputs from the seed,
runs the workload, checks its outputs against a reference, prints what it
did, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer metrics (a separate traced run). perfbench/README.md documents
every metric and workload.
"""

import argparse
import hashlib
import json
import os
import shutil
import socket
import statistics
import struct
import subprocess
import sys
import time

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(".bench_build", "cmake")
WORK = os.path.join(".bench_build", "work")
REFS = os.path.join(".bench_build", "refs")
TRACES = os.path.join(".bench_build", "traces")
PERFBENCH = os.path.join(ROOT, BUILD, "perfbench")
LTC_SERVE = os.path.join(ROOT, BUILD, "ltc", "examples", "ltc_serve")

# Generated inputs. Each worker rate is the task rate times the
# workers-per-task ratio, so tasks and workers arrive over the same stream
# time and load is stationary from first event to last. `wire` scales its
# stream with --seconds (per second of run time); `road` and `batch` replay
# fixed streams until --seconds of work are done. `batch` uses the
# repository's hotspot mix (src/exp/deadline.cc: 3 hotspots of stddev 40,
# 80% of arrivals near one). Its cost depends on where the 3 centers fall,
# so a run pools 32 streams, each with its own centers, instead of
# resting on one placement. Only `road` gets a street grid.
WORKLOADS = {
    "wire": dict(tasks_per_s=160, workers_per_task=40, task_rate=50.0,
                 side=1000.0),
    "road": dict(tasks=1000, workers=25000, task_rate=50.0,
                 worker_rate=1250.0, side=400.0, road_cells=40),
    "batch": dict(tasks=1000, workers=25000, task_rate=50.0,
                  worker_rate=1250.0, side=1000.0, hotspots=3,
                  hotspot_stddev=40.0, streams=32),
}
# The engine options each workload must report back (perfbench echoes them).
EXPECTED_OPTIONS = {
    "wire": dict(algorithm="LAF", deadline="0", shards=1, threads=1,
                 route_workers=False),
    "road": dict(algorithm="LAF", deadline="0", shards=1, threads=1,
                 route_workers=True),
    "batch": dict(algorithm="MCF", deadline="adaptive", shards=4, threads=1,
                  route_workers=False),
}
WIRE_SEEDED_SHARE = 0.25   # stream prefix in the crashed state directory
WIRE_SNAPSHOT_EVERY = 40000
WIRE_GROUP_COMMIT = 64
WIRE_FRAME_EVENTS = 512
WIRE_QUEUE_CAPACITY = 65536
WIRE_ROUNDS = 6           # restarts per run
WIRE_REFERENCE_REPS = 4   # reference replays after each round
STEP_TIMEOUT_S = 150


class Checks:
    """Reference checks; each counts as one attempted operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = []

    def expect(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed.append(what)
            print(f"CHECK FAILED: {what}", file=sys.stderr)


def log(msg):
    print(msg, flush=True)


def run_json(cmd, cwd=ROOT, timeout=STEP_TIMEOUT_S):
    """Runs a command and returns its last stdout line parsed as JSON."""
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{cmd[0]} {cmd[1]} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def build():
    if not os.path.isfile(os.path.join(HERE, "CMakeLists.txt")):
        raise RuntimeError("perfbench/CMakeLists.txt is missing")
    os.makedirs(BUILD, exist_ok=True)
    quiet = dict(stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        proc = subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                               "-DCMAKE_BUILD_TYPE=Release"], **quiet)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError("cmake configure failed")
    proc = subprocess.run(["cmake", "--build", BUILD, "-j3", "--target",
                           "perfbench", "ltc_serve"], **quiet)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError("build failed")


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def dir_bytes(path):
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


def generate(workload, seed, seconds, work, checks):
    """Writes each stream's events.txt (and road.txt for `road`) from the
    seed and proves the sizes took effect. Returns the stream directories
    and their total event count."""
    spec = WORKLOADS[workload]
    if workload == "wire":
        tasks = int(spec["tasks_per_s"] * seconds)
        workers = tasks * spec["workers_per_task"]
        worker_rate = spec["task_rate"] * spec["workers_per_task"]
    else:
        tasks, workers = spec["tasks"], spec["workers"]
        worker_rate = spec["worker_rate"]
    streams = spec.get("streams", 1)
    dirs, events = [], 0
    for i in range(streams):
        stream_seed = seed if streams == 1 else seed * streams + i
        stream_dir = work if streams == 1 else fresh_dir(
            os.path.join(work, f"s{i}"))
        want = dict(workload=workload, seed=stream_seed, tasks=tasks,
                    workers=workers, events=tasks + workers,
                    task_rate=spec["task_rate"], worker_rate=worker_rate,
                    side=spec["side"], hotspots=spec.get("hotspots", 0),
                    hotspot_stddev=spec.get("hotspot_stddev", 40.0),
                    road_nodes=spec.get("road_cells", 0) ** 2)
        got = run_json([PERFBENCH, "gen", f"--workload={workload}",
                        f"--seed={stream_seed}", f"--dir={stream_dir}",
                        f"--tasks={tasks}", f"--workers={workers}",
                        f"--task_rate={spec['task_rate']}",
                        f"--worker_rate={worker_rate}",
                        f"--side={spec['side']}",
                        f"--hotspots={want['hotspots']}",
                        f"--hotspot_stddev={want['hotspot_stddev']}",
                        f"--road_cells={spec.get('road_cells', 0)}"])
        log(f"inputs: {json.dumps(got)}")
        for key, value in want.items():
            checks.expect(got.get(key) == value,
                          f"generated {key} = {got.get(key)}, "
                          f"asked for {value}")
        dirs.append(stream_dir)
        events += got["events"]
    return dirs, events


def check_options(workload, seed, echoed, checks):
    want = dict(EXPECTED_OPTIONS[workload], seed=seed)
    for key, value in want.items():
        checks.expect(echoed.get(key) == value,
                      f"option {key} = {echoed.get(key)}, expected {value}")


def code_digest():
    """Digest of the sources the benchmark builds: the reference records of
    one version of the code never judge another."""
    h = hashlib.sha256()
    paths = ["CMakeLists.txt"]
    for top in ("src", "examples", "perfbench"):
        for d, dirs, files in os.walk(top):
            dirs[:] = sorted(x for x in dirs if x != "__pycache__")
            paths += [os.path.join(d, f) for f in sorted(files)]
    for path in paths:
        h.update(path.encode() + b"\0")
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def check_reference(workload, seed, seconds, record, checks):
    """Deterministic outputs must repeat across every run of a seed with
    the same code."""
    os.makedirs(REFS, exist_ok=True)
    path = os.path.join(REFS,
                        f"{code_digest()}-{workload}-{seed}-{seconds}.json")
    if os.path.isfile(path):
        with open(path) as f:
            ref = json.load(f)
        for key in record:
            if key in ref:
                checks.expect(ref[key] == record[key],
                              f"{key} differs from an earlier run of seed "
                              f"{seed}: {record[key]} vs {ref[key]}")
        ref.update(record)
        record = ref
    with open(path, "w") as f:
        json.dump(record, f)


# --- wire -----------------------------------------------------------------

def serve_cmd(seed, sock, state, out, metrics):
    """ltc_serve over a state dir; paths are relative to its working dir."""
    return [LTC_SERVE, f"--listen=unix:{sock}",
            f"--state_dir={state}", "--header_from=events.txt",
            "--algo=LAF", "--deadline=0", "--shards=1", "--threads=1",
            f"--seed={seed}", "--world_side=1000",
            f"--snapshot_every={WIRE_SNAPSHOT_EVERY}",
            f"--wal_group_commit={WIRE_GROUP_COMMIT}", "--wal_fsync=false",
            f"--queue_capacity={WIRE_QUEUE_CAPACITY}",
            f"--out={out}", f"--metrics_json={metrics}"]


def hello(path):
    """One ltc-wire hello; returns the acked admitted count."""
    payload = b"ltc-wire v1"
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
        s.connect(path)
        s.sendall(struct.pack("<IB", len(payload) + 1, ord("H")) + payload)
        buf = b""
        while len(buf) < 5 or len(buf) < 4 + struct.unpack("<I", buf[:4])[0]:
            chunk = s.recv(4096)
            if not chunk:
                raise ConnectionError("server closed during hello")
            buf += chunk
    if buf[4:5] != b"A" or buf[5] != 0:
        raise ConnectionError("hello rejected")
    return struct.unpack("<Q", buf[6:14])[0]


def wait_for_server(proc, sock_path):
    """Polls the socket until a hello is acked; returns the admitted count."""
    deadline = time.perf_counter() + STEP_TIMEOUT_S
    while True:
        try:
            return hello(sock_path)
        except OSError:  # not listening yet (ConnectionError is an OSError)
            if proc.poll() is not None or time.perf_counter() > deadline:
                raise RuntimeError("ltc_serve did not come up")
            time.sleep(0.001)


def wire_round(seed, work, n, rnd, checks):
    """One restart of ltc_serve on a copy of the crashed state directory,
    then the closed-loop client sends the rest of the stream."""
    state, sock = f"state_r{rnd}", f"sock_r{rnd}"
    served, metrics = f"served_r{rnd}.log", f"metrics_r{rnd}.json"
    shutil.copytree(os.path.join(work, "state0"), os.path.join(work, state))
    t0 = time.perf_counter()
    proc = subprocess.Popen(serve_cmd(seed, sock, state, served, metrics),
                            cwd=work, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    try:
        admitted = wait_for_server(proc, os.path.join(work, sock))
        setup_s = time.perf_counter() - t0
        client = run_json([PERFBENCH, "wire-client", "--events=events.txt",
                           f"--address=unix:{sock}",
                           f"--frame={WIRE_FRAME_EVENTS}"], cwd=work)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        if proc.returncode is None:
            proc.kill()
            proc.wait()
    log(f"round {rnd}: setup {setup_s:.4f} s, peak rss "
        f"{usage.ru_maxrss / 1024.0:.1f} MB, client {json.dumps(client)}")
    checks.expect(proc.returncode == 0, f"ltc_serve exit {proc.returncode}")
    with open(os.path.join(work, metrics)) as f:
        server = json.load(f)
    resume = client["resume_from"]
    checks.expect(admitted == resume, "hello acks agree on the resume point")
    checks.expect(client["finished"] and client["frames_failed"] == 0,
                  "every frame admitted and the stream finished")
    checks.expect(server["recovered"] and
                  server["recovery_wal_records"] == resume,
                  "server recovered the seeded WAL the hello ack reported")
    checks.expect(server["ingest_events_admitted"] == n - resume,
                  "server admitted every event sent")
    checks.expect(server["events"] == n and server["shards"] == 1 and
                  server["algorithm"] == "LAF",
                  "server ran the requested stream and options")
    return dict(setup_s=setup_s, client=client, server=server,
                served=served, state=os.path.join(work, state),
                events_per_s=(client["admitted"] - resume) /
                client["stream_s"],
                peak_rss_mb=usage.ru_maxrss / 1024.0)


def run_wire(seed, seconds, work, checks, rounds):
    _, n = generate("wire", seed, seconds, work, checks)
    prefix = int(n * WIRE_SEEDED_SHARE)
    seeded = run_json([PERFBENCH, "seed-state", "--events=events.txt",
                       "--state=state0", f"--seed={seed}",
                       f"--prefix={prefix}",
                       f"--snapshot_every={WIRE_SNAPSHOT_EVERY}",
                       f"--group_commit={WIRE_GROUP_COMMIT}"],
                      cwd=work)
    log(f"seeded state: {json.dumps(seeded)}")
    checks.expect(seeded["applied"] == prefix and
                  seeded["snapshot_every"] == WIRE_SNAPSHOT_EVERY and
                  seeded["group_commit"] == WIRE_GROUP_COMMIT,
                  "seeded prefix size and durability settings")
    check_options("wire", seed, seeded["options"], checks)

    # Each round's log is checked against the reference replay right after
    # the round, so the reference's apply timings sample the whole run.
    results, refs = [], []
    for rnd in range(rounds):
        r = wire_round(seed, work, n, rnd, checks)
        ref = run_json([PERFBENCH, "check-wire", "--events=events.txt",
                        f"--log={r['served']}", f"--seed={seed}",
                        f"--reps={WIRE_REFERENCE_REPS}"], cwd=work)
        log(f"reference {rnd}: {json.dumps(ref)}")
        checks.expect(ref["log_identical"],
                      "served log equals the uninterrupted in-process replay")
        checks.expect(ref["replays_identical"], "reference replays agree")
        check_options("wire", seed, ref["options"], checks)
        results.append(r)
        refs.append(ref)
    # Noise on a shared machine only ever slows a round, so the serving and
    # apply timings are the best round's; set-up and memory the median's.
    last, ref = results[-1], refs[-1]
    return dict(
        events=n, ref=ref, last=last,
        apply_p50_us=min(r["apply_p50_us"] for r in refs),
        apply_p99_us=min(r["apply_p99_us"] for r in refs),
        applied=min(r["client"]["admitted"] for r in results),
        setup_s=statistics.median(r["setup_s"] for r in results),
        events_per_s=max(r["events_per_s"] for r in results),
        peak_rss_mb=statistics.median(r["peak_rss_mb"] for r in results))


# --- workloads ------------------------------------------------------------

def end_to_end(workload, seed, seconds, work, checks):
    """--trace 0: returns (attempted operations, metric values)."""
    if workload == "wire":
        r = run_wire(seed, seconds, work, checks, WIRE_ROUNDS)
        ref = r["ref"]
        check_reference("wire", seed, seconds,
                        dict(log_crc=ref["log_crc"],
                             quality=ref["quality"]), checks)
        checks.expect(r["applied"] == r["events"], "every event applied")
        values = dict(setup_s=r["setup_s"], events_per_s=r["events_per_s"],
                      apply_p50_us=r["apply_p50_us"],
                      apply_p99_us=r["apply_p99_us"],
                      peak_rss_mb=r["peak_rss_mb"], **ref["quality"])
        missing = r["events"] - r["applied"]
        return r["events"], missing, values

    dirs, events = generate(workload, seed, seconds, work, checks)
    cmd = [PERFBENCH, "replay", f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}",
           "--events=" + ",".join(f"{d}/events.txt" for d in dirs)]
    if workload == "road":
        cmd.append(f"--road={work}/road.txt")
    r = run_json(cmd)
    log(f"replay: {json.dumps(r)}")
    check_options(workload, seed, r["options"], checks)
    checks.expect(r["streams"] == len(dirs) and r["events"] == events,
                  "replayed every stream whole")
    checks.expect(r["replays_mismatched"] == 0,
                  "every replay's log equals the first, validated replay's")
    checks.expect(r["validated"], "arrangement validation")
    checks.expect((r["metric"] != "euclidean") == (workload == "road"),
                  f"distance metric {r['metric']}")
    check_reference(workload, seed, seconds,
                    dict(log_crc=r["log_crc"], quality=r["quality"]), checks)
    values = dict(setup_s=r["setup_s"], events_per_s=r["events_per_s"],
                  apply_p50_us=r["apply_p50_us"],
                  apply_p99_us=r["apply_p99_us"],
                  peak_rss_mb=r["peak_rss_mb"], **r["quality"])
    return r["events_applied"], 0, values


def per_layer(workload, seed, seconds, work, checks):
    """--trace 1: the traced run's per-layer metrics."""
    server = dict(frames_rejected_frac=0.0, queue_high_water=0,
                  frame_retries=0)
    attempted, missing = 0, 0
    events = f"{work}/events.txt"
    if workload == "wire":
        r = run_wire(seed, seconds, work, checks, rounds=1)
        s = r["last"]["server"]
        server = dict(
            frames_rejected_frac=s["ingest_frames_rejected"] /
            max(1, s["ingest_frames"]),
            queue_high_water=s["ingest_queue_high_water"],
            frame_retries=r["last"]["client"]["frames_retried"],
            drain_s=r["last"]["client"]["drain_s"],
            disk_mb=dir_bytes(r["last"]["state"]) / 1e6)
        attempted, missing = r["events"], r["events"] - r["applied"]
    else:
        # The traced run follows one stream (batch: the first of its 32).
        dirs, _ = generate(workload, seed, seconds, work, checks)
        events = f"{dirs[0]}/events.txt"
    cmd = [PERFBENCH, "trace", f"--workload={workload}", f"--seed={seed}",
           f"--events={events}", f"--dir={work}"]
    if workload == "road":
        cmd.append(f"--road={work}/road.txt")
    if workload == "wire":
        cmd += [f"--snapshot_every={WIRE_SNAPSHOT_EVERY}",
                f"--frame={WIRE_FRAME_EVENTS}",
                f"--group_commit={WIRE_GROUP_COMMIT}"]
    t = run_json(cmd)
    log(f"trace: {json.dumps(t)}")
    check_options(workload, seed, t["options"], checks)
    checks.expect(t["traced_log_identical"], "traced log equals untraced log")
    if workload == "wire":
        checks.expect(t["restore_identical"],
                      "snapshot restore + WAL suffix replay reproduces the log")
    traces = fresh_dir(os.path.join(TRACES, workload))
    shutil.move(os.path.join(work, "trace_engine.csv"), traces)
    log(f"spans written to {traces}/")
    layers = t["layers"]
    checks.expect(layers["trace.accounted_frac"] >= 0.9,
                  "root spans account for >= 90% of the traced wall time "
                  f"(got {layers['trace.accounted_frac']:.3f})")
    check_reference(workload, seed, seconds, dict(log_crc=t["log_crc"]),
                    checks)
    layers["net.frames_rejected_frac"] = server["frames_rejected_frac"]
    layers["net.queue_high_water"] = server["queue_high_water"]
    layers["net.frame_retries"] = server["frame_retries"]
    if workload == "wire":
        layers["svc.drain_s"] = server["drain_s"]
        layers["io.disk_mb"] = server["disk_mb"]
    attempted += t["events"]
    return attempted, missing, layers


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    log(f"perfbench: workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds} trace={args.trace}")
    build()
    work = fresh_dir(os.path.join(WORK, args.workload))
    checks = Checks()
    run = per_layer if args.trace else end_to_end
    attempted, missing, values = run(args.workload, args.seed, args.seconds,
                                     work, checks)

    metrics = {}
    for m in wanted:
        value = values.get(m["name"])
        checks.expect(isinstance(value, (int, float)) and value == value,
                      f"metric {m['name']} measured")
        metrics[m["name"]] = dict(value=value, unit=m["unit"])
        log(f"  {m['name']:32s} {value!s:>24} {m['unit']}")
    failed = missing + len(checks.failed)
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(dict(correct=failed == 0,
                          attempted=attempted + checks.attempted,
                          failed=failed, metrics=metrics)))
    if failed:
        sys.exit(1)


if __name__ == "__main__":
    try:
        main()
    except (RuntimeError, OSError, subprocess.SubprocessError,
            json.JSONDecodeError, KeyError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(1)
