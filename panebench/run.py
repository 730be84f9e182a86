#!/usr/bin/env python3
"""PANE train-and-serve benchmark.

    python3 panebench/run.py --workload ram_exact --seed 1 --seconds 6 --trace 0

Run from the root of a source checkout. The first run builds the program
(pane_server) and the benchmark's own tool into .bench_build/ with CMake;
later runs reuse that build. Each run generates its inputs from --seed,
trains PANE in fresh processes, serves a seeded embedding with pane_server
over TCP, checks every correctness gate, and prints one JSON result as the
last line of stdout: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1. README.md in this directory explains the
workloads and every metric; config.json fixes every size and rate.
"""

import argparse
import contextlib
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import socket
import statistics
import struct
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import stats  # noqa: E402

ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
MIB = 1024.0 * 1024.0

END_TO_END = {
    "setup_s": "s",
    "train_peak_rss_mb": "MiB",
    "train_cpu_s": "s",
    "attr_auc": "ratio",
    "serve_peak_rss_mb": "MiB",
    "serve_cpu_us_per_req": "us",
    "recall_at_10": "ratio",
}

STAGES = ("decode", "batch_wait", "engine_scan", "topk_select", "fanout",
          "merge", "encode")

PER_LAYER = {
    "graph.ingest_s": "s",
    "graph.ingest_mb_s": "MB/s",
    "core.affinity_s": "s",
    "core.init_s": "s",
    "core.ccd_s": "s",
    "core.unaccounted_s": "s",
    "core.affinity_scratch_mb": "MiB",
    "core.ccd_scratch_mb": "MiB",
    "core.objective_final": "value",
    "parallel.cpu_util": "ratio",
    "matrix.slab_mb": "MiB",
    "store.pool_resident_peak_mb": "MiB",
    "store.pool_evicted_pages": "count",
    "store.pool_writeback_pages": "count",
    "train.minor_faults": "count",
    "store.save_s": "s",
    "store.artifact_mb": "MiB",
    "store.open_s": "s",
    "serve.engine.create_s": "s",
    "serve.engine.ivf_build_s": "s",
    "serve.engine.scan_us_per_query": "us",
    "serve.engine.select_us_per_query": "us",
    "serve.engine.tiles_per_query": "count",
    "serve.engine.ivf_scanned_ratio": "ratio",
    "serve.server.batch_size_mean": "count",
    "serve.server.exec_self_us": "us",
    "serve.server.stage.decode_us": "us",
    "serve.server.stage.batch_wait_us": "us",
    "serve.server.stage.engine_scan_us": "us",
    "serve.server.stage.topk_select_us": "us",
    "serve.server.stage.encode_us": "us",
    "serve.server.stage_mean_sum_us": "us",
    "serve.router.fanout_us": "us",
    "serve.router.merge_us": "us",
    "serve.router.hop_p99_us": "us",
    "serve.router.split_s": "s",
    "serve.transport.residual_us": "us",
    "serve.transport.bytes_per_req": "bytes",
    "serve.client.p50_us": "us",
    "serve.client.p99_us": "us",
    "serve.client.capacity_qps": "1/s",
    "client.mean_us": "us",
    "client.late_p99_us": "us",
    "ops.train.attempted": "count",
    "ops.train.failed": "count",
    "ops.gate.attempted": "count",
    "ops.gate.failed": "count",
    "ops.fixed.attempted": "count",
    "ops.fixed.failed": "count",
    "ops.ladder.attempted": "count",
    "ops.ladder.failed": "count",
    "trace.train_s": "s",
    "host.steal_pct": "%",
    "trace.serve_cpu_us_per_req": "us",
}


def log(message):
    print("[panebench] " + message, file=sys.stderr, flush=True)


class BenchError(Exception):
    """A run that cannot produce a result (build or program failure)."""


# ---------------------------------------------------------------------------
# Spans: kept in memory, written once when a traced run ends.

class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.origin = time.monotonic_ns()

    def add(self, name, start_ns, end_ns, parent, request=None):
        span_id = len(self.spans) + 1
        self.spans.append({"id": span_id, "name": name, "start_ns": start_ns,
                           "end_ns": end_ns, "parent": parent,
                           "request": request})
        return span_id

    @contextlib.contextmanager
    def span(self, name):
        parent = self.stack[-1] if self.stack else None
        span_id = self.add(name, time.monotonic_ns() - self.origin, None,
                           parent)
        self.stack.append(span_id)
        try:
            yield span_id
        finally:
            self.stack.pop()
            self.spans[span_id - 1]["end_ns"] = (time.monotonic_ns() -
                                                 self.origin)

    def add_requests(self, records, phase_start_ns, parent):
        """One span per request (due -> answer) with two children that share
        its request id: generator lateness and the server round trip."""
        for i, (due, sent, recv, _ok) in enumerate(records):
            end = phase_start_ns + (recv if recv >= 0 else due)
            req = self.add("request", phase_start_ns + due, end, parent, i)
            self.add("client.late", phase_start_ns + due,
                     phase_start_ns + sent, req, i)
            self.add("server+wire", phase_start_ns + sent, end, req, i)

    def write(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as out:
            json.dump({"spans": self.spans}, out)


# ---------------------------------------------------------------------------
# Build.

def build(cfg):
    """Configures (once) and builds pane_server and panebench_tool; returns
    their paths. CMake's own dependency check makes a rebuild a no-op."""
    if not os.path.exists(os.path.join(ROOT, "CMakeLists.txt")):
        raise BenchError("no CMakeLists.txt at %s: not a PANE checkout" % ROOT)
    cmake_dir = os.path.join(BUILD, "cmake")
    commands = [["cmake", "--build", cmake_dir, "-j", str(cfg["build_jobs"]),
                 "--target", "pane_server", "panebench_tool"]]
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        commands.insert(0, ["cmake", "-S", HERE, "-B", cmake_dir,
                            "-DCMAKE_BUILD_TYPE=" + cfg["build_type"]])
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, "build.log"), "a") as build_log:
        for command in commands:
            done = subprocess.run(command, cwd=ROOT, stdout=build_log,
                                  stderr=subprocess.STDOUT)
            if done.returncode != 0:
                raise BenchError("build failed: %s (see %s)" %
                                 (" ".join(command), build_log.name))
    return (os.path.join(cmake_dir, "panebench_tool"),
            os.path.join(cmake_dir, "pane", "pane_server"))


# ---------------------------------------------------------------------------
# Frame-wire client for set-up probes, gates and the stats/metrics verbs.

class FrameConn:
    def __init__(self, port, timeout=10.0):
        self.sock = socket.create_connection(("127.0.0.1", port),
                                             timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buf = b""

    def send(self, payloads):
        data = b"".join(b"\xabPF\x01" + struct.pack("<I", len(p)) + p
                        for p in (s.encode() for s in payloads))
        self.sock.sendall(data)

    def recv(self):
        while True:
            if len(self.buf) >= 8:
                size = struct.unpack("<I", self.buf[4:8])[0]
                if len(self.buf) >= 8 + size:
                    payload = self.buf[8:8 + size]
                    self.buf = self.buf[8 + size:]
                    return payload.decode()
            chunk = self.sock.recv(1 << 16)
            if not chunk:
                raise BenchError("server closed the connection")
            self.buf += chunk

    def ask(self, payloads):
        self.send(payloads)
        return [self.recv() for _ in payloads]

    def close(self):
        self.sock.close()


def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def parse_prometheus(text):
    """{(name, labels): value} for every sample line."""
    samples = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        key, _, value = line.rpartition(" ")
        name, _, labels = key.partition("{")
        samples[(name, labels.rstrip("}"))] = float(value)
    return samples


def parse_stats(text):
    return dict(tok.split("=", 1) for tok in text.split()[2:] if "=" in tok)


def cpu_ns(pid):
    """On-CPU time of every thread of `pid` (schedstat, excludes steal)."""
    total = 0
    for task in os.listdir("/proc/%d/task" % pid):
        with open("/proc/%d/task/%s/schedstat" % (pid, task)) as f:
            total += int(f.read().split()[0])
    return total


def steal_ticks():
    """Host-stolen CPU ticks, summed over every CPU (/proc/stat)."""
    with open("/proc/stat") as f:
        fields = f.readline().split()
    return int(fields[8]), sum(int(x) for x in fields[1:9])


def vm_hwm_mb(pid):
    with open("/proc/%d/status" % pid) as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError("no VmHWM for pid %d" % pid)


# ---------------------------------------------------------------------------
# One benchmark run.

class Run:
    def __init__(self, args, cfg):
        self.args = args
        self.cfg = cfg
        self.wl = cfg["workloads"][args.workload]
        self.work = os.path.join(BUILD, "run", "%s-%d" % (args.workload,
                                                          args.seed))
        self.env = dict(os.environ, TMPDIR=self.work)
        self.tracer = Tracer()
        self.processes = []
        self.gates = {}
        self.ops = {}
        self.e2e = {}
        self.layer = {}

    # -- subprocess helpers -------------------------------------------------

    def tool(self, command, timeout=170, on_tick=None, **flags):
        """Runs one panebench_tool subcommand and returns its JSON output;
        `on_tick` is called every 0.1 s while it runs."""
        argv = [self.tool_path, command] + ["--%s=%s" % (k.replace("_", "-"), v)
                                            for k, v in flags.items()]
        proc = subprocess.Popen(argv, cwd=ROOT, env=self.env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                text=True)
        deadline = time.monotonic() + timeout
        try:
            while on_tick is not None and proc.poll() is None:
                if time.monotonic() > deadline:
                    raise subprocess.TimeoutExpired(argv, timeout)
                on_tick()
                time.sleep(0.1)
            out, err = proc.communicate(
                timeout=max(1.0, deadline - time.monotonic()))
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0:
            raise BenchError("%s failed (%d): %s" % (command, proc.returncode,
                                                     err.strip()))
        return json.loads(out.strip().splitlines()[-1])

    def start_server(self, embedding, attempts=3):
        """Launches pane_server and times launch -> first answered query. A
        launch that dies (say, the free port was taken meanwhile) is retried
        on a new port."""
        for attempt in range(attempts):
            try:
                return self.launch(embedding)
            except BenchError as e:
                if "exited" not in str(e) or attempt + 1 == attempts:
                    raise
                log("retrying launch: %s" % e)

    def launch(self, embedding):
        serve = self.cfg["serve"]
        port = free_port()
        argv = [self.server_path, "--embedding=" + embedding,
                "--threads=%d" % serve["server_threads"], "--port=%d" % port]
        if self.wl["shards"]:
            argv += ["--local-shards=%d" % self.wl["shards"], "--pruned",
                     "--nprobe=%d" % self.wl["nprobe"]]
        err = open(os.path.join(self.work, "server.log"), "a")
        start = time.monotonic()
        proc = subprocess.Popen(argv, cwd=ROOT, env=self.env,
                                stdout=subprocess.DEVNULL, stderr=err)
        err.close()
        self.processes.append(proc)
        deadline = start + 60.0
        while True:
            if proc.poll() is not None:
                self.processes.remove(proc)
                raise BenchError("pane_server exited with %d during set-up"
                                 % proc.returncode)
            try:
                conn = FrameConn(port)
            except OSError:
                if time.monotonic() > deadline:
                    raise BenchError("pane_server never answered")
                time.sleep(0.001)
                continue
            reply = conn.ask(["attr 0 %d" % serve["top_k"]])[0]
            setup = time.monotonic() - start
            conn.close()
            if not reply.startswith("attr 0 ok"):
                raise BenchError("first reply was %r" % reply[:80])
            return proc, port, setup

    def stop(self, proc):
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        self.processes.remove(proc)

    def stop_all(self):
        for proc in list(self.processes):
            self.stop(proc)

    # -- training -----------------------------------------------------------

    def train_phase(self, graph_dir, graph_bytes):
        train = self.cfg["train"]
        with self.tracer.span("graph.ingest"):
            ingest = self.tool("ingest", graph=graph_dir, threads=train["threads"],
                               reps=train["ingest_reps"])
        ingest_s = statistics.median(ingest["ingest_s"])

        def one(budget, out):
            with self.tracer.span("train.trial"):
                return self.tool("train", graph=graph_dir, k=train["k"],
                                 threads=train["threads"], budget_mb=budget,
                                 spill_dir=self.work, seed=self.args.seed,
                                 out=out)

        trials, digests = [], []
        for i in range(train["trials"]):
            path = os.path.join(self.work, "trial%d.ctn" % i)
            trials.append(one(self.wl["train_budget_mb"], path))
            digests.append(sha256(path))
            os.remove(path)
        self.gates["train_trials_identical"] = (
            len(set(digests)) == 1 and
            len({t["attr_auc"] for t in trials}) == 1)
        if self.wl["train_budget_mb"]:
            self.gates["spill_trials_spilled"] = all(t["spilled"] for t in trials)
            path = os.path.join(self.work, "ram.ctn")
            one(0, path)
            self.gates["spill_equals_ram"] = sha256(path) == digests[0]
            os.remove(path)
        self.ops["train"] = (len(trials) + (1 if self.wl["train_budget_mb"]
                                            else 0),
                             sum(not ok for ok in self.gates.values()))

        # Layer figures come from the median trial, so the phases add up to
        # the train_s that trial reported.
        med = sorted(trials, key=lambda t: t["train_s"])[len(trials) // 2]
        self.trials = [t["train_s"] for t in trials]
        self.layer["trace.train_s"] = statistics.median(self.trials)
        self.e2e["train_cpu_s"] = statistics.median(t["cpu_s"] for t in trials)
        self.e2e["train_peak_rss_mb"] = statistics.median(
            t["peak_rss_kb"] / 1024.0 for t in trials)
        self.e2e["attr_auc"] = trials[0]["attr_auc"]
        phases = med["affinity_s"] + med["init_s"] + med["ccd_s"]
        self.layer.update({
            "graph.ingest_s": ingest_s,
            "graph.ingest_mb_s": graph_bytes / 1e6 / ingest_s,
            "core.affinity_s": med["affinity_s"],
            "core.init_s": med["init_s"],
            "core.ccd_s": med["ccd_s"],
            "core.unaccounted_s": med["train_s"] - phases,
            "core.affinity_scratch_mb": med["affinity_scratch_bytes"] / MIB,
            "core.ccd_scratch_mb": med["ccd_scratch_bytes"] / MIB,
            "core.objective_final": med["objective_final"],
            "parallel.cpu_util": med["cpu_s"] / (med["train_s"] *
                                                 train["threads"]),
            "matrix.slab_mb": med["slab_bytes"] / MIB,
            "store.pool_resident_peak_mb": med["pool_resident_peak_bytes"] / MIB,
            "store.pool_evicted_pages": med["pool_evicted_pages"],
            "store.pool_writeback_pages": med["pool_writeback_pages"],
            "train.minor_faults": med["minor_faults"],
            "store.save_s": med["save_s"],
            "store.artifact_mb": med["artifact_bytes"] / MIB,
        })
        return ingest_s

    # -- serving ------------------------------------------------------------

    def client(self, port, rate, seconds, seed, tag, on_tick=None):
        serve = self.cfg["serve"]
        emb = serve["embedding"]
        records_path = os.path.join(self.work, tag + ".rec")
        requests_path = os.path.join(self.work, tag + ".req")
        summary = self.tool(
            "client", timeout=seconds + serve["drain_ms"] / 1000.0 + 60,
            port=port, conns=serve["connections"], rate=rate, seconds=seconds,
            nodes=emb["nodes"], attrs=emb["attrs"], k=serve["top_k"],
            pair_share=serve["pair_share"], drain_ms=serve["drain_ms"],
            seed=seed, out=records_path, requests_out=requests_path,
            on_tick=on_tick)
        with open(records_path) as f:
            records = [tuple(int(x) for x in line.split()) for line in f]
        summary["requests_path"] = requests_path
        return records, summary

    def gate_sample(self, port, embedding):
        """Served answers for a fixed sample must equal direct engine
        answers byte for byte; recall@10 compares against exact top-k."""
        serve = self.cfg["serve"]
        emb = serve["embedding"]
        rng = random.Random(self.args.seed)
        lines = []
        for _ in range(serve["gate_requests"]):
            node = rng.randrange(emb["nodes"])
            kind = rng.random()
            if kind < 0.45:
                lines.append("attr %d %d" % (node, serve["top_k"]))
            elif kind < 0.9:
                lines.append("link %d %d" % (node, serve["top_k"]))
            elif kind < 0.95:
                lines.append("pattr %d %d" % (node, rng.randrange(emb["attrs"])))
            else:
                lines.append("pair %d %d" % (node, rng.randrange(emb["nodes"])))
        req_path = os.path.join(self.work, "gate.req")
        ref_path = os.path.join(self.work, "gate.ref")
        with open(req_path, "w") as f:
            f.write("\n".join(lines) + "\n")
        self.tool("reference", embedding=embedding,
                  threads=serve["server_threads"], shards=self.wl["shards"],
                  nprobe=self.wl["nprobe"], requests=req_path, out=ref_path)
        with open(ref_path) as f:
            reference = [line.rstrip("\n").split("\t") for line in f]
        conn = FrameConn(port)
        served = conn.ask(lines)
        conn.close()
        mismatches, recalls = 0, []
        for got, (expected, exact_ids) in zip(served, reference):
            if got != expected:
                mismatches += 1
            if exact_ids:
                exact = exact_ids.split(",")
                ids = [tok.split(":")[0] for tok in got.split()[3:]]
                recalls.append(len(set(ids) & set(exact)) / len(exact))
        self.gates["served_equals_direct"] = mismatches == 0
        recall = statistics.mean(recalls)
        if not self.wl["shards"]:
            self.gates["exact_recall_is_1"] = recall == 1.0
        self.ops["gate"] = (len(lines), mismatches)
        return recall

    def serve_phase(self, embedding):
        serve = self.cfg["serve"]
        setups = []
        with self.tracer.span("serve.setup"):
            for _ in range(serve["setup_launches"]):
                proc, port, setup = self.start_server(embedding)
                setups.append(setup)
                if len(setups) < serve["setup_launches"]:
                    self.stop(proc)
        with self.tracer.span("serve.gate"):
            self.e2e["recall_at_10"] = self.gate_sample(port, embedding)

        rate = self.wl["fixed_rate"]
        with self.tracer.span("serve.warmup"):
            self.client(port, rate, serve["warmup_seconds"],
                        self.args.seed * 1000 + 1, "warmup")
        traced = self.args.trace
        if traced:
            before = self.snapshot(port)
        cpu = []  # (monotonic ns, server CPU ns) while the schedule runs

        def sample_cpu():
            cpu.append((time.monotonic_ns(), cpu_ns(proc.pid)))

        with self.tracer.span("serve.fixed") as fixed_span:
            records, summary = self.client(port, rate, self.args.seconds,
                                           self.args.seed * 1000 + 2, "fixed",
                                           on_tick=sample_cpu)
            sample_cpu()
        window_ns = int(serve["window_seconds"] * 1e9)
        self.e2e["serve_cpu_us_per_req"] = stats.windowed_cost(
            records, window_ns, summary["start_ns"], cpu) / 1000.0
        self.e2e["serve_peak_rss_mb"] = vm_hwm_mb(proc.pid)
        self.layer["serve.client.p50_us"] = stats.windowed_percentile(
            records, window_ns, 50)
        self.layer["serve.client.p99_us"] = stats.windowed_percentile(
            records, window_ns, 99)
        fixed_failed = sum(1 for r in records
                           if stats.latency_us(r) == stats.MISS)
        self.ops["fixed"] = (len(records), fixed_failed)
        self.gates["fixed_rate_all_answered"] = fixed_failed == 0
        if traced:
            after = self.snapshot(port)
            self.tracer.add_requests(
                records, summary["start_ns"] - self.tracer.origin, fixed_span)
            self.serve_layers(records, summary, before, after)
            with self.tracer.span("serve.ladder"):
                capacity, self.ops["ladder"] = self.ladder(port)
            self.layer["serve.client.capacity_qps"] = capacity
        self.stop(proc)
        if traced:
            with self.tracer.span("serve.layers"):
                self.inproc_layers(embedding, summary["requests_path"])
        return statistics.median(setups)

    def ladder(self, port):
        serve = self.cfg["serve"]
        rates, start = stats.ladder_rates(self.wl["ladder_base"],
                                          serve["ladder_step"],
                                          self.wl["ladder_below"],
                                          self.wl["ladder_above"])
        measured = {}
        ops = [0, 0]

        def run_rung(rate):
            index = rates.index(rate)
            records, _ = self.client(port, rate, serve["rung_seconds"],
                                     self.args.seed * 1000 + 10 + index,
                                     "rung%d" % index)
            ops[0] += len(records)
            ops[1] += sum(1 for r in records
                          if stats.latency_us(r) == stats.MISS)
            verdict = stats.rung_verdict(records, serve["latency_limit_us"],
                                         serve["backlog_slack"])
            measured[index] = stats.achieved_rate(records)
            log("rung %d rate %.0f: %s" % (index, rate, verdict[1]))
            return verdict

        best = stats.walk_ladder(rates, start, run_rung)
        if best is None:
            raise BenchError("no ladder rung met the latency limit")
        if best == len(rates) - 1:
            log("the top rung passed: capacity is only a lower bound")
        return measured[best], tuple(ops)

    def snapshot(self, port):
        conn = FrameConn(port)
        stats_line, metrics_text = conn.ask(["stats", "metrics"])
        conn.close()
        return parse_stats(stats_line), parse_prometheus(metrics_text)

    def serve_layers(self, records, summary, before, after):
        (stats0, m0), (stats1, m1) = before, after

        def delta_mean(name):
            count = m1.get((name + "_count", ""), 0) - m0.get((name + "_count", ""), 0)
            total = m1.get((name + "_sum", ""), 0) - m0.get((name + "_sum", ""), 0)
            return total / count if count > 0 else 0.0

        means = {s: delta_mean("pane_stage_%s_us" % s) for s in STAGES}
        # Routed: shard-side scan/select run inside the front's fan-out, so
        # the request path is decode, wait, fan-out, merge, encode.
        path = (("decode", "batch_wait", "fanout", "merge", "encode")
                if self.wl["shards"] else
                ("decode", "batch_wait", "engine_scan", "topk_select",
                 "encode"))
        stage_sum = sum(means[s] for s in path)
        answered = [r for r in records if stats.latency_us(r) != stats.MISS]
        client_mean = statistics.mean((r[2] - r[1]) / 1000.0 for r in answered)
        requests = int(stats1["requests"]) - int(stats0["requests"])
        batches = int(stats1["batches"]) - int(stats0["batches"])
        hop_p99 = max([v for (name, labels), v in m1.items()
                       if name == "pane_router_hop_us" and
                       'quantile="0.99"' in labels] or [0.0])
        for s in ("decode", "batch_wait", "engine_scan", "topk_select",
                  "encode"):
            self.layer["serve.server.stage.%s_us" % s] = m1.get(
                ("pane_stage_%s_us" % s, 'quantile="0.5"'), 0.0)
        self.layer.update({
            "serve.server.batch_size_mean": requests / max(1, batches),
            "serve.server.stage_mean_sum_us": stage_sum,
            "serve.router.fanout_us": means["fanout"],
            "serve.router.merge_us": means["merge"],
            "serve.router.hop_p99_us": hop_p99,
            "serve.transport.residual_us": client_mean - stage_sum,
            "serve.transport.bytes_per_req":
                (summary["bytes_out"] + summary["bytes_in"]) / len(records),
            "client.mean_us": client_mean,
            "client.late_p99_us": stats.percentile(
                [stats.lateness_us(r) for r in records], 99),
            "trace.serve_cpu_us_per_req": self.e2e["serve_cpu_us_per_req"],
        })

    def inproc_layers(self, embedding, requests_path):
        serve = self.cfg["serve"]
        batch = max(1, round(self.layer["serve.server.batch_size_mean"]))
        got = self.tool("layers", embedding=embedding,
                        threads=serve["server_threads"],
                        shards=self.wl["shards"], nprobe=self.wl["nprobe"],
                        reps=3, requests=requests_path, batch=batch)
        self.layer.update({
            "store.open_s": got["open_s"],
            "serve.engine.create_s": got["create_s"],
            "serve.engine.ivf_build_s": got["ivf_build_s"],
            "serve.engine.scan_us_per_query": got["scan_us_per_query"],
            "serve.engine.select_us_per_query": got["select_us_per_query"],
            "serve.engine.tiles_per_query": got["tiles_per_query"],
            "serve.engine.ivf_scanned_ratio": got["ivf_scanned_ratio"],
            "serve.server.exec_self_us": got["exec_self_us"],
            "serve.router.split_s": got["split_s"],
        })

    # -- the whole run ------------------------------------------------------

    def run(self):
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        cfg, seed = self.cfg, self.args.seed
        with self.tracer.span("build"):
            self.tool_path, self.server_path = build(cfg)
        steal0, total0 = steal_ticks()
        fingerprint = self.fingerprint()
        log("fingerprint " + json.dumps(fingerprint))
        with self.tracer.span("workload"):
            with self.tracer.span("inputs"):
                graph_dir = os.path.join(self.work, "graph")
                g = cfg["train"]["graph"]
                graph = self.tool("gen-graph", seed=seed, nodes=g["nodes"],
                                  edges=g["edges"], attrs=g["attrs"],
                                  attr_entries=g["attr_entries"],
                                  communities=g["communities"], out=graph_dir)
                embedding = os.path.join(self.work, "serve.ctn")
                e = cfg["serve"]["embedding"]
                self.tool("gen-embedding", seed=seed, nodes=e["nodes"],
                          attrs=e["attrs"], dim=e["dim"],
                          clusters=e["clusters"], out=embedding)
            with self.tracer.span("train"):
                ingest_s = self.train_phase(graph_dir, graph["bytes"])
            with self.tracer.span("serve"):
                serve_setup_s = self.serve_phase(embedding)
        self.e2e["setup_s"] = ingest_s + serve_setup_s
        steal1, total1 = steal_ticks()
        self.layer["host.steal_pct"] = (100.0 * (steal1 - steal0) /
                                        max(1, total1 - total0))

        attempted = sum(a for a, _ in self.ops.values())
        failed = sum(f for _, f in self.ops.values())
        for phase, (a, f) in self.ops.items():
            self.layer["ops.%s.attempted" % phase] = a
            self.layer["ops.%s.failed" % phase] = f
        correct = all(self.gates.values())
        for gate, ok in sorted(self.gates.items()):
            log("gate %s: %s" % (gate, "pass" if ok else "FAIL"))
        units = PER_LAYER if self.args.trace else END_TO_END
        values = self.layer if self.args.trace else self.e2e
        metrics = {name: {"value": values.get(name, 0.0), "unit": unit}
                   for name, unit in units.items()}
        record = {"schema_version": cfg["schema_version"],
                  "workload": self.args.workload, "seed": seed,
                  "trace": self.args.trace, "fingerprint": fingerprint,
                  "gates": self.gates, "end_to_end": self.e2e,
                  "train_trials_s": self.trials,
                  "per_layer": self.layer}
        print(json.dumps({"record": record}))
        results = os.path.join(BUILD, "results")
        os.makedirs(results, exist_ok=True)
        with open(os.path.join(results, "%s-%d-trace%d.json" % (
                self.args.workload, seed, self.args.trace)), "w") as f:
            json.dump(record, f, indent=1)
        if self.args.trace:
            self.tracer.write(os.path.join(BUILD, "traces", "%s-%d.json" % (
                self.args.workload, seed)))
        shutil.rmtree(self.work, ignore_errors=True)
        return {"correct": correct, "attempted": attempted, "failed": failed,
                "metrics": metrics}

    def fingerprint(self):
        native = self.tool("fingerprint")
        model = ""
        with contextlib.suppress(OSError):
            with open("/proc/cpuinfo") as f:
                for line in f:
                    if line.startswith("model name"):
                        model = line.split(":", 1)[1].strip()
                        break
        return {"cpu_cores": os.cpu_count(), "cpu_model": model,
                "machine": platform.machine(), "compiler": native["compiler"],
                "build_type": self.cfg["build_type"],
                "avx2_dot_kernel": bool(native["avx2_dot_kernel"]),
                "seed": self.args.seed,
                "schema_version": self.cfg["schema_version"]}


def sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def main():
    with open(os.path.join(HERE, "config.json")) as f:
        cfg = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(cfg["workloads"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True,
                        help="length of the fixed-rate serving phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    run = Run(args, cfg)
    try:
        result = run.run()
    except (BenchError, subprocess.TimeoutExpired, ValueError, OSError) as e:
        log("error: %s" % e)
        return 1
    finally:
        run.stop_all()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
