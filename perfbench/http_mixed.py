"""Workload ``http-mixed``: mixed read/write traffic through the HTTP edge.

CLAPF-MAP is fitted on ML100K-sim (500 items) and served by
``RecommendationService.build`` behind ``EdgeServer`` with the WAL
enabled; everything else keeps its default (``fsync=always``, 50 ms
deadline, default breakers).  The server runs in its own process
(``perfbench/server.py``).  This process drives it open-loop: Poisson
arrivals over Zipf(1.1) users, 90% ``/v1/recommend`` (every 10th read in
the GET form) and 10% ``/v1/feedback`` with unique keys, over at most
two keep-alive connections.

The catalog is small, so the scoring kernel does little work and the
per-request costs dominate: edge parse/encode, coalescing, the cascade
and its breakers, the executor hop, and the WAL's append plus fsync,
which shares the edge worker pool with the reads.

Traffic runs a full breaker window at the reference rate before any
timing, then the reference window, then a ladder of higher rates that
finds the highest rate the service sustains.
"""

from __future__ import annotations

import asyncio
import json
import os
import selectors
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from perfbench.common import ROOT, WORK, BenchmarkError, quantile, reconcile, summarize
from perfbench.loadgen import WRITE, backlog_grew, make_schedule, run_open_loop
from perfbench.server import PROFILE, SCALE

K = 10
CONNECTIONS = max(1, min(2, os.cpu_count() or 1))
#: A rate well below saturation on a 2-core host (about a quarter of it),
#: so queueing does not amplify host noise; ten seconds of it give 1080
#: reads (a p99 with ten samples beyond) and 120 writes.
REFERENCE_RATE = 120.0
#: Rates tried above the reference, in order, until one is not sustained;
#: the bracket it leaves is then halved BISECT_STEPS times.  A rate that
#: misses is tried once more before it counts as not sustained, so one
#: scheduler stall on a shared host cannot decide the result.
LADDER = (400.0, 550.0, 700.0)
BISECT_STEPS = 1
ATTEMPTS = 2
#: Requests per ladder rung: enough reads for a p99 with ten samples beyond.
RUNG_REQUESTS = 1200
#: Requests in the capacity probe: all due at once, so the connections
#: send back to back (a closed loop) for a few seconds.
CAPACITY_REQUESTS = 3000
WRITE_SHARE = 0.1
GET_EVERY = 10
ZIPF_S = 1.1
SETUP_REPEATS = 3
READY_TIMEOUT_S = 120.0

CONFIG = {
    "profile": PROFILE, "scale": SCALE, "model": "clapf_map defaults", "k": K,
    "connections": CONNECTIONS, "reference_rate": REFERENCE_RATE, "ladder": LADDER,
    "bisect_steps": BISECT_STEPS, "attempts": ATTEMPTS, "rung_requests": RUNG_REQUESTS,
    "capacity_requests": CAPACITY_REQUESTS,
    "write_share": WRITE_SHARE, "get_every": GET_EVERY, "zipf_s": ZIPF_S, "arrivals": "open loop, Poisson", "setup_repeats": SETUP_REPEATS,
    "service": "RecommendationService.build defaults + EdgeServer(wal=...) defaults",
}


class ServerProcess:
    """One ``perfbench/server.py`` child, driven over stdin/stdout JSON lines."""

    def __init__(self, seed: int, wal_dir: Path, trace: bool):
        self.process = subprocess.Popen(
            [sys.executable, str(ROOT / "perfbench" / "server.py"), "--seed", str(seed),
             "--wal-dir", str(wal_dir), "--trace", str(int(trace))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )
        self.ready = self._read(READY_TIMEOUT_S)
        if self.ready.get("event") != "ready":
            raise BenchmarkError(f"server did not start: {self.ready}")

    def _read(self, timeout: float) -> dict:
        with selectors.DefaultSelector() as selector:
            selector.register(self.process.stdout, selectors.EVENT_READ)
            if not selector.select(timeout):
                raise BenchmarkError(f"server sent nothing within {timeout:.0f}s")
        line = self.process.stdout.readline()
        if not line:
            raise BenchmarkError(f"server exited (code {self.process.poll()})")
        return json.loads(line)

    def command(self, payload: dict) -> dict:
        self.process.stdin.write(json.dumps(payload) + "\n")
        self.process.stdin.flush()
        return self._read(60.0)

    def stop(self) -> dict:
        """Drain and exit; returns the final line (with peak RSS)."""
        try:
            return self.command({"cmd": "stop"})
        finally:
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=30)

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait(timeout=30)


class _Traffic:
    """Runs schedules against the server and validates every reply."""

    def __init__(self, seed: int, server: ServerProcess, train):
        self.seed = seed
        self.server = server
        self.train = train
        self.phase = 0
        self.acknowledged: set[str] = set()
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run(self, rate: float, count: int):
        """Open loop at ``rate``; ``rate=inf`` makes every request due at once."""
        self.phase += 1
        schedule = make_schedule(
            self.seed * 1000 + self.phase, rate=rate, count=count,
            n_users=self.train.n_users, n_items=self.train.n_items,
            write_share=WRITE_SHARE, get_every=GET_EVERY, zipf_s=ZIPF_S,
            key_prefix=f"fb{self.phase}",
        )
        ready = self.server.ready
        outcomes = asyncio.run(run_open_loop(
            ready["host"], ready["port"], schedule, connections=CONNECTIONS, k=K))
        failures = sum(not self._validate(outcome) for outcome in outcomes)
        self.attempted += len(outcomes)
        self.failed += failures
        return outcomes, failures

    def _validate(self, outcome) -> bool:
        """True for a correct 200; shed and failed requests count as failures."""
        if outcome.status != 200:
            if len(self.errors) < 5:
                self.errors.append(
                    f"{outcome.arrival.kind} user {outcome.arrival.user}: status "
                    f"{outcome.status} {outcome.error or outcome.body[:120]!r}")
            return False
        body = json.loads(outcome.body)
        if outcome.arrival.kind == WRITE:
            if body.get("duplicate") is not False:
                self.errors.append(f"feedback {outcome.arrival.key} acknowledged as duplicate")
                return False
            self.acknowledged.add(outcome.arrival.key)
            return True
        items = np.asarray(body["items"], dtype=np.int64)
        user = outcome.arrival.user
        problem = None
        if len(items) != K or len(np.unique(items)) != K:
            problem = f"{len(items)} items, {len(np.unique(items))} unique"
        elif items.min() < 0 or items.max() >= self.train.n_items:
            problem = "item id out of range"
        elif np.isin(items, self.train.positives(user)).any():
            problem = "recommended a train positive"
        if problem is not None:
            if len(self.errors) < 5:
                self.errors.append(f"read user {user}: {problem}")
            return False
        outcome.served_by = body["served_by"]
        return True


def _reads(outcomes):
    return [o for o in outcomes if o.arrival.kind != WRITE and o.status == 200]


def _writes(outcomes):
    return [o for o in outcomes if o.arrival.kind == WRITE and o.status == 200]


def _sustained(outcomes, failures: int, deadline_ms: float) -> tuple[bool, dict]:
    """A rate is met when nothing failed, read p99 is within the deadline,
    and the generator's backlog did not grow."""
    reads = [o.from_due_ms for o in _reads(outcomes)]
    summary = summarize(reads)
    met = failures == 0 and summary["tail"] <= deadline_ms and not backlog_grew(outcomes)
    return met, summary


def _check_wal(wal_dir: Path, acknowledged: set[str], errors: list[str]) -> int:
    """Reopening the WAL must show exactly the acknowledged feedback records."""
    from repro.streaming.wal import WriteAheadLog

    with WriteAheadLog(wal_dir) as wal:
        keys = [record.key for _, record in wal.read()]
    if len(keys) != len(set(keys)) or set(keys) != acknowledged:
        errors.append(
            f"WAL holds {len(keys)} records ({len(set(keys))} keys) but "
            f"{len(acknowledged)} were acknowledged"
        )
    return len(keys)


def run(seed: int, seconds: float, trace: bool) -> dict:
    from repro import make_profile_dataset, train_test_split
    from repro.serving.service import ServiceConfig

    root = WORK / f"http-mixed-{seed}"
    shutil.rmtree(root, ignore_errors=True)
    root.mkdir(parents=True)
    server = None
    # setup_s is the server's CPU time to ready; spawn-to-ready wall time
    # is recorded beside it.
    setups: list[float] = []
    setup_walls: list[float] = []
    try:
        for repeat in range(SETUP_REPEATS):
            if server is not None:
                server.stop()
            wal_dir = root / f"wal{repeat}"
            start = time.perf_counter()
            server = ServerProcess(seed, wal_dir, trace)
            setup_walls.append(time.perf_counter() - start)
            setups.append(float(server.ready["cpu_s"]))
        dataset = make_profile_dataset(PROFILE, scale=SCALE, seed=seed)
        train = train_test_split(dataset, seed=seed).train
        if (train.n_users, train.n_items) != (server.ready["n_users"], server.ready["n_items"]):
            raise BenchmarkError("server and benchmark generated different datasets")
        config = ServiceConfig()
        traffic = _Traffic(seed, server, train)
        window_s = config.breaker.window_seconds
        traffic.run(REFERENCE_RATE, int(REFERENCE_RATE * window_s))
        if trace:
            result = _traced(traffic, seconds)
        else:
            result = _measured(traffic, seconds, config.default_deadline_ms)
        final = server.stop()
        server = None
        records = _check_wal(wal_dir, traffic.acknowledged, traffic.errors)
        result["detail"]["wal_records"] = records
        result["detail"]["warmup_s"] = window_s
        result["detail"]["setup_wall_s"] = setup_walls
        result.update(errors=traffic.errors, attempted=traffic.attempted,
                      failed=traffic.failed, setup=setups,
                      peak_rss_mb=final["peak_rss_mb"])
        return result
    finally:
        if server is not None:
            server.kill()
        shutil.rmtree(root, ignore_errors=True)


def _measured(traffic: _Traffic, seconds: float, deadline_ms: float) -> dict:
    outcomes, failures = traffic.run(REFERENCE_RATE, int(REFERENCE_RATE * seconds))
    reference_met, read = _sustained(outcomes, failures, deadline_ms)
    write = summarize([o.from_due_ms for o in _writes(outcomes)])
    reads = _reads(outcomes)
    share = sum(o.served_by == "personalized" for o in reads) / len(reads)
    rungs: list[dict] = []
    max_rate = _max_rate(traffic, deadline_ms, rungs, outcomes)
    probe, _ = traffic.run(float("inf"), CAPACITY_REQUESTS)
    capacity = _achieved_rps(probe)
    named = {
        "http_read_p50_ms": (read["p50"], "ms"),
        f"http_read_p{read['tail_q']:g}_ms": (read["tail"], "ms"),
        "http_write_p50_ms": (write["p50"], "ms"),
        f"http_write_p{write['tail_q']:g}_ms": (write["tail"], "ms"),
        "http_max_rate_rps": (max_rate, "1/s"),
        "http_capacity_rps": (capacity, "1/s"),
        "personalized_share": (share, "ratio"),
    }
    return {
        "e2e": {
            "op_p50_ms": read["p50"],
            "throughput_per_s": capacity,
            "quality": share,
        },
        "named": named,
        "detail": {
            "op": f"one recommend request at {REFERENCE_RATE:g} rps, timed from its due time",
            "op_summary": read,
            "write_summary": write,
            "throughput": f"requests/s over {CONNECTIONS} connections sending back to "
                          "back (the same mix)",
            "max_rate": "requests/s delivered at the highest ladder rate with no "
                        "failure, read p99 within the deadline and no growing backlog",
            "quality": "share of recommend replies served by the personalized tier",
            "late_ms": summarize([o.late_ms for o in outcomes]),
            "reference_met": reference_met,
            "ladder": rungs,
        },
    }


def _achieved_rps(outcomes) -> float:
    """Requests completed per second, from the first due time to the last reply."""
    first = min(o.due for o in outcomes)
    last = max(o.done for o in outcomes)
    return len(outcomes) / (last - first)


def _max_rate(traffic: _Traffic, deadline_ms: float, rungs: list, reference) -> float:
    """Throughput at the highest sustained rate: walk the ladder, then bisect.

    Returns the rate the service actually delivered during that rung, a
    measured number rather than the nominal ladder rate.
    """

    def met(rate: float) -> bool:
        for _ in range(ATTEMPTS):
            outcomes, failures = traffic.run(rate, RUNG_REQUESTS)
            ok, summary = _sustained(outcomes, failures, deadline_ms)
            rungs.append({"rate": rate, "met": ok, "failed": failures, "read": summary,
                          "achieved_rps": _achieved_rps(outcomes)})
            if ok:
                return True
        return False

    low, best = REFERENCE_RATE, _achieved_rps(reference)
    high = None
    for rate in LADDER:
        if not met(rate):
            high = rate
            break
        low, best = rate, rungs[-1]["achieved_rps"]
    for _ in range(BISECT_STEPS if high is not None else 0):
        middle = (low + high) / 2.0
        if met(middle):
            low, best = middle, rungs[-1]["achieved_rps"]
        else:
            high = middle
    return best


def _window(traffic: _Traffic, seconds: float, command: dict):
    before = traffic.server.command(command)
    outcomes, _ = traffic.run(REFERENCE_RATE, int(REFERENCE_RATE * seconds))
    return outcomes, before


def _traced(traffic: _Traffic, seconds: float) -> dict:
    from perfbench.trace import serving_layers

    server = traffic.server
    plain, start = _window(traffic, seconds, {"cmd": "mark"})
    after_plain = server.command({"cmd": "mark"})
    traced, on = _window(traffic, seconds, {"cmd": "trace", "on": True})
    off = server.command({"cmd": "trace", "on": False})
    spans = off["spans"]
    self_s, total_s, samples = spans["self_s"], spans["total_s"], spans["samples"]

    n = len(traced)
    n_reads = sum(o.arrival.kind != WRITE for o in traced)
    n_writes = n - n_reads
    wall = sum(o.from_send_ms for o in traced) / 1000.0
    tallies = samples.get("edge.handler", [])
    if len(tallies) != n:
        raise BenchmarkError(f"server traced {len(tallies)} requests, client sent {n}")
    handler = sum(t["__duration__"] for t in tallies)
    parse = sum(t.get("edge.parse", 0.0) for t in tallies)
    encode = sum(t.get("edge.encode", 0.0) + t.get("edge.encode_wire", 0.0) for t in tallies)
    wire = sum(t.get("edge.encode_wire", 0.0) for t in tallies)
    submit = sum(t.get("edge.submit", 0.0) for t in tallies)
    feedback = sum(
        t["edge.feedback_handler"] - t.get("edge.parse", 0.0) - t.get("edge.encode", 0.0)
        for t in tallies if "edge.feedback_handler" in t
    )
    wal = self_s.get("streaming.wal_append", 0.0)
    layers = serving_layers(self_s)
    layers.update({
        "edge.parse": parse,
        "edge.encode": encode,
        "edge.coalesce_wait": submit - total_s.get("serving.recommend_batch", 0.0),
        "edge.pool_wait": feedback - wal,
        "edge.residual": wall - handler - wire,
        "streaming": wal,
    })
    recon = reconcile(wall, layers, layers)
    batches = off["batches"] - on["batches"]
    served = {name: off["served"][name] - on["served"].get(name, 0) for name in off["served"]}
    total_served = sum(served.values()) or 1
    cpu_plain = (after_plain["cpu_s"] - start["cpu_s"]) / len(plain)
    cpu_traced = (off["cpu_s"] - on["cpu_s"]) / n
    appends = [value * 1000.0 for value in samples.get("streaming.wal_append", [])]
    per_layer = {
        "metrics.linear_scores_s": self_s.get("metrics.linear_scores", 0.0) / n_reads,
        "metrics.topk_s": self_s.get("metrics.topk", 0.0) / n_reads,
        "serving.recommend_batch_s": layers["serving"] / n_reads,
        "serving.breaker_s": layers["serving.breaker"] / n_reads,
        "serving.breaker_calls": spans["calls"].get("serving.breaker", 0) / n_reads,
        "serving.executor_wait_ms": 1000.0 * layers["serving.executor"] / n_reads,
        "edge.parse_s": parse / n,
        "edge.encode_s": encode / n,
        "edge.coalesce_wait_ms": 1000.0 * layers["edge.coalesce_wait"] / n_reads,
        "edge.coalesce_batch_mean": n_reads / batches if batches else 0.0,
        "edge.pool_wait_ms": 1000.0 * layers["edge.pool_wait"] / max(n_writes, 1),
        "edge.residual_ms": 1000.0 * layers["edge.residual"] / n,
        "streaming.wal_append_p50_ms": quantile(appends, 50.0) if appends else 0.0,
        "streaming.wal_append_tail_ms": summarize(appends)["tail"] if appends else 0.0,
        "loadgen.late_p99_ms": quantile([o.late_ms for o in traced], 99.0),
        "trace.overhead_pct": 100.0 * (cpu_traced - cpu_plain) / cpu_plain,
    }
    for name, count in served.items():
        per_layer[f"serving.tier_share.{name}"] = count / total_served
    return {
        "per_layer": per_layer,
        "reconcile": recon,
        "detail": {
            "per": "request (serving and metrics per read, WAL per write)",
            "overhead": "server CPU seconds per request, traced vs untraced window",
            "requests": {"traced": n, "reads": n_reads, "writes": n_writes,
                         "untraced": len(plain)},
            "wal_append_tail_q": summarize(appends)["tail_q"] if appends else None,
            "wal_appends": len(appends),
            "late_p99_samples": n,
        },
    }
