"""serve-http: durable serving over real sockets.

A spawned server process (``server.py``) serves a ``sharded-sq8``
collection; this process is the client, on at most ``min(2, nproc)``
keep-alive connections.  Exercises ``net`` (parse, admission, JSON),
``service``, the ``shard`` scatter and merge, and the ``quant`` scan and
re-rank; bypasses training and WAL writes.  Query vectors never repeat
within a run.
"""

from __future__ import annotations

import asyncio
import gc
import os
import select
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np
from repro import Collection
from repro.net.client import AsyncHttpClient, request_json
from repro.utils.exceptions import ReproError

from harness import (
    K,
    Context,
    Mixture,
    Outcome,
    Tally,
    calm_rate,
    check_answers,
    exact_topk,
    median,
    percentile_ms,
    recall,
    windowed_percentile_ms,
)

# A third of the slowest closed-loop capacity seen on the reference host
# (140-230 QPS): at 100 QPS the host's slow spells push the server past
# two-thirds load and p90 swings from 8 to 60+ ms between runs.
OPEN_LOOP_QPS = 50.0
CONNECTIONS = max(1, min(2, os.cpu_count() or 1))
ROUND_S = 1.25  # one closed- and one open-loop slice, 40 % and 60 % of it
SERVER_SCRIPT = Path(__file__).with_name("server.py")


class ServerProcess:
    """One spawned server; ``setup_s`` runs from spawn to the port being ready."""

    def __init__(self, ctx: Context, base_file: Path, name: str, trace_rate: float) -> None:
        command = [
            sys.executable,
            str(SERVER_SCRIPT),
            "--src", str(ctx.src),
            "--base", str(base_file),
            "--dir", str(ctx.work / name),
            "--trace-rate", str(trace_rate),
        ]
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        self.collection_dir = ctx.work / name
        self.peak_rss_mb: Optional[float] = None
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], 170.0)
            line = self.proc.stdout.readline() if ready else ""
            if not line.startswith("READY "):
                raise RuntimeError(f"server did not become ready: {line!r}")
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - start
        self.port = int(line.split()[1])

    def stop(self) -> None:
        """Close stdin (the server drains and exits) and wait for it."""
        if self.proc.poll() is None:
            try:
                out, _ = self.proc.communicate(input="", timeout=60.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                out, _ = self.proc.communicate()
            for line in out.splitlines():
                if line.startswith("RSS "):
                    self.peak_rss_mb = float(line.split()[1])
        self.proc.wait()

    def __enter__(self) -> "ServerProcess":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


class Phase:
    """Results of one load phase: latencies, answers and failures."""

    def __init__(self) -> None:
        self.latencies: List[float] = []
        self.finished: List[float] = []
        self.answered: List[int] = []
        self.ids: List[np.ndarray] = []
        self.distances: List[np.ndarray] = []
        self.late: List[float] = []
        self.tally = Tally()
        self.elapsed = 0.0

    async def send(self, client, index: int, vector: np.ndarray, timed_from: float, spans=None, parent=None) -> None:
        self.tally.attempted += 1
        start = time.perf_counter()
        try:
            status, _, body = await client.post("/query", {"vector": vector.tolist(), "k": K})
        except (OSError, EOFError, ValueError, ReproError):
            # Refused, reset, timed out or malformed: a failed operation.
            self.tally.failed += 1
            await client.close()
            return
        end = time.perf_counter()
        if spans is not None:
            spans.record("http.request", start, end, parent, status=status)
        if status != 200:
            self.tally.failed += 1
            return
        self.latencies.append(end - timed_from)
        self.finished.append(end)
        self.answered.append(index)
        # Arrays, not lists of floats: fewer live objects in the client
        # means shorter garbage-collection pauses inside timed phases.
        self.ids.append(np.asarray(body["ids"], dtype=np.int64))
        self.distances.append(np.asarray(body["distances"], dtype=np.float64))


def _clients(port: int):
    return [AsyncHttpClient("127.0.0.1", port, timeout=10.0) for _ in range(CONNECTIONS)]


async def _closed_loop(port, vectors, offset, seconds, phase, spans=None, parent=None):
    """Each connection sends its next query as soon as the last one returns."""
    clients = _clients(port)
    indexes = iter(range(offset, offset + vectors.shape[0]))
    deadline = time.perf_counter() + seconds

    async def connection(client) -> None:
        for index in indexes:
            if time.perf_counter() >= deadline:
                return
            now = time.perf_counter()
            await phase.send(client, index, vectors[index - offset], now, spans, parent)

    start = time.perf_counter()
    try:
        await asyncio.gather(*(connection(c) for c in clients))
    finally:
        for client in clients:
            await client.close()
    phase.elapsed = time.perf_counter() - start


async def _open_loop(port, vectors, offset, seconds, phase, spans=None, parent=None):
    """A fixed-rate schedule; each request is timed from when it was due."""
    clients = _clients(port)
    queue: asyncio.Queue = asyncio.Queue()
    n_requests = int(seconds * OPEN_LOOP_QPS)
    first_due = time.perf_counter() + 0.01

    async def generator() -> None:
        for i in range(n_requests):
            due = first_due + i / OPEN_LOOP_QPS
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            phase.late.append(time.perf_counter() - due)
            queue.put_nowait((i, due))
        for _ in clients:
            queue.put_nowait(None)

    async def connection(client) -> None:
        while (item := await queue.get()) is not None:
            i, due = item
            await phase.send(client, offset + i, vectors[i], due, spans, parent)

    try:
        await asyncio.gather(generator(), *(connection(c) for c in clients))
    finally:
        for client in clients:
            await client.close()
    phase.elapsed = time.perf_counter() - first_due


class Inputs:
    """Base vectors and one disjoint slice of fresh queries per load phase."""

    def __init__(self, ctx: Context, phase_seconds: List[float]) -> None:
        mixture = Mixture(ctx.seed)
        self.base = mixture.base(2_000 if ctx.smoke else 20_000)
        # room for 1,500 QPS in every phase; open loops need far fewer
        self.slices = [mixture.draw(int(s * 1_500) + 50) for s in phase_seconds]
        self.offsets = np.cumsum([0] + [s.shape[0] for s in self.slices])
        self.base_file = ctx.work / "serve_base.npy"
        np.save(self.base_file, self.base)

    def load(self, server, i: int, seconds: float, loop=None, spans=None, parent=None) -> "Phase":
        """Drive phase ``i`` against ``server`` with its own query slice."""
        phase = Phase()
        run = loop or _closed_loop
        # The client's own garbage collection would show as server latency.
        gc.collect()
        gc.disable()
        try:
            asyncio.run(run(server.port, self.slices[i], self.offsets[i], seconds, phase, spans, parent))
        finally:
            gc.enable()
        return phase

    def check(self, phases: List["Phase"]) -> float:
        """Check every answer; returns recall@10 against exact search."""
        queries = np.vstack(self.slices)[[i for p in phases for i in p.answered]]
        ids = np.vstack([row for p in phases for row in p.ids])
        distances = np.vstack([row for p in phases for row in p.distances])
        check_answers(ids, distances, queries, self.base, what="http /query")
        return recall(ids, exact_topk(queries, self.base)[0])


def measure(ctx: Context) -> Outcome:
    """Closed- and open-loop slices, alternating, on one warmed-up server.

    Alternating short slices spreads both phases across the whole timed
    span, so a few seconds of host noise land on both alike, and gives
    each phase many windows to take the better quartile of.
    """
    rounds = 2 if ctx.smoke else max(2, round(ctx.seconds / ROUND_S))
    warm_s = 0.3 if ctx.smoke else 1.0
    closed_s, open_s = 0.4 * ctx.seconds / rounds, 0.6 * ctx.seconds / rounds
    inputs = Inputs(ctx, [warm_s] + [closed_s, open_s] * rounds)

    setups = []
    for attempt in range(2 if ctx.smoke else 5):
        if setups:
            server.stop()
        server = ServerProcess(ctx, inputs.base_file, f"serve{attempt}", trace_rate=0.0)
        setups.append(server.setup_s)
    with server:
        warm = inputs.load(server, 0, warm_s)
        closed, opened = [], []
        for r in range(rounds):
            closed.append(inputs.load(server, 1 + 2 * r, closed_s))
            opened.append(inputs.load(server, 2 + 2 * r, open_s, _open_loop))
    open_latencies = [x for phase in opened for x in phase.latencies]
    round_requests = int(open_s * OPEN_LOOP_QPS)  # one window per open-loop round

    out = Outcome()
    for phase in [warm, *closed, *opened]:
        out.tally.add(phase.tally)
    out.metrics = {
        "setup_s": median(setups),
        "peak_rss_mb": server.peak_rss_mb,
        "ops_per_s": calm_rate(len(p.latencies) / p.elapsed for p in closed),
        "p50_ms": windowed_percentile_ms(open_latencies, 50, round_requests),
        "p90_ms": windowed_percentile_ms(open_latencies, 90, round_requests),
        "recall_at_10": inputs.check([warm, *closed, *opened]),
    }
    out.report = {
        "http_qps": (out.metrics["ops_per_s"], "1/s"),
        "http_p50_ms": (out.metrics["p50_ms"], "ms"),
        "http_p90_ms": (out.metrics["p90_ms"], "ms"),
        "http_p99_ms": (percentile_ms(open_latencies, 99), "ms"),
        "open_loop_samples": (len(open_latencies), "count"),
        "closed_loop_p50_ms": (percentile_ms([x for p in closed for x in p.latencies], 50), "ms"),
        "generator_late_p99_ms": (percentile_ms([x for p in opened for x in p.late], 99), "ms"),
    }
    return out


# ---------------------------------------------------------------------- #
# traced run
# ---------------------------------------------------------------------- #
def _scrape(port: int) -> Dict[str, float]:
    """One ``/metrics`` page as ``{series: value}``."""
    status, text = request_json(f"http://127.0.0.1:{port}/metrics")
    if status != 200:
        raise RuntimeError(f"/metrics answered {status}")
    series = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            key, _, value = line.rpartition(" ")
            series[key] = float(value)
    return series


def _mean_ms(before: Dict[str, float], after: Dict[str, float], family: str, labels: str = "") -> float:
    """Mean of a histogram's observations between two scrapes, in ms."""
    def delta(suffix: str) -> float:
        key = f"{family}_{suffix}{labels}"
        return after.get(key, 0.0) - before.get(key, 0.0)

    count = delta("count")
    return 1e3 * delta("sum") / count if count else float("nan")


def _stage_ms(before, after, stage: str) -> float:
    return _mean_ms(before, after, "repro_stage_seconds", f'{{stage="{stage}"}}')


def _shard_query_us(collection_dir: Path, queries: np.ndarray) -> float:
    """One in-process query on a read-only open of the served collection."""
    collection = Collection.open(collection_dir, read_only=True)
    try:
        times = []
        for query in queries:
            start = time.perf_counter()
            collection.index.batch_query(query[None, :], K)
            times.append(time.perf_counter() - start)
    finally:
        collection.close()
    return median(times) * 1e6


def trace(ctx: Context) -> Outcome:
    """Untraced and traced servers side by side; server stages from /metrics.

    Closed-loop rounds alternate between a server with tracing off and one
    with ``trace_sample_rate=1.0``, so both see the same host conditions;
    ``/metrics`` is scraped on the traced server around its rounds.
    """
    spans = ctx.spans
    rounds = 2 if ctx.smoke else 4
    warm_s, round_s, open_s = (0.3, 0.25, 0.5) if ctx.smoke else (1.0, ctx.seconds / 12, ctx.seconds / 6)
    inputs = Inputs(ctx, [warm_s, warm_s] + [round_s] * (2 * rounds) + [open_s])

    with ServerProcess(ctx, inputs.base_file, "serve-plain", trace_rate=0.0) as plain_server, \
            ServerProcess(ctx, inputs.base_file, "serve-traced", trace_rate=1.0) as server:
        warm = [inputs.load(plain_server, 0, warm_s), inputs.load(server, 1, warm_s)]
        plain, traced = [], []
        before = _scrape(server.port)
        with spans.span("serve.closed") as parent:
            for r in range(rounds):
                plain.append(inputs.load(plain_server, 2 + 2 * r, round_s))
                traced.append(inputs.load(server, 3 + 2 * r, round_s, spans=spans, parent=parent))
        after = _scrape(server.port)
        with spans.span("serve.open") as parent:
            opened = inputs.load(server, 2 + 2 * rounds, open_s, _open_loop, spans, parent)
        final = _scrape(server.port)
        with spans.span("shard.batch_query"):
            shard_us = _shard_query_us(server.collection_dir, inputs.slices[2][:200])
    phases = [*warm, *plain, *traced, opened]
    inputs.check(phases)

    def per_request(group):
        return sum(p.elapsed for p in group) / sum(len(p.latencies) for p in group)

    client_ms = 1e3 * float(np.mean([x for p in traced for x in p.latencies]))
    request_ms = _mean_ms(before, after, "repro_http_request_seconds")
    queue_ms = _mean_ms(before, after, "repro_http_queue_wait_seconds")
    search_ms = _stage_ms(before, after, "service.search")
    serialize_ms = _stage_ms(before, after, "serialize")

    out = Outcome()
    for phase in phases:
        out.tally.add(phase.tally)
    out.report = {
        "shard.batch_query_us": (shard_us, "us"),
        "shard.scan_ms": (_stage_ms(before, after, "shard.scan"), "ms"),
        "shard.merge_ms": (_stage_ms(before, after, "shard.merge"), "ms"),
        "quant.scan_ms": (_stage_ms(before, after, "quant.scan"), "ms"),
        "quant.rerank_ms": (_stage_ms(before, after, "quant.rerank"), "ms"),
        "ledger.client_ms": (client_ms, "ms"),
        "net.unattributed_ms": (client_ms - request_ms, "ms"),
        "net.server_request_ms": (request_ms, "ms"),
        "net.queue_wait_ms": (queue_ms, "ms"),
        "service.search_ms": (search_ms, "ms"),
        "net.serialize_ms": (serialize_ms, "ms"),
        "net.server_other_ms": (request_ms - queue_ms - search_ms - serialize_ms, "ms"),
        "net.shed": (final["repro_http_shed_total"] - before["repro_http_shed_total"], "count"),
        "net.generator_late_ms": (percentile_ms(opened.late, 99), "ms"),
        "trace.overhead_serve_http": (per_request(traced) / per_request(plain) - 1.0, "ratio"),
    }
    return out
