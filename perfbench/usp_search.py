"""usp-search: the paper's USP index served from one process.

Exercises ``core`` and ``nn`` (k'-NN matrix, training, bin scoring,
candidate collection) and the exact re-rank kernel behind
``SearchService``; bypasses ``net``, ``store``, ``shard`` and ``quant``.
"""

from __future__ import annotations

import time
from contextlib import nullcontext

import numpy as np
from repro import SearchService, make_index
from repro.core.base import rerank_candidates
from repro.core.knn_matrix import build_knn_matrix

from harness import (
    K,
    Context,
    Mixture,
    Outcome,
    calm_rate,
    check_answers,
    exact_topk,
    median,
    peak_rss_mb,
    percentile_ms,
    recall,
)

USP_PARAMS = dict(n_bins=16, k_prime=10, epochs=10, hidden_dim=64, seed=0)
N_PROBES = 1


def _inputs(ctx: Context):
    n_base, n_queries = (2_000, 200) if ctx.smoke else (20_000, 2_000)
    mixture = Mixture(ctx.seed)
    base = mixture.base(n_base)
    queries = mixture.draw(n_queries)
    return base, queries, exact_topk(queries, base)[0]


def _passes(service, queries, seconds):
    """Alternate a whole-set ``search_batch`` and one pass of single
    ``search()`` calls over the queries, at least twice, until ``seconds``
    have passed.  Returns per-pass batch QPS, per-pass single latencies
    and the last pass's answers of both kinds.
    """
    rates, passes = [], []
    deadline = time.perf_counter() + seconds
    while len(rates) < 2 or time.perf_counter() < deadline:
        start = time.perf_counter()
        batch = service.search_batch(queries, k=K, probes=N_PROBES)
        rates.append(queries.shape[0] / (time.perf_counter() - start))
        latencies, _, singles = _single_phase(service, queries, 0.0)
        passes.append(latencies)
    return rates, passes, batch, singles


def _single_phase(service, queries, seconds, spans=None):
    """Closed loop of single ``search()`` calls from one caller.

    With ``spans``, every other call runs inside a span, so traced and
    untraced calls see the same conditions.  Returns the untraced and
    traced latencies and the answers of the first pass over the queries.
    """
    plain, traced, ids, distances = [], [], [], []
    deadline = time.perf_counter() + seconds
    i = 0
    while i < queries.shape[0] or time.perf_counter() < deadline:
        query = queries[i % queries.shape[0]]
        in_span = spans is not None and i % 2 == 1
        start = time.perf_counter()
        with spans.span("service.search") if in_span else nullcontext():
            result = service.search(query, k=K, probes=N_PROBES)
        (traced if in_span else plain).append(time.perf_counter() - start)
        if i < queries.shape[0]:
            ids.append(result.ids)
            distances.append(result.distances)
        i += 1
    return plain, traced, (np.vstack(ids), np.vstack(distances))


def _best_per_query(phases, n_queries: int) -> np.ndarray:
    """Each query's fastest ``search()`` over all passes.

    A pass's ``i``-th call asks query ``i % n_queries``, so every query
    is timed once per pass, several times a run; its best time stands
    for it unless a slow spell of the host covered every pass.
    """
    best = np.full(n_queries, np.inf)
    for latencies in phases:
        np.minimum.at(best, np.arange(len(latencies)) % n_queries, latencies)
    return best


def measure(ctx: Context) -> Outcome:
    """Build several times; after each build, alternate batch and single passes.

    Batch and single passes take turns across the whole run, between the
    builds, so a slow spell of the host lands on a few passes of each;
    batch QPS is the upper quartile of the passes, and single latency the
    percentiles of each query's best time.
    """
    base, queries, truth = _inputs(ctx)
    rounds = 2
    setups, rates, passes = [], [], []
    for _ in range(rounds):
        index = make_index("usp", **USP_PARAMS)
        start = time.perf_counter()
        index.build(base)
        setups.append(time.perf_counter() - start)
        service = SearchService(index, cache_size=0)
        round_rates, round_passes, batch, singles = _passes(service, queries, ctx.seconds / rounds)
        service.close()
        check_answers(batch.ids, batch.distances, queries, base, what="usp search_batch")
        check_answers(*singles, queries, base, what="usp search")
        rates += round_rates
        passes += round_passes
    latencies = _best_per_query(passes, queries.shape[0])

    out = Outcome()
    out.tally.attempted = len(rates) * queries.shape[0] + sum(len(p) for p in passes)
    out.metrics = {
        "setup_s": median(setups),
        "peak_rss_mb": peak_rss_mb(),
        "ops_per_s": calm_rate(rates),
        "p50_ms": percentile_ms(latencies, 50),
        "p90_ms": percentile_ms(latencies, 90),
        "recall_at_10": recall(batch.ids, truth),
    }
    out.report = {
        "batch_qps": (out.metrics["ops_per_s"], "1/s"),
        "query_p50_ms": (out.metrics["p50_ms"], "ms"),
        "query_p90_ms": (out.metrics["p90_ms"], "ms"),
        "query_p99_ms": (percentile_ms(latencies, 99), "ms"),
        "query_samples": (sum(len(p) for p in passes), "count"),
        "single_recall_at_10": (recall(singles[0], truth), "ratio"),
    }
    return out


def trace(ctx: Context) -> Outcome:
    """Per-layer ledger: each public core step timed on its own."""
    spans = ctx.spans
    base, queries, truth = _inputs(ctx)
    index = make_index("usp", **USP_PARAMS)
    with spans.span("usp.setup"):
        with spans.span("core.knn_matrix"):
            knn = build_knn_matrix(base, USP_PARAMS["k_prime"])
        with spans.span("core.train"):
            index.build(base, knn=knn)

    # The batch path taken apart into the index's public online steps.
    for _ in range(3):
        with spans.span("usp.batch"):
            with spans.span("core.bin_scores"):
                index.bin_scores(queries)
            with spans.span("core.candidate_sets"):
                candidates = index.candidate_sets(queries, N_PROBES)
            with spans.span("core.rerank"):
                ids, distances = rerank_candidates(base, queries, candidates, K)
    check_answers(ids, distances, queries, base, what="usp rerank_candidates")
    scanned = sum(len(c) for c in candidates)
    useful = sum(len(np.intersect1d(c, t)) for c, t in zip(candidates, truth))
    sizes = index.bin_sizes()

    # SearchService.search against the index's batch_query on the same query.
    service = SearchService(index, cache_size=0)
    with spans.span("usp.overhead") as overhead:
        for query in queries:
            with spans.span("service.search"):
                service.search(query, k=K, probes=N_PROBES)
            with spans.span("index.batch_query"):
                index.batch_query(query[None, :], K, n_probes=N_PROBES)

    # Tracing overhead: alternate calls of one closed loop, with and without spans.
    with spans.span("usp.single"):
        plain, traced, answers = _single_phase(service, queries, max(ctx.seconds / 6, 0.5), spans)
    service.close()
    check_answers(*answers, queries, base, what="usp search")

    per_query_us = 1e6 / queries.shape[0]
    out = Outcome()
    out.tally.attempted = 5 * queries.shape[0] + len(plain) + len(traced)
    out.report = {
        "core.knn_matrix_s": (spans.durations("core.knn_matrix")[0], "s"),
        "core.train_s": (spans.durations("core.train")[0], "s"),
        "core.bin_scores_us": (median(spans.durations("core.bin_scores")) * per_query_us, "us"),
        "core.candidate_sets_us": (
            median(spans.durations("core.candidate_sets")) * per_query_us,
            "us",
        ),
        "core.rerank_us": (median(spans.durations("core.rerank")) * per_query_us, "us"),
        "core.candidates_per_query": (scanned / queries.shape[0], "count"),
        "core.useful_candidate_ratio": (useful / scanned, "ratio"),
        "core.bin_size_cv": (float(sizes.std() / sizes.mean()), "ratio"),
        "service.overhead_us": (
            (median(spans.durations("service.search", parent=overhead))
             - median(spans.durations("index.batch_query", parent=overhead))) * 1e6,
            "us",
        ),
        "trace.overhead_usp_search": (median(traced) / median(plain) - 1.0, "ratio"),
    }
    return out
