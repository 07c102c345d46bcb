"""Serving-layer throughput: per-query loop vs micro-batched ``search_batch``.

The serving claim behind :mod:`repro.service`: at production batch sizes,
executing through :class:`SearchService` is dramatically faster than the
naive one-``query()``-call-per-vector loop callers used to hand-roll —
without changing a single returned neighbour id.  Measured across three
representative back-ends (exact scan, partition + rerank, IVF) at a
batch of 1024 queries.  Each rate is the median of ``REPEATS`` passes,
the two paths taking turns: one pass of the batched exact scan was seen
to swing ~4x from one second to the next on a shared 2-vCPU host.
"""

from __future__ import annotations

import time

import numpy as np

from conftest import run_once

from repro.api import make_index
from repro.datasets import sift_like
from repro.eval import format_table
from repro.service import QueryRequest, SearchService

BATCH = 1024
K = 10
REPEATS = 5

#: (registry name, build params, probes) — exact scan, partition, IVF
BACKENDS = [
    ("bruteforce", {}, None),
    ("kmeans", dict(n_bins=32, seed=0), 4),
    ("ivf-flat", dict(n_lists=32, seed=0), 4),
]


def run_service_benchmark():
    data = sift_like(
        n_points=4000, n_queries=BATCH, dim=64, n_clusters=12, gt_k=K, seed=7
    )
    rows = []
    results = {}
    for name, params, probes in BACKENDS:
        index = make_index(name, **params).build(data.base)
        service = SearchService(index, batch_size=128)
        request = QueryRequest(k=K, probes=probes)
        kwargs = service.query_kwargs(request)

        naive_rates, batched = [], []
        for _ in range(REPEATS):  # alternate the two paths so both see the same host
            start = time.perf_counter()
            naive_ids = np.vstack(
                [index.query(query, K, **kwargs)[0] for query in data.queries]
            )
            naive_rates.append(BATCH / (time.perf_counter() - start))
            batched.append(service.search_batch(data.queries, request))
        naive_qps = float(np.median(naive_rates))
        batched_qps = float(np.median([run.queries_per_second for run in batched]))
        rows.append([name, round(naive_qps), round(batched_qps), batched_qps / naive_qps])
        results[name] = (naive_ids, batched)
    return rows, results


def test_service_throughput(benchmark, report):
    rows, results = run_once(benchmark, run_service_benchmark)
    text = format_table(
        ["backend", "per-query qps", "micro-batched qps", "speedup"],
        rows,
        title=f"SearchService throughput at batch={BATCH}, k={K}",
        float_format="{:.2f}",
    )
    report("service_throughput", text)

    for name, (naive_ids, batched) in results.items():
        # the serving layer must never change an answer
        for run in batched:
            np.testing.assert_array_equal(naive_ids, run.ids, err_msg=name)

    # Acceptance: micro-batching is >= 2x the naive per-query loop on the
    # bruteforce back-end at batch=1024.
    _, naive_qps, batched_qps, _ = rows[0]
    assert batched_qps >= 2.0 * naive_qps, (
        f"micro-batched {batched_qps} qps vs naive {naive_qps} qps"
    )
