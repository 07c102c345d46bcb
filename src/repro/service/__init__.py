"""Query serving on top of the unified index API.

:mod:`repro.api` answers "how do I build, persist, and reload an index";
this package is its serving counterpart — "how do I answer traffic from
one":

* :class:`QueryRequest` / :class:`QueryResult` / :class:`BatchResult` —
  typed request/response objects replacing positional query knobs;
* :class:`SearchService` — wraps any built :class:`repro.api.AnnIndex`
  with micro-batching on the calling thread, an optional LRU result
  cache, and latency/throughput/recall counters via ``stats()``;
* :class:`Router` — hosts multiple named services (multi-dataset /
  multi-index deployments) with capability-based or round-robin dispatch
  and whole-deployment ``save`` / ``Router.load``.

Example
-------
>>> from repro.api import make_index
>>> from repro.service import QueryRequest, SearchService
>>> index = make_index("kmeans", n_bins=16, seed=0).build(base)
>>> service = SearchService(index, cache_size=1024)
>>> result = service.search_batch(queries, QueryRequest(k=10, probes=2))
>>> result.ids.shape, result.queries_per_second
"""

from .cache import QueryCache
from .metrics import ServiceMetrics, batch_recall
from .request import BatchResult, QueryRequest, QueryResult
from .router import Router
from .service import SearchService, check_service_surface

__all__ = [
    "QueryCache",
    "ServiceMetrics",
    "batch_recall",
    "BatchResult",
    "QueryRequest",
    "QueryResult",
    "Router",
    "SearchService",
    "check_service_surface",
]
