"""The :class:`SearchService`: an instrumented query-serving front-end.

``SearchService`` wraps any built (or :func:`repro.api.load_index`-loaded)
:class:`repro.api.AnnIndex` and turns its raw ``batch_query`` surface into
a serving path:

* requests are :class:`QueryRequest` objects; the service translates the
  back-end agnostic ``probes`` knob through the index's
  :class:`~repro.api.IndexCapabilities` and can plan a probe count from a
  ``candidate_budget``;
* large batches are split into micro-batches of ``batch_size`` rows,
  run one after another on the calling thread (bounding the peak memory
  of the distance blocks) and stacked back in query order;
* an optional LRU cache short-circuits repeated queries;
* every call updates latency/throughput/recall counters exposed via
  :meth:`stats`, so benchmark numbers and production numbers come from
  the same instrumented path.

A service can also wrap a :class:`repro.store.Collection` instead of a
bare index: queries serve from the collection's index exactly as before,
while the mutating endpoints (:meth:`SearchService.add` /
:meth:`~SearchService.remove` / :meth:`~SearchService.extend_attributes`)
route through the collection's write-ahead log — the call acknowledges
only after the operation is durably journaled.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..api.persistence import load_index
from ..obs.trace import span
from ..api.protocol import IndexCapabilities
from ..store.collection import Collection, is_collection_dir
from ..utils.exceptions import ValidationError
from ..utils.validation import as_query_matrix
from .cache import QueryCache
from .metrics import ServiceMetrics, batch_recall
from .request import BatchResult, QueryRequest, QueryResult


def check_service_surface(target, what: str) -> None:
    """Reject ``target`` unless it answers the serving surface a router hosts.

    ``what`` names the expected kind of target in the error message.
    """
    missing = [
        method
        for method in ("search", "search_batch", "stats", "service_config")
        if not callable(getattr(target, method, None))
    ]
    if missing:
        raise ValidationError(
            f"{type(target).__name__} does not look like a {what}: missing {missing}"
        )


class SearchService:
    """Serve nearest-neighbour queries from one built index.

    Parameters
    ----------
    index:
        A built index following the :class:`repro.api.AnnIndex` protocol.
    name:
        Service name used in :meth:`stats` and by :class:`Router`.
    default_request:
        Baseline :class:`QueryRequest`; per-call requests/overrides are
        merged on top of it.
    batch_size:
        Micro-batch size: queries are fed to ``batch_query`` in chunks of
        this many rows (bounds peak memory of the distance blocks).
    cache_size:
        LRU query-result cache capacity; ``0`` disables caching.
    cache:
        A pre-built :class:`QueryCache` to use instead of constructing
        one from ``cache_size`` — the tenant layer hands services
        byte-budgeted partitions this way.  Takes precedence over
        ``cache_size``.
    """

    def __init__(
        self,
        index,
        *,
        name: Optional[str] = None,
        default_request: Optional[QueryRequest] = None,
        batch_size: int = 256,
        cache_size: int = 0,
        cache: Optional[QueryCache] = None,
    ) -> None:
        self.collection: Optional[Collection] = None
        if isinstance(index, Collection):
            # Serve the collection's index directly; mutations go through
            # the collection so they are journaled before acknowledgment.
            self.collection = index
            name = name or index.name
            index = index.index
        if not getattr(index, "is_built", False):
            raise ValidationError(
                f"SearchService needs a built index; build() or load_index() "
                f"this {type(index).__name__} first"
            )
        if batch_size < 1:
            raise ValidationError("batch_size must be positive")
        self.index = index
        self.name = name or getattr(type(index), "_registry_name", None) or type(index).__name__
        self.default_request = default_request or QueryRequest()
        self.batch_size = int(batch_size)
        self.cache = cache if cache is not None else (
            QueryCache(cache_size) if cache_size else None
        )
        self.metrics = ServiceMetrics()
        # Set by a hosting SearchServer (or directly) to a repro.obs
        # Tracer; stats() then reports sampling rate and span loss.
        self.tracer = None
        # Serialises stats() assembly against cache invalidation so one
        # snapshot never mixes pre- and post-mutation counters.
        self._stats_lock = threading.Lock()
        self._cache_tag = self._index_cache_tag()

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def from_saved(cls, path, **kwargs) -> "SearchService":
        """Serve a saved index directory — or a durable collection.

        A plain index artifact (PR 1 persistence) is loaded read-only; a
        :class:`repro.store.Collection` directory is recovered through
        :meth:`Collection.open` (snapshot + WAL replay) and served with
        durable mutation endpoints.
        """
        if is_collection_dir(path):
            return cls(Collection.open(path), **kwargs)
        return cls(load_index(path), **kwargs)

    @property
    def capabilities(self) -> Optional[IndexCapabilities]:
        capabilities = getattr(type(self.index), "capabilities", None)
        return capabilities if isinstance(capabilities, IndexCapabilities) else None

    @property
    def dim(self) -> Optional[int]:
        try:
            return int(self.index.dim)
        except Exception:
            return None

    # ------------------------------------------------------------------ #
    # request plumbing
    # ------------------------------------------------------------------ #
    def resolve_request(
        self, request: Optional[QueryRequest] = None, **overrides
    ) -> QueryRequest:
        """Merge ``request`` (or field overrides) onto the service default."""
        merged = request if request is not None else self.default_request
        if overrides:
            merged = merged.with_updates(**overrides)
        return merged

    def plan_probes(self, candidate_budget: int) -> Optional[int]:
        """Probe count whose expected candidate-set size fits the budget.

        Uses the partition shape (``n_points / n_bins`` expected points per
        probed bin); returns ``None`` for indexes without a probe knob or
        without a known bin count.
        """
        capabilities = self.capabilities
        if capabilities is None or capabilities.probe_parameter is None:
            return None
        n_bins = getattr(self.index, "n_bins", None) or getattr(self.index, "n_lists", None)
        n_points = getattr(self.index, "n_points", None)
        if not n_bins or not n_points:
            return None
        per_probe = max(float(n_points) / float(n_bins), 1.0)
        return int(np.clip(int(candidate_budget // per_probe), 1, int(n_bins)))

    def query_kwargs(self, request: QueryRequest) -> Dict[str, Any]:
        """``batch_query`` keyword arguments implementing ``request``."""
        kwargs: Dict[str, Any] = dict(request.extra)
        capabilities = self.capabilities
        probes = request.probes
        if probes is None and request.candidate_budget is not None:
            probes = self.plan_probes(request.candidate_budget)
        if probes is not None and capabilities is not None:
            kwargs.update(capabilities.query_kwargs(probes))
        if request.filter is not None:
            # Indexes without a capabilities descriptor are treated as
            # unfilterable: a clear error here beats an opaque TypeError
            # from batch_query deep inside the batch path.
            if capabilities is None or not capabilities.filterable:
                raise ValidationError(
                    f"index {type(self.index).__name__} does not support "
                    "filtered queries (capabilities.filterable is not set)"
                )
            kwargs["filter"] = self._resolved_filter(request)
        return kwargs

    def _resolved_filter(self, request: QueryRequest):
        """The request's filter, with id allowlists resolved to one mask.

        An integer allowlist re-materialises an O(n_points) boolean mask
        inside every ``batch_query`` call — once per micro-batch chunk.
        The request is frozen (arrays are snapshotted read-only), so the
        resolved mask is memoized on it, keyed by the index's current row
        count in case the index mutates between uses.  Predicates and
        boolean masks pass through: predicates memoize via
        ``cached_mask`` and masks are already in final form.
        """
        spec = request.filter
        if not isinstance(spec, np.ndarray) or spec.dtype == bool:
            return spec
        from ..filter.planner import filter_row_count, resolve_filter

        try:
            rows = filter_row_count(self.index)
        except Exception:
            return spec
        cached = getattr(request, "_allowlist_mask_cache", None)
        if cached is not None and cached[0] == rows:
            return cached[1]
        mask = resolve_filter(spec, self.index, rows)
        object.__setattr__(request, "_allowlist_mask_cache", (rows, mask))
        return mask

    def _index_cache_tag(self) -> tuple:
        """Index-side identity of a cached answer: metric, version, attributes.

        The request's own :meth:`QueryRequest.cache_key` covers ``k``,
        ``probes``, the predicate fingerprint, and extra knobs, but the
        answer also depends on state the request cannot see: the index's
        distance metric, for mutable indexes the mutation ``version``
        counter bumped by every ``add`` / ``remove`` / ``compact``, and
        the identity + version of the attached attribute store — a
        predicate's meaning changes when ``set_attributes`` swaps the
        store or :meth:`repro.filter.AttributeStore.extend` grows it.
        Folding all of these into the key (and clearing outdated entries
        in :meth:`_request_cache`) keeps a cached result from outliving
        the data it was computed from.

        The two mechanisms deliberately overlap: the clear reclaims the
        memory of every stale entry, while the tag in the key also covers
        the race where the index mutates *during* a batch that already
        passed the freshness check — results computed from the old state
        land under old-tag keys no later lookup can hit.
        """
        metric = getattr(self.index, "metric", None)
        version = getattr(self.index, "version", 0)
        store = getattr(self.index, "attributes", None)
        store_tag = (
            None
            if store is None
            else (int(getattr(store, "token", id(store))), int(getattr(store, "version", 0)))
        )
        return (None if metric is None else str(metric), int(version or 0), store_tag)

    def _request_cache(self) -> Optional[QueryCache]:
        """The result cache, invalidated first if the index has mutated.

        Runs under the stats lock: a concurrent :meth:`stats` call sees
        either the pre-invalidation cache or the post-invalidation one,
        never a half-cleared in-between.
        """
        if self.cache is None:
            return None
        with self._stats_lock:
            tag = self._index_cache_tag()
            if tag != self._cache_tag:
                self.cache.clear()
                self._cache_tag = tag
        return self.cache

    def _as_queries(self, queries: np.ndarray) -> np.ndarray:
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        dim = self.dim
        if queries.shape[0] == 0:
            return queries.reshape(0, dim if dim is not None else queries.shape[-1])
        if dim is not None:
            queries = as_query_matrix(queries, dim)
        return queries

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def _run_chunks(
        self, queries: np.ndarray, k: int, kwargs: Dict[str, Any]
    ) -> Tuple[np.ndarray, np.ndarray]:
        results = [
            self.index.batch_query(queries[start : start + self.batch_size], k, **kwargs)
            for start in range(0, queries.shape[0], self.batch_size)
        ]
        ids = np.vstack([r[0] for r in results])
        distances = np.vstack([r[1] for r in results])
        return ids, distances

    def close(self) -> None:
        """Lifecycle hook; the service holds nothing that needs releasing."""

    def __enter__(self) -> "SearchService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # public serving surface
    # ------------------------------------------------------------------ #
    def search(
        self, query: np.ndarray, request: Optional[QueryRequest] = None, **overrides
    ) -> QueryResult:
        """Answer one query vector."""
        request = self.resolve_request(request, **overrides)
        queries = self._as_queries(query)
        if queries.shape[0] != 1:
            raise ValidationError("search() takes a single query; use search_batch()")
        kwargs = self.query_kwargs(request)
        with span("service.search", k=int(request.k)) as search_span:
            cache = self._request_cache()
            cache_key = None
            if cache is not None:
                start = time.perf_counter()
                with span("service.cache") as cache_span:
                    cache_key = QueryCache.key_for(
                        queries[0], request.cache_key() + self._cache_tag
                    )
                    hit = cache.get(cache_key)
                    cache_span.set(hit=hit is not None)
                if hit is not None:
                    elapsed = time.perf_counter() - start
                    search_span.set(cache_hit=True)
                    self.metrics.observe_batch(1, elapsed, cache_hits=1)
                    return QueryResult(
                        ids=hit[0],
                        distances=hit[1],
                        request=request,
                        latency_seconds=elapsed,
                        cached=True,
                    )
            start = time.perf_counter()
            ids, distances = self.index.batch_query(queries, request.k, **kwargs)
            elapsed = time.perf_counter() - start
            if cache is not None and cache_key is not None:
                cache.put(cache_key, ids[0], distances[0])
            search_span.set(cache_hit=False)
            self.metrics.observe_batch(1, elapsed)
            return QueryResult(
                ids=ids[0],
                distances=distances[0],
                request=request,
                latency_seconds=elapsed,
            )

    def search_batch(
        self,
        queries: np.ndarray,
        request: Optional[QueryRequest] = None,
        *,
        ground_truth: Optional[np.ndarray] = None,
        **overrides,
    ) -> BatchResult:
        """Answer a query matrix in ``batch_size`` micro-batches.

        The micro-batches run in order on the calling thread and their
        results are stacked in query order.  With ``ground_truth`` given,
        the batch's k-NN recall is computed and folded into the service's
        running counters.
        """
        request = self.resolve_request(request, **overrides)
        queries = self._as_queries(queries)
        if queries.shape[0] == 0:
            empty = np.empty((0, request.k), dtype=np.int64)
            return BatchResult(
                ids=empty,
                distances=np.empty((0, request.k)),
                request=request,
                elapsed_seconds=0.0,
            )
        kwargs = self.query_kwargs(request)

        with span(
            "service.search", k=int(request.k), n_queries=int(queries.shape[0])
        ) as search_span:
            cache = self._request_cache()
            start = time.perf_counter()
            if cache is None:
                ids, distances = self._run_chunks(queries, request.k, kwargs)
                cache_hits = 0
            else:
                ids, distances, cache_hits = self._search_batch_cached(
                    queries, request, kwargs, cache
                )
            elapsed = time.perf_counter() - start
            search_span.set(cache_hits=cache_hits)

        self.metrics.observe_batch(queries.shape[0], elapsed, cache_hits)
        recall = None
        if ground_truth is not None:
            ground_truth = np.asarray(ground_truth)
            k = min(request.k, ids.shape[1], ground_truth.shape[1])
            recall = batch_recall(ids, ground_truth, k)
            self.metrics.observe_recall(recall, queries.shape[0])
        return BatchResult(
            ids=ids,
            distances=distances,
            request=request,
            elapsed_seconds=elapsed,
            cache_hits=cache_hits,
            recall=recall,
        )

    def _search_batch_cached(
        self,
        queries: np.ndarray,
        request: QueryRequest,
        kwargs: Dict[str, Any],
        cache: QueryCache,
    ) -> Tuple[np.ndarray, np.ndarray, int]:
        """Batch path with per-query cache lookups around the bulk execution."""
        request_key = request.cache_key() + self._cache_tag
        keys = [QueryCache.key_for(row, request_key) for row in queries]
        hits: List[Optional[Tuple[np.ndarray, np.ndarray]]] = [
            cache.get(key) for key in keys
        ]
        missing = [row for row, hit in enumerate(hits) if hit is None]
        if missing:
            fresh_ids, fresh_distances = self._run_chunks(queries[missing], request.k, kwargs)
            for position, row in enumerate(missing):
                cache.put(keys[row], fresh_ids[position], fresh_distances[position])
        else:
            fresh_ids = np.empty((0, request.k), dtype=np.int64)
            fresh_distances = np.empty((0, request.k))
        width = fresh_ids.shape[1] if missing else hits[0][0].shape[-1]
        ids = np.empty((queries.shape[0], width), dtype=np.int64)
        distances = np.empty((queries.shape[0], width))
        fresh_row = 0
        for row, hit in enumerate(hits):
            if hit is None:
                ids[row], distances[row] = fresh_ids[fresh_row], fresh_distances[fresh_row]
                fresh_row += 1
            else:
                ids[row], distances[row] = hit
        return ids, distances, len(keys) - len(missing)

    # ------------------------------------------------------------------ #
    # mutation endpoints (durable when collection-backed)
    # ------------------------------------------------------------------ #
    def _mutable_target(self):
        """The object a mutation goes to: the collection, else the index."""
        if self.collection is not None:
            return self.collection
        capabilities = self.capabilities
        if capabilities is None or not capabilities.mutable:
            raise ValidationError(
                f"service {self.name!r} serves an immutable "
                f"{type(self.index).__name__}; mutation endpoints need a "
                "mutable index or a Collection"
            )
        return self.index

    def add(self, vectors, attributes=None) -> np.ndarray:
        """Insert vectors (with optional attribute rows); returns their ids.

        Collection-backed services acknowledge only after the operation
        is appended to the write-ahead log; bare mutable indexes apply
        in memory only (lost on restart unless saved).
        """
        target = self._mutable_target()
        if target is self.collection:
            return self.collection.add(vectors, attributes=attributes)
        # Validate the attribute rows *before* mutating the index: a bad
        # batch must not leave vectors inserted with their metadata
        # rejected (the index and store would stay misaligned forever).
        rows = None
        if attributes is not None:
            store = getattr(self.index, "attributes", None)
            if store is None:
                raise ValidationError(
                    f"service {self.name!r} has no attribute store to extend; "
                    "attach one with index.set_attributes(...)"
                )
            n_vectors = np.atleast_2d(np.asarray(vectors)).shape[0]
            rows = store.canonical_rows(attributes, expected=n_vectors)
        ids = np.asarray(self.index.add(vectors), dtype=np.int64)
        if rows is not None:
            store.extend(rows)
        return ids

    def remove(self, ids) -> int:
        """Remove ids; durably journaled first on collection-backed services."""
        return self._mutable_target().remove(ids)

    def extend_attributes(self, rows) -> None:
        """Append attribute rows for already-inserted vectors."""
        target = self._mutable_target()
        if target is self.collection:
            self.collection.set_attributes(rows)
            return
        store = getattr(self.index, "attributes", None)
        if store is None:
            raise ValidationError(
                f"service {self.name!r} has no attribute store to extend; "
                "attach one with index.set_attributes(...)"
            )
        store.extend(rows)

    # ------------------------------------------------------------------ #
    # introspection / configuration
    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, Any]:
        """Serving counters plus the wrapped index's own introspection data.

        One stats surface for operators *and* the storage layer's
        maintenance loop: on mutable/sharded indexes the top level also
        carries the ``n_pending`` / ``n_tombstones`` mutation-pressure
        gauges (and the derived ``mutation_pressure`` ratio), the cache
        hit ratio is a first-class derived field, and collection-backed
        services report their durability counters.

        The whole assembly is **one consistent snapshot**: it runs under
        the same lock the mutation-triggered cache invalidation takes,
        and every derived field (``cache_hit_ratio``,
        ``mutation_pressure``) is computed from counters read atomically
        in that snapshot — a concurrent mutator can shift *when* the
        snapshot was taken, never mix numbers from two moments into one.
        """
        with self._stats_lock:
            stats: Dict[str, Any] = {"service": self.name, **self.metrics.snapshot()}
            if self.cache is not None:
                stats["cache"] = self.cache.stats()
                # Byte gauge at the top level so the tenant layer's global
                # budget (and /metrics) can meter it without digging.
                stats["cache_bytes"] = stats["cache"]["cache_bytes"]
            mutation: Dict[str, Any] = {}
            for gauge in ("n_pending", "n_tombstones"):
                try:
                    value = getattr(self.index, gauge)
                except Exception:
                    continue
                if value is not None:
                    mutation[gauge] = int(value)
            if mutation:
                # Derive the pressure ratio from the gauges *this*
                # snapshot read rather than re-reading the index's own
                # property, which a concurrent compact() could have
                # already reset.
                try:
                    live = int(self.index.n_points)
                except Exception:
                    live = None
                if live is not None:
                    mutation["n_live"] = live
                    mutation["mutation_pressure"] = (
                        mutation.get("n_pending", 0) + mutation.get("n_tombstones", 0)
                    ) / max(live, 1)
                stats["mutation"] = mutation
            if self.collection is not None:
                stats["collection"] = {
                    "name": self.collection.name,
                    "path": str(self.collection.path),
                    "generation": self.collection.generation,
                    "last_seq": self.collection.last_seq,
                    "wal_ops": self.collection.wal_ops,
                    "wal_bytes": self.collection.wal_bytes,
                    "sync": self.collection.sync,
                }
            try:
                stats["index"] = self.index.stats()
            except Exception:
                stats["index"] = {"class": type(self.index).__name__}
            if self.tracer is not None:
                stats["tracing"] = self.tracer.stats()
            return stats

    def reset_stats(self) -> None:
        self.metrics.reset()

    def service_config(self) -> Dict[str, Any]:
        """JSON-able construction parameters (used by router save/restore)."""
        return {
            "batch_size": self.batch_size,
            "cache_size": self.cache.max_entries if self.cache is not None else 0,
            "default_request": self.default_request.as_dict(),
        }

    def __repr__(self) -> str:
        return (
            f"SearchService(name={self.name!r}, index={type(self.index).__name__}, "
            f"batch_size={self.batch_size})"
        )
