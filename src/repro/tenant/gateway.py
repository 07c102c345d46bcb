"""The per-tenant serving facade: ACL injection, quotas, cache partition.

A :class:`TenantGateway` duck-types the :class:`~repro.service.SearchService`
surface (``search`` / ``search_batch`` / mutations / ``stats`` /
``service_config``), so everything that can host a service — the
:class:`~repro.service.Router`, the HTTP server — can host a tenant
without knowing it is one.  The delegate underneath is equally
duck-typed: a plain ``SearchService``, a collection-backed one, or a
:class:`~repro.replica.ReplicaGroup`.

Three policies are enforced on the way through:

* **ACL injection** — the tenant's configured predicate is AND-ed into
  every request before it reaches the delegate.  Because the predicate's
  canonical fingerprint is part of the result-cache key, two tenants
  with different ACLs can never share a cached answer even on a shared
  namespace — isolation by construction, not by audit.
* **Quotas** — a token bucket per resource (query rows, write ops) plus
  a hard vector-count cap.  Violations raise the typed
  :class:`~repro.utils.exceptions.QuotaExceededError` the wire layer
  maps to 429 ``quota_exceeded`` with a refill-derived ``Retry-After``.
* **Cache partition** — an optional private result cache charged against
  the registry's global :class:`~repro.tenant.cache.CacheBudget`.  The
  partition is only consulted when the delegate can vouch for freshness
  (it exposes ``_index_cache_tag``); gateways over replica groups skip
  it and lean on the per-replica service caches instead.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, Optional

import numpy as np

from ..filter.predicate import And, Predicate
from ..obs.trace import span
from ..service.cache import QueryCache
from ..service.request import BatchResult, QueryRequest, QueryResult
from ..utils.exceptions import QuotaExceededError, ValidationError
from .cache import CacheBudget
from .config import TenantConfig
from .quota import TokenBucket


class TenantGateway:
    """One tenant's view of a namespace, with policy enforced in the path."""

    def __init__(
        self,
        name: str,
        service,
        config: Optional[TenantConfig] = None,
        *,
        namespace: Optional[str] = None,
        cache: Optional[QueryCache] = None,
        budget: Optional[CacheBudget] = None,
        clock=time.monotonic,
        vectors_used: int = 0,
    ) -> None:
        self.name = str(name)
        self.service = service
        self.config = config or TenantConfig()
        self.namespace = namespace or getattr(service, "name", None)
        self.cache = cache
        self._budget = budget
        self.query_bucket = (
            None
            if self.config.qps is None
            else TokenBucket(self.config.qps, self.config.qps_burst, clock=clock)
        )
        self.write_bucket = (
            None
            if self.config.write_ops is None
            else TokenBucket(
                self.config.write_ops, self.config.write_burst, clock=clock
            )
        )
        self._lock = threading.Lock()
        self._vectors_used = int(vectors_used)
        self._queries = 0
        self._query_rows = 0
        self._cache_hits = 0
        self._write_calls = 0
        self._quota_denials = 0
        self._latency_sum = 0.0
        self._delegate_tag: Any = None
        # Shared Tracer, injected by the hosting SearchServer (if any).
        self.tracer = None

    # ------------------------------------------------------------------ #
    # delegate passthroughs (what hosts duck-type against)
    # ------------------------------------------------------------------ #
    @property
    def collection(self):
        return getattr(self.service, "collection", None)

    @property
    def capabilities(self):
        return getattr(self.service, "capabilities", None)

    @property
    def dim(self) -> Optional[int]:
        return getattr(self.service, "dim", None)

    @property
    def batch_size(self) -> int:
        # Falls back to the service default: the HTTP layer uses this as
        # its deadline-check chunk size, which must never be zero.
        return int(getattr(self.service, "batch_size", 0) or 256)

    # ------------------------------------------------------------------ #
    # ACL injection
    # ------------------------------------------------------------------ #
    def effective_request(
        self, request: Optional[QueryRequest] = None, **overrides
    ) -> QueryRequest:
        """The request as the delegate will see it, ACL already injected.

        The tenant's predicate is mandatory: ``None`` filters become the
        ACL, user predicates become ``And(acl, user)``.  Array filters
        (masks / allowlists) cannot be composed with a predicate without
        materialising them against a store the gateway may not own, so
        they are rejected for ACL-bearing tenants rather than silently
        widening the tenant's view.
        """
        resolve = getattr(self.service, "resolve_request", None)
        if callable(resolve):
            request = resolve(request, **overrides)
        else:
            request = request if request is not None else QueryRequest()
            if overrides:
                request = request.with_updates(**overrides)
        acl = self.config.acl
        if acl is None:
            return request
        user_filter = request.filter
        if user_filter is None:
            return request.with_updates(filter=acl)
        if isinstance(user_filter, Predicate):
            return request.with_updates(filter=And(acl, user_filter))
        raise ValidationError(
            f"tenant {self.name!r} has an ACL predicate; mask/allowlist "
            "filters cannot be combined with it — express the filter as a "
            "Predicate instead"
        )

    # ------------------------------------------------------------------ #
    # quota charging
    # ------------------------------------------------------------------ #
    def _charge(self, bucket: Optional[TokenBucket], n: float, resource: str) -> None:
        if bucket is None:
            return
        try:
            bucket.acquire_or_raise(n, resource=resource)
        except QuotaExceededError:
            with self._lock:
                self._quota_denials += 1
            raise

    def _charge_vectors(self, n: int) -> None:
        cap = self.config.max_vectors
        if cap is None:
            return
        with self._lock:
            if self._vectors_used + n > int(cap):
                self._quota_denials += 1
                used = self._vectors_used
                raise QuotaExceededError(
                    f"tenant {self.name!r} vector quota exceeded: "
                    f"{used} used + {n} requested > cap {int(cap)}",
                    resource="vectors",
                    retry_after_seconds=None,
                )

    @property
    def vectors_used(self) -> int:
        with self._lock:
            return self._vectors_used

    # ------------------------------------------------------------------ #
    # gateway-level cache partition
    # ------------------------------------------------------------------ #
    def _partition(self) -> Optional[QueryCache]:
        """The tenant's cache partition, cleared if the delegate mutated.

        Only delegates that expose ``_index_cache_tag`` (plain services)
        can vouch that cached entries are fresh; anything else (replica
        groups route reads across lagging followers) gets no gateway
        cache.
        """
        if self.cache is None:
            return None
        tag_fn = getattr(self.service, "_index_cache_tag", None)
        if not callable(tag_fn):
            return None
        tag = tag_fn()
        with self._lock:
            if tag != self._delegate_tag:
                self.cache.clear()
                self._delegate_tag = tag
        return self.cache

    def _cache_key(self, row: np.ndarray, request: QueryRequest) -> tuple:
        return QueryCache.key_for(
            np.asarray(row, dtype=np.float64).reshape(-1),
            request.cache_key() + (self._delegate_tag,),
        )

    def _reconcile_budget(self) -> None:
        if self._budget is not None:
            self._budget.reconcile()

    # ------------------------------------------------------------------ #
    # serving surface
    # ------------------------------------------------------------------ #
    def search(
        self, query: np.ndarray, request: Optional[QueryRequest] = None, **overrides
    ) -> QueryResult:
        with span("tenant.acl_quota", tenant=self.name) as policy_span:
            request = self.effective_request(request, **overrides)
            policy_span.set(acl=self.config.acl is not None)
            self._charge(self.query_bucket, 1, "qps")
        start = time.perf_counter()
        cache = self._partition()
        key = self._cache_key(query, request) if cache is not None else None
        if cache is not None:
            hit = cache.get(key)
            if hit is not None:
                elapsed = time.perf_counter() - start
                self._observe_query(1, elapsed, hits=1)
                return QueryResult(
                    ids=hit[0],
                    distances=hit[1],
                    request=request,
                    latency_seconds=elapsed,
                    cached=True,
                )
        result = self.service.search(query, request)
        if cache is not None:
            cache.put(key, result.ids, result.distances)
            self._reconcile_budget()
        elapsed = time.perf_counter() - start
        self._observe_query(1, elapsed, hits=1 if result.cached else 0)
        return result

    def search_batch(
        self,
        queries: np.ndarray,
        request: Optional[QueryRequest] = None,
        *,
        ground_truth: Optional[np.ndarray] = None,
        **overrides,
    ) -> BatchResult:
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        n = int(queries.shape[0])
        with span("tenant.acl_quota", tenant=self.name, n_queries=n) as policy_span:
            request = self.effective_request(request, **overrides)
            policy_span.set(acl=self.config.acl is not None)
            self._charge(self.query_bucket, max(n, 1), "qps")
        start = time.perf_counter()
        # Recall scoring needs the whole batch to flow through the
        # delegate, so ground-truth calls bypass the gateway partition.
        cache = self._partition() if ground_truth is None and n else None
        if cache is None:
            result = self.service.search_batch(queries, request, ground_truth=ground_truth)
            self._observe_query(n, time.perf_counter() - start, hits=result.cache_hits)
            return result
        keys = [self._cache_key(row, request) for row in queries]
        hits = [cache.get(key) for key in keys]
        missing = [row for row, hit in enumerate(hits) if hit is None]
        inner_hits = 0
        if missing:
            inner = self.service.search_batch(queries[missing], request)
            inner_hits = inner.cache_hits
            for position, row in enumerate(missing):
                cache.put(keys[row], inner.ids[position], inner.distances[position])
            self._reconcile_budget()
            width = inner.ids.shape[1]
        else:
            width = hits[0][0].shape[-1]
        ids = np.empty((n, width), dtype=np.int64)
        distances = np.empty((n, width))
        fresh_row = 0
        for row, hit in enumerate(hits):
            if hit is None:
                ids[row] = inner.ids[fresh_row]
                distances[row] = inner.distances[fresh_row]
                fresh_row += 1
            else:
                ids[row], distances[row] = hit
        elapsed = time.perf_counter() - start
        gateway_hits = n - len(missing)
        self._observe_query(n, elapsed, hits=gateway_hits + inner_hits)
        return BatchResult(
            ids=ids,
            distances=distances,
            request=request,
            elapsed_seconds=elapsed,
            cache_hits=gateway_hits + inner_hits,
        )

    # ------------------------------------------------------------------ #
    # mutations (vector quota + write-op bucket, then delegate)
    # ------------------------------------------------------------------ #
    def add(self, vectors, attributes=None) -> np.ndarray:
        n = int(np.atleast_2d(np.asarray(vectors)).shape[0])
        self._charge_vectors(n)
        self._charge(self.write_bucket, 1, "write_ops")
        ids = self.service.add(vectors, attributes=attributes)
        with self._lock:
            self._vectors_used += n
            self._write_calls += 1
        return ids

    def remove(self, ids) -> int:
        self._charge(self.write_bucket, 1, "write_ops")
        removed = int(self.service.remove(ids))
        with self._lock:
            self._vectors_used = max(0, self._vectors_used - removed)
            self._write_calls += 1
        return removed

    def extend_attributes(self, rows) -> None:
        self._charge(self.write_bucket, 1, "write_ops")
        self.service.extend_attributes(rows)
        with self._lock:
            self._write_calls += 1

    # ------------------------------------------------------------------ #
    # observability
    # ------------------------------------------------------------------ #
    def _observe_query(self, rows: int, elapsed: float, *, hits: int = 0) -> None:
        with self._lock:
            self._queries += 1
            self._query_rows += int(rows)
            self._cache_hits += int(hits)
            self._latency_sum += float(elapsed)

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            snapshot = {
                "tenant": self.name,
                "namespace": self.namespace,
                "queries": self._queries,
                "query_rows": self._query_rows,
                "cache_hits": self._cache_hits,
                "write_calls": self._write_calls,
                "quota_denials": self._quota_denials,
                "latency_seconds_sum": self._latency_sum,
                "vectors_used": self._vectors_used,
                "max_vectors": self.config.max_vectors,
            }
        if self.query_bucket is not None:
            snapshot["qps_bucket"] = self.query_bucket.stats()
        if self.write_bucket is not None:
            snapshot["write_bucket"] = self.write_bucket.stats()
        if self.cache is not None:
            snapshot["cache"] = self.cache.stats()
        if self.tracer is not None:
            snapshot["tracing"] = self.tracer.stats()
        return snapshot

    def service_config(self) -> Dict[str, Any]:
        config = dict(self.service.service_config())
        config["tenant"] = {
            "name": self.name,
            "namespace": self.namespace,
            **self.config.as_dict(),
        }
        return config

    def __repr__(self) -> str:
        return (
            f"TenantGateway({self.name!r}, namespace={self.namespace!r}, "
            f"acl={'set' if self.config.acl is not None else 'none'})"
        )
