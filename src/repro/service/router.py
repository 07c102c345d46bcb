"""Multi-index serving: a :class:`Router` hosting named search services.

A deployment usually serves several datasets (or several index
configurations over one dataset) side by side.  The router keeps a table
of named :class:`SearchService` instances and dispatches each request:

* by explicit name (``router.search_batch(queries, name="sift")``);
* round-robin over eligible services (replica load spreading);
* by capability (``metric="cosine"``, ``exact=True``) — only services
  whose index's :class:`~repro.api.IndexCapabilities` match are eligible.

The whole deployment round-trips through :meth:`save` /
:meth:`Router.load`: every hosted index is written with the PR 1
persistence format under one directory plus a ``router.json`` manifest
recording each service's configuration, so a restarted process serves
identical results.
"""

from __future__ import annotations

import json
import re
import threading
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy as np

from ..api.persistence import load_index
from ..utils.exceptions import ConfigurationError, SerializationError, ValidationError
from .request import BatchResult, QueryRequest, QueryResult
from .service import SearchService, check_service_surface

ROUTER_FORMAT = "repro-router"
ROUTER_FORMAT_VERSION = 1
ROUTER_FILE = "router.json"
INDEXES_DIR = "indexes"

_NAME_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")


class Router:
    """Host several named :class:`SearchService` instances behind one front-end."""

    def __init__(self) -> None:
        self._services: Dict[str, SearchService] = {}
        self._lock = threading.Lock()
        self._round_robin = 0

    # ------------------------------------------------------------------ #
    # registration
    # ------------------------------------------------------------------ #
    def add_service(self, name: str, service: SearchService) -> SearchService:
        """Register an existing service under ``name``."""
        if not _NAME_PATTERN.match(name):
            raise ValidationError(
                f"service name {name!r} must be alphanumeric with ._- separators"
            )
        with self._lock:
            if name in self._services:
                raise ConfigurationError(f"service {name!r} is already registered")
            self._services[name] = service
        return service

    def add_index(self, name: str, index, **service_kwargs) -> SearchService:
        """Wrap a built index in a :class:`SearchService` and register it."""
        service = SearchService(index, name=name, **service_kwargs)
        return self.add_service(name, service)

    def add_collection(self, name: str, collection, **service_kwargs) -> SearchService:
        """Serve a durable :class:`repro.store.Collection` under ``name``.

        ``collection`` is an open collection or a path to one (recovered
        through :meth:`Collection.open`).  The service's mutation
        endpoints then journal through the collection's write-ahead log.
        """
        from ..store.collection import Collection

        if not isinstance(collection, Collection):
            collection = Collection.open(collection)
        service = SearchService(collection, name=name, **service_kwargs)
        return self.add_service(name, service)

    def add_replica_group(self, name: str, group) -> "SearchService":
        """Serve a :class:`repro.replica.ReplicaGroup` under ``name``.

        The group duck-types the whole :class:`SearchService` surface —
        reads round-robin across its followers with bounded-staleness
        session guarantees, writes journal through its primary — so the
        router (and any :class:`~repro.net.SearchServer` in front of it)
        dispatches to it exactly like a plain service.  Replica groups
        are runtime wiring, not a persisted artifact: :meth:`save`
        refuses them (save the primary's collection instead).
        """
        check_service_surface(group, "replica group")
        return self.add_service(name, group)

    def add_tenant(self, name: str, gateway) -> "SearchService":
        """Serve a :class:`repro.tenant.TenantGateway` under ``name``.

        The gateway duck-types the service surface with tenant policy
        (ACL injection, quotas, cache partition) already applied inside,
        so dispatching to it is indistinguishable from a plain service.
        Like replica groups, tenants are runtime wiring: :meth:`save`
        refuses them — persist the underlying namespace instead and
        re-provision tenants from their declarative configs.
        """
        check_service_surface(gateway, "tenant gateway")
        return self.add_service(name, gateway)

    def remove(self, name: str) -> None:
        with self._lock:
            self._services.pop(name, None)

    # ------------------------------------------------------------------ #
    # lookup / dispatch
    # ------------------------------------------------------------------ #
    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._services)

    def service(self, name: str) -> SearchService:
        with self._lock:
            try:
                return self._services[name]
            except KeyError:
                known = ", ".join(sorted(self._services)) or "<none>"
                raise ConfigurationError(
                    f"no service named {name!r}; registered services: {known}"
                ) from None

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._services

    def __len__(self) -> int:
        with self._lock:
            return len(self._services)

    def route(
        self,
        name: Optional[str] = None,
        *,
        metric: Optional[str] = None,
        exact: Optional[bool] = None,
        mutable: Optional[bool] = None,
        filterable: Optional[bool] = None,
        dim: Optional[int] = None,
    ) -> SearchService:
        """Pick the service answering a request.

        With ``name`` the choice is explicit.  Otherwise the capability
        filters narrow the candidates (supported metric, exactness,
        mutability, predicate support, vector dimensionality) and the
        router round-robins over what remains.  A request carrying a
        ``filter`` predicate is implicitly routed to filterable services.
        """
        if name is not None:
            return self.service(name)
        with self._lock:
            eligible = [
                service
                for _, service in sorted(self._services.items())
                if self._eligible(
                    service,
                    metric=metric,
                    exact=exact,
                    mutable=mutable,
                    filterable=filterable,
                    dim=dim,
                )
            ]
            if not eligible:
                raise ConfigurationError(
                    f"no registered service matches metric={metric!r} "
                    f"exact={exact!r} mutable={mutable!r} "
                    f"filterable={filterable!r} dim={dim!r}"
                )
            service = eligible[self._round_robin % len(eligible)]
            self._round_robin += 1
        return service

    @staticmethod
    def _eligible(
        service: SearchService,
        *,
        metric: Optional[str],
        exact: Optional[bool],
        mutable: Optional[bool],
        filterable: Optional[bool],
        dim: Optional[int],
    ) -> bool:
        capabilities = service.capabilities
        if metric is not None:
            if capabilities is None or not capabilities.supports_metric(metric):
                return False
        if exact is not None:
            if capabilities is None or capabilities.exact != exact:
                return False
        if mutable is not None:
            if capabilities is None or capabilities.mutable != mutable:
                return False
        if filterable is not None:
            if capabilities is None or capabilities.filterable != filterable:
                return False
        if dim is not None and service.dim not in (None, dim):
            return False
        return True

    # ------------------------------------------------------------------ #
    # serving surface (delegates to the routed service)
    # ------------------------------------------------------------------ #
    def search(
        self,
        query: np.ndarray,
        request: Optional[QueryRequest] = None,
        *,
        name: Optional[str] = None,
        **route_and_overrides,
    ) -> QueryResult:
        route_kwargs, overrides = self._split_route_kwargs(route_and_overrides)
        self._imply_filterable(name, request, overrides, route_kwargs)
        service = self.route(name, **route_kwargs)
        return service.search(query, request, **overrides)

    def search_batch(
        self,
        queries: np.ndarray,
        request: Optional[QueryRequest] = None,
        *,
        name: Optional[str] = None,
        ground_truth: Optional[np.ndarray] = None,
        **route_and_overrides,
    ) -> BatchResult:
        route_kwargs, overrides = self._split_route_kwargs(route_and_overrides)
        self._imply_filterable(name, request, overrides, route_kwargs)
        service = self.route(name, **route_kwargs)
        return service.search_batch(queries, request, ground_truth=ground_truth, **overrides)

    @staticmethod
    def _imply_filterable(
        name: Optional[str],
        request: Optional[QueryRequest],
        overrides: Dict[str, Any],
        route_kwargs: Dict[str, Any],
    ) -> None:
        """Route filtered requests to filterable services automatically."""
        if name is not None or "filterable" in route_kwargs:
            return
        has_filter = (
            request is not None and request.filter is not None
        ) or overrides.get("filter") is not None
        if has_filter:
            route_kwargs["filterable"] = True

    @staticmethod
    def _split_route_kwargs(kwargs: Dict[str, Any]):
        route_keys = ("metric", "exact", "mutable", "filterable", "dim")
        route = {key: kwargs.pop(key) for key in route_keys if key in kwargs}
        return route, kwargs

    def stats(self) -> Dict[str, Any]:
        """Per-service serving counters for the whole deployment."""
        with self._lock:
            services = dict(self._services)
        return {
            "services": {name: service.stats() for name, service in services.items()},
            "n_services": len(services),
        }

    # ------------------------------------------------------------------ #
    # deployment persistence
    # ------------------------------------------------------------------ #
    def save(self, path) -> Path:
        """Write the whole deployment (manifest + every index) to ``path``."""
        path = Path(path)
        with self._lock:
            services = dict(self._services)
        if not services:
            raise SerializationError("cannot save an empty router")
        (path / INDEXES_DIR).mkdir(parents=True, exist_ok=True)
        manifest: Dict[str, Any] = {
            "format": ROUTER_FORMAT,
            "format_version": ROUTER_FORMAT_VERSION,
            "services": {},
        }
        for name, service in services.items():
            if not isinstance(service, SearchService):
                raise SerializationError(
                    f"service {name!r} ({type(service).__name__}) is runtime "
                    "wiring, not a persistable service; save its primary "
                    "collection instead"
                )
            config = service.service_config()
            if service.collection is not None:
                # A collection is already durable in its own directory;
                # checkpoint it (so the snapshot is current) and reference
                # it instead of copying the artifact into the deployment.
                service.collection.checkpoint()
                config["collection_path"] = str(Path(service.collection.path).resolve())
            else:
                service.index.save(path / INDEXES_DIR / name)
            manifest["services"][name] = config
        (path / ROUTER_FILE).write_text(json.dumps(manifest, indent=2, sort_keys=True))
        return path

    @classmethod
    def load(cls, path) -> "Router":
        """Rebuild a saved deployment; every service answers identically."""
        path = Path(path)
        manifest_file = path / ROUTER_FILE
        if not manifest_file.is_file():
            raise SerializationError(
                f"{path} is not a saved router (missing {ROUTER_FILE})"
            )
        try:
            manifest = json.loads(manifest_file.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise SerializationError(f"could not read {manifest_file}: {exc}") from exc
        if manifest.get("format") != ROUTER_FORMAT:
            raise SerializationError(f"{manifest_file} is not a {ROUTER_FORMAT} file")
        if int(manifest.get("format_version", 0)) > ROUTER_FORMAT_VERSION:
            raise SerializationError(
                f"{manifest_file} uses router format "
                f"{manifest.get('format_version')}, supported up to "
                f"{ROUTER_FORMAT_VERSION}"
            )
        router = cls()
        for name, config in manifest.get("services", {}).items():
            service_kwargs = dict(
                batch_size=int(config.get("batch_size", 256)),
                cache_size=int(config.get("cache_size", 0)),
                default_request=QueryRequest.from_dict(
                    config.get("default_request", {})
                ),
            )
            collection_path = config.get("collection_path")
            if collection_path is not None:
                router.add_collection(name, collection_path, **service_kwargs)
            else:
                router.add_index(name, load_index(path / INDEXES_DIR / name), **service_kwargs)
        return router

    def __repr__(self) -> str:
        return f"Router(services={self.names()})"
