"""Property tests for the wire forms of the serving types (satellite of
the HTTP serving layer).

Every ``as_dict`` must survive ``json.dumps`` → ``json.loads`` →
``from_dict`` with nothing lost: ids and distances bitwise, filters (and
their fingerprints) intact, per-query latencies carried through.  The
HTTP server ships these dicts verbatim, so this is exactly the guarantee
that makes network results comparable to in-process results.
"""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.filter import And, Eq, In, Not, Or, Range
from repro.service import QueryRequest
from repro.service.request import BatchResult, QueryResult

json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**31), max_value=2**31),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=12),
)

columns = st.sampled_from(["shop", "price", "labels"])

leaf_predicates = st.one_of(
    st.builds(Eq, columns, st.one_of(st.text(max_size=6), st.integers(-50, 50))),
    st.builds(In, columns, st.lists(st.text(max_size=4), min_size=1, max_size=4)),
    # Range needs at least one bound
    st.builds(Range, columns, st.floats(-100, 0), st.one_of(st.none(), st.floats(0.0001, 100))),
    st.builds(Range, columns, st.none(), st.floats(0.0001, 100)),
)

predicates = st.recursive(
    leaf_predicates,
    lambda children: st.one_of(
        st.builds(lambda a, b: And(a, b), children, children),
        st.builds(lambda a, b: Or(a, b), children, children),
        st.builds(Not, children),
    ),
    max_leaves=4,
)

filters = st.one_of(
    st.none(),
    predicates,
    # boolean mask
    st.lists(st.booleans(), min_size=1, max_size=24).map(
        lambda bits: np.asarray(bits, dtype=bool)
    ),
    # id allowlist
    st.lists(st.integers(0, 500), min_size=1, max_size=16).map(
        lambda ids: np.asarray(ids, dtype=np.int64)
    ),
)

requests = st.builds(
    QueryRequest,
    k=st.integers(1, 64),
    probes=st.one_of(st.none(), st.integers(1, 16)),
    candidate_budget=st.one_of(st.none(), st.integers(1, 4096)),
    filter=filters,
    metadata=st.dictionaries(st.text(max_size=8), json_scalars, max_size=3),
    extra=st.dictionaries(st.text(max_size=8), json_scalars, max_size=3),
)


def over_the_wire(data):
    """The exact transformation an HTTP round-trip applies to a payload."""
    return json.loads(json.dumps(data))


class TestQueryRequestRoundTrip:
    @settings(max_examples=80, deadline=None)
    @given(requests)
    def test_as_dict_survives_json(self, request):
        returned = QueryRequest.from_dict(over_the_wire(request.as_dict()))
        assert returned.as_dict() == request.as_dict()
        assert returned.filter_fingerprint() == request.filter_fingerprint()
        assert (
            returned.filter_fingerprint_digest()
            == request.filter_fingerprint_digest()
        )
        assert returned.cache_key() == request.cache_key()

    def test_fingerprint_digest_none_without_filter(self):
        assert QueryRequest(k=3).filter_fingerprint_digest() is None
        digest = QueryRequest(k=3, filter=Eq("shop", "a")).filter_fingerprint_digest()
        assert isinstance(digest, str) and len(digest) == 64


class TestQueryResultRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(
        requests,
        st.integers(0, 1000),
        st.integers(1, 16),
        st.floats(0, 10, allow_nan=False),
        st.booleans(),
    )
    def test_round_trip(self, request, seed, k, latency, cached):
        rng = np.random.default_rng(seed)
        result = QueryResult(
            ids=rng.integers(0, 10_000, size=k).astype(np.int64),
            distances=np.sort(rng.random(k)),
            request=request,
            latency_seconds=latency,
            cached=cached,
        )
        wire = over_the_wire(result.as_dict())
        returned = QueryResult.from_dict(wire)
        np.testing.assert_array_equal(returned.ids, result.ids)
        np.testing.assert_array_equal(returned.distances, result.distances)
        assert returned.distances.dtype == np.float64
        assert returned.latency_seconds == result.latency_seconds
        assert returned.cached == result.cached
        assert returned.request.as_dict() == request.as_dict()
        assert wire["k"] == result.k
        assert wire["filter_fingerprint"] == request.filter_fingerprint_digest()


class TestBatchResultRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(
        requests,
        st.integers(0, 1000),
        st.integers(0, 12),  # n_queries: includes the empty batch
        st.integers(1, 8),
        st.floats(0.001, 10, allow_nan=False),
        st.integers(0, 5),
        st.one_of(st.none(), st.floats(0, 1, allow_nan=False)),
    )
    def test_round_trip(self, request, seed, n, k, elapsed, cache_hits, recall):
        rng = np.random.default_rng(seed)
        result = BatchResult(
            ids=rng.integers(0, 10_000, size=(n, k)).astype(np.int64),
            distances=np.sort(rng.random((n, k)), axis=1),
            request=request.with_updates(k=k),
            elapsed_seconds=elapsed,
            cache_hits=min(cache_hits, n),
            recall=recall,
        )
        wire = over_the_wire(result.as_dict())
        returned = BatchResult.from_dict(wire)
        np.testing.assert_array_equal(returned.ids, result.ids)
        np.testing.assert_array_equal(returned.distances, result.distances)
        assert returned.ids.shape == (n, k)
        assert returned.n_queries == n
        assert returned.elapsed_seconds == elapsed
        assert returned.cache_hits == result.cache_hits
        assert returned.recall == recall
        assert returned.request.as_dict() == result.request.as_dict()
        # wire latencies match what in-process iteration reports per query
        assert len(wire["per_query_latency_seconds"]) == n
        for row, wire_latency in zip(result, wire["per_query_latency_seconds"]):
            assert row.latency_seconds == wire_latency
