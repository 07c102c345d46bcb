"""Shared pieces of the benchmark: inputs, answer checks, statistics, spans.

Everything here uses numpy and the standard library only, so a change
to the program under test cannot change the inputs, the ground truth or
the checks that judge its answers.
"""

from __future__ import annotations

import json
import resource
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

DIM = 64
N_CLUSTERS = 400
CLUSTER_SIGMA = 0.35
BASE_SEED = 2023
K = 10


class WrongAnswer(Exception):
    """The program returned an answer the benchmark's own checks reject."""


# ---------------------------------------------------------------------- #
# inputs
# ---------------------------------------------------------------------- #
class Mixture:
    """A SIFT-like stream: a Gaussian mixture scaled to [0, 255].

    The cluster centres and the base set come from a fixed seed, so every
    run indexes the same base: the learned USP partition, and with it the
    candidates scanned per query, would otherwise move latency by about
    12 % from one base set to the next.  ``seed`` draws everything else:
    queries, inserted vectors and the ids removed.  The affine map to
    [0, 255] is fixed by the centres, so all draws share one scale.
    """

    def __init__(self, seed: int, dim: int = DIM, n_clusters: int = N_CLUSTERS) -> None:
        self._fixed = np.random.default_rng(BASE_SEED)
        self.centers = self._fixed.normal(0.0, 1.0, (n_clusters, dim))
        self.low = self.centers.min() - 4.0 * CLUSTER_SIGMA
        self.high = self.centers.max() + 4.0 * CLUSTER_SIGMA
        self.rng = np.random.default_rng(seed)

    def base(self, n: int) -> np.ndarray:
        """The fixed base set of ``n`` vectors (the same for every seed)."""
        return self._draw(self._fixed, n)

    def draw(self, n: int) -> np.ndarray:
        """``n`` fresh vectors from the seeded stream."""
        return self._draw(self.rng, n)

    def _draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        labels = rng.integers(0, self.centers.shape[0], n)
        points = self.centers[labels] + rng.normal(0.0, CLUSTER_SIGMA, (n, self.centers.shape[1]))
        scaled = (points - self.low) * (255.0 / (self.high - self.low))
        return np.clip(scaled, 0.0, 255.0).astype(np.float32)


def exact_topk(
    queries: np.ndarray, base: np.ndarray, k: int = K, *, valid: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Exact Euclidean top-``k`` rows of ``base`` per query, in float64.

    With a boolean ``valid`` mask, rows outside it are never returned.
    """
    queries = np.asarray(queries, dtype=np.float64)
    base = np.asarray(base, dtype=np.float64)
    base_norms = np.einsum("ij,ij->i", base, base)
    if valid is not None:
        base_norms[~valid] = np.inf
    ids = np.empty((queries.shape[0], k), dtype=np.int64)
    dists = np.empty((queries.shape[0], k))
    for start in range(0, queries.shape[0], 512):
        block = queries[start : start + 512]
        sq = base_norms[None, :] - 2.0 * (block @ base.T)
        part = np.argpartition(sq, k - 1, axis=1)[:, :k]
        order = np.argsort(np.take_along_axis(sq, part, axis=1), axis=1, kind="stable")
        top = np.take_along_axis(part, order, axis=1)
        ids[start : start + 512] = top
        dists[start : start + 512] = np.linalg.norm(base[top] - block[:, None, :], axis=2)
    return ids, dists


# ---------------------------------------------------------------------- #
# answer checks
# ---------------------------------------------------------------------- #
def check_answers(
    ids: np.ndarray,
    distances: np.ndarray,
    queries: np.ndarray,
    vectors: np.ndarray,
    *,
    valid: Optional[np.ndarray] = None,
    what: str,
) -> None:
    """Raise :class:`WrongAnswer` unless every row is a well-formed answer.

    A row holds unique ids of ``vectors`` (live ones, when ``valid`` is a
    mask), sorted by distance, each with its exact Euclidean distance.
    Trailing ``-1`` ids with infinite distance are the program's
    documented "no further candidate" padding and are accepted.
    """
    ids = np.asarray(ids, dtype=np.int64)
    distances = np.asarray(distances, dtype=np.float64)
    if ids.shape != distances.shape or ids.shape[0] != len(queries):
        raise WrongAnswer(f"{what}: answer shape {ids.shape} / {distances.shape}")
    padded = ids < 0
    if (padded[:, :-1] & ~padded[:, 1:]).any() or not np.isinf(distances[padded]).all():
        raise WrongAnswer(f"{what}: padding (-1, inf) is not confined to row tails")
    real = ~padded
    if (ids[real] >= vectors.shape[0]).any():
        raise WrongAnswer(f"{what}: id out of range")
    if valid is not None and not valid[ids[real]].all():
        raise WrongAnswer(f"{what}: answer holds a removed id")
    ordered = np.sort(np.where(real, ids, -1 - np.arange(ids.shape[1])), axis=1)
    if (ordered[:, 1:] == ordered[:, :-1]).any():
        raise WrongAnswer(f"{what}: duplicate id in one answer")
    safe = np.where(real, ids, 0)
    exact = np.linalg.norm(
        vectors[safe].astype(np.float64) - np.asarray(queries, np.float64)[:, None, :],
        axis=2,
    )
    if not np.allclose(distances[real], exact[real], rtol=1e-6, atol=1e-4):
        worst = np.abs(distances[real] - exact[real]).max()
        raise WrongAnswer(f"{what}: distance differs from exact by {worst:.3g}")
    if (np.diff(np.where(real, distances, np.inf), axis=1) < -1e-9).any():
        raise WrongAnswer(f"{what}: answer not sorted by distance")


def check_exact(distances: np.ndarray, true_distances: np.ndarray, *, what: str) -> None:
    """Raise unless each answer's distances equal the exact top-k's (ties allowed)."""
    if not np.allclose(distances, true_distances, rtol=1e-6, atol=1e-4):
        raise WrongAnswer(f"{what}: answer is not the exact top-{distances.shape[1]}")


def recall(ids: np.ndarray, truth: np.ndarray) -> float:
    """Mean fraction of each true top-k list found in the answer."""
    hits = sum(len(np.intersect1d(row, true)) for row, true in zip(ids, truth))
    return hits / float(truth.size)


# ---------------------------------------------------------------------- #
# statistics and process facts
# ---------------------------------------------------------------------- #
def percentile_ms(seconds: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(seconds, dtype=np.float64), q) * 1e3)


def median(values: Iterable[float]) -> float:
    return float(np.median(np.asarray(list(values), dtype=np.float64)))


# A run's timed figures are taken over consecutive windows (passes,
# rounds), and the run reports the quartile on the better side of them:
# the upper quartile of rates, the lower quartile of latencies.  On a
# shared host, slow spells of a few seconds land on some windows of every
# run; a figure pooled over the whole run, or a median of windows, moves
# with how many windows they hit, while the better quartile moves only
# when most of a run is slowed.
def calm_rate(rates: Iterable[float]) -> float:
    """Upper quartile of per-window rates."""
    return float(np.percentile(np.asarray(list(rates), dtype=np.float64), 75))


def windowed_percentile_ms(seconds: Sequence[float], q: float, window: int) -> float:
    """Lower quartile, over consecutive windows of about ``window``
    samples, of each window's ``q``-th percentile, in ms."""
    values = np.asarray(seconds, dtype=np.float64)
    chunks = np.array_split(values, max(1, values.size // window))
    return float(np.percentile([np.percentile(chunk, q) * 1e3 for chunk in chunks], 25))


def peak_rss_mb() -> float:
    """Peak resident set of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def dir_bytes(path: Path) -> int:
    return sum(item.stat().st_size for item in Path(path).rglob("*") if item.is_file())


@dataclass
class Context:
    """One benchmark run: its seed, time budget, scale and scratch space."""

    seed: int
    seconds: float
    smoke: bool
    src: Path
    work: Path
    spans: Optional["Spans"] = None


@dataclass
class Tally:
    """Operations attempted and failed (refused, timed out or errored)."""

    attempted: int = 0
    failed: int = 0

    def add(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed


@dataclass
class Outcome:
    """What one workload measured: gated metrics, reported metrics, counts."""

    metrics: Dict[str, float] = field(default_factory=dict)
    report: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    tally: Tally = field(default_factory=Tally)


# ---------------------------------------------------------------------- #
# spans
# ---------------------------------------------------------------------- #
class Spans:
    """In-memory span recorder for the traced run.

    Each span records its name, start, end, parent and the run id; the
    list is written out once, by :meth:`write`, when the run ends.
    """

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.records: List[dict] = []
        self._stack: List[int] = []

    def record(
        self, name: str, start: float, end: float, parent: Optional[int] = None, **attrs
    ) -> int:
        """Add a finished span; returns its id for use as a parent."""
        span_id = len(self.records)
        self.records.append(
            {
                "id": span_id,
                "name": name,
                "start": start,
                "end": end,
                "parent": parent,
                "run": self.run_id,
                **({"attrs": attrs} if attrs else {}),
            }
        )
        return span_id

    @contextmanager
    def span(self, name: str, **attrs):
        """Time a block as a child of the enclosing :meth:`span` block."""
        parent = self._stack[-1] if self._stack else None
        span_id = self.record(name, time.perf_counter(), 0.0, parent, **attrs)
        self._stack.append(span_id)
        try:
            yield span_id
        finally:
            self._stack.pop()
            self.records[span_id]["end"] = time.perf_counter()

    def durations(self, name: str, parent: Optional[int] = None) -> List[float]:
        """Durations of the spans called ``name`` (under ``parent``, if given)."""
        return [
            r["end"] - r["start"]
            for r in self.records
            if r["name"] == name and (parent is None or r["parent"] == parent)
        ]

    def self_seconds(self) -> Dict[str, float]:
        """Per span name: total duration minus the time its children cover."""
        children: Dict[int, List[Tuple[float, float]]] = {}
        for r in self.records:
            if r["parent"] is not None:
                children.setdefault(r["parent"], []).append((r["start"], r["end"]))
        totals: Dict[str, float] = {}
        for r in self.records:
            covered, reach = 0.0, r["start"]
            for start, end in sorted(children.get(r["id"], [])):
                start, end = max(start, reach), min(end, r["end"])
                if end > start:
                    covered += end - start
                    reach = end
            totals[r["name"]] = totals.get(r["name"], 0.0) + (r["end"] - r["start"] - covered)
        return totals

    def write(self, path: Path) -> None:
        with open(path, "w") as handle:
            for r in self.records:
                handle.write(json.dumps(r) + "\n")
