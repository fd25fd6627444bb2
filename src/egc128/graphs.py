"""Interaction-graph topologies and their spectral/metric properties.

Four variants of the 64-vertex interaction graph are compared by the
sensitivity analysis:

* ``baseline``      read-set {i-1, i+1, i+16} (offsets scale as width/4
                    for other sizes, like the reduced ciphers);
* ``poor_expander`` near-cycle read-set {i-1, i+1, i+2};
* ``random3regular`` configuration-model random 3-regular graph
                    (undirected; the read-set of a vertex is its three
                    neighbours);
* ``irregular34``   the baseline plus 32 undirected pairing edges
                    {i, i+n/2}, read in both directions, so every
                    vertex gains a fourth long-range input.

Spectral quantities are computed on the symmetrised adjacency matrix
(directed read edges made bidirectional, duplicates collapsed).  The
spectral gap reported here is lambda_1 - lambda_2 of that matrix, the
convention under which the baseline scores 0.152 and the near-cycle
0.048; the eigenvalue list of the degree-normalised matrix is included
for reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import log, log2

import numpy as np

from .params import scaled_offsets

VARIANTS = ("baseline", "poor_expander", "random3regular", "irregular34")

CONFIG_MODEL_RETRIES = 1000


@dataclass(frozen=True)
class GraphTopology:
    """Vertex count plus per-vertex read-sets (directed input lists)."""

    n: int
    read_sets: tuple[tuple[int, ...], ...]
    variant: str = "custom"

    def __post_init__(self):
        if len(self.read_sets) != self.n:
            raise ValueError("read_sets length must equal vertex count")
        for i, reads in enumerate(self.read_sets):
            if any(not 0 <= j < self.n for j in reads):
                raise ValueError(f"vertex {i} reads out-of-range neighbour")

    @classmethod
    def from_offsets(cls, n: int, offsets, variant: str = "custom") -> "GraphTopology":
        reads = tuple(tuple((i + o) % n for o in offsets) for i in range(n))
        return cls(n, reads, variant)

    def transposed(self) -> "GraphTopology":
        """Reverse every read edge (vertex i is read by its readers)."""
        rev = [[] for _ in range(self.n)]
        for i, reads in enumerate(self.read_sets):
            for j in reads:
                rev[j].append(i)
        return GraphTopology(self.n, tuple(tuple(r) for r in rev), self.variant + "_transposed")

    @cached_property
    def circulant(self) -> bool:
        """Whether vertex i reads vertex 0's read set rotated by i, for
        every i: then rotation is a symmetry, which searches exploit."""
        return all(set(reads) == {(j + i) % self.n for j in self.read_sets[0]}
                   for i, reads in enumerate(self.read_sets))

    @cached_property
    def reader_masks(self) -> tuple[int, ...]:
        """mask[j] = vertex j plus every vertex reading j, as a bitmask."""
        return tuple(sum({1 << i for i in (j, *readers)})
                     for j, readers in enumerate(self.transposed().read_sets))


def _random_regular(n: int, degree: int, seed: int) -> GraphTopology:
    """Configuration model with rejection of self-loops and multi-edges."""
    if (n * degree) % 2:
        raise ValueError("n * degree must be even")
    rng = np.random.default_rng(seed)
    stubs = np.repeat(np.arange(n), degree)
    for _ in range(CONFIG_MODEL_RETRIES):
        perm = rng.permutation(stubs)
        pairs = perm.reshape(-1, 2)
        if (pairs[:, 0] == pairs[:, 1]).any():
            continue
        canon = {(min(a, b), max(a, b)) for a, b in pairs}
        if len(canon) != len(pairs):
            continue
        adj = [[] for _ in range(n)]
        for a, b in sorted(canon):
            adj[a].append(b)
            adj[b].append(a)
        return GraphTopology(n, tuple(tuple(v) for v in adj), "random3regular")
    raise RuntimeError(f"configuration model failed after {CONFIG_MODEL_RETRIES} tries")


def build_topology(variant: str, n: int = 64, seed: int | None = None) -> GraphTopology:
    """Construct one of the four named variants (or a plain cycle)."""
    if n < 8:
        raise ValueError("vertex count must be at least 8")
    if variant == "baseline":
        return GraphTopology.from_offsets(n, scaled_offsets(n), variant)
    if variant == "poor_expander":
        return GraphTopology.from_offsets(n, (-1, 1, 2), variant)
    if variant == "cycle":
        return GraphTopology.from_offsets(n, (-1, 1), variant)
    if variant == "random3regular":
        if seed is None:
            raise ValueError("random variant requires a seed")
        return _random_regular(n, 3, seed)
    if variant == "irregular34":
        if n % 2:
            raise ValueError("irregular34 requires even vertex count")
        half = n // 2
        base = scaled_offsets(n)[2]
        reads = tuple(
            tuple(sorted({(i - 1) % n, (i + 1) % n, (i + base) % n, (i + half) % n}))
            for i in range(n)
        )
        return GraphTopology(n, reads, variant)
    raise ValueError(f"unknown variant {variant!r}")


def symmetrized_adjacency(g: GraphTopology) -> np.ndarray:
    """0/1 adjacency of the undirected support of the read relation."""
    A = np.zeros((g.n, g.n), dtype=float)
    for i, reads in enumerate(g.read_sets):
        for j in reads:
            if i != j:
                A[i, j] = 1.0
                A[j, i] = 1.0
    return A


def hop_distances(g: GraphTopology) -> np.ndarray:
    """All-pairs shortest-path hop counts on the symmetrised graph, -1
    where no path exists.  Entry (i, j) is the first k at which the
    boolean power (A + I)^k reaches j from i."""
    step = symmetrized_adjacency(g) + np.eye(g.n)
    reach = np.eye(g.n, dtype=bool)
    dist = np.where(reach, 0, -1)
    for k in range(1, g.n):
        nxt = reach @ step > 0
        new = nxt & ~reach
        if not new.any():
            break
        dist[new] = k
        reach = nxt
    return dist


@dataclass(frozen=True)
class MixingBound:
    """Upper bound log(n)/gap on the random-walk mixing time."""

    natural: float
    base2: float


def mixing_time_bound(n: int, gap: float) -> MixingBound:
    if gap <= 0:
        raise ValueError("mixing bound requires a positive gap")
    return MixingBound(log(n) / gap, log2(n) / gap)


@dataclass(frozen=True)
class SpectralReport:
    variant: str
    n: int
    spectral_gap: float          # lambda_1 - lambda_2, symmetrised adjacency
    lambda1: float
    lambda2: float
    normalized_gap: float        # 1 - |nu_2| of the degree-normalised matrix
    normalized_eigenvalues: tuple[float, ...]
    diameter: int
    mixing_bound: MixingBound
    connected: bool


def spectral_report(g: GraphTopology) -> SpectralReport:
    """Dense exact eigendecomposition (intended for n <= 256)."""
    if g.n > 256:
        raise ValueError("dense spectral analysis limited to n <= 256")
    if g.n < 2:
        raise ValueError(f"spectral gap needs at least 2 vertices, got {g.n}")
    A = symmetrized_adjacency(g)
    dist = hop_distances(g)
    if (dist < 0).any():
        return SpectralReport(g.variant, g.n, 0.0, 0.0, 0.0, 0.0, (), -1,
                              MixingBound(float("inf"), float("inf")), False)
    evals = np.sort(np.linalg.eigvalsh(A))[::-1]
    gap = float(evals[0] - evals[1])
    deg = A.sum(axis=1)
    dinv = 1.0 / np.sqrt(deg)
    N = A * np.outer(dinv, dinv)
    nevals = np.sort(np.linalg.eigvalsh(N))[::-1]
    nu2 = max(abs(nevals[1]), abs(nevals[-1]))
    return SpectralReport(
        variant=g.variant,
        n=g.n,
        spectral_gap=gap,
        lambda1=float(evals[0]),
        lambda2=float(evals[1]),
        normalized_gap=float(1.0 - nu2),
        normalized_eigenvalues=tuple(float(v) for v in nevals),
        diameter=int(dist.max()),
        mixing_bound=mixing_time_bound(g.n, gap),
        connected=True,
    )
