"""Graph topologies, spectra, diameters, mixing bounds."""

import math

import numpy as np
import pytest

from egc128.graphs import (
    VARIANTS,
    GraphTopology,
    build_topology,
    hop_distances,
    mixing_time_bound,
    spectral_report,
    symmetrized_adjacency,
)
from egc128.params import scaled_offsets


def test_baseline_readset():
    g = build_topology("baseline", 64)
    assert set(g.read_sets[0]) == {63, 1, 16}


def test_poor_expander_readset():
    g = build_topology("poor_expander", 64)
    assert set(g.read_sets[0]) == {63, 1, 2}


def test_irregular34_readset():
    g = build_topology("irregular34", 64)
    assert set(g.read_sets[0]) == {63, 1, 16, 32}
    assert all(len(r) == 4 for r in g.read_sets)


def test_random_regular_reproducible_and_simple():
    a = build_topology("random3regular", 64, seed=11)
    b = build_topology("random3regular", 64, seed=11)
    assert a.read_sets == b.read_sets
    c = build_topology("random3regular", 64, seed=12)
    assert c.read_sets != a.read_sets
    for i, reads in enumerate(a.read_sets):
        assert len(reads) == 3
        assert len(set(reads)) == 3
        assert i not in reads
    # undirected consistency
    for i, reads in enumerate(a.read_sets):
        for j in reads:
            assert i in a.read_sets[j]


def test_long_range_offset_follows_scaled_offsets():
    # One formula for the long-range chord: width/4, floored at 2.
    for n in range(8, 257):
        long = max(2, round(n / 4))
        assert scaled_offsets(n) == (-1, 1, long)
        g = build_topology("baseline", n)
        assert g.circulant_offsets == (n - 1, 1, long)
        assert g.read_sets == tuple(((i - 1) % n, (i + 1) % n, (i + long) % n)
                                    for i in range(n))
        if n % 2 == 0:
            g = build_topology("irregular34", n)
            assert g.circulant_offsets == (n - 1, 1, long, n // 2)
            assert g.read_sets == tuple(
                tuple(sorted({(i - 1) % n, (i + 1) % n, (i + long) % n, (i + n // 2) % n}))
                for i in range(n))


def _reader_masks_loop(g):
    masks = [1 << j for j in range(g.n)]
    for i, reads in enumerate(g.read_sets):
        for j in reads:
            masks[j] |= 1 << i
    return tuple(masks)


@pytest.mark.parametrize("n", [8, 16, 64])
@pytest.mark.parametrize("variant", VARIANTS + ("cycle",))
def test_reader_masks_are_the_read_relation(variant, n):
    g = build_topology(variant, n, seed=3)
    for h in (g, g.transposed()):
        assert h.reader_masks == _reader_masks_loop(h)
        assert h.reader_masks is h.reader_masks      # computed once per graph


def test_random_requires_seed_and_min_size():
    with pytest.raises(ValueError):
        build_topology("random3regular", 64)
    with pytest.raises(ValueError):
        build_topology("baseline", 4)
    with pytest.raises(ValueError):
        build_topology("nosuch", 64)


def test_spectral_gaps_reference_values():
    base = spectral_report(build_topology("baseline", 64))
    poor = spectral_report(build_topology("poor_expander", 64))
    assert abs(base.spectral_gap - 0.152) < 1e-3
    assert abs(poor.spectral_gap - 0.048) < 1e-3
    irr = spectral_report(build_topology("irregular34", 64))
    assert abs(irr.spectral_gap - 0.152) < 1e-3


def test_cycle_gap_below_poor_expander():
    cyc = spectral_report(build_topology("cycle", 64))
    poor = spectral_report(build_topology("poor_expander", 64))
    assert cyc.spectral_gap < poor.spectral_gap
    # Cosine-formula oracle for the cycle: gap = 2 - 2 cos(2 pi / n)
    assert abs(cyc.spectral_gap - (2 - 2 * math.cos(2 * math.pi / 64))) < 1e-9


def test_normalized_spectrum_invariants():
    for variant in ("baseline", "poor_expander", "irregular34"):
        rep = spectral_report(build_topology(variant, 64))
        ev = np.array(rep.normalized_eigenvalues)
        assert abs(ev[0] - 1.0) < 1e-9
        assert (ev >= -1 - 1e-9).all() and (ev <= 1 + 1e-9).all()


def test_symmetrized_matrix_is_symmetric():
    for variant, seed in (("baseline", None), ("random3regular", 5)):
        A = symmetrized_adjacency(build_topology(variant, 64, seed))
        assert (A == A.T).all()
        assert np.trace(A) == 0


def test_diameters():
    assert spectral_report(build_topology("baseline", 64)).diameter == 9
    assert spectral_report(build_topology("poor_expander", 64)).diameter == 16
    # complete graph on 4 vertices
    k4 = GraphTopology.from_offsets(4, (1, 2, 3))
    assert spectral_report(k4).diameter == 1


def test_diameter_matrix_power_oracle():
    # Independent oracle: smallest k with (A + I)^k all-positive.
    for variant, seed in (("baseline", None), ("random3regular", 7)):
        g = build_topology(variant, 64, seed)
        A = symmetrized_adjacency(g) + np.eye(64)
        reach = np.eye(64)
        k = 0
        while not (reach > 0).all():
            reach = reach @ A
            k += 1
        assert k == spectral_report(g).diameter == hop_distances(g).max()


def _bfs_distances(g):
    # Independent oracle: breadth-first search from every vertex.
    A = symmetrized_adjacency(g)
    dist = np.full((g.n, g.n), -1)
    for s in range(g.n):
        dist[s, s] = 0
        frontier = [s]
        while frontier:
            nxt = []
            for u in frontier:
                for v in np.nonzero(A[u])[0]:
                    if dist[s, v] < 0:
                        dist[s, v] = dist[s, u] + 1
                        nxt.append(v)
            frontier = nxt
    return dist


@pytest.mark.parametrize("n", (8, 32, 64, 256))
def test_hop_distances_match_bfs(n):
    for variant, seed in (("baseline", None), ("poor_expander", None), ("cycle", None),
                          ("random3regular", 11), ("irregular34", None)):
        g = build_topology(variant, n, seed)
        assert np.array_equal(hop_distances(g), _bfs_distances(g))
    # Two 4-cycles plus an isolated vertex: -1 between components.
    reads = tuple(((i + 1) % 4 + i // 4 * 4, (i - 1) % 4 + i // 4 * 4) for i in range(8))
    g = GraphTopology(9, reads + ((8,),), "split")
    d = hop_distances(g)
    assert np.array_equal(d, _bfs_distances(g))
    assert d[0, 5] == -1 and d[8, 0] == -1 and d[0, 2] == 2
    rep = spectral_report(g)
    assert not rep.connected and rep.diameter == -1


def test_vertex_transitivity_of_baseline():
    g = build_topology("baseline", 64)
    rep = spectral_report(g)
    # relabel every vertex by rotation and recompute
    shift = 13
    reads = tuple(
        tuple(sorted((j + shift) % 64 for j in g.read_sets[(i - shift) % 64]))
        for i in range(64)
    )
    rotated = GraphTopology(64, reads, "baseline_rotated")
    rep2 = spectral_report(rotated)
    assert abs(rep.spectral_gap - rep2.spectral_gap) < 1e-9
    assert rep.diameter == rep2.diameter


def test_mixing_bound_values():
    mb = mixing_time_bound(64, 0.152)
    assert abs(mb.natural - 27.4) < 0.1
    assert abs(mb.base2 - 39.5) < 0.1
    assert mixing_time_bound(64, 1.0).natural == pytest.approx(math.log(64))
    with pytest.raises(ValueError):
        mixing_time_bound(64, 0.0)


def test_poor_expander_bound_three_times_worse():
    base = spectral_report(build_topology("baseline", 64))
    poor = spectral_report(build_topology("poor_expander", 64))
    ratio = poor.mixing_bound.natural / base.mixing_bound.natural
    assert 2.9 < ratio < 3.4


def test_disconnected_report():
    # two separate 4-cycles
    reads = tuple((tuple({(i + 1) % 4 + (i // 4) * 4, (i - 1) % 4 + (i // 4) * 4}))
                  for i in range(8))
    g = GraphTopology(8, reads, "two_cycles")
    assert (hop_distances(g) < 0).any()
    rep = spectral_report(g)
    assert rep.connected is False
    assert rep.spectral_gap == 0.0


@pytest.mark.parametrize("n", (0, 1))
def test_spectral_report_needs_two_vertices(n):
    # lambda_2 does not exist below two vertices.
    g = GraphTopology(n, ((0,),) * n)
    with pytest.raises(ValueError, match="at least 2 vertices"):
        spectral_report(g)
