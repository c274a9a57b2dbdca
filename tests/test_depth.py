import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qwalk import depth, graph, pipelines, spectral
from qwalk.errors import DepthError

from conftest import (
    cartesian_product,
    connected_cographs,
    dense_gate,
    eigenbasis,
    group_runs,
    index_chain,
    index_level_masses,
    index_overlaps,
)


def prepare_ints(g):
    return spectral.validate_integer_spectrum(
        spectral.eigendecompose(graph.laplacian(g))
    )


def vertex_masses(spec, m):
    """m's masses <m|E_g|m> on the eigenspace groups, as the pipelines
    read them."""
    return spec.masses[m]


@pytest.mark.parametrize(
    "values,expected",
    [((0,), 1), ((0, 6, 64, 64), 2), ((0, 2, 2, 4), 2), ((3, 9, 12), 3), ((), 1)],
)
def test_gcd_nonzero(values, expected):
    assert depth.gcd_nonzero(values) == expected


def test_chain_of_mixed_magnitude_multiset():
    chain = depth.build_depth_chain([0, 1, 3, 6, 64, 64])
    assert chain.depth == 3
    assert chain.level_values(1) == [0, 6, 64, 64]
    assert chain.complement_values(1) == [1, 3]
    assert chain.level_values(2) == [0, 64, 64]
    assert chain.complement_values(2) == [6]
    assert chain.level_values(3) == [0]
    assert chain.complement_values(3) == [64, 64]
    assert [lvl.gcd for lvl in chain.levels] == [1, 2, 64, 1]


def test_single_zero_has_depth_zero():
    chain = depth.build_depth_chain([0])
    assert chain.depth == 0
    assert chain.levels[0].gcd == 1


def test_c4_chain_by_hand(c4):
    chain = depth.build_depth_chain(prepare_ints(c4))
    assert chain.depth == 2
    assert chain.level_values(1) == [0, 4]
    assert chain.complement_values(1) == [2, 2]
    assert chain.level_values(2) == [0]
    assert chain.complement_values(2) == [4]
    assert [lvl.gcd for lvl in chain.levels] == [2, 4, 1]


def test_chain_requires_zero():
    with pytest.raises(DepthError, match="contain 0"):
        depth.build_depth_chain([1, 2, 3])


def test_chain_partition_invariant(sampling_suite):
    for g in sampling_suite:
        chain = depth.build_depth_chain(prepare_ints(g))
        for k in range(chain.depth):
            kept = set(chain.levels[k + 1].groups)
            split = set(chain.levels[k + 1].complement)
            assert kept | split == set(chain.levels[k].groups)
            assert not kept & split
            g_k = chain.levels[k].gcd
            assert all((chain.values[i] // g_k) % 2 == 0 for i in kept)
            assert all((chain.values[i] // g_k) % 2 == 1 for i in split)
        assert chain.depth <= len(set(chain.values))


@given(
    st.lists(st.integers(min_value=1, max_value=4096), min_size=0, max_size=12)
)
def test_chain_invariants_random_multisets(nonzero):
    values = [0] + nonzero
    chain = depth.build_depth_chain(values)
    assert chain.level_values(chain.depth) == [0]
    assert chain.depth <= len(set(values))
    assert list(chain.values) == sorted(set(values))
    assert list(chain.multiplicities) == [values.count(x) for x in chain.values]
    for k in range(chain.depth):
        kept = set(chain.levels[k + 1].groups)
        split = set(chain.levels[k + 1].complement)
        assert kept | split == set(chain.levels[k].groups)
        assert not kept & split
        assert split  # every refinement step splits something off
    for k, level in enumerate(chain.levels):
        assert tuple(np.flatnonzero(chain.group_depths >= k)) == level.groups
    # the per-index chain lists the same values level by level
    reference = index_chain(values)
    assert len(reference) == len(chain.levels)
    for k, (kept, split, gcd) in enumerate(reference):
        assert chain.level_values(k) == sorted(values[i] for i in kept)
        assert chain.complement_values(k) == sorted(values[i] for i in split)
        assert chain.levels[k].gcd == gcd


@given(st.permutations(list(range(6))))
def test_chain_independent_of_input_order(perm):
    base = [0, 1, 3, 6, 64, 64]
    values = [base[i] for i in perm]
    chain = depth.build_depth_chain(values)
    ref = depth.build_depth_chain(base)
    assert chain.depth == ref.depth
    for k in range(chain.depth + 1):
        assert chain.level_values(k) == ref.level_values(k)
        assert chain.complement_values(k) == ref.complement_values(k)


def test_level_states_reach_uniform(sampling_suite):
    for g in sampling_suite:
        ints = prepare_ints(g)
        chain = depth.build_depth_chain(ints)
        uniform = np.full(g.n, 1 / math.sqrt(g.n))
        for m in range(g.n):
            pairs = depth.level_states(chain, ints.base.eigenvectors[m])
            top = ints.base.eigenvectors @ pairs[-1].kept
            assert abs(abs(np.dot(uniform, top)) ** 2 - 1.0) < 1e-10


def test_level_states_match_per_level_sums(sampling_suite):
    # the reference sums and projects over each level's own index list
    for g in sampling_suite:
        ints = prepare_ints(g)
        chain = depth.build_depth_chain(ints)
        runs = group_runs(ints.base)

        def indices(positions):
            return [i for p in positions for i in runs[p]]

        for m in range(g.n):
            a = ints.base.eigenvectors[m]
            masses = [float(np.sum(a[indices(level.groups)] ** 2)) for level in chain.levels]
            group_masses = depth._level_masses(chain, vertex_masses(ints.base, m))
            assert np.max(np.abs(group_masses - masses)) < 1e-15
            for pair, level, mass in zip(depth.level_states(chain, a), chain.levels, masses):
                kept = np.zeros(g.n)
                kept[indices(level.groups)] = a[indices(level.groups)] / math.sqrt(mass)
                assert np.max(np.abs(pair.kept - kept)) < 1e-15
                split = np.zeros(g.n)
                split[indices(level.complement)] = a[indices(level.complement)]
                if np.sum(split**2) > depth.SKIP_MASS_TOL:
                    assert np.max(np.abs(pair.split - split / np.linalg.norm(split))) < 1e-12
                else:
                    assert pair.split is None


def test_level_states_single_vertex():
    chain = depth.build_depth_chain([0])
    pairs = depth.level_states(chain, np.array([1.0]))
    assert len(pairs) == 1
    assert pairs[0].split is None
    assert np.allclose(pairs[0].kept, [1.0])


def test_c4_first_overlap(c4):
    ints = prepare_ints(c4)
    chain = depth.build_depth_chain(ints)
    pairs = depth.level_states(chain, ints.base.eigenvectors[0])
    overlap = float(np.dot(pairs[0].kept, pairs[1].kept))
    assert overlap == pytest.approx(1 / math.sqrt(2), abs=1e-12)


def test_c4_overlaps_and_cost_product(c4):
    ints = prepare_ints(c4)
    chain = depth.build_depth_chain(ints)
    ovl = depth.overlaps(chain, vertex_masses(ints.base, 0))
    assert np.allclose(ovl, [1 / math.sqrt(2), 1 / math.sqrt(2)], atol=1e-12)
    product = np.prod(2.0 / ovl)
    assert product == pytest.approx(2**chain.depth * math.sqrt(c4.n), abs=1e-9)


def test_johnson_5_2_transitive_overlaps():
    chain = depth.build_depth_chain(prepare_ints(graph.johnson(5, 2)))
    ovl = depth.transitive_overlaps(chain)
    assert ovl[0] == pytest.approx(math.sqrt(6 / 10), abs=1e-12)
    assert ovl[1] == pytest.approx(math.sqrt(1 / 6), abs=1e-12)


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_complete_graph_single_overlap(n):
    chain = depth.build_depth_chain(prepare_ints(graph.johnson(n, 1)))
    assert chain.depth == 1
    ovl = depth.transitive_overlaps(chain)
    assert len(ovl) == 1
    assert ovl[0] == pytest.approx(1 / math.sqrt(n), abs=1e-12)


def test_telescoping_cost_identity(sampling_suite):
    for g in sampling_suite:
        chain = depth.build_depth_chain(prepare_ints(g))
        ovl = depth.transitive_overlaps(chain)
        product = float(np.prod(2.0 / ovl))
        assert abs(product - 2**chain.depth * math.sqrt(g.n)) < 1e-9 * product


def test_overlaps_match_transitive_for_all_vertices(sampling_suite):
    for g in sampling_suite:
        ints = prepare_ints(g)
        chain = depth.build_depth_chain(ints)
        reference = depth.transitive_overlaps(chain)
        for m in range(g.n):
            masses = vertex_masses(ints.base, m)
            assert np.allclose(depth.overlaps(chain, masses), reference, atol=1e-9)


def test_split_state_lies_in_consecutive_kept_span(sampling_suite):
    for g in sampling_suite:
        ints = prepare_ints(g)
        chain = depth.build_depth_chain(ints)
        for m in range(g.n):
            pairs = depth.level_states(chain, ints.base.eigenvectors[m])
            for k in range(chain.depth):
                split = pairs[k + 1].split
                if split is None:
                    continue
                basis = np.stack([pairs[k].kept, pairs[k + 1].kept])
                q, _ = np.linalg.qr(basis.T)
                residual = split - q @ (q.T @ split)
                assert np.linalg.norm(residual) < 1e-10


def test_skip_level_for_star_center():
    # the star's center has no projection on the degree-1 eigenspace, so
    # the first refinement step does not move it
    star = graph.complete_bipartite(1, 3)
    ints = prepare_ints(star)
    chain = depth.build_depth_chain(ints)
    assert chain.depth == 2
    ovl = depth.overlaps(chain, vertex_masses(ints.base, 0))
    assert ovl[0] == 1.0
    assert ovl[1] == pytest.approx(0.5, abs=1e-9)
    leaf = vertex_masses(ints.base, 1)
    assert all(o < 1.0 for o in depth.overlaps(chain, leaf))


def test_level_states_reject_vanished_kept_mass():
    chain = depth.build_depth_chain([0, 2])
    with pytest.raises(DepthError, match="mass vanished"):
        depth.level_states(chain, np.array([0.0, 1.0]))


def test_chain_json_export(c4):
    chain = depth.build_depth_chain(prepare_ints(c4))
    data = depth.chain_to_json_dict(chain)
    assert data["d"] == 2
    assert data["levels"][1] == {"lambda": [0, 4], "complement": [2, 2], "gcd": 4}


def test_closed_form_chain_never_builds_n_entries():
    # hamming(40, 2): N = 2^40 vertices in 41 groups, eigenvalue 2i with
    # multiplicity C(40, i); level k keeps the i divisible by 2^k, with
    # gcd 2^(k+1), until only i = 0 is left at level 6
    tracemalloc.start()
    try:
        chain = depth.build_depth_chain(spectral.family_spectrum("hamming", (40, 2)))
        overlaps = depth.transitive_overlaps(chain)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert chain.depth == 6 == math.floor(math.log2(40)) + 1
    assert [level.gcd for level in chain.levels] == [2 ** (k + 1) for k in range(6)] + [1]
    sizes = [sum(math.comb(40, i) for i in range(0, 41, 2**k)) for k in range(7)]
    assert sizes[0] == 2**40 and sizes[-1] == 1
    assert overlaps.tolist() == [math.sqrt(b / a) for a, b in zip(sizes, sizes[1:])]


@settings(derandomize=True, max_examples=100, deadline=None)
@given(connected_cographs(max_n=6), connected_cographs(max_n=6))
def test_chain_of_cartesian_products_matches_per_index_reference(left, right):
    g = cartesian_product(left, right)
    sums = sorted(x + y for x in dense_gate(left).int_eigenvalues
                  for y in dense_gate(right).int_eigenvalues)
    # the gate accepts the product on the eigenvalue-only and the full route
    assert dense_gate(g).int_eigenvalues == tuple(sums)
    ctx = pipelines.prepare(g)
    assert ctx.ints.int_eigenvalues == tuple(sums)
    reference = index_chain(sums)
    assert ctx.chain.depth == len(reference) - 1
    for k, (kept, split, gcd) in enumerate(reference):
        assert ctx.chain.level_values(k) == [sums[i] for i in kept]
        assert ctx.chain.complement_values(k) == [sums[i] for i in split]
        assert ctx.chain.levels[k].gcd == gcd
    for m in range(g.n):
        row = eigenbasis(ctx).eigenvectors[m]
        masses = vertex_masses(eigenbasis(ctx), m)
        assert np.max(np.abs(depth._level_masses(ctx.chain, masses)
                             - index_level_masses(reference, row))) <= 1e-15
        assert np.max(np.abs(depth.overlaps(ctx.chain, masses)
                             - index_overlaps(reference, row))) <= 1e-15
