import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qwalk import depth, graph, spectral
from qwalk.errors import DepthError


def prepare_ints(g):
    return spectral.validate_integer_spectrum(
        spectral.eigendecompose(graph.laplacian(g))
    )


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
            kept = set(chain.levels[k + 1].indices)
            split = set(chain.levels[k + 1].complement)
            assert kept | split == set(chain.levels[k].indices)
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
    for k in range(chain.depth):
        kept = set(chain.levels[k + 1].indices)
        split = set(chain.levels[k + 1].complement)
        assert kept | split == set(chain.levels[k].indices)
        assert not kept & split
        assert split  # every refinement step splits something off
    for k, level in enumerate(chain.levels):
        assert tuple(np.flatnonzero(chain.index_depths >= k)) == level.indices


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
            alphas = spectral.eigenspace_amplitudes(ints.base, m)
            pairs = depth.level_states(chain, alphas)
            top = ints.base.eigenvectors @ pairs[-1].kept
            assert abs(abs(np.dot(uniform, top)) ** 2 - 1.0) < 1e-10


def test_level_states_match_per_level_sums(sampling_suite):
    # the reference sums and projects over each level's own index list
    for g in sampling_suite:
        ints = prepare_ints(g)
        chain = depth.build_depth_chain(ints)
        for m in range(g.n):
            a = spectral.eigenspace_amplitudes(ints.base, m)
            masses = [float(np.sum(a[list(level.indices)] ** 2)) for level in chain.levels]
            # summed in the same order, so the masses and overlaps are bit-exact
            assert depth._level_masses(chain, a).tolist() == masses
            for pair, level, mass in zip(depth.level_states(chain, a), chain.levels, masses):
                kept = np.zeros(g.n)
                kept[list(level.indices)] = a[list(level.indices)] / math.sqrt(mass)
                assert np.max(np.abs(pair.kept - kept)) < 1e-15
                split = np.zeros(g.n)
                split[list(level.complement)] = a[list(level.complement)]
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
    alphas = spectral.eigenspace_amplitudes(ints.base, 0)
    pairs = depth.level_states(chain, alphas)
    overlap = float(np.dot(pairs[0].kept, pairs[1].kept))
    assert overlap == pytest.approx(1 / math.sqrt(2), abs=1e-12)


def test_c4_overlaps_and_cost_product(c4):
    ints = prepare_ints(c4)
    chain = depth.build_depth_chain(ints)
    alphas = spectral.eigenspace_amplitudes(ints.base, 0)
    ovl = depth.overlaps(chain, alphas)
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
            alphas = spectral.eigenspace_amplitudes(ints.base, m)
            assert np.allclose(depth.overlaps(chain, alphas), reference, atol=1e-9)


def test_split_state_lies_in_consecutive_kept_span(sampling_suite):
    for g in sampling_suite:
        ints = prepare_ints(g)
        chain = depth.build_depth_chain(ints)
        for m in range(g.n):
            alphas = spectral.eigenspace_amplitudes(ints.base, m)
            pairs = depth.level_states(chain, alphas)
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
    alphas = spectral.eigenspace_amplitudes(ints.base, 0)
    ovl = depth.overlaps(chain, alphas)
    assert ovl[0] == 1.0
    assert ovl[1] == pytest.approx(0.5, abs=1e-9)
    leaf = spectral.eigenspace_amplitudes(ints.base, 1)
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
