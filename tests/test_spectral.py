import dataclasses
import itertools
import math
import random

import numpy as np
import pytest

from qwalk import depth, graph, pipelines, simulate, spectral
from qwalk.errors import SpectrumError

from conftest import dense_gate, group_runs, reachable


def test_k2_laplacian_decomposition():
    spec = spectral.eigendecompose(np.array([[1.0, -1.0], [-1.0, 1.0]]))
    assert np.allclose(spec.eigenvalues, [0.0, 2.0], atol=1e-12)
    inv_sqrt2 = 1 / math.sqrt(2)
    assert np.allclose(np.abs(spec.eigenvectors[:, 0]), inv_sqrt2, atol=1e-12)
    v1 = spec.eigenvectors[:, 1]
    assert np.allclose(np.abs(v1), inv_sqrt2, atol=1e-12)
    assert abs(v1[0] + v1[1]) < 1e-12


def test_c4_spectrum(c4):
    spec = spectral.eigendecompose(graph.laplacian(c4))
    assert np.allclose(spec.eigenvalues, [0, 2, 2, 4], atol=1e-9)
    assert spec.multiplicities == (1, 2, 1)


def test_johnson_5_2_spectrum_against_closed_form():
    # i*(n+1-i) with multiplicity C(n,i)-C(n,i-1), i = 0..min(k, n-k)
    spec = spectral.eigendecompose(graph.laplacian(graph.johnson(5, 2)))
    expected = [0] + [5] * 4 + [8] * 5
    assert np.allclose(spec.eigenvalues, expected, atol=1e-9)


@pytest.mark.parametrize(
    "n,k",
    [(5, 2), (7, 2), (6, 3)],
)
def test_johnson_family_closed_form(n, k):
    spec = spectral.eigendecompose(graph.laplacian(graph.johnson(n, k)))
    expected = {}
    for i in range(min(k, n - k) + 1):
        mult = math.comb(n, i) - (math.comb(n, i - 1) if i else 0)
        expected[i * (n + 1 - i)] = mult
    observed = dict(zip(map(round, spec.values), spec.multiplicities))
    assert observed == expected


@pytest.mark.parametrize("n,k", [(5, 2), (7, 3)])
def test_kneser_family_closed_form(n, k):
    spec = spectral.eigendecompose(graph.laplacian(graph.kneser(n, k)))
    expected = {}
    for i in range(k + 1):
        value = math.comb(n - k, k) - (-1) ** i * math.comb(n - k - i, k - i)
        mult = math.comb(n, i) - (math.comb(n, i - 1) if i else 0)
        expected[value] = expected.get(value, 0) + mult
    observed = dict(zip(map(round, spec.values), spec.multiplicities))
    assert observed == expected


@pytest.mark.parametrize("d,q", [(2, 3), (3, 2), (2, 2), (3, 3)])
def test_hamming_multiplicity_formula_variants(d, q):
    # Two closed forms for the multiplicity of eigenvalue q*i circulate:
    # C(d,i)*(q-1)**i and C(d,i)*(q-i)**i.  The numerical decomposition is
    # authoritative; it confirms the former and refutes the latter wherever
    # the two differ (the latter does not even sum to q**d).
    spec = spectral.eigendecompose(graph.laplacian(graph.hamming(d, q)))
    observed = dict(zip(map(round, spec.values), spec.multiplicities))
    standard = {q * i: math.comb(d, i) * (q - 1) ** i for i in range(d + 1)}
    variant = {q * i: math.comb(d, i) * (q - i) ** i for i in range(d + 1)}
    assert observed == standard
    assert sum(standard.values()) == q**d
    if variant != standard:
        assert sum(variant.values()) != q**d


@pytest.mark.parametrize("m,n", [(2, 2), (3, 3), (2, 4)])
def test_rook_closed_form(m, n):
    spec = spectral.eigendecompose(graph.laplacian(graph.rook(m, n)))
    observed = dict(zip(map(round, spec.values), spec.multiplicities))
    # eigenvalues {0, m, n, m+n}: sums over the K_m and K_n factor spectra
    expected = {0: 1, m + n: (m - 1) * (n - 1)}
    if m == n:
        expected[m] = 2 * (m - 1)
    else:
        expected[m] = m - 1
        expected[n] = n - 1
    assert observed == expected


def test_complete_square_closed_form():
    # eigenvalues {0, 2, 4, n, n+2, n+4} for K_n x C_4
    n = 3
    spec = spectral.eigendecompose(graph.laplacian(graph.complete_square(n)))
    values = sorted(map(round, spec.values))
    assert values == [0, 2, 3, 4, 5, 7]


def test_bipartite_laplacian_closed_form():
    spec = spectral.eigendecompose(graph.laplacian(graph.complete_bipartite(2, 3)))
    observed = dict(zip(map(round, spec.values), spec.multiplicities))
    assert observed == {0: 1, 2: 2, 3: 1, 5: 1}


def test_eigendecompose_rejects_asymmetric():
    with pytest.raises(SpectrumError, match="symmetric"):
        spectral.eigendecompose(np.array([[0.0, 1.0], [0.5, 0.0]]))


def test_reconstruction_residual(sampling_suite):
    for g in sampling_suite:
        lap = graph.laplacian(g)
        spec = spectral.eigendecompose(lap)
        recon = (spec.eigenvectors * spec.eigenvalues) @ spec.eigenvectors.T
        bound = 1e-8 * (1 + np.max(np.abs(lap)))
        assert np.max(np.abs(lap - recon)) <= bound


def test_validate_integer_c4(c4):
    ints = spectral.validate_integer_spectrum(
        spectral.eigendecompose(graph.laplacian(c4))
    )
    assert ints.int_eigenvalues == (0, 2, 2, 4)
    assert ints.zero_index == 0


def test_validate_integer_path3():
    # P_3 characteristic polynomial factors as x(x-1)(x-3)
    path3 = graph.load_edge_list("0 1\n1 2\n")
    ints = spectral.validate_integer_spectrum(
        spectral.eigendecompose(graph.laplacian(path3))
    )
    assert ints.int_eigenvalues == (0, 1, 3)


def test_validate_rejects_c5():
    # 2 - 2*cos(2*pi/5) = 1.38196... is irrational
    spec = spectral.eigendecompose(graph.laplacian(graph.cycle(5)))
    with pytest.raises(SpectrumError, match="non-integer eigenvalue"):
        spectral.validate_integer_spectrum(spec)


def test_validate_rejects_nonsimple_zero():
    # block-diagonal pair of K_2 Laplacians has a two-dimensional kernel
    m = np.zeros((4, 4))
    m[:2, :2] = [[1, -1], [-1, 1]]
    m[2:, 2:] = [[1, -1], [-1, 1]]
    with pytest.raises(SpectrumError, match="not simple"):
        spectral.validate_integer_spectrum(spectral.eigendecompose(m))


def test_validate_integer_spectrum_messages():
    def validate(values):
        # one group per value, so two values near 0 stay two groups
        return spectral.validate_integer_spectrum(
            spectral.Spectrum(np.array(values), None, tuple(values), (1,) * len(values)))

    ints = validate([-4e-7, 1.0000004, 2.0, 2.0, 2.5 - 0.5])
    assert ints.int_eigenvalues == (0, 1, 2, 2, 2) and ints.zero_index == 0
    assert all(type(v) is int for v in ints.int_eigenvalues)
    # the first value off an integer is named, NaN included
    with pytest.raises(SpectrumError, match=r"^non-integer eigenvalue 2\.4 at index 2$"):
        validate([0.0, 1.0, 2.4, 3.5])
    with pytest.raises(SpectrumError, match=r"^non-integer eigenvalue nan at index 1$"):
        validate([0.0, np.nan, 2.0])
    for values, count in (([1.0, 2.0], 0), ([0.0, 3e-7, 5.0], 2)):
        with pytest.raises(SpectrumError, match=rf"^zero eigenvalue is not simple: multiplicity {count}$"):
            validate(values)


def test_amplitudes_k2():
    # a vertex's amplitudes are its eigenvector row; its masses sum them
    # over each group
    spec = spectral.eigendecompose(np.array([[1.0, -1.0], [-1.0, 1.0]]))
    for v in (0, 1):
        assert abs(abs(spec.eigenvectors[v, 0]) - 1 / math.sqrt(2)) < 1e-12
        masses = spectral.group_sums(spec, spec.eigenvectors[v] ** 2)
        assert np.allclose(masses, [0.5, 0.5], atol=1e-12)


def test_amplitudes_unit_norm(sampling_suite):
    for g in sampling_suite:
        spec = spectral.eigendecompose(graph.laplacian(g))
        masses = spectral.group_sums(spec, spec.eigenvectors**2)
        assert masses.shape == (g.n, len(spec.values))
        assert np.max(np.abs(masses.sum(axis=1) - 1.0)) < 1e-10


def test_amplitudes_out_of_range(c4):
    # sampling_schedule reads the vertex's row, so it checks the range
    ctx = pipelines.prepare(c4)
    for bad in (4, -1):
        with pytest.raises(SpectrumError, match=rf"^vertex index {bad} out of range for n=4$"):
            pipelines.sampling_schedule(ctx, bad)


def frame_masses(spec, v):
    """Vertex v's mass on each eigenspace, from its executor frame."""
    coords = simulate.frame_coords(spec.masses[[v]])[0]
    return dict(zip(spec.values, coords**2))


def pair_gram(spec, u, v):
    """(E_g)_uv for every eigenspace g, the weights of transfer's inner
    product."""
    return spectral.group_sums(spec, spec.eigenvectors[u] * spec.eigenvectors[v])


def test_c4_vertex_masses(c4):
    # by hand: eigenvectors (1,1,1,1)/2, (1,0,-1,0)/sqrt2, (0,1,0,-1)/sqrt2,
    # (1,-1,1,-1)/2 give vertex-0 masses 1/4, 1/2, 1/4
    spec = spectral.eigendecompose(graph.laplacian(c4))
    masses = frame_masses(spec, 0)
    by_value = {int(round(k)): v for k, v in masses.items()}
    assert by_value[0] == pytest.approx(0.25, abs=1e-10)
    assert by_value[2] == pytest.approx(0.5, abs=1e-10)
    assert by_value[4] == pytest.approx(0.25, abs=1e-10)


def test_masses_invariant_under_degenerate_remixing(c4):
    # the executor runs on these masses and Gram entries, so they must not
    # depend on the basis the solver picks inside a degenerate eigenspace
    rng = np.random.default_rng(7)
    for g in [c4, graph.johnson(5, 2)]:
        spec = spectral.eigendecompose(graph.laplacian(g))
        vectors = spec.eigenvectors.copy()
        for run in group_runs(spec):
            if len(run) == 1:
                continue
            q, _ = np.linalg.qr(rng.normal(size=(len(run), len(run))))
            vectors[:, run] = vectors[:, run] @ q
        # the remixed basis's own mass table, summed as eigendecompose sums it
        remixed = spectral.Spectrum(spec.eigenvalues, vectors, spec.values, spec.multiplicities)
        remixed = dataclasses.replace(
            remixed, masses=spectral.group_sums(remixed, vectors * vectors))
        for v in range(g.n):
            a = frame_masses(spec, v)
            b = frame_masses(remixed, v)
            assert a.keys() == b.keys()
            for key in a:
                assert a[key] == pytest.approx(b[key], abs=1e-10)
            u = (v + 1) % g.n
            assert np.allclose(pair_gram(spec, u, v), pair_gram(remixed, u, v), atol=1e-10)


def test_transitive_masses_match_multiplicity_over_n(sampling_suite):
    for g in sampling_suite:
        spec = spectral.eigendecompose(graph.laplacian(g))
        for v in range(g.n):
            row = spec.eigenvectors[v]
            for run in group_runs(spec):
                mass = float(np.sum(row[run] ** 2))
                assert abs(mass - len(run) / g.n) < 1e-9


def test_spectrum_json_export(c4):
    ints = spectral.validate_integer_spectrum(
        spectral.eigendecompose(graph.laplacian(c4))
    )
    data = spectral.spectrum_to_json_dict(ints)
    assert data["eigenvalues"] == [0, 2, 2, 4]
    assert data["groups"] == [
        {"value": 0, "multiplicity": 1},
        {"value": 2, "multiplicity": 2},
        {"value": 4, "multiplicity": 1},
    ]
    assert data["zero_index"] == 0


def test_eigenvector_csv(c4):
    spec = spectral.eigendecompose(graph.laplacian(c4))
    csv = spectral.eigenvectors_to_csv(spec)
    lines = csv.strip().splitlines()
    assert lines[0].startswith("vertex,eig_0")
    assert len(lines) == 5


def gate_cases(sampling_suite, chang_graphs, k4_minus_edge):
    rook33 = graph.load_edge_list(graph.dump_edge_list(graph.rook(3, 3)))
    return [
        *sampling_suite, *chang_graphs.values(), k4_minus_edge, rook33,
        *(graph.complete_bipartite(*p) for p in ((2, 3), (4, 7), (40, 60))),
    ]


def test_eigenvalue_only_gate_matches_eigendecompose(
    sampling_suite, chang_graphs, k4_minus_edge
):
    for g in gate_cases(sampling_suite, chang_graphs, k4_minus_edge):
        full = spectral.graph_integer_spectrum(g, spectral.eigendecompose(graph.laplacian(g)))
        ints = dense_gate(g)
        assert ints.base.eigenvectors is None
        assert spectral.spectrum_to_json_dict(ints) == spectral.spectrum_to_json_dict(full)
        assert depth.chain_to_json_dict(depth.build_depth_chain(ints)) == (
            depth.chain_to_json_dict(depth.build_depth_chain(full))
        )


def test_certificate_rejects_loose_tolerance(monkeypatch):
    # 2 - 2cos(2pi/5) = 1.38 and 2 - 2cos(4pi/5) = 3.62 round to 1 and 4
    monkeypatch.setattr(spectral, "INTEGER_TOL", 0.5)
    with pytest.raises(SpectrumError, match="not all among the rounded integers"):
        spectral.graph_integer_spectrum(graph.cycle(5))


def test_certificate_bound_is_the_row_sum(monkeypatch):
    # rows of L - lambda I on K(1,30000) sum to at most 2 * 30000 + 30001 in
    # absolute value, far below 2^53 / p; a bound from the row norms,
    # sqrt(N * (d^2 + d)), would pass 2^53 / p and refuse the star
    star = graph.complete_bipartite(1, 30000)
    assert spectral.graph_integer_spectrum(star).int_eigenvalues[-1] == 30001
    monkeypatch.setattr(spectral, "CERT_PRIME", 2**53 // (2 * 30000 + 30001) + 1)
    with pytest.raises(SpectrumError, match="too large"):
        spectral.graph_integer_spectrum(star)


@pytest.mark.parametrize("values, match", [
    ([0, 2, 4, 4], "moments"),  # a multiplicity moved from 2 to 4
    ([0, 2, 2, 5], "not all among"),  # a value off by one
], ids=["multiplicity_moved", "value_off_by_one"])
def test_certificate_rejects_wrong_multiset(monkeypatch, values, match):
    # the true C4 spectrum is {0, 2, 2, 4}; the solver is made to lie, on
    # labels no family has, so the gate asks it
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: np.array(values, dtype=float))
    assert graph.family_matches(graph.cycle(4)) == []
    with pytest.raises(SpectrumError, match=match):
        spectral.graph_integer_spectrum(graph.cycle(4))


def test_certificate_runs_on_full_decompositions(c4):
    spec = spectral.eigendecompose(graph.laplacian(c4))
    assert spectral.graph_integer_spectrum(c4, spec).int_eigenvalues == (0, 2, 2, 4)
    # the star K(1,3) has the integer spectrum {0, 1, 1, 4}, not C4's; a
    # given spectrum is never replaced by C4's closed form
    star = spectral.eigendecompose(graph.laplacian(graph.load_edge_list("0 1\n0 2\n0 3\n")))
    with pytest.raises(SpectrumError, match="not all among"):
        spectral.graph_integer_spectrum(c4, star)


# every family, with the corners where labels or spectra collide: k > n/2,
# Kneser and Hamming at K_n, equal blocks and factors, and N up to 1024
CLOSED_FORM_GRID = [
    *(("hamming", p) for p in ((1, 2), (1, 5), (2, 2), (2, 3), (3, 4), (4, 2), (5, 3),
                               (2, 32), (3, 10), (5, 4), (10, 2))),
    *(("johnson", p) for p in ((2, 1), (5, 1), (5, 2), (6, 3), (6, 4), (7, 5), (8, 2),
                               (9, 4), (12, 4), (14, 3))),
    *(("kneser", p) for p in ((2, 1), (6, 1), (5, 2), (7, 2), (7, 3), (9, 3), (11, 4),
                              (12, 3))),
    *(("rook", p) for p in ((2, 2), (2, 3), (3, 4), (4, 3), (5, 5), (20, 20), (16, 64),
                            (32, 32))),
    *(("complete_square", p) for p in ((2,), (3,), (5,), (16,), (256,))),
    *(("complete_bipartite", p) for p in ((1, 1), (1, 6), (6, 1), (3, 3), (2, 5),
                                          (40, 60), (24, 1000))),
]


def gate_json(ints):
    return (spectral.spectrum_to_json_dict(ints),
            depth.chain_to_json_dict(depth.build_depth_chain(ints)))


@pytest.mark.parametrize("name, params", CLOSED_FORM_GRID,
                         ids=[f"{n}({','.join(map(str, p))})" for n, p in CLOSED_FORM_GRID])
def test_closed_form_matches_dense_gate(name, params):
    g = graph.build_family(name, params)
    matches = graph.family_matches(g)
    assert (name, params) in matches
    dense = dense_gate(g)
    fast = spectral.graph_integer_spectrum(g)
    assert fast.base is None
    assert gate_json(fast) == gate_json(dense)
    for match in matches:  # every family the edges fit gives the same values
        assert spectral.family_spectrum(*match).int_eigenvalues == dense.int_eigenvalues


HAMMING_GRID = [p for name, p in CLOSED_FORM_GRID if name == "hamming"]


def hamming_rule(d, q):
    return next(rule for name, params, rule in graph._candidates(q**d, d * (q - 1) * q**d // 2)
                if (name, params) == ("hamming", (d, q)))


@pytest.mark.parametrize("d, q", HAMMING_GRID, ids=[f"hamming({d},{q})" for d, q in HAMMING_GRID])
def test_hamming_rule_matches_the_generator(d, q):
    # the rule holds on exactly the generator's edges among all pairs u < v
    u, v = np.triu_indices(q**d, 1)
    edges = np.column_stack([u, v])[hamming_rule(d, q)(u, v)]
    assert np.array_equal(edges, graph.hamming(d, q).edge_array)


def test_hamming_rule_refuses_carries():
    # base 3: 2 = (0,2) and 3 = (1,0) differ by 1 but in two digits, as do
    # 1 = (0,1) and 3; 0-3, 2-8 = (2,2) and 1-7 = (2,1) change one digit
    rule = hamming_rule(2, 3)
    assert rule(np.array([2, 1, 5, 0, 2, 1]), np.array([3, 3, 6, 3, 8, 7])).tolist() == [
        False, False, False, True, True, True]


@pytest.mark.parametrize("g, matches", [
    (graph.rook(20, 20), [("hamming", (2, 20)), ("rook", (20, 20))]),
    (graph.hamming(1, 6), [("hamming", (1, 6)), ("johnson", (6, 1)), ("kneser", (6, 1)),
                           ("johnson", (6, 5))]),
    (graph.kneser(2, 1), [("hamming", (1, 2)), ("complete_bipartite", (1, 1)),
                          ("johnson", (2, 1)), ("kneser", (2, 1))]),
    (graph.complete_square(2), [("complete_square", (2,))]),
], ids=["rook_is_hamming", "k6", "k2", "complete_square"])
def test_every_matching_family_is_found(g, matches):
    assert graph.family_matches(g) == matches


def switched_hamming_4_2():
    # 0-1 and 14-15 become 0-14 and 1-15: the degrees stay 4
    edges = set(graph.hamming(4, 2).edges) - {(0, 1), (14, 15)} | {(0, 14), (1, 15)}
    return graph.graph_from_edges(16, edges)


def relabelled_hamming_4_2():
    perm = [3, 1, 2, 0, *range(4, 16)]  # 0 and 3 trade labels
    return graph.graph_from_edges(16, [(perm[u], perm[v]) for u, v in graph.hamming(4, 2).edges])


def gate_outcome(run):
    try:
        return gate_json(run())
    except SpectrumError as exc:
        return str(exc)


def test_unrecognised_graphs_take_the_dense_gate(chang_graphs, k4_minus_edge, monkeypatch):
    cases = [relabelled_hamming_4_2(), switched_hamming_4_2(), *chang_graphs.values(),
             k4_minus_edge, graph.cycle(6), graph.cycle(5)]
    solves = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: solves.append(1) or eigvalsh(m))
    for g in cases:
        assert graph.family_matches(g) == []
        dense = gate_outcome(lambda: dense_gate(g))
        assert gate_outcome(lambda: spectral.graph_integer_spectrum(g)) == dense
    assert len(solves) == 2 * len(cases)
    # the Chang graphs share johnson(8,2)'s counts and spectrum, not its edges
    assert gate_outcome(lambda: spectral.graph_integer_spectrum(chang_graphs["C8"])) == (
        gate_json(spectral.graph_integer_spectrum(graph.johnson(8, 2))))


@pytest.mark.parametrize("values, match", [
    ([0] + [2] * 3 + [4] * 7 + [6] * 4 + [8], "moments"),  # a multiplicity moved
    ([0] + [2] * 4 + [4] * 6 + [6] * 4 + [9], "not all among"),  # a value off by one
], ids=["multiplicity_moved", "value_off_by_one"])
def test_closed_form_is_certified(monkeypatch, values, match):
    # hamming(4,2) has the spectrum 0, 2^4, 4^6, 6^4, 8
    fake = spectral.validate_integer_spectrum(spectral.eigendecompose(np.diag(values)))
    monkeypatch.setattr(spectral, "family_spectrum", lambda name, params: fake)
    with pytest.raises(SpectrumError, match=match):
        spectral.graph_integer_spectrum(graph.hamming(4, 2))


def route_corpus():
    """Seeded gate corpus: cycles 3-11, random connected graphs on at most
    8 vertices, built-in families and randomly relabelled copies of them."""
    rng = random.Random(20240617)
    families = [graph.build_family(name, params) for name, params in (
        ("hamming", (3, 2)), ("hamming", (2, 3)), ("hamming", (4, 2)), ("johnson", (5, 2)),
        ("johnson", (6, 3)), ("kneser", (7, 2)), ("rook", (3, 4)), ("complete_square", (3,)),
        ("complete_bipartite", (2, 5)), ("complete_bipartite", (1, 4)), ("johnson", (5, 1)))]
    corpus = [graph.cycle(k) for k in range(3, 12)] + families
    for g in families:
        perm = list(range(g.n))
        rng.shuffle(perm)
        corpus.append(graph.graph_from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges]))
    while len(corpus) < 100:
        n = rng.randint(2, 8)
        pairs = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5]
        if reachable(n, pairs) == n:
            corpus.append(graph.graph_from_edges(n, pairs))
    return corpus


def test_every_route_gives_the_same_verdict(monkeypatch):
    # the family (or eigvalsh) route, eigvalsh values passed in, and the
    # full decomposition passed in all certify on the edges and agree, at
    # the gate's tolerance and at a loose one
    accepted = refused = 0
    tolerances = (spectral.INTEGER_TOL, 0.5)
    for g in route_corpus():
        for tol in tolerances:
            monkeypatch.setattr(spectral, "INTEGER_TOL", tol)
            outcomes = [gate_outcome(lambda: spectral.graph_integer_spectrum(g)),
                        gate_outcome(lambda: dense_gate(g)),
                        gate_outcome(lambda: spectral.graph_integer_spectrum(
                            g, spectral.eigendecompose(graph.laplacian(g))))]
            if all(isinstance(o, str) for o in outcomes):
                refused += 1  # messages may print a value's last digit differently
            else:
                assert outcomes[1] == outcomes[0] and outcomes[2] == outcomes[0]
                accepted += 1
    assert accepted >= 50 and refused >= 50


def test_edge_matvec_matches_the_dense_laplacian():
    p = spectral.CERT_PRIME
    rng = np.random.default_rng(7)
    for g in route_corpus():
        w = rng.integers(0, p, g.n).astype(float)
        assert np.array_equal(np.mod(graph.laplacian_matvec(g, w), p),
                              np.mod(graph.laplacian(g) @ w, p))
