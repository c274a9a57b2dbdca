"""Tests of the benchmark's independent checker.

    PYTHONPATH=src python -m pytest -q perfbench/test_checker.py

The checker must accept exact runs and reject corrupted reports.
"""

import dataclasses
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checker as ck  # noqa: E402
from qwalk import pipelines, graph  # noqa: E402

FAMILIES = [
    ("hamming", (3, 3)), ("johnson", (6, 3)), ("kneser", (7, 3)),
    ("rook", (3, 5)), ("rook", (4, 4)), ("complete_bipartite", (3, 5)),
    ("complete_bipartite", (4, 4)),
]


@pytest.mark.parametrize("name,params", FAMILIES)
def test_closed_form_spectrum_matches_dense_eigenvalues(name, params):
    lap = ck.laplacian_matrix(name, params)
    dense = np.rint(np.linalg.eigvalsh(lap)).astype(int)
    spec = ck.laplacian_spectrum(name, params)
    assert sorted(dense.tolist()) == [v for v, m in spec.items() for _ in range(m)]


@pytest.mark.parametrize("name,params", FAMILIES)
def test_closed_form_masses_match_dense_projectors(name, params):
    lap = ck.laplacian_matrix(name, params)
    values, vectors = np.linalg.eigh(lap)
    for v in (0, len(lap) - 1):
        masses = ck.vertex_masses(name, params, v)
        for lam, mass in masses.items():
            cols = np.abs(values - lam) < 1e-6
            assert math.isclose(float(np.sum(vectors[v, cols] ** 2)), mass, abs_tol=1e-12)


def test_depth_rule_on_hamming():
    # 0,2,4,6 with gcd 2: the odd quotients 2 and 6 split off, then 4
    levels = ck.depth_levels(ck.laplacian_spectrum("hamming", (3, 2)))
    assert levels == [({0, 2, 4, 6}, 2), ({0, 4}, 4), ({0}, 1)]


def test_dense_walk_reproduces_exact_search():
    name, params, m = "johnson", (5, 2), 7
    n = ck.vertex_count(name, params)
    from workloads import sampling_schedule
    sched = sampling_schedule(name, params, 0, adjoint=True)
    assert ck.dense_schedule(name, params, sched["ops"], "search", m) == []
    walk = ck.DenseWalk(ck.laplacian_matrix(name, params))
    psi, leak = walk.run(sched["ops"], np.full(n, 1 / math.sqrt(n)), m + 1)
    assert ck.dense_failures(ck.overlap_fidelity(psi, ck.basis(n, m)), leak) == ["dense_fidelity"]


def test_dense_sampling_rejects_a_search_schedule():
    from workloads import sampling_schedule
    name, params = "hamming", (4, 2)
    sched = sampling_schedule(name, params, 5)
    assert ck.dense_schedule(name, params, sched["ops"], "sample", 5) == []
    adjoint = sampling_schedule(name, params, 5, adjoint=True)
    assert "dense_fidelity" in ck.dense_schedule(name, params, adjoint["ops"], "sample", 5)


def test_dense_bipartite_needs_the_marked_block_to_win():
    from qwalk import schedule
    a, b = 3, 5
    ops = [schedule.schedule_to_json_dict(s)["ops"]
           for s in schedule.synth_bipartite_search(a, b)]
    assert ck.dense_bipartite(a, b, ops, 1) == []
    assert ck.dense_bipartite(a, b, ops, a + 2) == []
    assert ck.dense_bipartite(a, b, ops[::-1], 1) == ["dense_branches"]


D52 = ck.depth_of("johnson", (5, 2))


@pytest.fixture(scope="module")
def search_report():
    g = graph.johnson(5, 2)
    return pipelines.search_vertex_transitive(g, 3)


def test_exact_report_passes(search_report):
    assert ck.report_failures(search_report, "search", 10, D52, 3) == []


def test_rejects_fidelity_short_of_one(search_report):
    bad = dataclasses.replace(search_report, fidelity=1.0 - 1e-6)
    assert ck.report_failures(bad, "search", 10, D52, 3) == ["fidelity"]


def test_rejects_wrong_target(search_report):
    bad = dataclasses.replace(search_report, target=4)
    assert ck.report_failures(bad, "search", 10, D52, 3) == ["target"]


def test_rejects_oracle_count_over_cap(search_report):
    over = math.floor(ck.oracle_cap(D52, 10)) + 1
    bad = dataclasses.replace(search_report, oracle_count=over)
    assert ck.report_failures(bad, "search", 10, D52, 3) == ["oracle_cap"]


def test_transfer_gets_twice_the_cap():
    report = pipelines.transfer(graph.rook(3, 3), 0, 5)
    d = ck.depth_of("rook", (3, 3))
    cap = ck.oracle_cap(d, 9)
    within = dataclasses.replace(report, oracle_count=math.floor(2 * cap))
    assert ck.report_failures(within, "transfer", 9, d, 0, target=5) == []
    over = dataclasses.replace(report, oracle_count=math.floor(2 * cap) + 1)
    assert ck.report_failures(over, "transfer", 9, d, 0, target=5) == ["oracle_cap"]


def test_rejects_bipartite_with_two_winners():
    report = pipelines.search_bipartite(2, 3, 4)
    assert ck.report_failures(report, "bipartite", 5, 1, 4) == []
    both = tuple(dataclasses.replace(b, succeeded=True) for b in report.branches)
    bad = dataclasses.replace(report, branches=both)
    assert ck.report_failures(bad, "bipartite", 5, 1, 4) == ["branches"]
