"""Acceptance gate: every criterion runs at its stated tolerance and prints
one pass/fail line (visible under pytest -s)."""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from qwalk import depth, graph, pipelines, schedule, simulate, spectral
from qwalk.errors import SpectrumError

from conftest import check_vertex_transitive_bruteforce, eigenbasis

THRESHOLD = 1 - 1e-8

SEARCH_GRAPHS = [
    ("johnson(5,2)", lambda: graph.johnson(5, 2)),
    ("hamming(2,3)", lambda: graph.hamming(2, 3)),
    ("rook(3,3)", lambda: graph.rook(3, 3)),
    ("kneser(5,2)", lambda: graph.kneser(5, 2)),
    ("complete_square(3)", lambda: graph.complete_square(3)),
]

SAMPLING_GRAPHS = SEARCH_GRAPHS + [
    ("johnson(7,2)", lambda: graph.johnson(7, 2)),
    ("hamming(3,2)", lambda: graph.hamming(3, 2)),
]

BIPARTITE_CASES = [(2, 3), (1, 4), (3, 3), (4, 7)]


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    print(f"[PASS] criterion {number}: {description}")


def test_criterion_1_depth_chain_reproduction():
    with criterion(1, "depth chain of {0,1,3,6,64,64} (exact, <1ms)"):
        start = time.perf_counter()
        chain = depth.build_depth_chain([0, 1, 3, 6, 64, 64])
        elapsed = time.perf_counter() - start
        assert chain.depth == 3
        assert chain.level_values(1) == [0, 6, 64, 64]
        assert chain.complement_values(1) == [1, 3]
        assert chain.level_values(2) == [0, 64, 64]
        assert chain.complement_values(2) == [6]
        assert chain.level_values(3) == [0]
        assert chain.complement_values(3) == [64, 64]
        assert elapsed < 1e-3


def test_criterion_2_deterministic_search():
    with criterion(2, "deterministic search, m-independent schedules (<10s)"):
        start = time.perf_counter()
        for name, make in SEARCH_GRAPHS:
            g = make()
            ctx = pipelines.prepare(g)
            blobs = set()
            for m in range(g.n):
                report = pipelines.search_vertex_transitive(g, m, ctx=ctx)
                assert report.fidelity >= THRESHOLD, (name, m, report.fidelity)
                assert report.target == m, (name, m)
                sched = pipelines.transitive_search_schedule(ctx)
                blobs.add(
                    json.dumps(schedule.schedule_to_json_dict(sched), sort_keys=True)
                )
            assert len(blobs) == 1, name
        assert time.perf_counter() - start < 10.0


def test_criterion_3_exact_uniform_sampling():
    with criterion(3, "exact uniform sampling from every start vertex (<10s)"):
        start = time.perf_counter()
        for name, make in SAMPLING_GRAPHS:
            g = make()
            ctx = pipelines.prepare(g)
            for m in range(g.n):
                report = pipelines.uniform_sample(g, m, ctx=ctx)
                assert report.fidelity >= THRESHOLD, (name, m, report.fidelity)
        assert time.perf_counter() - start < 10.0


def test_criterion_4_perfect_state_transfer():
    with criterion(4, "perfect state transfer on rook(3,3), 72 ordered pairs (<10s)"):
        start = time.perf_counter()
        g = graph.rook(3, 3)
        ctx = pipelines.prepare(g)
        pairs = [(u, v) for u in range(9) for v in range(9) if u != v]
        assert len(pairs) == 72
        for u, v in pairs:
            report = pipelines.transfer(g, u, v, ctx=ctx)
            assert report.fidelity >= THRESHOLD, (u, v, report.fidelity)
        assert time.perf_counter() - start < 10.0


def test_criterion_5_bipartite_search():
    with criterion(5, "bipartite search, exactly one branch per hidden vertex (<5s)"):
        start = time.perf_counter()
        for n1, n2 in BIPARTITE_CASES:
            expected_t = math.pi / math.sqrt(n1 * n2)
            branch1, branch2 = schedule.synth_bipartite_search(n1, n2)
            for branch in (branch1, branch2):
                for op in branch.ops:
                    if isinstance(op, schedule.ControlledWalkPhase):
                        assert abs(op.t) == pytest.approx(expected_t, rel=1e-12)
            for m in range(n1 + n2):
                report = pipelines.search_bipartite(n1, n2, m)
                assert report.target == m, (n1, n2, m)
                assert report.fidelity >= THRESHOLD, (n1, n2, m)
                assert sum(b.succeeded for b in report.branches) == 1, (n1, n2, m)
        assert time.perf_counter() - start < 5.0


def test_criterion_6_overlap_independence():
    with criterion(6, "per-vertex overlaps equal cardinality ratios (1e-9)"):
        checked = 0
        for name, make in SAMPLING_GRAPHS:
            g = make()
            if not check_vertex_transitive_bruteforce(g):
                continue
            ctx = pipelines.prepare(g)
            reference = depth.transitive_overlaps(ctx.chain)
            for m in range(g.n):
                observed = depth.overlaps(ctx.chain, eigenbasis(ctx).masses[m])
                assert np.max(np.abs(observed - reference)) < 1e-9, (name, m)
            checked += 1
        # every graph of the suite is vertex-transitive
        assert checked == len(SAMPLING_GRAPHS)


def _suite_runs():
    runs = []
    for name, make in SAMPLING_GRAPHS:
        g = make()
        ctx = pipelines.prepare(g)
        for m in range(g.n):
            runs.append(pipelines.uniform_sample(g, m, ctx=ctx))
    for name, make in SEARCH_GRAPHS:
        g = make()
        ctx = pipelines.prepare(g)
        for m in range(g.n):
            runs.append(pipelines.search_vertex_transitive(g, m, ctx=ctx))
    g = graph.rook(3, 3)
    ctx = pipelines.prepare(g)
    for u in range(9):
        for v in range(9):
            if u != v:
                runs.append(pipelines.transfer(g, u, v, ctx=ctx))
    for n1, n2 in BIPARTITE_CASES:
        for m in range(n1 + n2):
            runs.append(pipelines.search_bipartite(n1, n2, m))
    return runs


def test_criterion_7_cost_bounds():
    with criterion(7, "oracle count and total time bounds; ratio table emitted"):
        runs = _suite_runs()
        for report in runs:
            cap = 2**report.depth * math.sqrt(report.n) * math.pi
            assert report.oracle_count <= cap, (report.graph, report.task)
            assert (
                report.total_time - report.ancilla_phase_time
                <= 4 * math.pi * report.oracle_count + 1e-9
            ), (report.graph, report.task)
        print()
        print(pipelines.reports_to_csv(runs))


def test_criterion_8_ancilla_circuit_equivalence():
    with criterion(8, "kickback circuit equals rank-1 phase operator (1e-10)"):
        rng = np.random.default_rng(2024)
        for name, make in SEARCH_GRAPHS:
            g = make()
            ctx = pipelines.prepare(g)
            pairs = depth.level_states(ctx.chain, eigenbasis(ctx).eigenvectors[0])
            for level in range(ctx.chain.depth):
                split = pairs[level + 1].split
                if split is None:
                    continue
                t = schedule.reflection_time(ctx.chain.levels[level].gcd)
                w_k = eigenbasis(ctx).eigenvectors @ pairs[level].kept
                w_next = eigenbasis(ctx).eigenvectors @ pairs[level + 1].kept
                axis = eigenbasis(ctx).eigenvectors @ split
                for _ in range(100):
                    theta = rng.uniform(0.0, 2.0 * math.pi)
                    coeff = rng.normal(size=2) + 1j * rng.normal(size=2)
                    psi = coeff[0] * w_k + coeff[1] * w_next
                    psi /= np.linalg.norm(psi)
                    ideal = psi - (1 - np.exp(1j * theta)) * np.vdot(axis, psi) * axis
                    st = simulate.attach_ancilla(simulate.from_amplitudes(psi))
                    for op in schedule.target_phase_ops(t, theta):
                        st = simulate.apply_op(st, op, eigenbasis(ctx))
                    leak = float(np.linalg.norm(st.amps[g.n :]) ** 2)
                    assert leak < 1e-10, (name, level)
                    assert np.max(np.abs(st.amps[: g.n] - ideal)) < 1e-10, (name, level)


def test_criterion_9_integer_spectrum_gate():
    with criterion(9, "integer gate passes the suite and rejects the 5-cycle"):
        for name, make in SAMPLING_GRAPHS:
            ctx = pipelines.prepare(make())  # raises if the gate fails
            assert ctx.ints.int_eigenvalues[ctx.ints.zero_index] == 0
        with pytest.raises(SpectrumError, match="non-integer eigenvalue"):
            spectral.validate_integer_spectrum(
                spectral.eigendecompose(graph.laplacian(graph.cycle(5)))
            )


def test_criterion_10_unitarity_round_trip():
    with criterion(10, "run then adjoint returns the start state (1e-9)"):
        rng = np.random.default_rng(11)
        for name, make in SEARCH_GRAPHS:
            g = make()
            ctx = pipelines.prepare(g)
            sched = pipelines.transitive_search_schedule(ctx)
            # arbitrary states entangle the ancilla mid-protocol, so the
            # round trip runs on the extended state and detaches at the end
            amps = rng.normal(size=g.n) + 1j * rng.normal(size=g.n)
            st = simulate.attach_ancilla(
                simulate.from_amplitudes(amps / np.linalg.norm(amps))
            )
            there = simulate.run_schedule(st, sched, eigenbasis(ctx), marked=1)
            back = simulate.run_schedule(
                there, schedule.dagger(sched), eigenbasis(ctx), marked=1
            )
            assert np.max(np.abs(back.amps - st.amps)) < 1e-9, name
            # algorithm states compose plainly: the ancilla is clean between runs
            st0 = simulate.uniform_state(g.n)
            there0 = simulate.run_schedule(st0, sched, eigenbasis(ctx), marked=1)
            back0 = simulate.run_schedule(
                there0, schedule.dagger(sched), eigenbasis(ctx), marked=1
            )
            assert np.max(np.abs(back0.amps - st0.amps)) < 1e-9, name
