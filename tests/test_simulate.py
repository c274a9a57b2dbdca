import math

import numpy as np
import pytest

from qwalk import depth, graph, schedule, simulate, spectral
from qwalk.errors import SimulationError


@pytest.fixture
def c4_spec(c4):
    return spectral.eigendecompose(graph.laplacian(c4))


def c4_level_pairs(c4_spec, vertex=0):
    ints = spectral.validate_integer_spectrum(c4_spec)
    chain = depth.build_depth_chain(ints)
    alphas = spectral.eigenspace_amplitudes(c4_spec, vertex)
    return chain, depth.level_states(chain, alphas)


def to_vertex_space(spec, coeffs):
    return spec.eigenvectors @ coeffs


def test_walk_zero_time_is_identity(c4_spec):
    st = simulate.vertex_state(4, 1)
    out = simulate.apply_walk_phase(st, c4_spec, 0.0)
    assert np.allclose(out.amps, st.amps)


def test_walk_fixes_uniform_state(c4_spec):
    st = simulate.uniform_state(4)
    out = simulate.apply_walk_phase(st, c4_spec, 1.2345)
    assert np.allclose(out.amps, st.amps, atol=1e-12)


def test_walk_reflects_split_state(c4_spec):
    chain, pairs = c4_level_pairs(c4_spec)
    split = to_vertex_space(c4_spec, pairs[1].split)  # eigenvalue-2 component
    st = simulate.from_amplitudes(split)
    out = simulate.apply_walk_phase(st, c4_spec, math.pi / 2)
    assert np.allclose(out.amps, -st.amps, atol=1e-12)


def test_walk_semigroup(c4_spec):
    st = simulate.vertex_state(4, 2)
    split = simulate.apply_walk_phase(
        simulate.apply_walk_phase(st, c4_spec, 0.7), c4_spec, 0.49
    )
    joint = simulate.apply_walk_phase(st, c4_spec, 1.19)
    assert np.allclose(split.amps, joint.amps, atol=1e-10)


def test_oracle_phases():
    st = simulate.vertex_state(4, 2)
    assert np.allclose(simulate.apply_oracle_phase(st, 2, 0.0).amps, st.amps)
    assert np.allclose(
        simulate.apply_oracle_phase(st, 2, 2 * math.pi).amps, st.amps, atol=1e-12
    )
    flipped = simulate.apply_oracle_phase(st, 2, math.pi)
    assert np.allclose(flipped.amps, -st.amps, atol=1e-12)
    other = simulate.apply_oracle_phase(st, 1, math.pi)
    assert np.allclose(other.amps, st.amps)
    with pytest.raises(SimulationError, match="out of range"):
        simulate.apply_oracle_phase(st, 9, 1.0)


def test_ancilla_gates_invert():
    st = simulate.attach_ancilla(simulate.uniform_state(3))
    assert np.allclose(
        simulate.apply_ancilla_hadamard(simulate.apply_ancilla_hadamard(st)).amps,
        st.amps,
        atol=1e-12,
    )
    assert np.allclose(simulate.apply_ancilla_phase(st, 0.0).amps, st.amps)


def test_attach_detach_round_trip():
    st = simulate.uniform_state(5)
    attached = simulate.attach_ancilla(st)
    assert attached.has_ancilla
    with pytest.raises(SimulationError, match="already attached"):
        simulate.attach_ancilla(attached)
    back = simulate.detach_ancilla(attached)
    assert np.allclose(back.amps, st.amps)


def test_detach_rejects_entangled_state():
    amps = np.zeros(4, dtype=complex)
    amps[0] = amps[2] = 1 / math.sqrt(2)  # |0>|v0> + |1>|v0| on n=2
    st = simulate.from_amplitudes(amps, n=2)
    with pytest.raises(SimulationError, match="entangled"):
        simulate.detach_ancilla(st)


def test_kickback_circuit_zero_phase_is_identity(c4_spec):
    # at theta=0 the block collapses to H c(W^2) H; the level-0 walk step
    # squares to the identity on the whole space, so any state passes through
    rng = np.random.default_rng(5)
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    st = simulate.attach_ancilla(simulate.from_amplitudes(amps / np.linalg.norm(amps)))
    for op in schedule.target_phase_ops(math.pi / 2, 0.0):
        st = simulate.apply_op(st, op, c4_spec)
    out = simulate.detach_ancilla(st)
    assert np.allclose(out.amps, amps / np.linalg.norm(amps), atol=1e-12)


def test_kickback_circuit_pi_matches_walk_on_span(c4_spec):
    # at theta=pi the block reflects the split axis, exactly what the bare
    # walk step does on the two-dimensional algorithm subspace
    chain, pairs = c4_level_pairs(c4_spec)
    for level in range(chain.depth):
        t = schedule.reflection_time(chain.levels[level].gcd)
        for coeffs in ((0.6, 0.8), (1.0, 0.0), (0.3, -0.9)):
            psi = coeffs[0] * to_vertex_space(c4_spec, pairs[level].kept)
            psi = psi + coeffs[1] * to_vertex_space(c4_spec, pairs[level + 1].kept)
            psi = psi / np.linalg.norm(psi)
            st = simulate.attach_ancilla(simulate.from_amplitudes(psi))
            for op in schedule.target_phase_ops(t, math.pi):
                st = simulate.apply_op(st, op, c4_spec)
            via_block = simulate.detach_ancilla(st)
            via_walk = simulate.apply_walk_phase(
                simulate.from_amplitudes(psi), c4_spec, t
            )
            assert np.allclose(via_block.amps, via_walk.amps, atol=1e-11)


def test_kickback_circuit_phases_split_axis(c4_spec):
    # full 7-gate block on |0> x |split>: picks up exactly e^{i theta}
    chain, pairs = c4_level_pairs(c4_spec)
    theta = 1.2345
    ops = schedule.target_phase_ops(math.pi / 2, theta)
    st = simulate.attach_ancilla(
        simulate.from_amplitudes(to_vertex_space(c4_spec, pairs[1].split))
    )
    for op in ops:
        st = simulate.apply_op(st, op, c4_spec)
    out = simulate.detach_ancilla(st)
    expected = np.exp(1j * theta) * to_vertex_space(c4_spec, pairs[1].split)
    assert np.allclose(out.amps, expected, atol=1e-12)


def test_kickback_circuit_matches_rank_one_phase(c4_spec):
    # on span{kept_k, kept_{k+1}} the block equals
    # I - (1 - e^{i theta}) |split><split| and leaves the ancilla clean
    rng = np.random.default_rng(42)
    chain, pairs = c4_level_pairs(c4_spec, vertex=0)
    for level in range(chain.depth):
        t = schedule.reflection_time(chain.levels[level].gcd)
        w_k = to_vertex_space(c4_spec, pairs[level].kept)
        w_next = to_vertex_space(c4_spec, pairs[level + 1].kept)
        split = to_vertex_space(c4_spec, pairs[level + 1].split)
        for _ in range(20):
            theta = rng.uniform(0, 2 * math.pi)
            coeffs = rng.normal(size=2) + 1j * rng.normal(size=2)
            psi = coeffs[0] * w_k + coeffs[1] * w_next
            psi = psi / np.linalg.norm(psi)
            ideal = psi - (1 - np.exp(1j * theta)) * np.vdot(split, psi) * split
            st = simulate.attach_ancilla(simulate.from_amplitudes(psi))
            for op in schedule.target_phase_ops(t, theta):
                st = simulate.apply_op(st, op, c4_spec)
            leak = float(np.linalg.norm(st.amps[4:]) ** 2)
            assert leak < 1e-10
            assert np.allclose(st.amps[:4], ideal, atol=1e-10)


def test_run_schedule_empty_is_identity(c4_spec):
    st = simulate.vertex_state(4, 3)
    out = simulate.run_schedule(st, schedule.Schedule(), c4_spec)
    assert np.allclose(out.amps, st.amps)


def test_run_schedule_requires_marked(c4_spec):
    sched = schedule.Schedule(ops=(schedule.OraclePhase(1.0, 1),), oracle_count=1)
    with pytest.raises(SimulationError, match="marked"):
        simulate.run_schedule(simulate.uniform_state(4), sched, c4_spec)


def test_norm_preserved_over_full_schedule(c4, c4_spec):
    ints = spectral.validate_integer_spectrum(c4_spec)
    chain = depth.build_depth_chain(ints)
    sched = schedule.synth_sampling_schedule(chain, depth.transitive_overlaps(chain))
    st = simulate.vertex_state(4, 0)
    stages = []
    out = simulate.run_schedule(
        st, sched, c4_spec, 0, on_stage=lambda i, state: stages.append(i)
    )
    assert abs(np.linalg.norm(out.amps) - 1.0) < 1e-9
    assert len(sched.stage_boundaries) == 2
    assert stages == [0, 1]


def test_unitarity_round_trip(c4_spec):
    ints = spectral.validate_integer_spectrum(c4_spec)
    chain = depth.build_depth_chain(ints)
    sched = schedule.synth_sampling_schedule(chain, depth.transitive_overlaps(chain))
    rng = np.random.default_rng(3)
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    # arbitrary inputs entangle the ancilla mid-protocol: keep it attached
    st = simulate.attach_ancilla(simulate.from_amplitudes(amps / np.linalg.norm(amps)))
    there = simulate.run_schedule(st, sched, c4_spec, 1)
    assert there.has_ancilla
    back = simulate.run_schedule(there, schedule.dagger(sched), c4_spec, 1)
    assert np.allclose(back.amps, st.amps, atol=1e-9)


def test_global_phase_op(c4_spec):
    st = simulate.vertex_state(4, 0)
    out = simulate.apply_op(st, schedule.GlobalPhase(0.5), c4_spec)
    assert np.allclose(out.amps, np.exp(0.5j) * st.amps)


def test_fidelity_examples():
    st = simulate.vertex_state(6, 2)
    assert simulate.fidelity(st, 2) == pytest.approx(1.0)
    uniform = simulate.uniform_state(6)
    assert simulate.fidelity(uniform, 2) == pytest.approx(1 / 6)
    assert simulate.fidelity(uniform, uniform) == pytest.approx(1.0)
    with pytest.raises(SimulationError, match="dimension"):
        simulate.fidelity(st, simulate.uniform_state(5))


def test_measure_distribution_uniform():
    probs = simulate.measure_distribution(simulate.uniform_state(9))
    assert np.allclose(probs, 1 / 9, atol=1e-12)
    assert probs.sum() == pytest.approx(1.0, abs=1e-10)


def test_state_csv():
    csv = simulate.state_to_csv(simulate.vertex_state(3, 1))
    lines = csv.strip().splitlines()
    assert lines[0] == "index,re,im,probability"
    assert lines[2].startswith("1,1,")
    assert len(lines) == 4


def test_dimension_mismatch_errors(c4_spec):
    st = simulate.uniform_state(5)
    with pytest.raises(SimulationError, match="dimension"):
        simulate.apply_walk_phase(st, c4_spec, 1.0)
