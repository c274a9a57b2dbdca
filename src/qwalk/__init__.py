"""Alternating-quantum-walk schedules on graphs with integer Laplacian
spectra: exact uniform sampling, perfect state transfer, and deterministic
spatial search, verified by exact dense state-vector simulation."""

from .depth import (
    DepthChain,
    DepthLevel,
    LevelStatePair,
    build_depth_chain,
    gcd_nonzero,
    level_states,
    overlaps,
    transitive_overlaps,
)
from .errors import (
    DepthError,
    GraphError,
    QwalkError,
    ScheduleError,
    SimulationError,
    SpectrumError,
)
from .graph import (
    Graph,
    adjacency,
    build_family,
    check_vertex_transitive_bruteforce,
    complete_bipartite,
    complete_square,
    cycle,
    dump_edge_list,
    graph_from_edges,
    hamming,
    johnson,
    kneser,
    laplacian,
    load_edge_list,
    rook,
    single_vertex,
)
from .pipelines import (
    BranchResult,
    RunReport,
    VerifyReport,
    prepare,
    search_bipartite,
    search_promise,
    search_vertex_transitive,
    transfer,
    uniform_sample,
    verify_graph,
)
from .schedule import (
    AncillaHadamard,
    AncillaPhase,
    ControlledWalkPhase,
    GlobalPhase,
    OraclePhase,
    Schedule,
    Stage,
    StageParams,
    WalkPhase,
    dagger,
    reflection_time,
    stage_params,
    synth_bipartite_search,
    synth_sampling_schedule,
    target_phase_ops,
)
from .simulate import (
    StateVector,
    apply_oracle_phase,
    apply_walk_phase,
    attach_ancilla,
    detach_ancilla,
    fidelity,
    measure_distribution,
    run_schedule,
    uniform_state,
    vertex_state,
)
from .spectral import (
    IntegerSpectrum,
    Spectrum,
    eigendecompose,
    eigenspace_amplitudes,
    validate_integer_spectrum,
)

__version__ = "0.1.0"
