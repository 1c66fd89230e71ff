"""structcs: structured sensing matrices for compressed sensing.

Construction of IID, Toeplitz-block, circulant-block, doubly-circulant
and polynomial-graph sensing matrices with entry-level provenance;
FFT-accelerated products; row-dependency bounds and equitable
colorings; empirical restricted-isometry constants; l1 and greedy
sparse recovery; and a seeded Monte Carlo success-probability harness.
"""

from .matrices import (
    BlockStructureSpec,
    DistributionKind,
    EntryDistribution,
    InnerSpec,
    MatrixKind,
    SensingMatrix,
    build_structured,
    circulant_block_spec,
    circulant_circulant_block_spec,
    circulant_circulant_spec,
    column_block_of,
    distinct_blocks,
    distinct_label_count,
    iid_spec,
    sample_iid,
    spec_from_dict,
    spec_from_json,
    spec_to_dict,
    spec_to_json,
    toeplitz_block_spec,
    truncate_rows,
)
from .fastops import (
    LinearOperator,
    UnsupportedStructureError,
    dense_matvec,
    dense_operator,
    fast_adjoint_matvec,
    fast_matvec,
    structured_operator,
)
from .dependency import (
    ColoringFailureError,
    ColoringPartition,
    DependencyBoundViolation,
    DependencyReport,
    SupportSet,
    check_toeplitz_dependency_bound,
    circulant_dependency_bound,
    dependency_bound_for,
    dependency_report,
    dependent_rows,
    equitable_color_graph,
    equitable_coloring,
)
from .ripest import (
    EXHAUSTIVE_GUARD,
    GuardExceededError,
    RipEstimate,
    coherence,
    delta_exhaustive,
    delta_for_support,
    delta_monte_carlo,
)
from .bounds import (
    BoundParams,
    BoundResult,
    concentration_exponent,
    default_c0,
    default_c2,
    prob_rip_fixed_support,
    prob_rip_fixed_support_balanced,
    rip_success_bound,
)
from .devore import (
    GraphVector,
    PolySpec,
    RipCertificate,
    build_devore,
    build_devore_block,
    enumerate_polynomials,
    graph_vector,
    is_prime,
    verify_rip_guarantee,
)
from .recovery import (
    RecoveryResult,
    RecoveryStatus,
    SparseSignal,
    basis_pursuit,
    is_exact_recovery,
    omp,
)
from .bench import (
    CurveCell,
    ExperimentConfig,
    SuccessCurve,
    desk_preset,
    full_preset,
    generate_sparse_signal,
    run_trial,
    spec_template,
    success_curve,
    wilson_interval,
    write_plot_script,
    write_run,
)

__version__ = "0.1.0"
