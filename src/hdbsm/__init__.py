"""High-dimensional Bell state measurement by auxiliary entanglement.

Construction of the protocol's state families, brute-force computation of
the decomposition identities, fitting of the index and phase laws, audit of
the transcribed reference tables, and an amplitude-level simulation of the
proposed path/OAM optics.
"""

from .core import (
    LOGIC_TOL,
    InvariantError,
    State,
    apply_local_unitary,
    fourier_matrix,
    permute_factors,
    tensor_product,
)
from .states import (
    ALL_CONVENTIONS,
    BellIndex,
    LITERAL_CONVENTION,
    PhaseConvention,
    REFERENCE_CONVENTION,
    aux_state,
    bell_state,
    decomp_state,
    shift_clock_unitary,
)
from .decomposition import (
    ConventionSearch,
    DecompositionTable,
    IndexLaw,
    NoAffineLawError,
    NoMatchingConventionError,
    PhaseLaw,
    PhaseNotRootOfUnityError,
    decompose,
    decompose_all,
    find_convention,
    fit_index_law,
    fit_phase_law,
    hyperentangled_state,
    reference_index_law,
)
from .audit import TableAudit, audit_reference_table, load_reference_table
from .classifier import (
    Classification,
    CoincidenceTable,
    CollisionError,
    DecodingTable,
    ShotRecord,
    build_decoding_table,
    classify_table,
    coincidence_probabilities,
    decoding_table_from_law,
    mix_with_white_noise,
    sample_outcomes,
)
from .optics import (
    BsaLayout,
    ExperimentResult,
    bsa_layout,
    pipeline_probabilities,
    prepare_bell,
    run_experiment,
)

__version__ = "0.1.0"
