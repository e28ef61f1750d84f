"""Intertwiner-based isospectral operator pairs and bicoherent states.

Build a partner operator from a seed and an intertwiner, transport and
verify the eigensystem (including kernel losses), assemble ladder
operators and z-labelled state pairs over the resulting biorthogonal
systems, and check resolution-of-identity and quantization properties
against closed-form radial measures.
"""

from .bicoherent import (
    BicoherentState,
    ConvergenceData,
    LadderPair,
    RadialMeasure,
    ResolutionResult,
    build_ladders,
    coherent_grid,
    coherent_pair,
    convergence_for_system,
    filter_and_build,
    filter_system,
    quantize,
    radius,
    resolution_check,
    solve_moment_measure,
)
from .errors import (
    DegenerateError,
    DimensionError,
    DivergenceError,
    IsospecError,
    KernelError,
    MomentError,
    NumericalError,
    PairingError,
    ParameterError,
    RegimeError,
    SeedVectorError,
    SingularityError,
    SpectrumError,
)
from .intertwining import (
    CASE_INVERTIBLE,
    CASE_INVERTIBLE_COMMUTING,
    CASE_NONINVERTIBLE,
    IntertwiningModel,
    RelationReport,
    adjoint_descent,
    build_model,
    classify,
    make_commuting_pair,
    structure_check,
    verify_relations,
)
from .linalg import (
    BiorthogonalSystem,
    Eigensystem,
    EpsilonSequence,
    adjoint,
    biorthogonal_partner,
    commutator,
    eig,
    is_strictly_positive,
    opnorm,
)
from .zoo import (
    FIXTURE_IDS,
    Fixture,
    PseudoFermionPair,
    block_pseudo_fermion_params,
    coherent_demo,
    ex3x3_pseudo_fermion_params,
    fixture_2x2,
    fixture_3x3,
    fixture_block,
    fixture_shift,
    get_fixture,
    nlpb_verify,
    pseudo_fermion,
    standard_boson,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
