"""Symbolic and numerical toolkit for the boost/translation/rotation operator
algebras of nonrelativistic quantum mechanics.

The exact layer defines the catalog algebras by rational structure
constants, normal-orders enveloping-algebra polynomials, and certifies the
central elements (the mass M, the quadratic spin invariant built from
T_ij = M J_ij - K_i P_j + P_i K_j, and 2MH - P.P once a time generator is
included).  The numerical layer realizes the algebras on truncated Fock
bases, builds two-particle products with their representation-dictated
center of mass, decomposes relative-motion spectra, and drives Hamiltonian
flows that contrast the free generator H with physical Hamiltonians.
"""

from .version import __version__

from .rationals import QC
from .report import CheckRecord, VerificationReport
from .algebra import (
    AlgebraElement,
    AlgebraError,
    CATALOG_IDS,
    GeneratorId,
    LieAlgebra,
    StructureConstants,
    bracket,
    build_algebra,
    check_jacobi,
    subalgebra_check,
)
from .enveloping import (
    CasimirCandidate,
    Monomial,
    PbwPolynomial,
    casimir_candidates,
    check_central,
    commutator_uea,
    generator_poly,
    normal_order,
    spin_tensor,
    word_poly,
)
from .particle import (
    GlobalUnits,
    ParticleRep,
    RepConfig,
    ZetaRep,
    build_particle_rep,
    build_zeta_rep,
    rep_config_from_json,
    verify_homomorphism,
)
from .composite import (
    CcrCoefficientReport,
    CompositeRep,
    canonical_map_is_symplectic,
    canonical_map_matrix,
    com_position,
    naive_position_sum,
    relative_ops,
    tensor_rep,
    verify_ccr_composite,
)
from .spin import (
    CasimirSpectrum,
    NonScalarCasimirError,
    RelativeModeRep,
    SpinCasimirValue,
    SpinRep,
    casimir_spin_value,
    decompose_product_spins,
    relative_mode_system,
    relative_spin_spectrum,
    spin_matrices,
    t_tensor,
)
from .dynamics import (
    FlowComparison,
    FlowResult,
    PotentialSpec,
    compare_flows,
    ehrenfest_check,
    evolve_observable,
    evolve_state,
    extra_casimir_check,
    hamiltonian_galilei,
    hamiltonian_physical,
)
from .scenarios import (
    ANCHOR_REGISTRY,
    DEFAULT_TOLERANCES,
    RunReport,
    Scenario,
    ScenarioError,
    SUITE_NAMES,
    load_scenario,
    run_scenario,
    run_suite,
)

__all__ = [name for name in dir() if not name.startswith("_")]
