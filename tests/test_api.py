"""The package's public surface: every export added or deleted shows up in this file's diff."""

import hrsym

PUBLIC = [
    "ANCHOR_REGISTRY", "AlgebraError", "CATALOG_IDS", "CasimirCandidate", "CasimirSpectrum",
    "CcrCoefficientReport", "CheckRecord", "CompositeRep", "DEFAULT_TOLERANCES", "FlowComparison",
    "FlowResult", "GeneratorId", "GlobalUnits", "LieAlgebra", "Monomial", "NonScalarCasimirError",
    "ParticleRep", "PbwPolynomial", "PotentialSpec", "QC", "RelativeModeRep", "RepConfig", "RunReport",
    "SUITE_NAMES", "Scenario", "ScenarioError", "SpinCasimirValue", "SpinRep", "StructureConstants",
    "VerificationReport", "ZetaRep", "algebra", "build_algebra", "build_particle_rep", "build_zeta_rep",
    "casimir_candidates", "casimir_spin_value",
    "check_central", "check_jacobi", "commutator_uea", "compare_flows", "composite",
    "decompose_product_spins", "dynamics", "ehrenfest_check", "enveloping", "evolve_observable",
    "evolve_state", "extra_casimir_check", "generator_poly", "hamiltonian_galilei", "hamiltonian_physical",
    "ladder", "load_scenario", "mass_times_spin", "normal_order", "particle", "rationals",
    "relative_mode_system", "relative_spin_spectrum", "report", "run_scenario", "run_suite", "scenarios",
    "spin", "spin_matrices", "spin_tensor", "subalgebra_check", "t_tensor", "tensor_rep",
    "verify_ccr_composite", "verify_homomorphism", "version", "word_poly",
]


def test_public_surface_is_pinned():
    assert sorted(hrsym.__all__) == PUBLIC
