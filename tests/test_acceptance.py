"""Acceptance gate: one test per criterion, each at its stated tolerance.

Run with `pytest -v -s tests/test_acceptance.py` to see one printed
pass/fail line per criterion.
"""

import json
import subprocess
import sys
import time

import numpy as np

from hrsym import (
    PotentialSpec,
    RepConfig,
    build_algebra,
    build_particle_rep,
    casimir_candidates,
    check_central,
    check_jacobi,
    commutator_uea,
    compare_flows,
    decompose_product_spins,
    extra_casimir_check,
    generator_poly,
    hamiltonian_galilei,
    hamiltonian_physical,
    relative_spin_spectrum,
    run_suite,
    spin_matrices,
    t_tensor,
    tensor_rep,
    verify_ccr_composite,
    verify_homomorphism,
)
from hrsym.enveloping import Monomial
from hrsym.ladder import coherent_state
from hrsym.rationals import QC
from hrsym.spin import J_PAIRS


def announce(num, passed, detail):
    print(f"ACCEPTANCE {num:02d} [{'pass' if passed else 'FAIL'}]: {detail}")
    assert passed


def test_criterion_01_exact_symbolic_suite():
    start = time.perf_counter()
    ok = True
    for name in ("h3", "so3", "hr3", "g3tilde"):
        report = check_jacobi(build_algebra(name))
        ok = ok and report.passed and report["jacobi"].metrics["violation_count"] == 0

    for alg_name in ("hr3", "g3tilde"):
        alg = build_algebra(alg_name)
        for cand in casimir_candidates(alg):
            ok = ok and check_central(alg, cand).passed

    g3 = build_algebra("g3tilde")
    rem = commutator_uea(g3, generator_poly(g3, "H"), generator_poly(g3, "K1"))
    ok = ok and rem.terms == {Monomial((g3.index("P1"),), 1): QC(0, -1)}

    elapsed = time.perf_counter() - start
    ok = ok and elapsed <= 5.0
    announce(
        1,
        ok,
        f"jacobi + centrality exact for all catalog algebras, H non-central "
        f"with remainder -i*hb*P1; runtime {elapsed:.2f}s <= 5s",
    )


def test_criterion_02_representation_homomorphism():
    n = 6
    rep = build_particle_rep(RepConfig(mass=1.0, dims=3, levels=n))
    hom = verify_homomorphism(rep, "hr3", margin=2, tol=1e-10)
    worst = max(c.metrics["defect_norm"] for c in hom.checks)

    raw_ok = True
    factor_dims = (n, n, n)
    from hrsym.ladder import embed, top_level_projector

    for i in range(3):
        comm = rep.X[i] @ rep.P[i] - rep.P[i] @ rep.X[i]
        top = embed(top_level_projector(n), i, factor_dims)
        expected = 1j * (np.eye(rep.dim) - n * top)
        raw_ok = raw_ok and np.max(np.abs(comm - expected)) <= 1e-12

    announce(
        2,
        hom.passed and raw_ok,
        f"d=3 N=6 margin 2: {len(hom.checks)} bracket checks pass at 1e-10 "
        f"(worst {worst:.2e}); raw defect is hb*N*top per dimension within 1e-12",
    )


def test_criterion_03_mass_casimir_and_additivity():
    rng = np.random.default_rng(12345)
    ok = True
    for _ in range(10):
        m = float(rng.uniform(1e-3, 10.0))
        rep = build_particle_rep(RepConfig(mass=m, dims=1, levels=5))
        ok = ok and np.array_equal(rep.M.toarray(), m * np.eye(5))
    for _ in range(10):
        m_a = float(rng.uniform(1e-3, 10.0))
        m_b = float(rng.uniform(1e-3, 10.0))
        comp = tensor_rep(
            build_particle_rep(RepConfig(mass=m_a, dims=1, levels=3)),
            build_particle_rep(RepConfig(mass=m_b, dims=1, levels=3)),
        )
        ok = ok and np.array_equal(comp.M.toarray(), (m_a + m_b) * np.eye(comp.dim))
    announce(3, ok, "M = m*Id exactly, composite M = (m_a+m_b)*Id exactly, 10 random draws each")


def test_criterion_04_composite_ccr_contrast():
    comp = tensor_rep(
        build_particle_rep(RepConfig(mass=1.0, dims=1, levels=8)),
        build_particle_rep(RepConfig(mass=2.0, dims=1, levels=8)),
    )
    reports = {r.pair: r for r in verify_ccr_composite(comp, margin=1, tol=1e-12)}
    ok = (
        abs(reports["x_com:p"].coefficient - 1.0) <= 1e-12
        and abs(reports["x_naive:p"].coefficient - 2.0) <= 1e-12
        and abs(reports["r:q"].coefficient - 1.0) <= 1e-12
        and reports["r:p"].residual_norm <= 1e-12
        and abs(reports["r:p"].coefficient) <= 1e-12
        and reports["q:x_com"].residual_norm <= 1e-12
        and abs(reports["q:x_com"].coefficient) <= 1e-12
    )
    announce(
        4,
        ok,
        f"c(x_com,p)={reports['x_com:p'].coefficient:.14f}, "
        f"c(x_naive,p)={reports['x_naive:p'].coefficient:.14f}, "
        f"c(r,q)={reports['r:q'].coefficient:.14f}, cross pairs <= 1e-12",
    )


def test_criterion_05_spin_casimir():
    ok = True
    for s in (0.0, 0.5, 1.0, 1.5):
        rep = spin_matrices(s)
        dev = np.max(np.abs(rep.casimir() - s * (s + 1) * np.eye(rep.dim)))
        ok = ok and dev <= 1e-13

    spinful = build_particle_rep(RepConfig(mass=2.0, dims=3, levels=3, spin=0.5))
    t = t_tensor(spinful)
    eye_space = np.eye(27)
    dev_spinful = max(
        np.max(np.abs(t[p] - 2.0 * np.kron(eye_space, spinful.spin_rep.components[p])))
        for p in J_PAIRS
    )
    ok = ok and dev_spinful <= 1e-12

    spinless = build_particle_rep(RepConfig(mass=1.5, dims=3, levels=4))
    t0 = t_tensor(spinless)
    dev_spinless = max(np.max(np.abs(t0[p])) for p in J_PAIRS)
    ok = ok and dev_spinless <= 1e-10

    announce(
        5,
        ok,
        f"spin Casimir scalar to 1e-13 for s in 0..3/2; T = m*S within "
        f"{dev_spinful:.1e}; spinless T within {dev_spinless:.1e}",
    )


def test_criterion_06_relative_motion_spectrum():
    start = time.perf_counter()
    spec = relative_spin_spectrum(3)
    elapsed = time.perf_counter() - start
    shells_ok = spec.ell_multisets() == [
        (0, [0.0]),
        (1, [1.0]),
        (2, [0.0, 2.0]),
        (3, [1.0, 3.0]),
    ]
    degeneracies = {
        (shell.n, line.ell): line.multiplicity
        for shell in spec.shells
        for line in shell.entries
    }
    deg_ok = degeneracies == {
        (0, 0.0): 1,
        (1, 1.0): 3,
        (2, 0.0): 1,
        (2, 2.0): 5,
        (3, 1.0): 3,
        (3, 3.0): 7,
    }
    label_ok = all(
        abs(line.value - line.ell * (line.ell + 1)) <= 1e-8 * max(1.0, line.value)
        for line in spec.entries
    ) and not spec.unmatched
    ok = shells_ok and deg_ok and label_ok and elapsed <= 30.0
    announce(
        6,
        ok,
        f"n_max=3 shells {{0; 1; 0,2; 1,3}} with degeneracies {{1; 3; 1,5; 3,7}}, "
        f"labels within 1e-8, runtime {elapsed:.2f}s <= 30s",
    )


def test_criterion_07_angular_momentum_addition():
    ok = True
    spins = [k / 2.0 for k in range(0, 4)]  # 0, 1/2, 1, 3/2
    for s_a in spins:
        for s_b in spins:
            ra, rb = spin_matrices(s_a), spin_matrices(s_b)
            total = {
                p: np.kron(ra.components[p], np.eye(rb.dim))
                + np.kron(np.eye(ra.dim), rb.components[p])
                for p in J_PAIRS
            }
            casimir = sum(total[p] @ total[p] for p in J_PAIRS)
            vals = np.linalg.eigvalsh(casimir)
            found = {}
            for lam in vals:
                s = round(2 * 0.5 * (-1 + np.sqrt(max(0.0, 1 + 4 * lam)))) / 2
                found[s] = found.get(s, 0) + 1
            brute = []
            for s in sorted(found):
                dim = int(2 * s) + 1
                ok = ok and found[s] % dim == 0
                brute.extend([(float(s), 1)] * (found[s] // dim))
            content = decompose_product_spins(s_a, s_b)
            ok = ok and content == brute
            ok = ok and sum(int(2 * s) + 1 for s, _ in content) == ra.dim * rb.dim
    announce(7, ok, "spin addition matches brute-force diagonalization for all s <= 3/2, exact dimension sums")


def test_criterion_08_flow_dichotomy_and_extra_casimir():
    rep = build_particle_rep(RepConfig(mass=1.0, dims=1, levels=32))
    psi0 = coherent_state(32, 0.6 + 0.5j)
    ts = np.linspace(0.0, 2.0, 21)

    h_gen = hamiltonian_galilei(rep, 5.0)
    h_free = hamiltonian_physical(rep, PotentialSpec("none"))
    cmp_free = compare_flows(h_gen, h_free, psi0, ts)
    fid_ok = bool(np.all(cmp_free.fidelity >= 1.0 - 1e-8))
    phase_err = np.max(np.abs(np.angle(np.exp(1j * (cmp_free.phase + 5.0 * ts)))))
    phase_ok = phase_err <= 1e-6

    h_osc = hamiltonian_physical(rep, PotentialSpec("poly_x", (0.0, 0.0, 0.5)))
    cmp_osc = compare_flows(hamiltonian_galilei(rep, 0.0), h_osc, psi0, ts)
    dichotomy_ok = cmp_osc.fidelity[-1] < 0.99

    rep2 = build_particle_rep(RepConfig(mass=2.0, dims=1, levels=32))
    casimir_report = extra_casimir_check(rep2, 3.0, tol=1e-10)
    scalar_ok = casimir_report.passed
    sub_report = extra_casimir_check(
        rep2, 3.0, tol=1e-10,
        hamiltonian=hamiltonian_physical(rep2, PotentialSpec("poly_x", (0.0, 0.0, 0.5))),
    )
    deviation = sub_report["scalar_on_interior"].metrics["deviation_norm"]
    nonscalar_ok = (not sub_report.passed) and deviation >= 0.1

    ok = fid_ok and phase_ok and dichotomy_ok and scalar_ok and nonscalar_ok
    announce(
        8,
        ok,
        f"free flows agree (phase err {phase_err:.1e}), oscillator fidelity "
        f"{cmp_osc.fidelity[-1]:.3f} < 0.99 at t=2; 2MH-P.P = 2m*calV within 1e-10, "
        f"potential substitution deviates by {deviation:.2f} >= 0.1",
    )


def test_criterion_09_dynamics_conservation_across_suite():
    suite = run_suite("paper-full")
    wanted = {
        "unitarity_energy": False,
        "picture_equivalence": False,
        "spin_casimir_conserved": False,
        "com_momentum_constant": False,
        "com_velocity_matches_momentum": False,
        "rotation_generators_commute_with_h": False,
    }
    ok = True
    for label, report in suite.reports:
        for check in report.checks:
            if check.name in wanted:
                wanted[check.name] = True
                ok = ok and check.passed
    ok = ok and all(wanted.values())
    announce(
        9,
        ok,
        "suite dynamics scenarios conserve norm (1e-10), energy (1e-9), "
        "picture agreement (1e-9), and the composite spin Casimir (1e-8)",
    )


def test_criterion_10_cli_contract(tmp_path):
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "hrsym", "suite", "paper-core"],
        capture_output=True,
        text=True,
    )
    elapsed = time.perf_counter() - start
    core_ok = proc.returncode == 0 and elapsed <= 10.0
    report = json.loads(proc.stdout)
    count_ok = report["check_count"] >= 12

    desc = build_algebra("hr3").to_descriptor()
    for entry in desc["brackets"]:
        if entry["a"] == "K1" and entry["b"] == "P1":
            entry["terms"][0]["num"] = -1
    desc["name"] = "hr3_flipped"
    path = tmp_path / "mutated.json"
    path.write_text(json.dumps({"kind": "algebra", "payload": {"descriptor": desc}}))
    mut = subprocess.run(
        [sys.executable, "-m", "hrsym", "verify", "algebra", str(path)],
        capture_output=True,
        text=True,
    )
    mut_ok = mut.returncode == 1 and "jacobi:hr3_flipped" in mut.stderr

    ok = core_ok and count_ok and mut_ok
    announce(
        10,
        ok,
        f"paper-core exits 0 in {elapsed:.2f}s <= 10s with {report['check_count']} checks; "
        f"flipped structure constant exits 1 naming jacobi:hr3_flipped",
    )
