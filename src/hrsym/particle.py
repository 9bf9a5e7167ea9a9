"""Single-particle operator representations on truncated Fock bases.

Each spatial dimension carries N oscillator levels at a reference frequency
omega_ref, so X and P are the exact ladder combinations

    X = sqrt(hbar / (2 m omega_ref)) (a + a+),
    P = i sqrt(hbar m omega_ref / 2) (a+ - a),

and the boost/translation/rotation operators follow as K_i = m X_i,
M = m * Id, J_ij = X_i P_j - P_i X_j (plus a spin block for d = 3).

Truncation puts the canonical-commutator defect entirely at the top level:
[X, P] = i hbar (Id - N |N-1><N-1|) per dimension.  Every numerical bracket
check is therefore projected onto an interior of the basis whose margin
covers the polynomial degree of the identity under test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import ladder
from .algebra import LieAlgebra, build_algebra
from .report import VerificationReport
from .spin import J_PAIRS, _as_half_integer, spin_matrices

__all__ = [
    "GlobalUnits",
    "ParticleRep",
    "RepConfig",
    "ZetaRep",
    "build_particle_rep",
    "build_zeta_rep",
    "rep_config_from_json",
    "verify_homomorphism",
]


@dataclass(frozen=True)
class GlobalUnits:
    hbar: float = 1.0
    omega_ref: float = 1.0

    def __post_init__(self):
        if not (0 < self.hbar < math.inf and 0 < self.omega_ref < math.inf):
            raise ValueError(
                f"hbar and omega_ref must be positive and finite, got {self.hbar}, {self.omega_ref}"
            )


@dataclass(frozen=True)
class RepConfig:
    mass: float
    dims: int = 1
    levels: int = 8
    spin: float = 0.0
    units: GlobalUnits = field(default_factory=GlobalUnits)

    def __post_init__(self):
        if not 0 < self.mass < math.inf:
            raise ValueError(
                f"mass must be positive and finite, got {self.mass}: a vanishing central charge "
                "collapses the canonical commutator"
            )
        if self.dims not in (1, 2, 3):
            raise ValueError(f"dims must be 1, 2, or 3, got {self.dims}")
        if self.levels < 2:
            raise ValueError("need at least two Fock levels per dimension")
        if _as_half_integer(self.spin) > 0 and self.dims != 3:
            raise ValueError("spin blocks are only defined for dims = 3")

    @property
    def spin_multiplicity(self) -> int:
        return int(round(2 * self.spin)) + 1

    @property
    def space_dim(self) -> int:
        return self.levels**self.dims

    @property
    def dim(self) -> int:
        return self.space_dim * self.spin_multiplicity


def rep_config_from_json(payload: dict) -> RepConfig:
    units = GlobalUnits(
        hbar=float(payload.get("hbar", 1.0)),
        omega_ref=float(payload.get("omega_ref", 1.0)),
    )
    return RepConfig(
        mass=float(payload["mass"]),
        dims=int(payload.get("dims", 1)),
        levels=int(payload.get("levels", 8)),
        spin=float(payload.get("spin", 0.0)),
        units=units,
    )


class ParticleRep(ladder.OperatorSystem):
    """Sparse operators for one particle; built by build_particle_rep.

    `factor_dims` is the tensor layout: one Fock factor per spatial
    dimension, then the spin block (of dimension 1 when spinless).  `S`
    holds the spin lifts, empty operators when spinless, and
    J_ij = X_i P_j - P_i X_j + S_ij.
    """

    def __init__(self, config: RepConfig):
        self.config = config
        n, d = config.levels, config.dims
        units = self.units = config.units
        m = self.mass = config.mass
        self.dims, self.dim = d, config.dim
        self.spin_rep = spin_matrices(config.spin, units.hbar)
        layout = self.factor_dims = (n,) * d + (self.spin_rep.dim,)

        x1 = ladder.position(n, m, units.omega_ref, units.hbar)
        p1 = ladder.momentum(n, m, units.omega_ref, units.hbar)
        self.X = [ladder.embed(x1, k, layout) for k in range(d)]
        self.P = [ladder.embed(p1, k, layout) for k in range(d)]
        self.K = [m * op for op in self.X]
        self.M = m * ladder.identity(self.dim)
        pairs = [(i, j) for i, j in J_PAIRS if j <= d]
        orbital = {(i, j): self.X[i - 1] @ self.P[j - 1] - self.P[i - 1] @ self.X[j - 1] for i, j in pairs}
        if config.spin > 0:
            self.S = {pair: ladder.embed(self.spin_rep.components[pair], d, layout) for pair in pairs}
            self.J = {pair: orbital[pair] + self.S[pair] for pair in pairs}
        else:  # the spin lifts are empty and J is purely orbital
            self.S = {pair: ladder.Operator((self.dim, self.dim), dtype=complex) for pair in pairs}
            self.J = orbital

    def raw_boundary_defect(self) -> float:
        """Largest entry of [X_i, P_i] - i hbar (Id - N |N-1><N-1|_i) over the axes.

        The truncated bracket equals that expression exactly: the whole
        canonical defect sits on the top Fock level of axis i.
        """
        n = self.config.levels
        top = ladder.top_level_projector(n)
        worst = []
        for i, (x, p) in enumerate(zip(self.X, self.P)):
            edge = ladder.identity(self.dim) - n * ladder.embed(top, i, self.factor_dims)
            worst.append(abs(x @ p - p @ x - 1j * self.units.hbar * edge).max())
        return float(np.max(worst))

    def interior_indices(self, margin: int) -> np.ndarray:
        return ladder.interior_indices(
            self.config.levels, self.config.dims, margin, tail_dim=self.factor_dims[-1]
        )

    def hamiltonian(self, pot) -> ladder.Operator:
        """P.P / 2m + V(X), the potential applied per dimension and summed."""
        if pot.kind == "poly_r2":
            raise ValueError("a single particle has no relative separation; use kind 'poly_x'")
        h = ladder.square_sum(self.P) / (2.0 * self.mass)
        if pot.kind == "poly_x" and pot.coefficients:
            v = pot.coefficients[0] * ladder.identity(self.dim)
            per_axis = (0.0,) + pot.coefficients[1:]
            for x in self.X:
                v = v + ladder.poly_in(x, per_axis)
            h = h + v
        return h

    def generator_matrix(self, name: str) -> ladder.Operator:
        """Operator realizing a generator by catalog name (K1, P2, J12, M, ...)."""
        if name == "M":
            return self.M
        if name == "I":
            return ladder.identity(self.dim)
        if name.startswith("J") and len(name) == 3:
            pair = (int(name[1]), int(name[2]))
            if pair in self.J:
                return self.J[pair]
            raise KeyError(f"{name} is not realized at dims = {self.config.dims}")
        kind, digits = name[0], name[1:]
        if kind not in ("K", "P", "X") or not digits.isdigit():
            raise KeyError(name)
        axis = int(digits)
        if not 1 <= axis <= self.config.dims:
            raise KeyError(f"{name} is not realized at dims = {self.config.dims}")
        return {"K": self.K, "P": self.P, "X": self.X}[kind][axis - 1]

    def realized_generators(self, alg: LieAlgebra) -> dict:
        out = {}
        for gen in alg.generators:
            try:
                out[gen.name] = self.generator_matrix(gen.name)
            except KeyError:
                continue
        return out


def build_particle_rep(config: RepConfig) -> ParticleRep:
    return ParticleRep(config)


@dataclass
class ZetaRep:
    """Scaled canonical pair with central charge zeta times the identity.

    For zeta < 0 the scaling sqrt(|zeta|) goes on both X and P while the
    sign rides on X, so [X_z, P_z] = i hbar zeta Id on the interior.
    """

    zeta: float
    X: list
    P: list
    hbar: float

    def defect(self, idx) -> float:
        """Largest spectral norm of [X_i, P_i] - i hbar zeta Id restricted to `idx`."""
        central = 1j * self.hbar * self.zeta * np.eye(len(idx))
        return float(np.max([
            ladder.spectral_norm(ladder.block(x @ p - p @ x, idx) - central) for x, p in zip(self.X, self.P)
        ]))


def build_zeta_rep(zeta: float, rep: ParticleRep) -> ZetaRep:
    """The canonical pair of `rep` scaled to central charge zeta."""
    if zeta == 0 or not math.isfinite(zeta):
        raise ValueError(
            f"zeta must be nonzero and finite, got {zeta}: zero collapses the family to the commutative limit"
        )
    root = np.sqrt(abs(zeta))
    sign = 1.0 if zeta > 0 else -1.0
    return ZetaRep(
        zeta=float(zeta),
        X=[sign * root * op for op in rep.X],
        P=[root * op for op in rep.P],
        hbar=rep.units.hbar,
    )


_DEGREE = {"J": 2, "K": 1, "P": 1, "X": 1, "M": 0, "I": 0, "H": 2}


def verify_homomorphism(rep: ParticleRep, alg, margin: int | None = None, tol: float = 1e-10) -> VerificationReport:
    """Check every realized bracket of `alg` against the matrix commutators.

    For each generator pair the defect || P ([Ga, Gb] - i hbar sum f Gc) P ||
    (spectral norm, P the interior projector) must stay below `tol`.  When
    `margin` is None each pair uses the total polynomial degree of its
    identity; an explicit margin applies to all pairs.  Pairs that involve a
    generator without a matrix at this dimension (H always, K2 at dims = 1)
    are listed in `report.skipped`.
    """
    alg = build_algebra(alg)
    hbar = rep.config.units.hbar
    realized = rep.realized_generators(alg)
    report = VerificationReport(f"homomorphism[{alg.name} on dims={rep.config.dims}, N={rep.config.levels}]")
    names = [g.name for g in alg.generators]
    for ia, na in enumerate(names):
        for nb in names[ia + 1:]:
            targets = alg.constants.terms(alg.index(na), alg.index(nb))
            target_names = [alg.generators[k].name for k, _ in targets]
            if any(t not in realized for t in (na, nb, *target_names)):
                report.skipped.append(f"[{na},{nb}]")
                continue
            ga, gb = realized[na], realized[nb]
            expected = ladder.Operator(ga.shape, dtype=complex)
            for (k, f), tname in zip(targets, target_names):
                expected = expected + float(f) * realized[tname]
            defect = ga @ gb - gb @ ga - 1j * hbar * expected
            pair_margin = margin if margin is not None else min(
                _DEGREE[na[0]] + _DEGREE[nb[0]], rep.config.levels - 1
            )
            idx = rep.interior_indices(pair_margin)
            norm = ladder.spectral_norm(ladder.block(defect, idx))
            report.add(
                f"[{na},{nb}]",
                norm <= tol,
                metrics={"defect_norm": norm, "margin": pair_margin, "tol": tol},
            )
    return report
