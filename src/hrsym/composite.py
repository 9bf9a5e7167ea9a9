"""Two-particle product representations, center-of-mass and relative observables.

Every generator lifts as G = G_a (x) I + I (x) G_b, which makes mass and
momentum additive.  Position is not liftable that way: the physical
center-of-mass operators are the mass-weighted combination K_i / m dictated
by the lifted boosts, while the naive sum X_a (x) I + I (x) X_b is kept only
as a negative control (its commutator with the total momentum carries twice
the canonical coefficient).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import ladder
from .particle import ParticleRep

__all__ = [
    "CcrCoefficientReport",
    "CompositeRep",
    "canonical_map_is_symplectic",
    "canonical_map_matrix",
    "com_position",
    "naive_position_sum",
    "relative_ops",
    "tensor_rep",
    "verify_ccr_composite",
]


class CompositeRep(ladder.OperatorSystem):
    """Tensor product of two single-particle representations; `mass` is the total mass.

    Every generator and observable is a sparse `ladder.Operator`.
    """

    def __init__(self, rep_a: ParticleRep, rep_b: ParticleRep):
        ca, cb = rep_a.config, rep_b.config
        if ca.dims != cb.dims:
            raise ValueError(f"dimension mismatch: {ca.dims} vs {cb.dims}")
        if ca.units != cb.units:
            raise ValueError("both particles must share hbar and omega_ref")
        self.rep_a, self.rep_b = rep_a, rep_b
        self.dims = ca.dims
        self.units = ca.units
        self.mass = ca.mass + cb.mass
        self.reduced_mass = ca.mass * cb.mass / self.mass
        self.dim = rep_a.dim * rep_b.dim

        xa, xb = [self.lift_a(op) for op in rep_a.X], [self.lift_b(op) for op in rep_b.X]
        pa, pb = [self.lift_a(op) for op in rep_a.P], [self.lift_b(op) for op in rep_b.P]
        self.P = [a + b for a, b in zip(pa, pb)]
        # the lift of K = m X, i.e. m_a X_a (x) I + I (x) m_b X_b, with the lifted X reused
        self.K = [ca.mass * a + cb.mass * b for a, b in zip(xa, xb)]
        self.M = self.lift_a(rep_a.M) + self.lift_b(rep_b.M)
        self.J = {pair: self.lift_a(rep_a.J[pair]) + self.lift_b(rep_b.J[pair]) for pair in rep_a.J}
        self.X = [op / self.mass for op in self.K]
        self.R = [a - b for a, b in zip(xa, xb)]
        self.Q = [(cb.mass * a - ca.mass * b) / self.mass for a, b in zip(pa, pb)]

    def lift_a(self, op) -> ladder.Operator:
        """op (x) I on the product space."""
        return ladder.embed(op, 0, (self.rep_a.dim, self.rep_b.dim))

    def lift_b(self, op) -> ladder.Operator:
        """I (x) op on the product space."""
        return ladder.embed(op, 1, (self.rep_a.dim, self.rep_b.dim))

    def interior_indices(self, margin: int) -> np.ndarray:
        ia = self.rep_a.interior_indices(margin)
        ib = self.rep_b.interior_indices(margin)
        return (ia[:, None] * self.rep_b.dim + ib[None, :]).ravel()

    def hamiltonian(self, pot) -> ladder.Operator:
        """P.P / 2m + Q.Q / 2mu + V(R.R); the interaction may depend on R only."""
        if pot.kind == "poly_x":
            raise ValueError("a composite interaction must depend on the relative separation only")
        h = ladder.square_sum(self.P) / (2.0 * self.mass)
        h = h + ladder.square_sum(self.Q) / (2.0 * self.reduced_mass)
        if pot.kind == "poly_r2" and pot.coefficients:
            h = h + ladder.poly_in(ladder.square_sum(self.R), pot.coefficients)
        return h


def tensor_rep(rep_a: ParticleRep, rep_b: ParticleRep) -> CompositeRep:
    return CompositeRep(rep_a, rep_b)


def com_position(comp: CompositeRep) -> list:
    """Center-of-mass position operators, identical to K_i / m."""
    return list(comp.X)


def naive_position_sum(comp: CompositeRep) -> list:
    """The additive position sum; non-physical, kept as a failure witness."""
    return [comp.lift_a(xa) + comp.lift_b(xb) for xa, xb in zip(comp.rep_a.X, comp.rep_b.X)]


def relative_ops(comp: CompositeRep):
    """Relative position R = X_a - X_b and relative momentum Q = (m_b P_a - m_a P_b)/m."""
    return list(comp.R), list(comp.Q)


@dataclass
class CcrCoefficientReport:
    """Fitted coefficient c of P [A_i, B_j] P ~ i c delta_ij P on the interior."""

    pair: str
    coefficient: float
    expected: float
    residual_norm: float
    offdiag_norm: float
    passed: bool
    non_physical: bool = False


def _fit_pair(label, ops_a, ops_b, expected, idx, tol, non_physical=False) -> CcrCoefficientReport:
    d = len(ops_a)
    diag = []
    for i in range(d):
        comm = ops_a[i] @ ops_b[i] - ops_b[i] @ ops_a[i]
        diag.append(ladder.block(-1j * comm, idx))
    coeff, residual = ladder.interior_scalar_fit(diag)
    offdiag = float(np.max([
        ladder.spectral_norm(ladder.block(ops_a[i] @ ops_b[j] - ops_b[j] @ ops_a[i], idx))
        for i in range(d) for j in range(d) if i != j
    ], initial=0.0))
    passed = abs(coeff - expected) <= tol and residual <= tol and offdiag <= tol
    return CcrCoefficientReport(
        pair=label,
        coefficient=coeff,
        expected=expected,
        residual_norm=residual,
        offdiag_norm=offdiag,
        passed=passed,
        non_physical=non_physical,
    )


def verify_ccr_composite(comp: CompositeRep, margin: int = 1, tol: float = 1e-12) -> list:
    """Fit the canonical-commutator coefficient for the standard operator pairs.

    Expected coefficients: (X_com, P) -> hbar, (X_naive, P) -> 2 hbar (the
    non-physicality witness), (R, Q) -> hbar, and zero for the cross pairs
    (R, P) and (Q, X_com).
    """
    if margin < 1:
        raise ValueError("margin must be at least 1 for commutator fits")
    hbar = comp.units.hbar
    idx = comp.interior_indices(margin)
    naive = naive_position_sum(comp)
    pairs = [
        ("x_com:p", comp.X, comp.P, hbar, False),
        ("x_naive:p", naive, comp.P, 2.0 * hbar, True),
        ("r:q", comp.R, comp.Q, hbar, False),
        ("r:p", comp.R, comp.P, 0.0, False),
        ("q:x_com", comp.Q, comp.X, 0.0, False),
    ]
    return [
        _fit_pair(label, a, b, expected, idx, tol, non_physical=flag)
        for label, a, b, expected, flag in pairs
    ]


def canonical_map_matrix(m_a, m_b) -> list:
    """Exact coefficient matrix of (x_a, x_b, p_a, p_b) -> (X_com, R, P, Q)."""
    ma, mb = Fraction(m_a), Fraction(m_b)
    m = ma + mb
    zero, one = Fraction(0), Fraction(1)
    return [
        [ma / m, mb / m, zero, zero],
        [one, -one, zero, zero],
        [zero, zero, one, one],
        [zero, zero, mb / m, -ma / m],
    ]


def canonical_map_is_symplectic(m_a, m_b) -> bool:
    """Exact check that the COM/relative change of basis preserves the canonical form."""
    s = canonical_map_matrix(m_a, m_b)
    zero, one = Fraction(0), Fraction(1)
    omega = [
        [zero, zero, one, zero],
        [zero, zero, zero, one],
        [-one, zero, zero, zero],
        [zero, -one, zero, zero],
    ]

    def matmul(a, b):
        return [
            [sum(a[i][k] * b[k][j] for k in range(4)) for j in range(4)]
            for i in range(4)
        ]

    st = [[s[j][i] for j in range(4)] for i in range(4)]
    return matmul(matmul(s, omega), st) == omega
