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

import numpy as np

from . import ladder
from .particle import ParticleRep

__all__ = [
    "CcrCoefficientReport",
    "CompositeRep",
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
        self.headroom = np.minimum.outer(rep_a.headroom, rep_b.headroom).ravel()
        layout = (rep_a.dim, rep_b.dim)

        xa, xb = [ladder.embed(op, 0, layout) for op in rep_a.X], [ladder.embed(op, 1, layout) for op in rep_b.X]
        pa, pb = [ladder.embed(op, 0, layout) for op in rep_a.P], [ladder.embed(op, 1, layout) for op in rep_b.P]
        self.P = [a + b for a, b in zip(pa, pb)]
        # the lift of K = m X, i.e. m_a X_a (x) I + I (x) m_b X_b, with the lifted X reused
        self.K = [ca.mass * a + cb.mass * b for a, b in zip(xa, xb)]
        self.M = ladder.embed(rep_a.M, 0, layout) + ladder.embed(rep_b.M, 1, layout)
        self.J = {pair: ladder.embed(rep_a.J[pair], 0, layout) + ladder.embed(rep_b.J[pair], 1, layout)
                  for pair in rep_a.J}
        self.X = [op / self.mass for op in self.K]
        # the additive sum X_a (x) I + I (x) X_b, kept for the CCR failure witness
        self.X_naive = [a + b for a, b in zip(xa, xb)]
        self.R = [a - b for a, b in zip(xa, xb)]
        self.Q = [(cb.mass * a - ca.mass * b) / self.mass for a, b in zip(pa, pb)]

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


def verify_ccr_composite(comp: CompositeRep, margin: int = 1, tol: float = 1e-12) -> list:
    """Fit the canonical-commutator coefficient for the standard operator pairs.

    Expected coefficients: (X_com, P) -> hbar, (X_naive, P) -> 2 hbar (the
    non-physicality witness), (R, Q) -> hbar, and zero for the cross pairs
    (R, P) and (Q, X_com).  All d^2 commutators [A_i, B_j] of every pair go
    down one block diagonal, the fitted i = j blocks first: one sparse
    product, restricted to the stacked interiors and normed block by block.
    """
    if margin < 1:
        raise ValueError("margin must be at least 1 for commutator fits")
    hbar = comp.units.hbar
    idx = comp.interior_indices(margin)
    pairs = [
        ("x_com:p", comp.X, comp.P, hbar, False),
        ("x_naive:p", comp.X_naive, comp.P, 2.0 * hbar, True),
        ("r:q", comp.R, comp.Q, hbar, False),
        ("r:p", comp.R, comp.P, 0.0, False),
        ("q:x_com", comp.Q, comp.X, 0.0, False),
    ]
    d, n = comp.dims, comp.dim
    slots = [(p, i, i) for p in range(len(pairs)) for i in range(d)]
    fitted = len(slots)
    slots += [(p, i, j) for p in range(len(pairs)) for i in range(d) for j in range(d) if i != j]
    a = ladder.block_diag([pairs[p][1][i] for p, i, _ in slots])
    b = ladder.block_diag([pairs[p][2][j] for p, _, j in slots])
    comm = a @ b - b @ a
    del a, b  # the operands need not outlive the product
    rows = (np.arange(len(slots))[:, None] * n + idx).ravel()
    cut = fitted * len(idx)
    # -i [A_i, B_i] is fitted to a multiple of the identity; [A_i, B_j] is normed as it is
    stack = ladder.block_diag([-1j * ladder.block(comm, rows[:cut]), ladder.block(comm, rows[cut:])])
    coeffs, norms = ladder.interior_scalar_fit(stack, len(idx), np.arange(fitted).reshape(len(pairs), d))
    residuals = norms[:fitted].reshape(len(pairs), d).max(axis=1)
    offdiag = norms[fitted:].reshape(len(pairs), d * (d - 1)).max(axis=1, initial=0.0)
    out = []
    for (label, _, _, expected, flag), coeff, residual, off in zip(
        pairs, coeffs.tolist(), residuals.tolist(), offdiag.tolist()
    ):
        out.append(CcrCoefficientReport(
            pair=label,
            coefficient=coeff,
            expected=expected,
            residual_norm=residual,
            offdiag_norm=off,
            passed=abs(coeff - expected) <= tol and residual <= tol and off <= tol,
            non_physical=flag,
        ))
    return out

