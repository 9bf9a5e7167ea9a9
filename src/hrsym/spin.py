"""Rotation representations, the mass*spin tensor, and relative-motion spectra.

Angular momentum is handled throughout in antisymmetric-tensor components
(i, j) with i < j.  The fixed component mapping is

    S_12 = S_z,    S_23 = S_x,    S_13 = -S_y,

chosen so the spin blocks obey exactly the same structure constants as the
orbital components X_i P_j - P_i X_j (catalog sign [S12, S23] = -i hb S13).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from fractions import Fraction

import numpy as np

from . import ladder

__all__ = [
    "CasimirSpectrum",
    "NonScalarCasimirError",
    "RelativeModeRep",
    "SpinCasimirValue",
    "SpinRep",
    "casimir_spin_value",
    "decompose_product_spins",
    "mass_times_spin",
    "relative_mode_system",
    "relative_spin_spectrum",
    "spin_matrices",
    "t_tensor",
]

J_PAIRS = ((1, 2), (1, 3), (2, 3))


def _as_half_integer(s, what="spin") -> Fraction:
    frac = Fraction(s).limit_denominator(2)
    if frac != Fraction(s) or frac < 0 or (2 * frac).denominator != 1:
        raise ValueError(f"{what} must be a nonnegative half-integer, got {s!r}")
    return frac


class NonScalarCasimirError(ValueError):
    """The quadratic spin invariant is not scalar on the requested interior.

    Signals either a reducible representation (e.g. a two-particle product)
    or a truncation margin that is too small.
    """

    def __init__(self, fitted, deviation):
        self.fitted = fitted
        self.deviation = deviation
        super().__init__(
            f"spin Casimir is not scalar: fitted value {fitted:.6g}, deviation norm {deviation:.3g}"
        )


@dataclass
class SpinRep:
    """Intrinsic angular momentum matrices on a (2s+1)-dimensional space."""

    s: float
    components: dict
    hbar: float = 1.0

    @property
    def dim(self) -> int:
        return self.components[(1, 2)].shape[0]

    def casimir(self) -> np.ndarray:
        acc = np.zeros((self.dim, self.dim), dtype=complex)
        for m in self.components.values():
            acc += m @ m
        return acc


def spin_matrices(s, hbar: float = 1.0) -> SpinRep:
    """Standard |s, m> ladder construction packaged as tensor components.

    Basis order is m = s, s-1, ..., -s.  s = 0 gives three 1x1 zeros.
    """
    s_frac = _as_half_integer(s)
    d = int(2 * s_frac) + 1
    m_vals = float(s_frac) - np.arange(d)
    sz = hbar * np.diag(m_vals).astype(complex)
    raise_amp = [
        np.sqrt(float(s_frac * (s_frac + 1)) - m * (m + 1)) for m in m_vals[1:]
    ]
    sp = hbar * np.diag(raise_amp, 1).astype(complex)
    sm = sp.conj().T
    sx = (sp + sm) / 2.0
    sy = (sp - sm) / 2.0j
    return SpinRep(
        s=float(s_frac),
        components={(1, 2): sz, (2, 3): sx, (1, 3): -sy},
        hbar=hbar,
    )


def t_tensor(rep) -> dict:
    """The operator tensor M J_ij - (K_i P_j - P_i K_j) of a d = 3 representation.

    On an irreducible single-particle representation this equals mass times
    the spin block (identically zero for spinless ones, since the orbital
    parts cancel).  Composite representations are accepted; there the
    tensor is mass times the full intrinsic angular momentum.
    """
    if rep.dims != 3:
        raise ValueError("the spin tensor needs a three-dimensional representation")
    out = {}
    for i, j in J_PAIRS:
        out[(i, j)] = rep.M @ rep.J[(i, j)] - (rep.K[i - 1] @ rep.P[j - 1] - rep.P[i - 1] @ rep.K[j - 1])
    return out


@dataclass
class SpinCasimirValue:
    value: float
    s: float
    deviation: float


def spin_from_casimir(lam: float, hbar: float = 1.0, rtol: float = 1e-8) -> tuple:
    """Invert lam = s (s + 1) hbar^2.

    Returns the raw nonnegative root, the nearest half-integer, and whether
    that half-integer reproduces lam to `rtol` (relative, with floor 1).
    """
    root = 0.5 * (-1.0 + np.sqrt(max(0.0, 1.0 + 4.0 * lam / hbar**2)))
    s = round(2.0 * root) / 2.0
    return float(root), s, abs(lam - s * (s + 1) * hbar**2) <= rtol * max(1.0, abs(lam))


def casimir_spin_value(rep, margin: int = 1, tol: float = 1e-8) -> SpinCasimirValue:
    """Fit the scalar of (1/(2 m^2)) T_ij T^ij on the interior and solve for s.

    Raises NonScalarCasimirError when the deviation from a multiple of the
    identity exceeds `tol` (reducible representation, or margin too small).
    The reported s is the raw root, not snapped to a half-integer.
    """
    return _spin_of_tensor(rep, t_tensor(rep), margin, tol)


def _spin_of_tensor(rep, t: dict, margin: int, tol: float) -> SpinCasimirValue:
    c_op = sum(t[p] @ t[p] for p in J_PAIRS) / rep.mass**2
    idx = rep.interior_indices(margin)
    fitted, deviation = ladder.interior_scalar_fit([ladder.block(c_op, idx)])
    if deviation > tol * max(1.0, abs(fitted)):
        raise NonScalarCasimirError(fitted, deviation)
    s_val, _, _ = spin_from_casimir(fitted, rep.units.hbar)
    return SpinCasimirValue(value=fitted, s=s_val, deviation=deviation)


def mass_times_spin(rep, margin: int = 1, tol: float = 1e-8) -> tuple:
    """T = m S on a single-particle representation, from one evaluation of T.

    Returns the largest entry of T_ij - m S_ij, with S the particle's stored
    spin lifts, and the spin that casimir_spin_value fits from the same T.
    """
    t = t_tensor(rep)
    deviation = max(float(abs(t[p] - rep.mass * rep.S[p]).max()) for p in J_PAIRS)
    return deviation, _spin_of_tensor(rep, t, margin, tol)


# ---------------------------------------------------------------------------
# relative-motion spectra on a total-quanta-truncated oscillator basis
# ---------------------------------------------------------------------------

@dataclass
class SpectrumLine:
    value: float
    multiplicity: int
    ell: float | None


@dataclass
class ShellSpectrum:
    n: int
    entries: list


@dataclass
class CasimirSpectrum:
    """Eigenvalues of the quadratic spin invariant with ell-shell labels."""

    hbar: float
    dim: int
    shells: list = field(default_factory=list)
    unmatched: list = field(default_factory=list)

    @property
    def entries(self) -> list:
        out = []
        for shell in self.shells:
            out.extend(shell.entries)
        return out

    def multiplicity_total(self) -> int:
        return sum(e.multiplicity for e in self.entries)

    def ell_multisets(self) -> list:
        return [(shell.n, sorted(e.ell for e in shell.entries)) for shell in self.shells]

    def to_json(self) -> dict:
        return {**asdict(self), "eigenvalues": [asdict(e) for e in self.entries]}


def relative_spin_spectrum(n_max: int, s_a=0, s_b=0, hbar: float = 1.0) -> CasimirSpectrum:
    """Diagonalize the composite intrinsic angular momentum invariant.

    Builds the relative-motion orbital components on a single 3-D oscillator
    basis with total quanta <= n_max, adds the two spin blocks, and labels
    each shell eigenvalue by ell from ell (ell + 1) hbar^2.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    cube = _RelativeCube(n_max, 1.0, 1.0, hbar, headroom=1)
    spin_a = spin_matrices(s_a, hbar)
    spin_b = spin_matrices(s_b, hbar)
    spin_block = spin_a.dim * spin_b.dim
    total = _add_spins({p: _lift(cube.orbital(p), cube.keep, spin_block) for p in J_PAIRS}, spin_a, spin_b)
    casimir = ladder.square_sum(total.values())

    basis = cube.basis
    spectrum = CasimirSpectrum(hbar=hbar, dim=len(basis) * spin_block)
    osc_offset = 0
    for n in range(n_max + 1):
        shell_osc = sum(1 for t in basis if sum(t) == n)
        sl = slice(osc_offset * spin_block, (osc_offset + shell_osc) * spin_block)
        osc_offset += shell_osc
        vals = np.linalg.eigvalsh(casimir[sl, sl].toarray())
        groups: dict = {}
        for lam in vals:
            _, ell, ok = spin_from_casimir(float(lam), hbar)
            if not ok:
                spectrum.unmatched.append(float(lam))
                continue
            bucket = groups.setdefault(ell, [])
            bucket.append(float(lam))
        entries = [
            SpectrumLine(value=float(np.mean(v)), multiplicity=len(v), ell=ell)
            for ell, v in sorted(groups.items())
        ]
        spectrum.shells.append(ShellSpectrum(n=n, entries=entries))
    return spectrum


def decompose_product_spins(s_a, s_b) -> list:
    """Total-spin content of a product of two irreducible spins.

    Returns [(s, 1)] for s = |s_a - s_b|, ..., s_a + s_b in unit steps; the
    dimensions satisfy sum(2s + 1) = (2s_a + 1)(2s_b + 1).
    """
    fa, fb = _as_half_integer(s_a, "s_a"), _as_half_integer(s_b, "s_b")
    lo, hi = abs(fa - fb), fa + fb
    out = []
    s = lo
    while s <= hi:
        out.append((float(s), 1))
        s += 1
    assert sum(int(2 * s) + 1 for s, _ in out) == (int(2 * fa) + 1) * (int(2 * fb) + 1)
    return out


def brute_force_addition(s_a, s_b) -> tuple:
    """Total-spin content by diagonalizing the coupled Casimir on the product space.

    Returns (spins, unmatched): each total spin repeated by its multiplicity,
    and the eigenvalues that match no s (s + 1).
    """
    ra, rb = spin_matrices(s_a), spin_matrices(s_b)
    no_orbital = ladder.Operator((ra.dim * rb.dim,) * 2, dtype=complex)
    total = _add_spins({p: no_orbital for p in J_PAIRS}, ra, rb)
    found, unmatched = {}, []
    for lam in np.linalg.eigvalsh(ladder.square_sum(total.values()).toarray()):
        _, s, ok = spin_from_casimir(lam)
        if not ok:
            unmatched.append(float(lam))
            continue
        found[s] = found.get(s, 0) + 1
    out = []
    for s in sorted(found):
        count, dim = found[s], int(2 * s) + 1
        if count % dim:
            raise RuntimeError(f"eigenvalue multiplicity {count} is not a multiple of 2s+1 = {dim}")
        out.extend([float(s)] * (count // dim))
    return out, unmatched


def spin_addition_mismatches(top) -> tuple:
    """Brute-force addition against decompose_product_spins for s_a, s_b = 0, 1/2, ..., top.

    Returns the number of (s_a, s_b) pairs checked and the pairs that disagree.
    """
    if not 0 <= top < math.inf:
        raise ValueError(f"the largest spin must be nonnegative and finite, got {top}")
    spins = [k / 2 for k in range(math.floor(2 * top) + 1)]
    mismatches = []
    for sa in spins:
        for sb in spins:
            expected = [s for s, _ in decompose_product_spins(sa, sb)]
            got, unmatched = brute_force_addition(sa, sb)
            if expected != got or unmatched:
                mismatches.append({"s_a": sa, "s_b": sb, "expected": expected, "got": got,
                                   "unmatched": unmatched})
    return len(spins) ** 2, mismatches


# ---------------------------------------------------------------------------
# relative-mode system for dynamics
# ---------------------------------------------------------------------------

class _RelativeCube:
    """Sparse relative R_i, Q_i on a 3-D oscillator cube, restricted to total quanta <= n_max.

    The cube keeps `headroom` spare levels per dimension so that no
    intermediate product is clipped and the restriction is exact: total
    quanta, the orbital shells and the spin invariant are then conserved to
    rounding.
    """

    def __init__(self, n_max: int, mass: float, omega: float, hbar: float, headroom: int):
        levels = n_max + 1 + headroom
        dims3 = (levels,) * 3
        self.r = [ladder.embed(ladder.position(levels, mass, omega, hbar), k, dims3) for k in range(3)]
        self.q = [ladder.embed(ladder.momentum(levels, mass, omega, hbar), k, dims3) for k in range(3)]
        self.keep, self.basis = ladder.total_quanta_restriction(levels, n_max)

    def orbital(self, pair) -> ladder.Operator:
        i, j = pair
        return self.r[i - 1] @ self.q[j - 1] - self.q[i - 1] @ self.r[j - 1]


def _lift(op, keep, spin_block: int) -> ladder.Operator:
    """Restrict a cube operator to the states `keep` and repeat it across the spin block."""
    return ladder.embed(op[keep][:, keep], 0, (len(keep), spin_block))


def _add_spins(orbital: dict, spin_a: SpinRep, spin_b: SpinRep) -> dict:
    """Total angular momentum from lifted orbital components plus both spin blocks."""
    layout = (orbital[(1, 2)].shape[0] // (spin_a.dim * spin_b.dim), spin_a.dim, spin_b.dim)
    return {
        p: orbital[p]
        + ladder.embed(spin_a.components[p], 1, layout)
        + ladder.embed(spin_b.components[p], 2, layout)
        for p in J_PAIRS
    }


class RelativeModeRep(ladder.OperatorSystem):
    """Relative motion of a two-particle system on a total-quanta basis.

    The center of mass factors out, so the physical Hamiltonian acts here as
    Q.Q / (2 mu) + V(R.R); `mass` is the reduced mass mu.  Every operator is
    restricted from a cube with per-dimension headroom for (R.R)^max_power,
    so its elements are exact; hence total quanta, the orbital shells, and
    the spin invariant are conserved to rounding.
    """

    dims = 3

    def __init__(self, n_max: int, mu: float, units, s_a=0, s_b=0, max_power: int = 2):
        if not 0 < mu < math.inf:
            raise ValueError(f"reduced mass must be positive and finite, got {mu}")
        self.n_max = int(n_max)
        self.mass = float(mu)
        self.units = units
        self.max_power = int(max_power)
        hbar = units.hbar
        cube = _RelativeCube(self.n_max, self.mass, units.omega_ref, hbar, headroom=2 * self.max_power)
        self.basis, self._keep = cube.basis, cube.keep

        spin_a = spin_matrices(s_a, hbar)
        spin_b = spin_matrices(s_b, hbar)
        self.spin_a, self.spin_b = spin_a, spin_b
        spin_block = spin_a.dim * spin_b.dim
        self.spin_dim = spin_block
        self.dim = len(self.basis) * spin_block

        self._qq = ladder.square_sum(cube.q)
        self._rr = ladder.square_sum(cube.r)
        self.R = [_lift(m, cube.keep, spin_block) for m in cube.r]
        self.Q = [_lift(m, cube.keep, spin_block) for m in cube.q]
        self.L = {p: _lift(cube.orbital(p), cube.keep, spin_block) for p in J_PAIRS}
        self.S = _add_spins(self.L, spin_a, spin_b)
        self.J = self.S
        self.spin_casimir = ladder.square_sum(self.S.values())

    def interior_indices(self, margin: int = 1) -> np.ndarray:
        if not 0 <= margin <= self.n_max:
            raise ValueError(f"margin must lie in [0, {self.n_max}]")
        keep = [k for k, t in enumerate(self.basis) if sum(t) <= self.n_max - margin]
        idx = np.array(keep, dtype=int)
        return (idx[:, None] * self.spin_dim + np.arange(self.spin_dim)[None, :]).ravel()

    def hamiltonian(self, pot) -> ladder.Operator:
        """Q.Q / 2mu + V(R.R), taken on the cube and restricted; V has degree <= `max_power`."""
        if pot.kind == "poly_x":
            raise ValueError("a composite interaction must depend on the relative separation only")
        beyond = [k for k, c in enumerate(pot.coefficients) if c and k > self.max_power]
        if beyond:
            raise ValueError(
                f"relative-mode system was built with max_power={self.max_power}, "
                f"cannot take (R.R)^{beyond[0]}"
            )
        h = self._qq / (2.0 * self.mass) + ladder.poly_in(self._rr, pot.coefficients)
        return _lift(h, self._keep, self.spin_dim)

    def ground_state(self) -> np.ndarray:
        vec = np.zeros(self.dim, dtype=complex)
        vec[0] = 1.0
        return vec

    def relative_ladder(self) -> list:
        """Lowering operators of the three relative modes."""
        hbar, omega = self.units.hbar, self.units.omega_ref
        out = []
        for i in range(3):
            out.append(
                np.sqrt(self.mass * omega / (2.0 * hbar)) * self.R[i]
                + 1j / np.sqrt(2.0 * hbar * self.mass * omega) * self.Q[i]
            )
        return out


def relative_mode_system(n_max: int, mu: float, units, s_a=0, s_b=0, max_power: int = 2) -> RelativeModeRep:
    return RelativeModeRep(n_max, mu, units, s_a=s_a, s_b=s_b, max_power=max_power)
