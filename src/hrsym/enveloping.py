"""Normal ordering and exact Casimir certification in the enveloping algebra.

Elements are finite sums  c * hbar^k * G_w1 G_w2 ... G_wn  with exact
complex-rational coefficients c.  The normal form sorts every word by the
algebra's generator order (J < K < P < M < H for the built-in catalogs).
Reordering an adjacent out-of-order pair uses

    G_b G_a = G_a G_b - [G_a, G_b],    [G_a, G_b] = i*hbar sum_c f^c_ab G_c,

so each swap spawns words one letter shorter with the coefficient scaled by
-i*f and the hbar power raised by one.  Every rewrite strictly reduces the
number of inversions at fixed length, hence the procedure terminates.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import AlgebraError, LieAlgebra, build_algebra
from .rationals import QC, as_qc
from .report import VerificationReport

__all__ = [
    "CasimirCandidate",
    "Monomial",
    "PbwPolynomial",
    "casimir_candidates",
    "check_central",
    "commutator_uea",
    "generator_poly",
    "normal_order",
    "spin_tensor",
    "word_poly",
]


@dataclass(frozen=True)
class Monomial:
    """A word of generator indices times an explicit power of hbar."""

    word: tuple
    hbar_power: int = 0

    @property
    def degree(self) -> int:
        return len(self.word)


def _normalize(alg: LieAlgebra, raw) -> dict:
    # raw: iterable of (word tuple, QC, hbar_power); returns normal-form terms.
    cons = alg.constants
    out = {}
    stack = [(tuple(w), as_qc(c), int(h)) for w, c, h in raw]
    if any(h < 0 for _, _, h in stack):
        raise ValueError("hbar powers must be nonnegative")
    while stack:
        word, coeff, h = stack.pop()
        if not coeff:
            continue
        pivot = -1
        for i in range(len(word) - 1):
            if word[i] > word[i + 1]:
                pivot = i
                break
        if pivot < 0:
            key = Monomial(word, h)
            total = out.get(key, QC()) + coeff
            if total:
                out[key] = total
            else:
                out.pop(key, None)
            continue
        b, a = word[pivot], word[pivot + 1]
        stack.append((word[:pivot] + (a, b) + word[pivot + 2:], coeff, h))
        for k, f in cons.terms(a, b):
            stack.append((word[:pivot] + (k,) + word[pivot + 2:], coeff * QC(0, -f), h + 1))
    return out


class PbwPolynomial:
    """Normal-ordered noncommutative polynomial over one algebra's generators."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: LieAlgebra, terms=None, _normal=False):
        self.algebra = algebra
        if _normal:
            self.terms = dict(terms or {})
        else:
            raw = []
            for mono, coeff in (terms or {}).items():
                raw.append((mono.word, coeff, mono.hbar_power))
            self.terms = _normalize(algebra, raw)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def degree(self) -> int:
        return max((m.degree for m in self.terms), default=0)

    def items(self):
        return self.terms.items()

    def __add__(self, other):
        self._check_compatible(other)
        out = dict(self.terms)
        for mono, c in other.terms.items():
            total = out.get(mono, QC()) + c
            if total:
                out[mono] = total
            else:
                out.pop(mono, None)
        return PbwPolynomial(self.algebra, out, _normal=True)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return PbwPolynomial(self.algebra, {m: -c for m, c in self.terms.items()}, _normal=True)

    def scaled(self, scalar) -> "PbwPolynomial":
        scalar = as_qc(scalar)
        if not scalar:
            return PbwPolynomial(self.algebra, {}, _normal=True)
        return PbwPolynomial(self.algebra, {m: scalar * c for m, c in self.terms.items()}, _normal=True)

    __rmul__ = scaled

    def __mul__(self, other):
        if not isinstance(other, PbwPolynomial):
            return self.scaled(other)
        self._check_compatible(other)
        raw = []
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                raw.append((m1.word + m2.word, c1 * c2, m1.hbar_power + m2.hbar_power))
        return PbwPolynomial(self.algebra, _normalize(self.algebra, raw), _normal=True)

    def __eq__(self, other):
        if not isinstance(other, PbwPolynomial):
            return NotImplemented
        return self.algebra.name == other.algebra.name and self.terms == other.terms

    def _check_compatible(self, other):
        if other.algebra.name != self.algebra.name:
            raise AlgebraError(
                f"cannot combine polynomials over {self.algebra.name!r} and {other.algebra.name!r}"
            )

    def pretty(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        order = sorted(self.terms, key=lambda m: (m.degree, m.word, m.hbar_power))
        for mono in order:
            c = self.terms[mono]
            chunk = f"({c})"
            if mono.hbar_power:
                chunk += f"*hb^{mono.hbar_power}" if mono.hbar_power > 1 else "*hb"
            for idx in mono.word:
                chunk += f"*{self.algebra.generators[idx].name}"
            parts.append(chunk)
        return " + ".join(parts)

    def __repr__(self):
        return f"PbwPolynomial[{self.algebra.name}]({self.pretty()})"


def word_poly(alg: LieAlgebra, names, coeff=1, hbar_power=0) -> PbwPolynomial:
    """Polynomial from one product of generators given by name, in any order."""
    word = tuple(alg.index(n) for n in names)
    return PbwPolynomial(alg, _normalize(alg, [(word, as_qc(coeff), hbar_power)]), _normal=True)


def generator_poly(alg: LieAlgebra, name: str) -> PbwPolynomial:
    return word_poly(alg, (name,))


def poly(alg: LieAlgebra, terms) -> PbwPolynomial:
    """Polynomial from an iterable of (generator-name sequence, coeff[, hbar_power])."""
    raw = []
    for term in terms:
        names, coeff = term[0], term[1]
        h = term[2] if len(term) > 2 else 0
        raw.append((tuple(alg.index(n) for n in names), as_qc(coeff), h))
    return PbwPolynomial(alg, _normalize(alg, raw), _normal=True)


def normal_order(alg: LieAlgebra, p) -> PbwPolynomial:
    """Normal order a polynomial given in any order.

    `p` may be a PbwPolynomial (idempotent), or an iterable of raw terms
    (word-of-names, coeff[, hbar_power]).
    """
    if isinstance(p, PbwPolynomial):
        raw = [(m.word, c, m.hbar_power) for m, c in p.items()]
        return PbwPolynomial(alg, _normalize(alg, raw), _normal=True)
    return poly(alg, p)


def commutator_uea(alg: LieAlgebra, p: PbwPolynomial, q: PbwPolynomial) -> PbwPolynomial:
    """Normal-ordered p*q - q*p, exact."""
    return p * q - q * p


@dataclass
class CasimirCandidate:
    name: str
    polynomial: PbwPolynomial
    algebra: str


def spin_tensor(alg: LieAlgebra, i: int, j: int) -> PbwPolynomial:
    """The degree-2 enveloping element T_ij = M J_ij - K_i P_j + P_i K_j."""
    return poly(
        alg,
        [
            (("M", f"J{i}{j}"), 1),
            ((f"K{i}", f"P{j}"), -1),
            ((f"P{i}", f"K{j}"), 1),
        ],
    )


def _spin_tensor_square(alg: LieAlgebra) -> PbwPolynomial:
    # Half the doubly-oriented contraction equals the sum over i < j of T_ij^2.
    total = None
    for i, j in ((1, 2), (1, 3), (2, 3)):
        t = spin_tensor(alg, i, j)
        sq = t * t
        total = sq if total is None else total + sq
    return total


def casimir_candidates(spec) -> list:
    """Casimir candidates for hr3 or g3tilde, as explicit normal-ordered polynomials."""
    alg = build_algebra(spec)
    if alg.name not in ("hr3", "g3tilde"):
        raise AlgebraError(f"no Casimir catalog for algebra {alg.name!r}")
    out = [
        CasimirCandidate("M", generator_poly(alg, "M"), alg.name),
        CasimirCandidate("T.T/2", _spin_tensor_square(alg), alg.name),
    ]
    if alg.name == "g3tilde":
        extra = poly(
            alg,
            [(("M", "H"), 2), (("P1", "P1"), -1), (("P2", "P2"), -1), (("P3", "P3"), -1)],
        )
        out.append(CasimirCandidate("2MH-P.P", extra, alg.name))
    return out


def check_central(alg: LieAlgebra, candidate: CasimirCandidate) -> VerificationReport:
    """Pass iff the candidate commutes exactly with every generator of `alg`."""
    report = VerificationReport(f"centrality[{alg.name}:{candidate.name}]")
    for gen in alg.generators:
        rem = commutator_uea(alg, candidate.polynomial, generator_poly(alg, gen.name))
        report.add(
            f"commutes_with_{gen.name}",
            rem.is_zero,
            metrics={"remainder_terms": [] if rem.is_zero else rem.pretty().split(" + ")[:8]},
            detail="" if rem.is_zero else f"remainder {rem.pretty()}",
        )
    return report
