"""Normal ordering and exact Casimir certification in the enveloping algebra.

Elements are finite sums  c * hbar^k * G_w1 G_w2 ... G_wn  with exact
complex-rational coefficients c.  The normal form sorts every word by the
algebra's generator order (J < K < P < M < H for the built-in catalogs).
Reordering an adjacent out-of-order pair uses

    G_b G_a = G_a G_b - [G_a, G_b],    [G_a, G_b] = i*hbar sum_c f^c_ab G_c,

so each swap spawns words one letter shorter with the coefficient scaled by
-i*f and the hbar power raised by one.  Every rewrite strictly reduces the
number of inversions at fixed length, hence the procedure terminates.

The arithmetic is on integers.  With the constants read as f = F/D over
their common denominator D, a word's normal form {(sorted word, extra hbar
power e): (re, im)}, meaning (re + i*im)/D^e, is computed once per word
(swapping along the word, recursing into the shorter words) and memoized
in a dict held by that LieAlgebra instance alone.  Sums of words are put
over one common denominator and accumulated as Gaussian integers, with
one QC built per output monomial.  Commutators follow the Leibniz rule

    [u, v] = sum_ij u_<i v_<j [u_i, v_j] v_>j u_>i,

on words of length len(u) + len(v) - 1, not from both p*q and q*p.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

from .algebra import AlgebraError, J_PAIRS, LieAlgebra, build_algebra
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


def _word_normal_form(alg: LieAlgebra, word: tuple) -> dict:
    """{(sorted word, e): (re, im)} with word = sum (re + i*im)/D^e hbar^e * sorted word."""
    nf = alg._normal_forms.get(word)
    if nf is not None:
        return nf
    table = alg.constants.integer_terms
    acc = {}
    cur = word
    # swap the first out-of-order pair until sorted; only the shorter words recurse
    while (pivot := next((i for i in range(len(cur) - 1) if cur[i] > cur[i + 1]), None)) is not None:
        # G_b G_a = G_a G_b - i hbar sum_k (F/D) G_k, and (re + i im)(-i F) = F im - i F re
        head, (b, a), tail = cur[:pivot], cur[pivot:pivot + 2], cur[pivot + 2:]
        for k, f in table.get((a, b), ()):
            for (w, e), (re, im) in _word_normal_form(alg, head + (k,) + tail).items():
                r0, i0 = acc.get((w, e + 1), (0, 0))
                acc[(w, e + 1)] = (r0 + f * im, i0 - f * re)
        cur = head + (a, b) + tail
    nf = alg._normal_forms[word] = {key: c for key, c in acc.items() if c != (0, 0)}
    nf[(cur, 0)] = (1, 0)
    return nf


def _over_common_denominator(terms) -> tuple:
    """(den, [(key, a, b)]) with each QC coefficient c = (a + i*b)/den, from (key, c) pairs."""
    terms = list(terms)
    den = math.lcm(*(f.denominator for _, c in terms for f in (c.re, c.im)))
    return den, [
        (key, c.re.numerator * (den // c.re.denominator), c.im.numerator * (den // c.im.denominator))
        for key, c in terms
    ]


def _accumulate(alg: LieAlgebra, terms, den: int) -> dict:
    """Normal form {Monomial: QC} of sum (a + i*b)/den hbar^h word over (word, a, b, h) terms."""
    d = alg.constants.denominator
    acc = {}
    for word, a, b, h in terms:
        if not (a or b):
            continue
        # every contribution to hbar^H is put over den * D^H
        s = d ** h
        a, b = a * s, b * s
        for (w, e), (re, im) in _word_normal_form(alg, word).items():
            r0, i0 = acc.get((w, h + e), (0, 0))
            acc[(w, h + e)] = (r0 + a * re - b * im, i0 + a * im + b * re)
    out = {}
    for (w, h), (re, im) in acc.items():
        if re or im:
            q = den * d ** h
            out[Monomial(w, h)] = QC(Fraction(re, q), Fraction(im, q))
    return out


class PbwPolynomial:
    """Noncommutative polynomial over one algebra's generators, its `terms` {Monomial: QC} stored as given:
    nonzero and already in normal order, as `normal_order` (the one normalizer) and the arithmetic return them."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: LieAlgebra, terms=None):
        self.algebra = algebra
        self.terms = dict(terms or {})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def degree(self) -> int:
        return max((m.degree for m in self.terms), default=0)

    def items(self):
        return self.terms.items()

    def __add__(self, other):
        _check_same_algebra(self.algebra, other.algebra)
        out = dict(self.terms)
        for mono, c in other.terms.items():
            total = out.get(mono, QC()) + c
            if total:
                out[mono] = total
            else:
                out.pop(mono, None)
        return PbwPolynomial(self.algebra, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return PbwPolynomial(self.algebra, {m: -c for m, c in self.terms.items()})

    def scaled(self, scalar) -> "PbwPolynomial":
        scalar = as_qc(scalar)
        if not scalar:
            return PbwPolynomial(self.algebra, {})
        return PbwPolynomial(self.algebra, {m: scalar * c for m, c in self.terms.items()})

    __rmul__ = scaled

    def __mul__(self, other):
        if not isinstance(other, PbwPolynomial):
            return self.scaled(other)
        _check_same_algebra(self.algebra, other.algebra)
        (dp, xs), (dq, ys) = _over_common_denominator(self.items()), _over_common_denominator(other.items())
        terms = (
            (m1.word + m2.word, a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, m1.hbar_power + m2.hbar_power)
            for m1, a1, b1 in xs
            for m2, a2, b2 in ys
        )
        return PbwPolynomial(self.algebra, _accumulate(self.algebra, terms, dp * dq))

    def __eq__(self, other):
        if not isinstance(other, PbwPolynomial):
            return NotImplemented
        return _same_algebra(self.algebra, other.algebra) and self.terms == other.terms

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


def _same_algebra(a: LieAlgebra, b: LieAlgebra) -> bool:
    """Whether a and b are one algebra: same name, generators and resolved structure constants."""
    return a is b or (
        a.name == b.name
        and a.names() == b.names()
        and a.constants.denominator == b.constants.denominator
        and a.constants.integer_terms == b.constants.integer_terms
    )


def _check_same_algebra(a: LieAlgebra, b: LieAlgebra):
    if not _same_algebra(a, b):
        what = f"two algebras named {a.name!r}" if a.name == b.name else f"{a.name!r} and {b.name!r}"
        raise AlgebraError(f"cannot combine polynomials over {what}")


def word_poly(alg: LieAlgebra, names, coeff=1, hbar_power=0) -> PbwPolynomial:
    """Polynomial from one product of generators given by name, in any order."""
    return normal_order(alg, [(names, coeff, hbar_power)])


def generator_poly(alg: LieAlgebra, name: str) -> PbwPolynomial:
    return word_poly(alg, (name,))


def normal_order(alg: LieAlgebra, p) -> PbwPolynomial:
    """Normal order a polynomial given in any order.

    `p` may be a PbwPolynomial (idempotent), or an iterable of raw terms
    (generator-name sequence, coeff[, hbar_power]).
    """
    if isinstance(p, PbwPolynomial):
        raw = [(m.word, c, m.hbar_power) for m, c in p.items()]
    else:
        raw = [(tuple(alg.index(n) for n in t[0]), t[1], t[2] if len(t) > 2 else 0) for t in p]
    bad = [h for _, _, h in raw if isinstance(h, bool) or not isinstance(h, numbers.Integral) or h < 0]
    if bad:
        raise ValueError(f"hbar powers must be nonnegative integers, got {bad[0]!r}")
    raw = [((w, int(h)), as_qc(c)) for w, c, h in raw]
    den, terms = _over_common_denominator(raw)
    return PbwPolynomial(alg, _accumulate(alg, ((w, a, b, h) for (w, h), a, b in terms), den))


def commutator_uea(alg: LieAlgebra, p: PbwPolynomial, q: PbwPolynomial) -> PbwPolynomial:
    """Normal-ordered p*q - q*p in `alg`, exact, by the Leibniz rule on the letters of each word pair.

    p and q must be polynomials over `alg` (or an algebra with the same name,
    generators and structure constants).
    """
    _check_same_algebra(alg, p.algebra)
    _check_same_algebra(alg, q.algebra)
    table = alg.constants.integer_terms
    (dp, xs), (dq, ys) = _over_common_denominator(p.items()), _over_common_denominator(q.items())
    terms = []
    for m1, a1, b1 in xs:
        u = m1.word
        for m2, a2, b2 in ys:
            v, h = m2.word, m1.hbar_power + m2.hbar_power + 1
            a, b = a1 * a2 - b1 * b2, a1 * b2 + b1 * a2
            for i, x in enumerate(u):
                for j, y in enumerate(v):
                    # [G_x, G_y] = i hbar sum_k (F/D) G_k, and i F (a + i b) = -F b + i F a
                    for k, f in table.get((x, y), ()):
                        terms.append((u[:i] + v[:j] + (k,) + v[j + 1:] + u[i + 1:], -f * b, f * a, h))
    return PbwPolynomial(alg, _accumulate(alg, terms, dp * dq * alg.constants.denominator))


@dataclass
class CasimirCandidate:
    name: str
    polynomial: PbwPolynomial
    algebra: str


def spin_tensor(alg: LieAlgebra, i: int, j: int) -> PbwPolynomial:
    """The degree-2 enveloping element T_ij = M J_ij - K_i P_j + P_i K_j."""
    return normal_order(
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
    for i, j in J_PAIRS:
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
        extra = normal_order(
            alg,
            [(("M", "H"), 2), (("P1", "P1"), -1), (("P2", "P2"), -1), (("P3", "P3"), -1)],
        )
        out.append(CasimirCandidate("2MH-P.P", extra, alg.name))
    return out


def check_central(alg: LieAlgebra, candidate: CasimirCandidate) -> VerificationReport:
    """Pass iff the candidate commutes exactly with every generator of `alg`."""
    report = VerificationReport()
    for gen in alg.generators:
        rem = commutator_uea(alg, candidate.polynomial, generator_poly(alg, gen.name))
        report.add(
            f"commutes_with_{gen.name}",
            rem.is_zero,
            metrics={"remainder_terms": [] if rem.is_zero else rem.pretty().split(" + ")[:8]},
        )
    return report
