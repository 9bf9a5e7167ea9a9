"""Lie algebras defined by exact structure constants.

Bracket tables store [G_a, G_b] = i*hbar * sum_c f^c_ab G_c with every f an
exact Fraction.  The unit i*hbar is carried implicitly so this module works
entirely in rational arithmetic; i*hbar is reattached when an algebra is
realized by matrices (see particle.py) or its elements are bracketed in the
enveloping algebra (enveloping.commutator_uea).

Catalog ids:

    h3_naive   X1..X3, P1..P3, I   with [X_i, P_j] = delta_ij I
    h3         K1..K3, P1..P3, M   with [K_i, P_j] = delta_ij M
    so3        J12, J13, J23       (antisymmetric-tensor components)
    hr3        so3 acting on h3: ten generators J, K, P, M
    g3tilde    hr3 plus H          with [K_i, H] = P_i

Rotation components are stored for i < j with J_ji = -J_ij, and the J-J
block is generated literally from the tensor-component bracket

    [J_ij, J_hk] = d_jk J_ih + d_ih J_jk - d_ik J_jh - d_jh J_ik

which fixes the sign convention [J12, J23] = -J13 (and, cyclically,
[J12, J13] = +J23, [J13, J23] = +J12).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product

from .report import VerificationReport

__all__ = [
    "AlgebraError",
    "CATALOG_IDS",
    "GeneratorId",
    "LieAlgebra",
    "StructureConstants",
    "build_algebra",
    "check_jacobi",
    "subalgebra_check",
]

CATALOG_IDS = ("h3_naive", "h3", "so3", "hr3", "g3tilde")

J_PAIRS = ((1, 2), (1, 3), (2, 3))  # the rotation components (i, j), i < j, in storage order
_J_NAMES = [f"J{i}{j}" for i, j in J_PAIRS]


class AlgebraError(ValueError):
    """Bad catalog id, malformed descriptor, unknown generator, or mismatched algebras."""


@dataclass(frozen=True)
class GeneratorId:
    name: str
    index: int


class StructureConstants:
    """Sparse table (i, j) -> ((k, f), ...) encoding [G_i, G_j] = i*hbar sum f G_k.

    Normally only one orientation of each pair is stored and the mirror is
    derived by antisymmetry.  Both orientations may be stored explicitly
    (e.g. to model a corrupted table); antisymmetry_violations() reports
    any mismatch.  `integer_terms` holds both orientations with every f
    written as F/D over the common `denominator` D.
    """

    def __init__(self, table):
        cleaned = {}
        for (i, j), terms in table.items():
            entries = tuple(sorted((int(k), Fraction(f)) for k, f in terms if Fraction(f)))
            if entries:
                cleaned[(int(i), int(j))] = entries
        self._table = cleaned
        both = dict(cleaned)
        for (i, j), entries in cleaned.items():
            both.setdefault((j, i), tuple((k, -f) for k, f in entries))
        d = self.denominator = math.lcm(*(f.denominator for entries in both.values() for _, f in entries))
        self.integer_terms = {
            pair: tuple((k, f.numerator * (d // f.denominator)) for k, f in entries)
            for pair, entries in both.items()
        }

    def terms(self, i: int, j: int) -> tuple:
        """Terms of [G_i, G_j]; a stored orientation wins, the mirror is negated."""
        return tuple((k, Fraction(f, self.denominator)) for k, f in self.integer_terms.get((i, j), ()))

    def stored_items(self):
        return self._table.items()

    def antisymmetry_violations(self) -> list:
        bad = []
        for (i, j), terms in self._table.items():
            if i == j:
                bad.append((i, j))
            elif (j, i) in self._table and i < j:
                mirror = tuple(sorted((k, -f) for k, f in self._table[(j, i)]))
                if mirror != terms:
                    bad.append((i, j))
        return bad

    def __eq__(self, other):
        if not isinstance(other, StructureConstants):
            return NotImplemented
        return self._table == other._table


class LieAlgebra:
    """Named generator basis plus an exact structure-constant table."""

    def __init__(self, name: str, generator_names, constants: StructureConstants):
        names = tuple(generator_names)
        if len(set(names)) != len(names):
            raise AlgebraError(f"duplicate generator names in {name!r}")
        self.name = name
        self.generators = tuple(GeneratorId(n, i) for i, n in enumerate(names))
        self.constants = constants
        self._index = {g.name: g.index for g in self.generators}
        # word -> normal form, filled by hrsym.enveloping for this instance only
        self._normal_forms = {}

    @property
    def dim(self) -> int:
        return len(self.generators)

    def names(self) -> tuple:
        return tuple(g.name for g in self.generators)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise AlgebraError(f"generator {name!r} not in algebra {self.name!r}") from None

    def bracket_table(self) -> dict:
        """Dense view {(name_a, name_b): {name_c: Fraction}} over stored pairs."""
        out = {}
        for (i, j), terms in self.constants.stored_items():
            a, b = self.generators[i].name, self.generators[j].name
            out[(a, b)] = {self.generators[k].name: f for k, f in terms}
        return out

    def to_descriptor(self) -> dict:
        brackets = []
        for (i, j), terms in sorted(self.constants.stored_items()):
            brackets.append(
                {
                    "a": self.generators[i].name,
                    "b": self.generators[j].name,
                    "terms": [
                        {"c": self.generators[k].name, "num": f.numerator, "den": f.denominator}
                        for k, f in terms
                    ],
                }
            )
        return {"name": self.name, "generators": list(self.names()), "brackets": brackets}


# ---------------------------------------------------------------------------
# catalog construction
# ---------------------------------------------------------------------------

def _jj_terms(p, q):
    # Literal expansion of the tensor-component rotation bracket for the
    # stored components p = (i, j), q = (h, k), both with i < j.
    (i, j), (h, k) = p, q
    raw = []
    if j == k:
        raw.append((1, i, h))
    if i == h:
        raw.append((1, j, k))
    if i == k:
        raw.append((-1, j, h))
    if j == h:
        raw.append((-1, i, k))
    acc = {}
    for sign, a, b in raw:
        if a == b:
            continue
        key, s = (f"J{a}{b}", sign) if a < b else (f"J{b}{a}", -sign)
        acc[key] = acc.get(key, 0) + s
    return {n: c for n, c in acc.items() if c}


def _jv_terms(p, k, prefix):
    # [J_ij, V_k] = d_ik V_j - d_jk V_i for any spatial vector V (K or P), with i < j.
    i, j = p
    return {f"{prefix}{j}": 1} if i == k else {f"{prefix}{i}": -1} if j == k else {}


def _from_names(name: str, names, brackets: dict) -> LieAlgebra:
    """The algebra over `names` with the stored brackets {(a, b): {c: f}}, all given by name.

    A generator outside `names` and a table that breaks antisymmetry are refused.
    """
    idx = {n: i for i, n in enumerate(names)}
    if unknown := [n for (a, b), terms in brackets.items() for n in (a, b, *terms) if n not in idx]:
        raise AlgebraError(f"bracket of {name!r} names unknown generator {unknown[0]!r}")
    constants = StructureConstants({
        (idx[a], idx[b]): tuple((idx[c], Fraction(f)) for c, f in terms.items()) for (a, b), terms in brackets.items()
    })
    if bad := constants.antisymmetry_violations():
        pairs = ", ".join(f"({names[i]}, {names[j]})" for i, j in bad)
        raise AlgebraError(f"{name!r} violates antisymmetry at {pairs}")
    return LieAlgebra(name, names, constants)


def _build_heisenberg(name: str, boost: str, central: str) -> LieAlgebra:
    names = [f"{boost}{i}" for i in (1, 2, 3)] + [f"P{i}" for i in (1, 2, 3)] + [central]
    return _from_names(name, names, {(f"{boost}{i}", f"P{i}"): {central: 1} for i in (1, 2, 3)})


def _jj_block() -> dict:
    """The J-J brackets for the stored orientations."""
    return {(f"J{p[0]}{p[1]}", f"J{q[0]}{q[1]}"): _jj_terms(p, q) for p, q in combinations(J_PAIRS, 2)}


_HR3_NAMES = _J_NAMES + [f"K{i}" for i in (1, 2, 3)] + [f"P{i}" for i in (1, 2, 3)] + ["M"]
_TIME_ROWS = {(f"K{i}", "H"): {f"P{i}": 1} for i in (1, 2, 3)}  # g3tilde's [K_i, H] = P_i


def _hr3_brackets() -> dict:
    """hr3's stored brackets by name: so3, J acting on the vectors K and P, and [K_i, P_i] = M."""
    brackets = _jj_block()
    for i, j in J_PAIRS:
        for k in (1, 2, 3):
            for prefix in ("K", "P"):
                brackets[(f"J{i}{j}", f"{prefix}{k}")] = _jv_terms((i, j), k, prefix)
    brackets.update({(f"K{i}", f"P{i}"): {"M": 1} for i in (1, 2, 3)})
    return brackets


_CATALOG_BUILDERS = {
    "h3_naive": lambda: _build_heisenberg("h3_naive", "X", "I"),
    "h3": lambda: _build_heisenberg("h3", "K", "M"),
    "so3": lambda: _from_names("so3", _J_NAMES, _jj_block()),
    "hr3": lambda: _from_names("hr3", _HR3_NAMES, _hr3_brackets()),
    "g3tilde": lambda: _from_names("g3tilde", _HR3_NAMES + ["H"], {**_hr3_brackets(), **_TIME_ROWS}),
}


def _constant(term) -> Fraction:
    """A term's num/den: integers, not a bool, a float or a string, and den positive."""
    num, den = term["num"], term.get("den", 1)
    if not all(isinstance(v, numbers.Integral) and not isinstance(v, bool) for v in (num, den)) or den <= 0:
        raise AlgebraError(f"term {term['c']!r} needs integer num and positive integer den, got {num=!r}, {den=!r}")
    return Fraction(int(num), int(den))


def _from_descriptor(desc: dict) -> LieAlgebra:
    """The algebra a descriptor writes, read strictly: nothing is coerced."""
    try:
        if not isinstance(desc["name"], str):
            raise AlgebraError(f"descriptor name must be a string, got {desc['name']!r}")
        names, brackets = desc["generators"], {}
        if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
            raise AlgebraError(f"descriptor generators must be a list of strings, got {names!r}")
        for entry in desc["brackets"]:
            pair, terms = (entry["a"], entry["b"]), [(t["c"], _constant(t)) for t in entry["terms"]]
            if pair in brackets or len(dict(terms)) < len(terms):
                raise AlgebraError(f"bracket ({pair[0]}, {pair[1]}) is given twice or repeats a term")
            brackets[pair] = dict(terms)
        return _from_names(desc["name"], names, brackets)
    except KeyError as exc:
        raise AlgebraError(f"malformed algebra descriptor: missing {exc}") from None
    except TypeError as exc:
        raise AlgebraError(f"malformed algebra descriptor: {exc}") from None


def build_algebra(spec) -> LieAlgebra:
    """Build a catalog algebra by id, or a custom one from a descriptor.

    `spec` may be a catalog id string, a descriptor dict, or an existing
    LieAlgebra (returned as is).
    """
    if isinstance(spec, LieAlgebra):
        return spec
    if isinstance(spec, dict):
        return _from_descriptor(spec)
    if isinstance(spec, str):
        if spec in _CATALOG_BUILDERS:
            return _CATALOG_BUILDERS[spec]()
        raise AlgebraError(f"unknown algebra catalog id {spec!r} (known: {', '.join(CATALOG_IDS)})")
    raise AlgebraError(f"cannot build an algebra from {type(spec).__name__}")


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def check_jacobi(alg: LieAlgebra) -> VerificationReport:
    """Evaluate [[G_a, G_b], G_c] + cyclic over every ordered generator triple.

    Exact, in integers over D^2 (f = F/D): each double bracket is computed
    once, only for pairs x, y with a nonzero bracket, and added to the
    cyclic sum of its rotation class, which all three rotations share.
    The report counts all n^3 ordered triples and lists any with a nonzero
    residual element in product order.
    """
    cons = alg.constants
    table, n = cons.integer_terms, alg.dim
    cyclic = {}
    for (x, y), inner in table.items():
        for z in range(n):
            # a rotation class (x, x, x) holds one triple, summed three times
            weight = 3 if x == y == z else 1
            acc = cyclic.setdefault(min((x, y, z), (y, z, x), (z, x, y)), {})
            for k, f in inner:
                for k2, f2 in table.get((k, z), ()):
                    acc[k2] = acc.get(k2, 0) + weight * f * f2
    failing = sorted(
        (t, key) for key, acc in cyclic.items() if any(acc.values())
        for t in {key, key[1:] + key[:1], key[2:] + key[:2]}
    )
    names, d2 = alg.names(), cons.denominator ** 2
    violations = [
        {
            "triple": tuple(names[i] for i in triple),
            "residual": {names[k]: str(Fraction(v, d2)) for k, v in sorted(cyclic[key].items()) if v},
        }
        for triple, key in failing[:10]
    ]
    report = VerificationReport()
    report.add(
        "jacobi",
        not violations,
        metrics={
            "triples_checked": n ** 3,
            "violation_count": len(failing),
            "violations": violations,
        },
    )
    return report


def subalgebra_check(alg: LieAlgebra, subset) -> VerificationReport:
    """Pass iff the bracket of every pair from `subset` stays in its span."""
    names = list(subset)
    indices = {alg.index(n) for n in names}
    escapes = []
    for i, j in product(sorted(indices), repeat=2):
        for k, f in alg.constants.terms(i, j):
            if f and k not in indices:
                escapes.append(
                    {
                        "pair": (alg.generators[i].name, alg.generators[j].name),
                        "escapes_to": alg.generators[k].name,
                    }
                )
    report = VerificationReport()
    report.add(
        "closure",
        not escapes,
        metrics={"subset": names, "escape_count": len(escapes), "escapes": escapes[:10]},
    )
    return report
