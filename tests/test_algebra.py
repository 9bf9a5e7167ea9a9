"""Exact-layer tests: catalog tables, brackets, Jacobi, subalgebras.

Brackets of elements are taken in the enveloping algebra, where
[G_a, G_b] = i*hbar sum_c f^c_ab G_c carries its i*hbar explicitly.
"""

import copy
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hrsym import (
    AlgebraError,
    CATALOG_IDS,
    LieAlgebra,
    QC,
    StructureConstants,
    build_algebra,
    check_jacobi,
    commutator_uea,
    generator_poly,
    normal_order,
    subalgebra_check,
    word_poly,
)


def _bracket(alg, a, b):
    """[G_a, G_b] of two generators named a and b."""
    return commutator_uea(alg, generator_poly(alg, a), generator_poly(alg, b))


def _ihbar(alg, name, sign=1):
    """sign * i*hbar * G_name: i*hbar times a table entry."""
    return word_poly(alg, (name,), coeff=QC(0, sign), hbar_power=1)


class TestCatalog:
    def test_generator_counts(self):
        assert build_algebra("h3_naive").dim == 7
        assert build_algebra("h3").dim == 7
        assert build_algebra("so3").dim == 3
        assert build_algebra("hr3").dim == 10
        assert build_algebra("g3tilde").dim == 11

    def test_hr3_generator_names(self):
        names = build_algebra("hr3").names()
        assert names == ("J12", "J13", "J23", "K1", "K2", "K3", "P1", "P2", "P3", "M")

    def test_unknown_catalog_id(self):
        with pytest.raises(AlgebraError):
            build_algebra("e8")

    def test_boost_translation_brackets(self):
        hr3 = build_algebra("hr3")
        assert _bracket(hr3, "K1", "P1") == _ihbar(hr3, "M")
        assert _bracket(hr3, "K1", "P2").is_zero

    def test_rotation_acts_on_boosts(self):
        hr3 = build_algebra("hr3")
        assert _bracket(hr3, "J12", "K1") == _ihbar(hr3, "K2")
        assert _bracket(hr3, "J12", "K2") == _ihbar(hr3, "K1", -1)
        assert _bracket(hr3, "J12", "P3").is_zero

    def test_so3_signs_match_literal_expansion(self):
        # Oracle: expand d_jk J_ih + d_ih J_jk - d_ik J_jh - d_jh J_ik by hand.
        # (1,2),(2,3): only -d_jh J_ik = -J13 survives (j = h = 2).
        # (1,2),(1,3): only  d_ih J_jk = +J23 survives (i = h = 1).
        # (1,3),(2,3): only  d_jk J_ih = +J12 survives (j = k = 3).
        so3 = build_algebra("so3")
        assert _bracket(so3, "J12", "J23") == _ihbar(so3, "J13", -1)
        assert _bracket(so3, "J12", "J13") == _ihbar(so3, "J23")
        assert _bracket(so3, "J13", "J23") == _ihbar(so3, "J12")

    def test_time_generator_bracket(self):
        g3 = build_algebra("g3tilde")
        assert _bracket(g3, "K1", "H") == _ihbar(g3, "P1")
        assert _bracket(g3, "P1", "H").is_zero

    def test_naive_heisenberg_uses_position_and_identity(self):
        naive = build_algebra("h3_naive")
        assert _bracket(naive, "X1", "P1") == _ihbar(naive, "I")

    def test_mass_is_central(self):
        for name in ("hr3", "g3tilde"):
            alg = build_algebra(name)
            for gen in alg.generators:
                assert _bracket(alg, "M", gen.name).is_zero

    def test_hr3_equals_g3tilde_without_time_generator(self):
        hr3 = build_algebra("hr3")
        g3 = build_algebra("g3tilde")
        assert g3.names()[:-1] == hr3.names()
        shared = hr3.bracket_table()
        g3_table = g3.bracket_table()
        g3_shared = {k: v for k, v in g3_table.items() if "H" not in k and "H" not in v}
        assert g3_shared == shared


class TestJacobi:
    @pytest.mark.parametrize("name", CATALOG_IDS)
    def test_catalog_algebras_pass_exactly(self, name):
        report = check_jacobi(build_algebra(name))
        assert report.passed
        assert report["jacobi"].metrics["violation_count"] == 0

    def test_one_sided_corruption_is_caught_with_named_triple(self):
        hr3 = build_algebra("hr3")
        table = {pair: terms for pair, terms in hr3.constants.stored_items()}
        k1, p1, m = hr3.index("K1"), hr3.index("P1"), hr3.index("M")
        table[(k1, p1)] = ((m, Fraction(2)),)
        table[(p1, k1)] = ((m, Fraction(-1)),)
        corrupted = LieAlgebra("hr3_corrupted", hr3.names(), StructureConstants(table))
        report = check_jacobi(corrupted)
        assert not report.passed
        triples = [tuple(v["triple"]) for v in report["jacobi"].metrics["violations"]]
        # hand-derived witness: [[J12,K2],P1] + [[K2,P1],J12] + [[P1,J12],K2] = -M
        assert ("J12", "K2", "P1") in triples

    def test_consistent_sign_flip_still_breaks_jacobi(self):
        desc = build_algebra("hr3").to_descriptor()
        for entry in desc["brackets"]:
            if entry["a"] == "K1" and entry["b"] == "P1":
                entry["terms"][0]["num"] = -1
        assert not check_jacobi(build_algebra(desc)).passed

    def test_flipped_fractional_constant_pins_the_violation_list(self, rescaled_g3tilde_descriptor):
        # [J12, K1] = -21/10 K2 in the rescaled basis, negated
        desc = copy.deepcopy(rescaled_g3tilde_descriptor)
        for entry in desc["brackets"]:
            if (entry["a"], entry["b"]) == ("J12", "K1"):
                entry["terms"][0]["num"] = -entry["terms"][0]["num"]
        metrics = check_jacobi(build_algebra(desc))["jacobi"].metrics
        assert metrics["triples_checked"] == 11 ** 3
        assert metrics["violation_count"] == 30
        assert metrics["violations"] == [
            {"triple": ("J12", "J13", "K3"), "residual": {"K2": "7"}},
            {"triple": ("J12", "J23", "K1"), "residual": {"K3": "-6/5"}},
            {"triple": ("J12", "K1", "J23"), "residual": {"K3": "6/5"}},
            {"triple": ("J12", "K1", "P2"), "residual": {"M": "-9/25"}},
            {"triple": ("J12", "K1", "H"), "residual": {"P2": "10/3"}},
            {"triple": ("J12", "K3", "J13"), "residual": {"K2": "-7"}},
            {"triple": ("J12", "P2", "K1"), "residual": {"M": "9/25"}},
            {"triple": ("J12", "H", "K1"), "residual": {"P2": "-10/3"}},
            {"triple": ("J13", "J12", "K3"), "residual": {"K2": "-7"}},
            {"triple": ("J13", "J23", "K1"), "residual": {"K2": "21/5"}},
        ]

    def test_one_sided_corruption_sums_a_mixed_residual(self):
        # a stored orientation wins over its mirror, so (K1, P1) and (P1, K1)
        # disagree; the residuals keep their generator order
        hr3 = build_algebra("hr3")
        table = dict(hr3.constants.stored_items())
        k1, p1, m, j12 = (hr3.index(n) for n in ("K1", "P1", "M", "J12"))
        table[(p1, k1)] = ((m, Fraction(-1, 3)), (j12, Fraction(2)))
        report = check_jacobi(LieAlgebra("hr3_mixed", hr3.names(), StructureConstants(table)))
        metrics = report["jacobi"].metrics
        assert metrics["violation_count"] == 30
        assert metrics["violations"][:3] == [
            {"triple": ("J12", "K1", "P2"), "residual": {"J12": "2", "M": "2/3"}},
            {"triple": ("J12", "P2", "K1"), "residual": {"J12": "-2", "M": "-2/3"}},
            {"triple": ("J13", "K1", "P3"), "residual": {"J12": "2", "M": "2/3"}},
        ]


class TestSubalgebras:
    def test_heisenberg_inside_extended_galilei(self):
        g3 = build_algebra("g3tilde")
        rep = subalgebra_check(g3, ["K1", "K2", "K3", "P1", "P2", "P3", "M"])
        assert rep.passed

    def test_rotation_extended_heisenberg_inside(self):
        g3 = build_algebra("g3tilde")
        names = ["J12", "J13", "J23", "K1", "K2", "K3", "P1", "P2", "P3", "M"]
        assert subalgebra_check(g3, names).passed

    def test_boosts_with_time_generator_do_not_close(self):
        g3 = build_algebra("g3tilde")
        rep = subalgebra_check(g3, ["K1", "K2", "K3", "H"])
        assert not rep.passed
        escapes = rep["closure"].metrics["escapes"]
        assert any(e["escapes_to"].startswith("P") for e in escapes)

    def test_unknown_generator_raises(self):
        with pytest.raises(AlgebraError):
            subalgebra_check(build_algebra("hr3"), ["K1", "Z9"])


class TestDescriptors:
    def test_round_trip(self):
        hr3 = build_algebra("hr3")
        rebuilt = build_algebra(hr3.to_descriptor())
        assert rebuilt.names() == hr3.names()
        assert rebuilt.constants == hr3.constants

    def test_antisymmetry_violation_rejected(self):
        desc = {
            "name": "bad",
            "generators": ["A", "B", "C"],
            "brackets": [
                {"a": "A", "b": "B", "terms": [{"c": "C", "num": 2, "den": 1}]},
                {"a": "B", "b": "A", "terms": [{"c": "C", "num": -1, "den": 1}]},
            ],
        }
        with pytest.raises(AlgebraError, match="antisymmetry"):
            build_algebra(desc)

    def test_unknown_generator_in_bracket_rejected(self):
        desc = {
            "name": "bad",
            "generators": ["A", "B"],
            "brackets": [{"a": "A", "b": "Z", "terms": [{"c": "B", "num": 1, "den": 1}]}],
        }
        with pytest.raises(AlgebraError):
            build_algebra(desc)

    @pytest.mark.parametrize("field, value", [
        ("num", 0.5), ("num", "3"), ("num", True), ("den", 2.5), ("den", 0), ("den", -2), ("den", False),
    ])
    def test_non_integer_or_non_positive_constant_rejected(self, field, value):
        # num 0.5 truncated to 0 would drop [A, B] and leave an abelian algebra that passes Jacobi
        desc = _abc_descriptor(**{field: value})
        with pytest.raises(AlgebraError, match=f"{field}={value!r}"):
            build_algebra(desc)

    def test_generators_must_be_a_list_of_strings(self):
        for generators in ("ABC", ["A", "B", 3], ("A", "B", "C")):
            with pytest.raises(AlgebraError, match="generators must be a list of strings"):
                build_algebra({**_abc_descriptor(), "generators": generators})

    @pytest.mark.parametrize("name", [5, None, ["abc"]])
    def test_name_must_be_a_string(self, name):
        # a report would name its checks after it, e.g. jacobi:5
        with pytest.raises(AlgebraError, match="descriptor name must be a string"):
            build_algebra({**_abc_descriptor(), "name": name})

    def test_term_outside_the_generators_is_named_as_unknown(self):
        desc = _abc_descriptor()
        desc["brackets"][0]["terms"][0]["c"] = "Z"
        with pytest.raises(AlgebraError, match="unknown generator 'Z'"):
            build_algebra(desc)

    @pytest.mark.parametrize("key", ["name", "generators", "brackets"])
    def test_missing_key_rejected(self, key):
        desc = _abc_descriptor()
        del desc[key]
        with pytest.raises(AlgebraError, match=f"missing '{key}'"):
            build_algebra(desc)

    def test_repeated_term_rejected(self):
        desc = _abc_descriptor()
        desc["brackets"][0]["terms"].append({"c": "C", "num": 2})
        with pytest.raises(AlgebraError, match=r"bracket \(A, B\) is given twice or repeats a term"):
            build_algebra(desc)


def _abc_descriptor(**term):
    """A descriptor of [A, B] = i hbar (num/den) C, `term` overriding num and den."""
    return {"name": "abc", "generators": ["A", "B", "C"],
            "brackets": [{"a": "A", "b": "B", "terms": [{"c": "C", "num": 1, **term}]}]}


_coeff = st.builds(
    QC,
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 5)),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 5)),
)


def _element_strategy(alg):
    """Degree-1 polynomials: up to four generators with exact complex-rational coefficients."""
    names = st.sampled_from([g.name for g in alg.generators])
    return st.dictionaries(names, _coeff, min_size=0, max_size=4).map(
        lambda coeffs: normal_order(alg, [((name,), c) for name, c in coeffs.items()])
    )


class TestBracketProperties:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_antisymmetry_exact(self, data):
        alg = build_algebra("g3tilde")
        a = data.draw(_element_strategy(alg))
        b = data.draw(_element_strategy(alg))
        assert (commutator_uea(alg, a, b) + commutator_uea(alg, b, a)).is_zero

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), alpha=_coeff)
    def test_bilinearity_exact(self, data, alpha):
        alg = build_algebra("hr3")
        a = data.draw(_element_strategy(alg))
        b = data.draw(_element_strategy(alg))
        c = data.draw(_element_strategy(alg))
        lhs = commutator_uea(alg, a.scaled(alpha) + b, c)
        rhs = commutator_uea(alg, a, c).scaled(alpha) + commutator_uea(alg, b, c)
        assert lhs == rhs

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_self_bracket_vanishes(self, data):
        alg = build_algebra("hr3")
        a = data.draw(_element_strategy(alg))
        assert commutator_uea(alg, a, a).is_zero

    def test_element_outside_algebra_rejected(self):
        hr3 = build_algebra("hr3")
        g3 = build_algebra("g3tilde")
        with pytest.raises(AlgebraError):
            commutator_uea(hr3, generator_poly(g3, "H"), generator_poly(hr3, "K1"))
