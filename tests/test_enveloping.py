"""Normal ordering, exact commutators, Casimir centrality certificates."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hrsym import (
    AlgebraError,
    Monomial,
    QC,
    build_algebra,
    casimir_candidates,
    check_central,
    commutator_uea,
    generator_poly,
    normal_order,
    spin_tensor,
    word_poly,
)
from hrsym.enveloping import CasimirCandidate


@pytest.fixture(scope="module")
def hr3():
    return build_algebra("hr3")


@pytest.fixture(scope="module")
def g3():
    return build_algebra("g3tilde")


class TestNormalOrder:
    def test_single_swap_creates_central_term(self, hr3):
        # oracle: one swap, P1 K1 = K1 P1 - [K1, P1] = K1 P1 - i hb M
        p = word_poly(hr3, ("P1", "K1"))
        expected = {
            Monomial((hr3.index("K1"), hr3.index("P1")), 0): QC(1),
            Monomial((hr3.index("M"),), 1): QC(0, -1),
        }
        assert p.terms == expected

    def test_already_normal_is_identity(self, hr3):
        p = word_poly(hr3, ("K1", "P1"))
        assert p.terms == {Monomial((hr3.index("K1"), hr3.index("P1")), 0): QC(1)}

    def test_rotation_swap_sign(self):
        # oracle: J23 J12 = J12 J23 - [J12, J23] and [J12, J23] = -i hb J13
        so3 = build_algebra("so3")
        p = word_poly(so3, ("J23", "J12"))
        expected = {
            Monomial((so3.index("J12"), so3.index("J23")), 0): QC(1),
            Monomial((so3.index("J13"),), 1): QC(0, 1),
        }
        assert p.terms == expected

    def test_idempotent(self, hr3):
        p = word_poly(hr3, ("P2", "K2", "M"), coeff=Fraction(3, 7))
        assert normal_order(hr3, p) == p

    def test_commuting_letters_pass_through(self, hr3):
        p = word_poly(hr3, ("M", "K1", "P2"))
        assert p.terms == {
            Monomial((hr3.index("K1"), hr3.index("P2"), hr3.index("M")), 0): QC(1)
        }

    def test_naive_catalog_orders_the_same_way(self):
        naive = build_algebra("h3_naive")
        p = word_poly(naive, ("P1", "X1"))
        expected = {
            Monomial((naive.index("X1"), naive.index("P1")), 0): QC(1),
            Monomial((naive.index("I"),), 1): QC(0, -1),
        }
        assert p.terms == expected

    def test_raw_term_iterable_input(self, hr3):
        p = normal_order(hr3, [(("P1", "K1"), 2), (("M",), QC(0, 2), 1)])
        expected = 2 * word_poly(hr3, ("P1", "K1")) + word_poly(
            hr3, ("M",), coeff=QC(0, 2), hbar_power=1
        )
        assert p == expected

    def test_negative_hbar_power_rejected(self, hr3):
        with pytest.raises(ValueError, match="hbar"):
            word_poly(hr3, ("K1",), hbar_power=-1)

    @pytest.mark.parametrize("power", [1.5, 1.0, True, "1"])
    def test_non_integer_hbar_power_rejected(self, hr3, power):
        # int() would read each of these as a power of hbar the caller never wrote
        with pytest.raises(ValueError, match="hbar powers must be nonnegative integers"):
            word_poly(hr3, ("K1",), hbar_power=power)

    def test_numpy_integer_hbar_power_accepted(self, hr3):
        assert word_poly(hr3, ("K1",), hbar_power=np.int64(2)) == word_poly(hr3, ("K1",), hbar_power=2)


_word = st.lists(st.integers(0, 10), min_size=0, max_size=4).map(tuple)
_small_coeff = st.builds(QC, st.integers(-4, 4), st.integers(-4, 4)).filter(bool)


class TestNormalOrderProperties:
    @settings(max_examples=50, deadline=None)
    @given(word=_word, coeff=_small_coeff)
    def test_idempotence_random_words(self, word, coeff):
        g3 = build_algebra("g3tilde")
        names = tuple(g3.generators[i].name for i in word)
        p = word_poly(g3, names, coeff=coeff)
        assert normal_order(g3, p) == p

    @settings(max_examples=50, deadline=None)
    @given(w1=_word, w2=_word)
    def test_product_homomorphism(self, w1, w2):
        # normal ordering the concatenated word equals the product of the
        # separately ordered factors
        g3 = build_algebra("g3tilde")
        names1 = tuple(g3.generators[i].name for i in w1)
        names2 = tuple(g3.generators[i].name for i in w2)
        joint = word_poly(g3, names1 + names2)
        assert word_poly(g3, names1) * word_poly(g3, names2) == joint

    @settings(max_examples=30, deadline=None)
    @given(w=_word)
    def test_self_commutator_vanishes(self, w):
        hr3 = build_algebra("hr3")
        names = tuple(hr3.generators[i].name for i in w if i < 10)
        p = word_poly(hr3, names)
        assert commutator_uea(hr3, p, p).is_zero


class TestCommutator:
    def test_boost_translation(self, hr3):
        rem = commutator_uea(hr3, generator_poly(hr3, "K1"), generator_poly(hr3, "P1"))
        assert rem.terms == {Monomial((hr3.index("M"),), 1): QC(0, 1)}

    def test_mass_commutes_with_quadratic(self, hr3):
        p = word_poly(hr3, ("K1", "P2"))
        assert commutator_uea(hr3, generator_poly(hr3, "M"), p).is_zero


class TestCasimirCandidates:
    def test_catalog_contents(self, hr3, g3):
        by_name = {c.name: c for c in casimir_candidates(hr3)}
        assert list(by_name) == ["M", "T.T/2"]
        assert by_name["M"].polynomial.degree == 1
        names_g3 = [c.name for c in casimir_candidates(g3)]
        assert names_g3 == ["M", "T.T/2", "2MH-P.P"]

    def test_unknown_algebra_rejected(self):
        with pytest.raises(AlgebraError):
            casimir_candidates("so3")

    def test_spin_tensor_is_degree_two_not_in_lie_algebra(self, hr3):
        for i, j in ((1, 2), (1, 3), (2, 3)):
            assert spin_tensor(hr3, i, j).degree == 2

    def test_spin_tensor_square_is_degree_four(self, g3):
        tt = [c for c in casimir_candidates(g3) if c.name == "T.T/2"][0]
        assert tt.polynomial.degree == 4

    def test_free_generator_casimir_expands_as_stated(self, g3):
        cand = [c for c in casimir_candidates(g3) if c.name == "2MH-P.P"][0]
        expected = (
            2 * word_poly(g3, ("M", "H"))
            - word_poly(g3, ("P1", "P1"))
            - word_poly(g3, ("P2", "P2"))
            - word_poly(g3, ("P3", "P3"))
        )
        assert cand.polynomial == expected


class TestCentrality:
    @pytest.mark.parametrize("alg_name", ["hr3", "g3tilde"])
    def test_all_catalog_candidates_exactly_central(self, alg_name):
        alg = build_algebra(alg_name)
        for cand in casimir_candidates(alg):
            report = check_central(alg, cand)
            assert report.passed, f"{cand.name} not central in {alg_name}"

    def test_time_generator_not_central(self, g3):
        cand = CasimirCandidate("H", generator_poly(g3, "H"), "g3tilde")
        report = check_central(g3, cand)
        assert not report.passed
        rem = commutator_uea(g3, generator_poly(g3, "H"), generator_poly(g3, "K1"))
        assert rem.terms == {Monomial((g3.index("P1"),), 1): QC(0, -1)}

    def test_boost_square_not_central(self, hr3):
        cand = CasimirCandidate("K1K1", word_poly(hr3, ("K1", "K1")), "hr3")
        report = check_central(hr3, cand)
        assert not report.passed
        assert not report["commutes_with_P1"].passed

    def test_certificate_covers_every_generator(self, hr3):
        cand = casimir_candidates(hr3)[1]
        cert = check_central(hr3, cand)
        assert cert.passed is True
        assert {c.name.removeprefix("commutes_with_") for c in cert.checks} == set(hr3.names())


_fraction = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 7))
_mixed_coeff = st.one_of(
    _fraction, st.builds(QC, st.just(0), _fraction), st.builds(QC, _fraction, _fraction)
)


@pytest.fixture(scope="module")
def differential_algebras(rescaled_g3tilde_descriptor):
    return [build_algebra("hr3"), build_algebra("g3tilde"), build_algebra(rescaled_g3tilde_descriptor)]


def _random_poly(alg, draw_terms):
    raw = [(tuple(alg.generators[i % alg.dim].name for i in w), c, h) for w, c, h in draw_terms]
    return normal_order(alg, raw)


_terms = st.lists(st.tuples(st.lists(st.integers(0, 10), max_size=3), _mixed_coeff, st.integers(0, 2)),
                  max_size=4)


class TestCommutatorDifferential:
    @settings(max_examples=60, deadline=None)
    @given(which=st.integers(0, 2), p_terms=_terms, q_terms=_terms)
    def test_commutator_equals_both_products(self, differential_algebras, which, p_terms, q_terms):
        # reference: normal order p*q and q*p separately and subtract
        alg = differential_algebras[which]
        p, q = _random_poly(alg, p_terms), _random_poly(alg, q_terms)
        assert commutator_uea(alg, p, q) == p * q - q * p

    def test_rescaled_algebra_keeps_the_casimirs_central(self, rescaled_g3tilde_descriptor):
        # M is still central, and [K1, H] = 7/2 i hb P1 comes out with its fraction
        alg = build_algebra(rescaled_g3tilde_descriptor)
        assert alg.constants.denominator > 1
        cand = CasimirCandidate("M", generator_poly(alg, "M"), alg.name)
        assert check_central(alg, cand).passed
        rem = commutator_uea(alg, generator_poly(alg, "K1"), generator_poly(alg, "H"))
        assert rem.terms == {Monomial((alg.index("P1"),), 1): QC(0, Fraction(7, 2))}


def _twin(f: int):
    """Three generators with [X, Y] = i hb f Z, all under one name."""
    return build_algebra({
        "name": "twin",
        "generators": ["X", "Y", "Z"],
        "brackets": [{"a": "X", "b": "Y", "terms": [{"c": "Z", "num": f, "den": 1}]}],
    })


class TestTwinAlgebras:
    """Two algebras that share a name but not their constants are different algebras."""

    def test_polynomials_refuse_to_combine(self):
        one, two = _twin(1), _twin(2)
        x1, y2 = generator_poly(one, "X"), generator_poly(two, "Y")
        for combine in (lambda: x1 + y2, lambda: x1 - y2, lambda: x1 * y2, lambda: commutator_uea(one, x1, y2)):
            with pytest.raises(AlgebraError, match="twin"):
                combine()

    def test_polynomials_compare_unequal(self):
        one, two = _twin(1), _twin(2)
        assert generator_poly(one, "X") != generator_poly(two, "X")
        # the same constants built twice are the same algebra
        assert generator_poly(one, "X") == generator_poly(_twin(1), "X")
        assert generator_poly(one, "X") + generator_poly(_twin(1), "Y") == normal_order(one, [(("X",), 1), (("Y",), 1)])

    def test_commutator_brackets_in_the_given_algebra(self):
        one, two = _twin(1), _twin(2)
        z = two.index("Z")
        rem = commutator_uea(two, generator_poly(two, "X"), generator_poly(two, "Y"))
        assert rem.terms == {Monomial((z,), 1): QC(0, 2)}
        # polynomials over another algebra of the same name are refused, not bracketed in theirs
        with pytest.raises(AlgebraError, match="twin"):
            commutator_uea(one, generator_poly(two, "X"), generator_poly(two, "Y"))
        twin_one = _twin(1)
        rem = commutator_uea(twin_one, generator_poly(one, "X"), generator_poly(one, "Y"))
        assert rem.terms == {Monomial((z,), 1): QC(0, 1)} and rem.algebra is twin_one


class TestPerInstanceMemo:
    def test_algebras_sharing_a_name_keep_their_own_normal_forms(self):
        one, two = _twin(1), _twin(2)
        x, y, z = 0, 1, 2
        for alg, f in ((one, 1), (two, 2), (one, 1), (two, 2)):
            # Y Y X = X Y Y - 2 i hb f Y Z, Z central
            p = normal_order(alg, [(("Y", "Y", "X"), 1)])
            assert p.terms == {Monomial((x, y, y), 0): QC(1), Monomial((y, z), 1): QC(0, -2 * f)}
            rep = check_central(alg, CasimirCandidate("X", generator_poly(alg, "X"), "twin"))
            assert rep["commutes_with_Y"].metrics["remainder_terms"] == [f"({QC(0, f)})*hb*Z"]
            assert rep["commutes_with_X"].passed and rep["commutes_with_Z"].passed

    def test_a_dropped_algebra_leaves_no_module_state(self):
        import gc
        import weakref

        from hrsym import algebra, enveloping, rationals

        def snapshot():
            return {
                (mod.__name__, key): (id(val), len(val) if isinstance(val, (dict, list, set, tuple)) else None)
                for mod in (algebra, enveloping, rationals)
                for key, val in vars(mod).items()
            }

        before = snapshot()
        alg = _twin(3)
        check_central(alg, CasimirCandidate("X", word_poly(alg, ("Y", "X", "Y")), "twin"))
        ref = weakref.ref(alg)
        del alg
        gc.collect()
        assert ref() is None
        assert snapshot() == before
