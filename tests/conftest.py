"""Shared fixtures."""

from fractions import Fraction

import pytest

from hrsym import build_algebra

# G'_a = s_a G_a is an isomorphism of g3tilde; its constants become
# f^c_ab s_a s_b / s_c, proper fractions such as -3/35 and 7/2.
_SCALE = {
    "K1": Fraction(3, 5), "K2": Fraction(-2, 7), "P1": Fraction(-2, 7),
    "P2": Fraction(3, 5), "P3": Fraction(5, 2), "M": Fraction(2), "H": Fraction(-5, 3),
}


@pytest.fixture(scope="session")
def rescaled_g3tilde_descriptor():
    """Descriptor of g3tilde in a rescaled basis, with fractional constants.

    Shared by every test in the session: copy it before changing it.
    """
    desc = build_algebra("g3tilde").to_descriptor()
    for entry in desc["brackets"]:
        for term in entry["terms"]:
            s = _SCALE.get(entry["a"], 1) * _SCALE.get(entry["b"], 1) / _SCALE.get(term["c"], Fraction(1))
            f = Fraction(term["num"], term["den"]) * s
            term["num"], term["den"] = f.numerator, f.denominator
    desc["name"] = "g3tilde_rescaled"
    return desc
