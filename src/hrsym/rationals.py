"""Exact complex-rational arithmetic for the symbolic layer.

The bracket tables and the normal-ordering engine never touch floating
point: every coefficient is a QC, a complex number with Fraction real and
imaginary parts.  Centrality certificates are therefore exact identities,
not tolerance statements.
"""

from __future__ import annotations

from fractions import Fraction

_SCALARS = (int, Fraction)


class QC:
    """Complex number with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if isinstance(re, Fraction) else Fraction(re)
        self.im = im if isinstance(im, Fraction) else Fraction(im)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        if isinstance(other, QC):
            return self.re == other.re and self.im == other.im
        if isinstance(other, _SCALARS):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        return hash((self.re, self.im))

    def __add__(self, other):
        if not isinstance(other, (QC, *_SCALARS)):
            return NotImplemented
        other = as_qc(other)
        return QC(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return QC(-self.re, -self.im)

    def __sub__(self, other):
        if not isinstance(other, (QC, *_SCALARS)):
            return NotImplemented
        other = as_qc(other)
        return QC(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        if isinstance(other, _SCALARS):
            return QC(self.re * other, self.im * other)
        if not isinstance(other, QC):
            return NotImplemented
        return QC(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __repr__(self):
        if not self:
            return "0"
        parts = []
        if self.re:
            parts.append(_frac_str(self.re))
        if self.im:
            sign = "-" if self.im < 0 else ("+" if parts else "")
            mag = abs(self.im)
            parts.append(f"{sign}{'' if mag == 1 else _frac_str(mag)}i")
        return "".join(parts)


def _frac_str(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def as_qc(value) -> QC:
    """Coerce int, Fraction, or QC into a QC (floats are rejected)."""
    if isinstance(value, QC):
        return value
    if isinstance(value, _SCALARS):
        return QC(value)
    raise TypeError(f"cannot use {type(value).__name__} as an exact coefficient")
