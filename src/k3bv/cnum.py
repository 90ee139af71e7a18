"""Complex numbers with exact rational parts."""

from __future__ import annotations

from fractions import Fraction

from .errors import K3BVError
from .record import Record


class QC(Record):
    """re + i*im with Fraction components; division via the conjugate."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "re", Fraction(self.re))
        object.__setattr__(self, "im", Fraction(self.im))

    def __add__(self, other: "QC") -> "QC":
        return QC(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "QC") -> "QC":
        return QC(self.re - other.re, self.im - other.im)

    def __mul__(self, other: "QC") -> "QC":
        return QC(self.re * other.re - self.im * other.im,
                  self.re * other.im + self.im * other.re)

    def __truediv__(self, other: "QC") -> "QC":
        n = other.re * other.re + other.im * other.im
        if n == 0:
            raise K3BVError("division by zero complex rational")
        return QC((self.re * other.re + self.im * other.im) / n,
                  (self.im * other.re - self.re * other.im) / n)

    def __neg__(self) -> "QC":
        return QC(-self.re, -self.im)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def conjugate(self) -> "QC":
        return QC(self.re, -self.im)
