"""Exact slopes: rationals in lowest terms plus a single infinite value.

The infinite slope is represented as 1/0 and compares strictly larger
than every rational, matching the ordering of semistable subcategories.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .records import Record, setfield


def ascii_int(text: str) -> int:
    """int(text) for ASCII text; ValueError otherwise.  int() alone also
    reads the decimal digits of other scripts, such as '٣' as 3."""
    if not text.isascii():
        raise ValueError(f"invalid integer {text!r}: only ASCII digits are accepted")
    return int(text)


class Slope(Record):
    """num/den in lowest terms with den > 0, or the infinite slope 1/0.

    The constructor normalises: Slope(2, -4) is Slope(-1, 2), and every
    Slope(k, 0) is the infinite slope."""

    __slots__ = ("num", "den")
    num: int
    den: int

    def __init__(self, num: int, den: int) -> None:
        if den == 0:
            num = 1
        else:
            if den < 0:
                num, den = -num, -den
            g = gcd(num, den)
            if g > 1:
                num //= g
                den //= g
        setfield(self, "num", num)
        setfield(self, "den", den)

    @staticmethod
    def infinity() -> "Slope":
        return Slope(1, 0)

    @staticmethod
    def from_int(m: int) -> "Slope":
        return Slope(m, 1)

    @staticmethod
    def parse(text: str) -> "Slope":
        """Accepts `inf`, an integer, or `a/b` in any (nonzero) denominator,
        in ASCII digits."""
        s = text.strip()
        if s == "inf":
            return Slope.infinity()
        if "/" in s:
            a, b = s.split("/", 1)
            den = ascii_int(b)
            if den == 0:
                raise ValueError("zero denominator; use 'inf' for the infinite slope")
            return Slope(ascii_int(a), den)
        return Slope(ascii_int(s), 1)

    @property
    def is_infinite(self) -> bool:
        return self.den == 0

    def fraction(self) -> Fraction:
        if self.is_infinite:
            raise ValueError("infinite slope has no rational value")
        return Fraction(self.num, self.den)

    def floor(self) -> int:
        if self.is_infinite:
            raise ValueError("infinite slope has no floor")
        return self.num // self.den

    def frac(self) -> tuple[int, int]:
        """Return (a, b) with slope = floor + a/b and 0 <= a < b."""
        m = self.floor()
        return self.num - m * self.den, self.den

    def mediant(self, other: "Slope") -> "Slope":
        return Slope(self.num + other.num, self.den + other.den)

    # infinity is 1/0 and no denominator is negative, so one
    # cross-multiplication orders every pair, infinity above the rationals
    def __lt__(self, other: "Slope") -> bool:
        return self.num * other.den < other.num * self.den

    def __le__(self, other: "Slope") -> bool:
        return self.num * other.den <= other.num * self.den

    def __gt__(self, other: "Slope") -> bool:
        return self.num * other.den > other.num * self.den

    def __ge__(self, other: "Slope") -> bool:
        return self.num * other.den >= other.num * self.den

    def __str__(self) -> str:
        if self.is_infinite:
            return "inf"
        if self.den == 1:
            return str(self.num)
        return f"{self.num}/{self.den}"


INF = Slope.infinity()
ZERO = Slope(0, 1)
