"""Exact rational pitch arithmetic and scale construction.

Every pitch factor in this package is a strictly positive rational number,
represented by :class:`fractions.Fraction` (aliased as ``Ratio``).  Fraction
already stores values in lowest terms and multiplies exactly with
arbitrary-precision integers, so cumulative products of scale keys never
drift and never overflow.  :func:`ratio_text` is the one writer of a
ratio as ``num/den`` text, and :func:`value_text` of a number in an
error message, both at any length; ``_shown`` is the one writer of a
token or name in a message, cut when long.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import Union

#: All pitch factors are exact rationals.
Ratio = Fraction

RatioLike = Union[Fraction, int, str]

#: Names usable in score files: letter or underscore, then letters, digits,
#: ``_``, ``-`` or ``.`` (anything else would not survive serialization).
IDENTIFIER_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_.\-]*\Z")


class InvalidRatioError(ValueError):
    """A ratio whose numerator or denominator is not a positive integer."""


def check_name(name: str, what: str = "name") -> str:
    """Return ``name`` if it is a legal identifier, else raise ValueError."""
    if not isinstance(name, str) or not IDENTIFIER_RE.match(name):
        raise ValueError(f"invalid {what}: {name!r}")
    return name


def ratio(numerator: int, denominator: int = 1) -> Fraction:
    """Build a pitch factor in lowest terms.

    Both arguments must be positive integers; zero and negative values are
    rejected because pitch factors are frequency multipliers.
    """
    if not isinstance(numerator, int) or not isinstance(denominator, int):
        raise InvalidRatioError(f"ratio parts must be integers, got "
                                f"{value_text(numerator)}/{value_text(denominator)}")
    if numerator < 1 or denominator < 1:
        raise InvalidRatioError(
            f"ratio must be positive: {value_text(numerator)}/{value_text(denominator)}")
    return Fraction(numerator, denominator)


def as_ratio(value: RatioLike) -> Fraction:
    """Coerce ints, strings like ``"3/2"``, or Fractions to a valid ratio."""
    try:
        f = Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidRatioError(f"not a ratio: {value_text(value)}") from exc
    if f <= 0:
        raise InvalidRatioError(f"ratio must be positive: {value_text(value)}")
    return f


def ratio_text(r: Fraction) -> str:
    """``r`` as ``num/den`` in lowest terms (``2/1`` for a whole number).

    ``str`` refuses an int longer than the interpreter's int-to-string
    digit limit (``sys.set_int_max_str_digits``); only then are the parts
    written through :class:`decimal.Decimal`, which has no such limit.
    """
    try:
        return f"{r.numerator}/{r.denominator}"
    except ValueError:
        return f"{Decimal(r.numerator)}/{Decimal(r.denominator)}"


def value_text(value) -> str:
    """``repr(value)``, with an int or Fraction beyond the int-to-string
    digit limit written through :func:`ratio_text`, which has none."""
    try:
        return repr(value)
    except ValueError:
        num, den = ratio_text(Fraction(value)).split("/")
        return num if isinstance(value, int) else f"Fraction({num}, {den})"


def _shown(token: object, quote: bool = True) -> str:
    """How a message shows ``token``, as the repr of its text when
    ``quote``: whole up to 40 characters, else its first 20, ``…`` and its
    length, so that a message about any token or name stays one short line."""
    text = str(token)
    shown = (repr if quote else str)(text if len(text) <= 40 else text[:20] + "…")
    return shown if len(text) <= 40 else f"{shown} ({len(text)} characters)"


def octave_normalize(r: RatioLike) -> Fraction:
    """Scale ``r`` by a power of two into the octave ``[1, 2)``."""
    f = as_ratio(r)
    while f >= 2:
        f /= 2
    while f < 1:
        f *= 2
    return f


def cents(r: RatioLike) -> float:
    """Logarithmic size of the interval ``r``: 1200 * log2(num/den)."""
    f = as_ratio(r)
    return 1200.0 * (math.log2(f.numerator) - math.log2(f.denominator))


@dataclass(frozen=True)
class Scale:
    """A named, ordered collection of pitch factors.

    ``keys``, any iterable of ratio-likes, need not be sorted or in one octave;
    they must hold at least one key and no duplicates (as reduced rationals).
    """

    name: str
    keys: tuple[Fraction, ...]

    def __post_init__(self):
        check_name(self.name, "scale name")
        object.__setattr__(self, "keys", tuple(as_ratio(k) for k in self.keys))
        if not self.keys:
            raise ValueError(f"scale {self.name!r} needs at least one key")
        if len(set(self.keys)) != len(self.keys):
            raise ValueError(f"scale {self.name!r} has duplicate keys")

    def __len__(self) -> int:
        return len(self.keys)

    def __getitem__(self, key_index: int) -> Fraction:
        return self.keys[key_index]


def builtin_scales() -> tuple[Scale, ...]:
    """Scales shipped with the package, in listing order."""
    return _BUILTIN


def builtin_scale(name: str) -> Scale:
    """Look up one built-in scale by name (KeyError if unknown)."""
    return _BUILTIN_BY_NAME[name]


_BUILTIN = (
    Scale("just-major-7", ("1/1", "9/8", "5/4", "4/3", "3/2", "5/3", "15/8", "2/1")),
    Scale("major-triad", ("1/1", "5/4", "3/2")),
    Scale("minor-triad", ("1/1", "6/5", "3/2")),
    # Published form of the major sequence, kept verbatim: it carries 5/6
    # where the ascending scale has 5/3.
    Scale("paper-major", ("1/1", "9/8", "5/4", "4/3", "3/2", "5/6", "15/8", "2/1")),
)

_BUILTIN_BY_NAME = {s.name: s for s in _BUILTIN}
