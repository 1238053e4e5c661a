"""Exact extended-real scalars and utility profiles.

Scalars are ``fractions.Fraction`` for finite values and ``float('inf')`` /
``float('-inf')`` for the two infinities.  Mixing the two representations is
safe for comparison (Python orders Fractions against float infinities
correctly); arithmetic on infinities only ever happens where the callers have
already checked finiteness.

A profile is a plain ``dict`` mapping stakeholder labels to scalars.  Every
scalar that `as_scalar` admits is canonical, and a Fraction never equals an
infinity, so ``==`` decides the exact equality of scalars and profiles.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import AbstractSet, Iterable, Mapping, Union

Scalar = Union[Fraction, float]
Profile = dict[str, Scalar]

INF: float = float("inf")
NEG_INF: float = float("-inf")


def is_finite(x: Scalar) -> bool:
    return isinstance(x, Fraction)


def as_scalar(x) -> Scalar:
    """Normalize ints/Fractions/infinities to the canonical scalar types."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise ValueError("booleans are not utility values")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        if x == INF or x == NEG_INF:
            return x
        # Floats carry binary rounding noise; require exact inputs.
        raise ValueError(f"finite values must be exact (Fraction/int/str), got float {x!r}")
    if isinstance(x, str):
        return parse_scalar(x)
    raise ValueError(f"cannot interpret {x!r} as an extended-real value")


MAX_DIGITS = 4300  # CPython's default limit on int ↔ str conversion
_TOO_LONG = 10**MAX_DIGITS  # the least integer with more than MAX_DIGITS digits
# an optional '-', then digits with an optional decimal fraction or a '/q' in digits
_NUMBER = re.compile(r"(-?)([0-9]+)(?:\.([0-9]+)|/([0-9]+))?")


def parse_scalar(text: str) -> Scalar:
    """Parse the file format's one number grammar exactly: 'inf', '-inf',
    an optional '-' then digits with an optional decimal fraction ('-0.25'),
    or 'p/q' in digits ('-19/45').  Nothing else is a number: no spaces,
    '+', exponents or underscores.  Each integer read, the digits of a
    decimal taken together, has at most MAX_DIGITS digits."""
    if text == "inf":
        return INF
    if text == "-inf":
        return NEG_INF
    m = _NUMBER.fullmatch(text)
    if m is None:
        raise ValueError(f"cannot parse number {_shown(text)}")
    sign, whole, fraction, den = m.groups()
    digits = whole + (fraction or "")
    if len(digits) > MAX_DIGITS or (den is not None and len(den) > MAX_DIGITS):
        raise ValueError(f"number {_shown(text)} has more than {MAX_DIGITS} digits")
    d = 10 ** len(fraction) if fraction else int(den) if den else 1
    if d == 0:
        raise ValueError(f"number {_shown(text)} has a zero denominator")
    n = int(digits)
    return Fraction(-n if sign else n, d)


def _over_long(x: Scalar) -> str | None:
    """The fact that x is over long, when it is a Fraction whose numerator
    or denominator has more than MAX_DIGITS digits, which no integer
    conversion to text takes; else None."""
    if isinstance(x, Fraction) and max(abs(x.numerator), x.denominator) >= _TOO_LONG:
        return f"a number with more than {MAX_DIGITS} digits"
    return None


def _stated(x: Fraction) -> str:
    """x as `str` writes it, or the fact that it is over long."""
    return _over_long(x) or str(x)


def _shown(text: str) -> str:
    """The text for an error message, cut short past 40 characters."""
    if len(text) <= 40:
        return repr(text)
    return f"{text[:20]!r}… ({len(text)} characters)"


def format_scalar(x: Scalar) -> str:
    """Canonical text form: 'inf', '-inf', integers, terminating decimals
    of at most MAX_DIGITS digits, and 'p/q' for everything else.
    ``parse_scalar`` round-trips exactly.  A number whose numerator or
    denominator has more than MAX_DIGITS digits has no such text, since
    ``parse_scalar`` could not read it back: it raises ValueError."""
    x = as_scalar(x)
    if not isinstance(x, Fraction):
        return "inf" if x > 0 else "-inf"
    if over_long := _over_long(x):
        raise ValueError(f"cannot write {over_long}")
    if x.denominator == 1:
        return str(x.numerator)
    terminating = _terminating_digits(x.denominator)
    if terminating is not None and abs(scaled := x.numerator * 10**terminating // x.denominator) < _TOO_LONG:
        sign = "-" if scaled < 0 else ""
        digits = str(abs(scaled)).rjust(terminating + 1, "0")
        return f"{sign}{digits[:-terminating]}.{digits[-terminating:]}"
    return f"{x.numerator}/{x.denominator}"


def _terminating_digits(den: int) -> int | None:
    """Number of decimal digits needed if 1/den terminates, else None."""
    twos = fives = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    return max(twos, fives) if den == 1 else None


_OVERLINE = "̅"  # combining overline, marks the repetend


def repeating_decimal(x: Scalar) -> str:
    """Exact decimal expansion with the repeating block overlined.

    5/9 renders as '.5̄' and 19/45 as '.42̄'; terminating fractions render
    plainly ('.55'); values with |x| < 1 drop the leading zero.  Raises
    ValueError once the expansion passes MAX_DIGITS digits after the point:
    the repetend of p/q can be q - 1 digits long.
    """
    x = as_scalar(x)
    if not isinstance(x, Fraction):
        return "inf" if x > 0 else "-inf"
    sign = "-" if x < 0 else ""
    n, d = abs(x.numerator), x.denominator
    int_part, rem = divmod(n, d)
    if rem == 0:
        return f"{sign}{int_part}"
    digits: list[str] = []
    seen: dict[int, int] = {}
    while rem and rem not in seen:
        if len(digits) == MAX_DIGITS:
            raise ValueError(f"the decimal expansion of {x} has more than {MAX_DIGITS} digits")
        seen[rem] = len(digits)
        rem *= 10
        digit, rem = divmod(rem, d)
        digits.append(str(digit))
    head = "" if int_part == 0 else str(int_part)
    if rem == 0:
        return f"{sign}{head}.{''.join(digits)}"
    start = seen[rem]
    plain = "".join(digits[:start])
    repetend = "".join(ch + _OVERLINE for ch in digits[start:])
    return f"{sign}{head}.{plain}{repetend}"


def render_scalar(x: Scalar) -> str:
    """Report form: exact rational plus decimal, e.g. '5/9 (= .5̄)'; the
    rational alone when the decimal expansion passes MAX_DIGITS digits, and
    the fact that x is over long when its numerator or denominator has more
    than MAX_DIGITS digits."""
    over_long = _over_long(x)
    if over_long:
        return over_long
    base = format_scalar(x)
    if isinstance(x, Fraction) and x.denominator != 1 and _terminating_digits(x.denominator) is None:
        try:
            return f"{base} (= {repeating_decimal(x)})"
        except ValueError:
            pass
    return base


def make_profile(values: Mapping[str, object], stakeholders: Iterable[str]) -> Profile:
    """Normalize a mapping to a profile over exactly the stakeholders (a set
    of stakeholders is used as given, not copied)."""
    prof = {str(k): as_scalar(v) for k, v in values.items()}
    return checked_profile(prof, stakeholders if isinstance(stakeholders, (set, frozenset)) else set(stakeholders))


def checked_profile(prof: Profile, stakeholders: AbstractSet[str]) -> Profile:
    """The profile itself, once its keys are exactly the stakeholders
    (else ValueError)."""
    if prof.keys() != stakeholders:
        missing = sorted(stakeholders - set(prof))
        extra = sorted(set(prof) - stakeholders)
        raise ValueError(f"profile domain mismatch: missing {missing}, unexpected {extra}")
    return prof


def profile_str(prof: Mapping[str, Scalar]) -> str:
    return "(" + ", ".join(f"{k}: {render_scalar(prof[k])}" for k in sorted(prof)) + ")"
