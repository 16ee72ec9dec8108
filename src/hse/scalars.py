"""Exact rational scalars and their wire format.

Every coefficient stored in a ``MultiMap``, and every term coefficient of a
ring element (``rings.RElem``), is in one scalar form: a Python ``int`` when
the value is integral, otherwise a ``fractions.Fraction`` with denominator
> 1 (lowest terms, positive denominator).  Arithmetic never rounds either
way, and on the integral constants that dominate transferred structures and
twisted differentials it runs on ints, without a gcd per operation.  An int
and the integral Fraction of the same value compare, hash and print alike
(``str(Fraction(3)) == "3"``), so reports do not depend on the form.

A ``Fraction`` is a value at rest or one leaving a computation.  The
stored-key walk (``multimap.morphism_terms``) reads each map at the lcm of
its denominators and adds every term as an int at one common scale; a
rational is made only where a value leaves the walk, divided back once: a
violation's residual in a check, an output entry of a transfer kernel or a
composite.
"""

from __future__ import annotations

from fractions import Fraction


def canonical(c):
    """The stored form of c: the numerator of a Fraction whose denominator
    is 1; every other value (ints, non-integral Fractions, ring elements)
    passes through unchanged."""
    if type(c) is Fraction and c.denominator == 1:
        return c.numerator
    return c


def parse_scalar(text: str) -> int | Fraction:
    """Parse "p/q" or "p" into an exact rational in canonical form."""
    try:
        return canonical(Fraction(text.strip()))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational scalar: {text!r}") from exc


def format_scalar(value: int | Fraction) -> str:
    """Render as "p/q", or "p" when the denominator is 1."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def factorial_inverse(n: int) -> Fraction:
    """1/n! as an exact rational."""
    acc = 1
    for k in range(2, n + 1):
        acc *= k
    return Fraction(1, acc)
