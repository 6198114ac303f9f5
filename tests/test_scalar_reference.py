"""Differential test of ComplexRadical (one GaussianRational per positive
radicand) against FractionRadical (one Fraction per signed radicand, the
earlier representation kept in tests/fraction_radical.py as the reference).

Seeded random operation sequences run through both classes; after every step
the two must agree on the export and the representation, the float value
must be the bit-exact math.fsum of the reference's terms, and the
ComplexRadical must be in canonical form.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import I, random_complex_radical, random_fraction
from fraction_radical import FractionRadical
from su21coh.scalars import ComplexRadical, GaussianRational, prime_factors, square_free_split

MAX_TERMS = 6  # larger results are checked, then replaced by a fresh draw


def _bits(z: complex) -> tuple[str, str]:
    return z.real.hex(), z.imag.hex()


def _fsum_float(ref: FractionRadical) -> complex:
    """The correctly rounded sum of the reference's rounded terms."""
    terms = ref.items()
    return complex(
        math.fsum(float(c) * math.sqrt(d) for d, c in terms if d > 0),
        math.fsum(float(c) * math.sqrt(-d) for d, c in terms if d < 0),
    )


def _check(x: ComplexRadical, ref: FractionRadical):
    assert x.to_dict() == ref.to_dict()
    assert repr(x) == repr(ref)
    assert _bits(x.to_complex()) == _bits(_fsum_float(ref))
    rebuilt = ComplexRadical(dict(x.items()))
    assert rebuilt == x and hash(rebuilt) == hash(x)
    assert all(type(d) is int and d > 0 and square_free_split(d)[0] == 1 for d in x._terms)
    for c in x._terms.values():
        assert type(c) is GaussianRational and c
        assert all(type(v) is int for v in (c.re, c.im, c.den))
        assert c.den > 0 and math.gcd(c.re, c.im, c.den) == 1


def _draw(rng):
    x = random_complex_radical(rng, max_terms=2, bound=60)
    return x, FractionRadical(dict(x.items()))


def _rational(rng):
    return random_fraction(rng, bound=40) if rng.integers(2) else int(rng.integers(-40, 41))


def _inverse_is_cheap(x: ComplexRadical) -> bool:
    # rationalizing multiplies 2^m - 1 conjugates, m = distinct primes (and i)
    radicands = [d for d, _ in x.items()]
    gens = set().union(*(prime_factors(abs(d)) for d in radicands))
    return not x.is_zero() and len(gens) + any(d < 0 for d in radicands) <= 4


def _step(rng, pool):
    """Apply one random operation to pool members; return (new, reference)."""
    (a, ra), (b, rb) = (pool[int(i)] for i in rng.integers(len(pool), size=2))
    op = int(rng.integers(9))
    if op == 0:
        return a + b, ra + rb
    if op == 1:
        return a - b, ra - rb
    if op == 2:
        return a * b, ra * rb
    if op == 3:
        return -a, -ra
    if op == 4:
        return a.conj(), ra.conj()
    if op == 5:
        return a * I, FractionRadical.i_times(ra)
    if op == 6 and _inverse_is_cheap(a):
        return a.inverse(), ra.inverse()
    q = _rational(rng)
    if op == 7:
        root = abs(Fraction(q))
        return ComplexRadical.sqrt(root) * a, FractionRadical.sqrt(root) * ra
    return ComplexRadical.of(q) + a * q, FractionRadical.of(q) + ra * q


@pytest.mark.parametrize("seed", range(6))
def test_integer_numerators_match_the_fraction_reference(seed):
    rng = np.random.default_rng(seed)
    pool = [_draw(rng) for _ in range(4)]
    for x, ref in pool:
        _check(x, ref)
    for _ in range(250):
        x, ref = _step(rng, pool)
        _check(x, ref)
        pool[int(rng.integers(len(pool)))] = (
            (x, ref) if len(x.items()) <= MAX_TERMS else _draw(rng)
        )
