import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_complex_radical, random_radical
from su21coh.scalars import (
    ComplexRadical,
    NegativeRadicand,
    RadicalScalar,
    prime_factors,
    square_free_split,
)

RS = RadicalScalar
CR = ComplexRadical


def test_square_free_split():
    assert square_free_split(1) == (1, 1)
    assert square_free_split(8) == (2, 2)
    assert square_free_split(36) == (6, 1)
    assert square_free_split(360) == (6, 10)
    with pytest.raises(ValueError):
        square_free_split(0)


def test_prime_factors():
    assert prime_factors(1) == []
    assert prime_factors(30) == [2, 3, 5]
    assert prime_factors(49) == [7]


def test_add_merges_like_radicands():
    assert RS.sqrt(2) + RS.sqrt(2) == RS({2: Fraction(2)})
    assert (RS.sqrt(2) + (-RS.sqrt(2))).is_zero()
    mixed = RS.one() + RS.sqrt(3)
    assert mixed.triples() == [[1, 1, 1], [3, 1, 1]]


def test_mul_reduces_to_squarefree():
    assert RS.sqrt(2) * RS.sqrt(6) == RS({3: Fraction(2)})
    assert RS.sqrt(3) * RS.sqrt(3) == RS.of(3)
    assert (RS.one() + RS.sqrt(2)) * (RS.one() - RS.sqrt(2)) == RS.of(-1)


def test_sqrt_rational():
    assert RS.sqrt(Fraction(4, 9)) == RS.of(Fraction(2, 3))
    assert RS.sqrt(8) == RS({2: Fraction(2)})
    assert RS.sqrt(Fraction(3, 2)) == RS({6: Fraction(1, 2)})
    assert RS.sqrt(0).is_zero()
    with pytest.raises(NegativeRadicand):
        RS.sqrt(Fraction(-1, 4))


def test_inverse_single_term():
    assert RS({2: Fraction(2)}).inverse() == RS({2: Fraction(1, 4)})


def test_inverse_by_conjugation():
    assert (RS.one() + RS.sqrt(2)).inverse() == RS.of(-1) + RS.sqrt(2)
    assert (RS.sqrt(2) + RS.sqrt(3)).inverse() == -RS.sqrt(2) + RS.sqrt(3)
    with pytest.raises(ZeroDivisionError):
        RS.zero().inverse()


def test_inverse_three_primes():
    x = RS.one() + RS.sqrt(2) + RS.sqrt(3) + RS.sqrt(30)
    assert x * x.inverse() == RS.one()


def test_complex_field_basics():
    i = CR.i()
    assert i * i == CR.of(-1)
    assert (CR.of(1) + CR(None, RS.sqrt(3))).conj() == CR.of(1) - CR(None, RS.sqrt(3))
    assert i.inverse() == -i
    with pytest.raises(ZeroDivisionError):
        CR().inverse()
    z = CR(RS.sqrt(2), RS.one() + RS.sqrt(3))
    assert z * z.inverse() == CR.of(1)


def test_to_float():
    assert abs(RS.sqrt(2).to_float() - 1.4142135623730951) < 1e-15
    assert RS.zero().to_float() == 0.0
    # frozen from the exact value sqrt(6)/2
    assert abs(RS.sqrt(Fraction(3, 2)).to_float() - 1.224744871391589) < 1e-12
    z = CR(RS.sqrt(2), RS.of(Fraction(1, 3)))
    assert abs(z.to_complex() - complex(math.sqrt(2), 1 / 3)) < 1e-15


def test_serialization_roundtrip():
    x = RS({6: Fraction(-1, 2), 1: Fraction(3, 7), 2: Fraction(5)})
    assert x.triples() == [[1, 3, 7], [2, 5, 1], [6, -1, 2]]
    assert RS.from_triples(x.triples()) == x
    z = CR(x, RS.sqrt(5))
    assert CR.from_dict(z.to_dict()) == z
    assert CR().to_dict() == {"re": [], "im": []}


@given(st.lists(st.tuples(st.sampled_from([1, 2, 3, 5, 6, 10]), st.fractions()), max_size=6))
@settings(max_examples=200, deadline=None)
def test_canonicalization_idempotent(pairs):
    value = RS.zero()
    for d, c in pairs:
        value = value + RS({d: c} if c else {})
    rebuilt = RS(dict(value.items()))
    assert rebuilt == value
    assert all(c != 0 for _, c in value.items())


@given(st.integers(1, 10**6), st.integers(1, 10**6))
@settings(max_examples=200, deadline=None)
def test_sqrt_squares_back(num, den):
    q = Fraction(num, den)
    root = RS.sqrt(q)
    assert root * root == RS.of(q)


def test_field_laws_randomized():
    rng = np.random.default_rng(42)
    for _ in range(300):
        a = random_radical(rng)
        b = random_radical(rng)
        c = random_radical(rng)
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        if not a.is_zero():
            assert a * a.inverse() == RS.one()


def test_to_float_homomorphism():
    rng = np.random.default_rng(11)
    for _ in range(200):
        a = random_radical(rng, bound=100)
        b = random_radical(rng, bound=100)
        fa, fb = a.to_float(), b.to_float()
        prod = (a * b).to_float()
        tot = (a + b).to_float()
        assert abs(prod - fa * fb) <= 1e-12 * max(1.0, abs(fa * fb))
        assert abs(tot - (fa + fb)) <= 1e-12 * max(1.0, abs(fa + fb))


def _nonzero_radical(rng):
    x = random_radical(rng, max_terms=2, bound=1000)
    return x if not x.is_zero() else RS.of(int(rng.integers(1, 10)))


def test_complex_mul_over_zero_part_patterns():
    # every zero/nonzero pattern of (a.re, a.im, b.re, b.im) against the
    # four-product formula, plus the complex field laws
    rng = np.random.default_rng(7)
    for pattern in itertools.product((False, True), repeat=4):
        for _ in range(8):
            ar, ai, br, bi = (
                _nonzero_radical(rng) if nonzero else RS.zero() for nonzero in pattern
            )
            a, b = CR(ar, ai), CR(br, bi)
            assert a * b == CR(ar * br - ai * bi, ar * bi + ai * br)
            assert a * b == b * a
            c = random_complex_radical(rng)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            if not a.is_zero():
                assert a * a.inverse() == CR.of(1)
