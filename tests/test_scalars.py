import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_complex_radical, random_radical
from su21coh.lie import LieGen, gen_matrix
from su21coh.polynomials import Monomial, PolyVector
from su21coh.scalars import (
    ComplexRadical,
    GaussianRational,
    NegativeRadicand,
    RadicalScalar,
    prime_factors,
    square_free_split,
)
from su21coh.sparse import LinComb

RS = RadicalScalar
CR = ComplexRadical
G = GaussianRational


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
    assert mixed.to_dict() == {"re": [[1, 1, 1], [3, 1, 1]], "im": []}


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


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: CR({4: Fraction(1)}), ValueError),  # not squarefree: would be != CR.of(2)
        (lambda: CR({2: 0.5}), TypeError),  # a float coefficient
        (lambda: CR({0: Fraction(3)}), ValueError),
        (lambda: CR({2.0: Fraction(1)}), TypeError),  # a non-integer radicand
        (lambda: CR({-12: 1}), ValueError),
        (lambda: CR.from_dict({"re": [[8, 1, 1]]}), ValueError),
        (lambda: CR.from_dict({"re": [[-2, 1, 1]]}), ValueError),  # not a real-part |d|
        (lambda: CR.from_dict({"im": [[0, 1, 1]]}), ValueError),
        (lambda: CR.from_dict({"re": [[2, 1, 0]]}), ValueError),
        (lambda: CR.from_dict({"re": [[2.7, 1, 1]]}), ValueError),  # was read as sqrt(2)
        (lambda: CR.from_dict({"im": [[2, 1.9, 1]]}), ValueError),  # was read as i*sqrt(2)
        (lambda: CR.from_dict({"re": [[2, 1, 1], [2, 3, 1]]}), ValueError),  # was 3*sqrt(2)
    ],
    ids=["sqrt4", "float-coeff", "radicand0", "float-radicand", "neg-non-squarefree",
         "dict-sqrt8", "dict-negative-re", "dict-zero-im", "dict-zero-den",
         "dict-float-radicand", "dict-float-numerator", "dict-repeated-radicand"],
)
def test_malformed_terms_are_refused(build, error):
    with pytest.raises(error, match="radicand|interpret|entry"):
        build()


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
    assert (CR.of(1) + CR.i_times(RS.sqrt(3))).conj() == CR.of(1) - CR.i_times(RS.sqrt(3))
    assert i.inverse() == -i
    with pytest.raises(ZeroDivisionError):
        CR().inverse()
    z = RS.sqrt(2) + CR.i_times(RS.one() + RS.sqrt(3))
    assert z * z.inverse() == CR.of(1)


def test_rational_values_hash_like_the_numbers_they_equal():
    for x, q in ((CR.of(2), 2), (CR(), 0), (CR.of(Fraction(1, 2)), Fraction(1, 2)),
                 (CR.of(Fraction(-7, 3)), Fraction(-7, 3))):
        assert x == q and hash(x) == hash(q)
        assert len({x, q}) == 1
    # a value with an irrational or imaginary part equals no rational number
    assert len({RS.sqrt(2), CR.i(), CR.of(1), 1}) == 3


def test_to_float():
    assert abs(RS.sqrt(2).to_complex() - 1.4142135623730951) < 1e-15
    assert RS.zero().to_complex() == 0.0
    # frozen from the exact value sqrt(6)/2
    assert abs(RS.sqrt(Fraction(3, 2)).to_complex() - 1.224744871391589) < 1e-12
    z = RS.sqrt(2) + CR.i_times(Fraction(1, 3))
    assert abs(z.to_complex() - complex(math.sqrt(2), 1 / 3)) < 1e-15


def test_float_bridge_depends_only_on_the_value():
    # one sum in both orders: equal values, so equal bits
    rng = np.random.default_rng(13)
    draws = [[CR({3: Fraction(-69, 32)}), CR({2: Fraction(95, 29)}), CR({13: Fraction(1, 2)})]]
    draws += [[random_complex_radical(rng, max_terms=1, bound=100) for _ in range(3)]
              for _ in range(300)]
    for terms in draws:
        forward, backward = sum(terms, CR()), sum(reversed(terms), CR())
        assert forward == backward and hash(forward) == hash(backward)
        z, w = forward.to_complex(), backward.to_complex()
        assert (z.real.hex(), z.imag.hex()) == (w.real.hex(), w.imag.hex())


def test_serialization_roundtrip():
    x = RS({6: Fraction(-1, 2), 1: Fraction(3, 7), 2: Fraction(5)})
    assert x.to_dict() == {"re": [[1, 3, 7], [2, 5, 1], [6, -1, 2]], "im": []}
    assert CR.from_dict(x.to_dict()) == x
    z = x + CR.i_times(RS.sqrt(5))
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
        fa, fb = a.to_complex(), b.to_complex()
        prod = (a * b).to_complex()
        tot = (a + b).to_complex()
        assert abs(prod - fa * fb) <= 1e-12 * max(1.0, abs(fa * fb))
        assert abs(tot - (fa + fb)) <= 1e-12 * max(1.0, abs(fa + fb))


def _nonzero_radical(rng):
    x = random_radical(rng, max_terms=2, bound=1000)
    return x if not x.is_zero() else RS.of(int(rng.integers(1, 10)))


def test_complex_mul_over_zero_part_patterns():
    # every zero/nonzero pattern of (ar, ai, br, bi) against the
    # four-product formula, plus the complex field laws
    rng = np.random.default_rng(7)
    for pattern in itertools.product((False, True), repeat=4):
        for _ in range(8):
            ar, ai, br, bi = (
                _nonzero_radical(rng) if nonzero else RS.zero() for nonzero in pattern
            )
            a, b = ar + CR.i_times(ai), br + CR.i_times(bi)
            assert a * b == (ar * br - ai * bi) + CR.i_times(ar * bi + ai * br)
            assert a * b == b * a
            c = random_complex_radical(rng)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            if not a.is_zero():
                assert a * a.inverse() == CR.of(1)


def test_signed_radicand_products():
    # a negative radicand -a stands for i*sqrt(a)
    i2, i3 = CR.i_times(RS.sqrt(2)), CR.i_times(RS.sqrt(3))
    assert i2 == CR({-2: Fraction(1)})
    assert i2 * i3 == -RS.sqrt(6)
    assert CR.i() * CR.i() == CR.of(-1)
    assert i2 * RS.sqrt(3) == CR.i_times(RS.sqrt(6))
    assert RS.sqrt(3) * i2 == CR({-6: Fraction(1)})
    assert i2 * i2 == CR.of(-2)
    assert CR({-6: Fraction(1)}) * CR({-3: Fraction(1)}) == CR({2: Fraction(-3)})
    assert CR({-2: Fraction(1)}) * RS.sqrt(2) == CR.i_times(2)


def test_inverse_of_mixed_values():
    x = RS.one() + CR.i_times(RS.sqrt(2)) + RS.sqrt(3)
    # the same inverse as the earlier norm route over separate real and
    # imaginary parts gave
    assert x.inverse() == CR({3: Fraction(1, 6), -2: Fraction(-1, 4), -6: Fraction(1, 12)})
    cases = [
        x,
        CR.i() + RS.sqrt(2) + CR.i_times(RS.sqrt(6)) + RS.sqrt(15),
        CR({-30: Fraction(1), 1: Fraction(2), 5: Fraction(-3, 4)}),
        CR({-1: Fraction(1), -2: Fraction(1), -3: Fraction(1)}),
    ]
    rng = np.random.default_rng(5)
    cases += [random_complex_radical(rng, bound=50) for _ in range(40)]
    for z in cases:
        if not z.is_zero():
            assert z * z.inverse() == CR.of(1)
            assert z.inverse().inverse() == z


def test_conj_flips_the_negative_radicands():
    z = CR({1: Fraction(2), -1: Fraction(3), 6: Fraction(7), -6: Fraction(-5, 2)})
    assert z.conj() == CR({1: Fraction(2), -1: Fraction(-3), 6: Fraction(7), -6: Fraction(5, 2)})
    rng = np.random.default_rng(9)
    for _ in range(100):
        a, b = random_complex_radical(rng), random_complex_radical(rng)
        assert (a * b).conj() == a.conj() * b.conj()
        assert (a + b).conj() == a.conj() + b.conj()
        assert all(d > 0 for d, _ in (a * a.conj()).items())
        assert abs(a.conj().to_complex() - a.to_complex().conjugate()) <= 1e-9 * (
            1 + abs(a.to_complex())
        )


def test_mixed_value_export_and_repr():
    z = CR(
        {3: Fraction(2), -6: Fraction(1, 2), 1: Fraction(3, 7), -2: Fraction(5), -1: Fraction(-1)}
    )
    assert z.to_dict() == {"re": [[1, 3, 7], [3, 2, 1]], "im": [[1, -1, 1], [2, 5, 1], [6, 1, 2]]}
    assert CR.from_dict(z.to_dict()) == z
    assert repr(z) == "(3/7 + 2*sqrt(3)) + i*(-1 + 5*sqrt(2) + 1/2*sqrt(6))"
    assert repr(CR({-6: Fraction(-1, 2)})) == "i*(-1/2*sqrt(6))"
    assert repr(RS.sqrt(2)) == "sqrt(2)" and repr(CR()) == "0"
    assert abs(z.to_complex() - complex(3 / 7 + 2 * math.sqrt(3),
                                        -1 + 5 * math.sqrt(2) + math.sqrt(6) / 2)) < 1e-12


def test_scalar_times_module_element_defers_to_the_module():
    # a type the field does not absorb gets its reflected method
    x1 = gen_matrix(LieGen.X1)
    assert CR.i() * x1 == x1 * CR.i()
    p = PolyVector({Monomial(1, 2, 0): RS.sqrt(2), Monomial(0, 0, 3): CR.of(3)})
    assert CR.i() * p == p * CR.i()
    assert CR.i() * p == PolyVector(
        {Monomial(1, 2, 0): CR.i_times(RS.sqrt(2)), Monomial(0, 0, 3): CR.i_times(3)}
    )
    with pytest.raises(TypeError):
        CR.i() + x1
    with pytest.raises(TypeError):
        CR.i() - x1
    with pytest.raises(TypeError):
        CR.of(1) * 1.5
    with pytest.raises(TypeError):
        1.5 * CR.of(1)
    assert CR.of(3) - 1 == CR.of(2) and Fraction(1, 2) * CR.of(4) == CR.of(2)


def test_missing_key_reads_a_zero_that_stays_zero():
    v = LinComb({"a": RS.sqrt(2)})
    z = v.get("b")
    assert z.is_zero() and z == 0
    assert (z + RS.sqrt(3)) * CR.i() + (-z) - RS.one() == CR.i_times(RS.sqrt(3)) - 1
    assert v.get("b").is_zero() and LinComb().get("a").is_zero()
    assert v.get("a") == RS.sqrt(2)


# ---------------------------------------------------------------------------
# GaussianRational, the scalar of the exact engine.
# ---------------------------------------------------------------------------


def _random_gaussian(rng, bound=30):
    return G(*(int(v) for v in rng.integers(-bound, bound + 1, size=2)),
             int(rng.integers(1, bound + 1)))


def test_gaussian_canonical_form():
    x = G(2, -4, -6)
    assert (x.re, x.im, x.den) == (-1, 2, 3)
    for zero in (G(), G(0, 0, 7), G(3, 0, 1) + G(-3, 0, 1)):
        assert (zero.re, zero.im, zero.den) == (0, 0, 1) and zero.is_zero() and not zero
    for bad in ((1, 2, 0), (1.0, 0, 1), (1, Fraction(1, 2), 1), (True, 0, 1)):
        with pytest.raises(ValueError):
            G(*bad)


def test_gaussian_field_operations_agree_with_complex_radical():
    rng = np.random.default_rng(11)
    for _ in range(500):
        a, b = _random_gaussian(rng), _random_gaussian(rng)
        for got, want in ((a + b, CR.of(a) + CR.of(b)), (a - b, CR.of(a) - CR.of(b)),
                          (a * b, CR.of(a) * CR.of(b)), (-a, -CR.of(a)),
                          (a.conj(), CR.of(a).conj())):
            assert type(got) is G
            assert got == want and CR.of(got).to_dict() == want.to_dict()
            assert math.gcd(got.re, got.im, got.den) == 1 and got.den > 0
        if a:
            assert a.inverse() == CR.of(a).inverse() and a * a.inverse() == 1
    with pytest.raises(ZeroDivisionError):
        G().inverse()


def test_gaussian_mixes_with_numbers_and_radicals():
    half_i = G(0, 1, 2)
    assert type(half_i + 1) is type(1 + half_i) is type(Fraction(1, 3) * half_i) is G
    assert 1 - half_i == G(2, -1, 2) and half_i - Fraction(1, 2) == G(-1, 1, 2)
    # a sum or product with a ComplexRadical is a ComplexRadical, on both sides
    for z in (half_i + RS.sqrt(2), RS.sqrt(2) + half_i, half_i * RS.sqrt(2),
              RS.sqrt(2) * half_i, half_i - RS.sqrt(2), RS.sqrt(2) - half_i):
        assert type(z) is CR
    assert half_i * RS.sqrt(2) == CR.i_times(RS.sqrt(Fraction(1, 2)))
    assert (half_i + RS.sqrt(2)) - RS.sqrt(2) == half_i
    with pytest.raises(TypeError):
        half_i * 1.5
    x1 = gen_matrix(LieGen.X1)
    assert half_i * x1 == x1 * half_i


def test_numbers_minus_a_radical():
    # int, Fraction and GaussianRational on the left of a ComplexRadical
    root2 = RS.sqrt(2)
    for n in (1, Fraction(1, 2), G(0, 1, 2)):
        diff = n - root2
        assert type(diff) is CR
        assert diff == CR.of(n) - root2 and diff + root2 == n
    assert 1 - RS.sqrt(2) == -(RS.sqrt(2) - 1)
    with pytest.raises(TypeError):
        1.5 - root2


def test_equal_values_hash_equal_across_the_number_types():
    for g, others in ((G(2), (2, Fraction(2), CR.of(2))), (G(), (0, CR())),
                      (G(-7, 0, 3), (Fraction(-7, 3), CR.of(Fraction(-7, 3)))),
                      (G(0, 1), (CR.i(),)), (G(3, -5, 4), (CR.of(Fraction(3, 4)) - CR.i_times(Fraction(5, 4)),))):
        for other in others:
            assert g == other and other == g and hash(g) == hash(other)
        assert len({g, *others}) == 1
    assert G(0, 1) != 1 and G(1, 1) != CR.of(1) and G(1) != RS.sqrt(2)
    assert len({G(0, 1), G(1), CR.i(), 1, RS.sqrt(2)}) == 3


def test_gaussian_embedding_repr_and_float():
    z = G(-3, 5, 7)
    assert G.of(CR.of(z)) == z and CR.of(G.of(CR.of(z))) == CR.of(z)
    assert G.of(Fraction(6, 4)) == G(3, 0, 2) and G.of(z) is z
    with pytest.raises(ValueError):
        G.of(RS.sqrt(2))
    with pytest.raises(TypeError):
        G.of(0.5)
    for x in (z, G(), G(4), G(0, -1), G(1, 0, 3), G(0, 2, 3)):
        assert repr(x) == repr(CR.of(x))
    assert z.to_complex() == complex(-3 / 7, 5 / 7)


def test_lincomb_reads_numbers_as_gaussian_rationals():
    v = LinComb({"a": 1, "b": Fraction(1, 2), "c": RS.sqrt(2), "d": 0})
    assert [type(v.get(key)) for key in "abcd"] == [G, G, CR, G]
    assert v.scaled(G(0, 1)).get("a") == G(0, 1) and len(v) == 3
    assert v.get("d").is_zero()
