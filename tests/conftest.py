"""Shared random-object builders for the property suites.

Everything is driven by numpy Generators seeded in the tests, so failures
reproduce exactly.
"""

from fractions import Fraction

from su21coh.cochains import TensorElement
from su21coh.polynomials import monomial_basis
from su21coh.scalars import ComplexRadical, RadicalScalar
from su21coh.wigner import admissible_indices

# Squarefree radicands <= 50 (1 = rational part).
SQUAREFREE_POOL = [1, 2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 21, 22, 26, 30, 33, 35, 38, 42, 46]


def random_fraction(rng, bound=10**6) -> Fraction:
    num = int(rng.integers(-bound, bound + 1))
    den = int(rng.integers(1, bound + 1))
    return Fraction(num, den)


def random_radical(rng, max_terms=3, bound=10**6) -> RadicalScalar:
    n_terms = int(rng.integers(0, max_terms + 1))
    picks = rng.choice(len(SQUAREFREE_POOL), size=n_terms, replace=False)
    terms = {}
    for p in picks:
        terms[SQUAREFREE_POOL[int(p)]] = random_fraction(rng, bound)
    return RadicalScalar(terms)


def random_complex_radical(rng, max_terms=2, bound=1000) -> ComplexRadical:
    return ComplexRadical(
        random_radical(rng, max_terms, bound), random_radical(rng, max_terms, bound)
    )


def random_tensor(k: int, rng, j_max=Fraction(5, 2), max_terms=3) -> TensorElement:
    """A few admissible (index, degree-k monomial) terms with small Gaussian
    integer coefficients."""
    keys = [(idx, mono) for idx in admissible_indices(k, j_max) for mono in monomial_basis(k)]
    n_terms = int(rng.integers(1, max_terms + 1))
    picks = rng.choice(len(keys), size=min(n_terms, len(keys)), replace=False)
    return TensorElement(
        [
            (
                keys[int(p)],
                ComplexRadical(
                    Fraction(int(rng.integers(-5, 6))), Fraction(int(rng.integers(-5, 6)))
                ),
            )
            for p in picks
        ]
    )
