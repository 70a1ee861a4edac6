import random

import pytest

from padiclds.polynomials import IntPolynomial, parse_poly
from padiclds.sequence import poly_sequence


class TestPolySequence:
    def test_examples(self):
        assert poly_sequence(parse_poly("x^3 + x"), 3) == [2, 10, 30]
        assert poly_sequence(parse_poly("x"), 4) == [1, 2, 3, 4]
        assert poly_sequence(parse_poly("x^3 - 2x"), 5) == [-1, 4, 21, 56, 115]

    def test_equals_horner(self):
        rng = random.Random(181)
        for d in range(13):
            for coeffs in (
                [rng.randint(-9, 9) for _ in range(d)] + [rng.choice([-3, -1, 1, 2])],
                [-abs(rng.randint(1, 50)) for _ in range(d + 1)],
            ):
                f = IntPolynomial(coeffs)
                assert f.degree == d
                for N in [*range(1, d + 4), 2000]:
                    assert poly_sequence(f, N) == [f(n) for n in range(1, N + 1)], (f, N)
        for N in (1, 2, 5):
            assert poly_sequence(IntPolynomial(), N) == [0] * N

    def test_requires_positive_length(self):
        with pytest.raises(ValueError):
            poly_sequence(parse_poly("x"), 0)

    def test_periodicity_mod_prime_powers(self):
        rng = random.Random(79)
        for p in (3, 5):
            for _ in range(40):
                f = IntPolynomial([rng.randint(-9, 9) for _ in range(rng.randint(1, 7))])
                for k in range(1, 5):
                    step = p**k
                    for n in (1, 2, 7, 19):
                        assert (f(n + step) - f(n)) % step == 0

    def test_classified_yes_values_distinct_mod_pk(self):
        f = parse_poly("x^3 + x")
        for k in range(1, 5):
            N = 3**k
            vals = [v % 3**k for v in poly_sequence(f, N)]
            assert len(set(vals)) == N


def linear_residues(a, b, p, K, N):
    """n*a + b mod p^K for n = 1..N: the --linear rule a*x + b, reduced."""
    return [v % p**K for v in poly_sequence(IntPolynomial((b, a)), N)]


class TestLinearSequence:
    def test_identity_stream(self):
        assert linear_residues(1, 0, 3, 4, 3) == [1, 2, 3]

    def test_wraparound(self):
        assert linear_residues(2, 1, 3, 2, 4) == [3, 5, 7, 0]  # 9 = 0 mod 9

    def test_non_unit_slope(self):
        assert linear_residues(3, 0, 3, 3, 3) == [3, 6, 9]


class TestLinearAsPolynomial:
    # the linear rule n*a + b is the polynomial a*x + b
    def test_integer_linear_kind(self):
        assert poly_sequence(IntPolynomial((1, 2)), 4) == [3, 5, 7, 9]

    @pytest.mark.parametrize("a,b", [(0, 5), (0, 0), (-3, 7), (-1, -4), (9, -2)])
    def test_integer_linear_values(self, a, b):
        f = IntPolynomial((b, a))
        for N in (1, 2, 3, 50):
            assert poly_sequence(f, N) == [n * a + b for n in range(1, N + 1)]
        with pytest.raises(ValueError, match="N must be >= 1"):
            poly_sequence(f, 0)
