import random

import pytest

from padiclds.padic import PAdicApprox, digits_of
from padiclds.polynomials import IntPolynomial, parse_poly
from padiclds.sequence import SequenceSpec, linear_sequence, poly_sequence


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


class TestLinearSequence:
    def test_identity_stream(self):
        a = digits_of(1, 3, 4)
        b = digits_of(0, 3, 4)
        seq = linear_sequence(a, b, 3)
        assert [x.value for x in seq] == [1, 2, 3]

    def test_wraparound(self):
        a = digits_of(2, 3, 2)
        b = digits_of(1, 3, 2)
        seq = linear_sequence(a, b, 4)
        assert [x.value for x in seq] == [3, 5, 7, 0]  # 9 = 0 mod 9

    def test_non_unit_slope(self):
        a = digits_of(3, 3, 3)
        b = digits_of(0, 3, 3)
        seq = linear_sequence(a, b, 3)
        assert [x.value for x in seq] == [3, 6, 9]

    def test_precision_mismatch(self):
        with pytest.raises(ValueError, match="precision"):
            linear_sequence(digits_of(1, 3, 2), digits_of(0, 3, 3), 2)

    def test_prime_mismatch(self):
        with pytest.raises(ValueError, match="prime"):
            linear_sequence(digits_of(1, 3, 2), digits_of(0, 5, 2), 2)


class TestSequenceSpec:
    def test_polynomial_kind(self):
        spec = SequenceSpec.polynomial(parse_poly("x^2"), 3)
        assert spec.kind == "polynomial"
        assert spec.integer_values(4) == [1, 4, 9, 16]
        assert [v.value for v in spec.padic_values(3, K=2)] == [1, 4, 0]

    def test_integer_linear_kind(self):
        spec = SequenceSpec.linear(2, 1, 3)
        assert spec.is_integer_valued
        assert spec.integer_values(4) == [3, 5, 7, 9]

    @pytest.mark.parametrize("a,b", [(0, 5), (0, 0), (-3, 7), (-1, -4), (9, -2)])
    def test_integer_linear_values(self, a, b):
        spec = SequenceSpec.linear(a, b, 5)
        for N in (1, 2, 3, 50):
            assert spec.integer_values(N) == [n * a + b for n in range(1, N + 1)]
        with pytest.raises(ValueError, match="N must be >= 1"):
            spec.integer_values(0)

    def test_padic_linear_kind(self):
        spec = SequenceSpec.linear(digits_of(1, 3, 4), digits_of(0, 3, 4), 3)
        assert not spec.is_integer_valued
        with pytest.raises(ValueError):
            spec.integer_values(3)
        vals = spec.padic_values(3)
        assert [v.value for v in vals] == [1, 2, 3]
        with pytest.raises(ValueError, match="precision"):
            spec.padic_values(3, K=2)

    def test_mixed_parameter_kinds_rejected(self):
        with pytest.raises(ValueError):
            SequenceSpec.linear(digits_of(1, 3, 2), 0, 3)

    def test_padic_values_need_K_for_integer_specs(self):
        spec = SequenceSpec.polynomial(parse_poly("x"), 3)
        with pytest.raises(ValueError, match="K required"):
            spec.padic_values(3)
