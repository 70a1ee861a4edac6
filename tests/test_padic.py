import random
from fractions import Fraction

import pytest

from padiclds.padic import (
    PRIME_BOUND,
    _is_prime,
    check_prime,
    digit_expansions,
    digit_reversals,
    monna_of_int,
    valuation,
)


def valuation_oracle(x: int, p: int) -> int:
    """Independent repeated-division count."""
    assert x != 0
    x = abs(x)
    m = 0
    while x % p == 0:
        x //= p
        m += 1
    return m


class TestValuation:
    @pytest.mark.parametrize("x,p,expected", [(18, 3, 2), (7, 3, 0), (243, 3, 5)])
    def test_examples(self, x, p, expected):
        assert valuation_oracle(x, p) == expected
        assert valuation(x, p) == expected

    def test_zero_is_an_error(self):
        with pytest.raises(ValueError, match="valuation of zero"):
            valuation(0, 3)

    def test_negative_and_random(self):
        rng = random.Random(7)
        for _ in range(300):
            p = rng.choice([2, 3, 5, 7, 11])
            x = rng.randint(1, 10**9) * rng.choice([-1, 1])
            assert valuation(x, p) == valuation_oracle(x, p)

    def test_rejects_composite_p(self):
        with pytest.raises(ValueError, match="prime"):
            valuation(10, 6)


def padic_norm(x: int, p: int) -> Fraction:
    """|x|_p = p^(-v_p(x)), with |0|_p = 0."""
    return Fraction(0) if x == 0 else Fraction(1, p ** valuation(x, p))


class TestAbsP:
    # the p-adic absolute value the ball levels of D_N are measured in
    @pytest.mark.parametrize(
        "x,p,expected",
        [(18, 3, Fraction(1, 9)), (0, 5, Fraction(0)), (10, 5, Fraction(1, 5))],
    )
    def test_examples(self, x, p, expected):
        assert padic_norm(x, p) == expected

    def test_ultrametric_exhaustive_small(self):
        # |x+y|_p <= max(|x|_p, |y|_p) over a full small grid
        for p in (2, 3, 5, 7):
            for x in range(-60, 61):
                for y in range(-60, 61):
                    assert padic_norm(x + y, p) <= max(padic_norm(x, p), padic_norm(y, p))

    def test_ultrametric_random_large(self):
        rng = random.Random(11)
        for _ in range(2000):
            p = rng.choice([2, 3, 5, 7])
            x = rng.randint(-1000, 1000)
            y = rng.randint(-1000, 1000)
            assert padic_norm(x + y, p) <= max(padic_norm(x, p), padic_norm(y, p))


class TestDigits:
    @pytest.mark.parametrize(
        "x,p,K,expected",
        [(7, 3, 3, (1, 2, 0)), (0, 5, 4, (0, 0, 0, 0)), (243, 3, 5, (0, 0, 0, 0, 0))],
    )
    def test_examples(self, x, p, K, expected):
        assert digit_expansions([x], p, K) == [expected]

    def test_reconstruction(self):
        rng = random.Random(3)
        for _ in range(200):
            p = rng.choice([2, 3, 5, 7])
            K = rng.randint(1, 12)
            x = rng.randint(0, p**K - 1)
            [d] = digit_expansions([x], p, K)
            assert sum(di * p**i for i, di in enumerate(d)) == x
            assert len(d) == K

    def test_congruence_iff_digit_prefix(self):
        rng = random.Random(5)
        for _ in range(300):
            p = rng.choice([3, 5])
            K = 8
            x = rng.randint(0, p**K - 1)
            y = rng.randint(0, p**K - 1)
            dx, dy = digit_expansions([x, y], p, K)
            for k in range(K + 1):
                same_mod = (x - y) % p**k == 0
                assert same_mod == (dx[:k] == dy[:k])
                # truncated digit-reversal images separate at the same depth
                tx = monna_of_int(x, p, k) if k else Fraction(0)
                ty = monna_of_int(y, p, k) if k else Fraction(0)
                assert same_mod == (abs(tx - ty) < Fraction(1, p**k))

    def test_rejects_bad_precision(self):
        with pytest.raises(ValueError):
            digit_expansions([1], 3, 0)

    @pytest.mark.parametrize("p", [2, 3, 7, 1048573])
    def test_expansions_equal_the_digits_of_each_residue(self, p):
        # negative values take the complement path
        rng = random.Random(p)
        for K in (1, 2, 5, 9):
            pk = p**K
            values = [rng.randint(-pk * p, pk * p) for _ in range(40)]
            values += [0, -1, -pk, pk - 1, -pk - 1]
            residues = [v % pk for v in values]
            assert digit_expansions(values, p, K) == digit_expansions(residues, p, K)

    def test_expansions_reject_bad_p_and_K(self):
        assert digit_expansions([], 3, 2) == []
        for p, K, message in ((4, 2, "p must be prime"), (3, 0, "precision K must be >= 1")):
            with pytest.raises(ValueError, match=message):
                digit_expansions([5, -5], p, K)


class TestMonna:
    @pytest.mark.parametrize(
        "p,digits,expected",
        [
            (3, (1, 2), Fraction(5, 9)),
            (5, (0, 0, 0), Fraction(0)),
            (3, (2,), Fraction(2, 3)),
        ],
    )
    def test_examples(self, p, digits, expected):
        x = sum(d * p**i for i, d in enumerate(digits))
        assert monna_of_int(x, p, len(digits)) == expected

    def test_injective_on_equal_length_vectors(self):
        for K in range(1, 6):
            images = [monna_of_int(x, 3, K) for x in range(3**K)]
            assert len(set(images)) == len(images)
            for img in images:
                assert 0 <= img < 1

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 1048573])
    def test_equals_reversed_digit_sum(self, p):
        # differential: the divmod numerator against sum d_i * p^(-i-1) over
        # the digit tuple of x mod p^K (negative x included), and K=None
        # against K = the number of base-p digits of x
        rng = random.Random(p)
        for _ in range(200):
            K = rng.randint(1, 8)
            bound = p ** rng.randint(0, 9)
            x = rng.randint(-bound, bound)
            [digits] = digit_expansions([x % p**K], p, K)
            expected = sum(Fraction(d, p ** (i + 1)) for i, d in enumerate(digits))
            assert monna_of_int(x, p, K) == expected, (x, p, K)
            x, ndigits = abs(x), 0
            while p**ndigits <= x:
                ndigits += 1
            assert monna_of_int(x, p) == monna_of_int(x, p, max(ndigits, 1)), (x, p)

    def test_full_integer_expansion(self):
        assert monna_of_int(3, 3) == Fraction(1, 9)
        assert monna_of_int(0, 3) == Fraction(0)
        assert monna_of_int(1, 3) == Fraction(1, 3)

    def test_negative_needs_truncation(self):
        with pytest.raises(ValueError, match="finite digit expansion"):
            monna_of_int(-1, 3)
        assert monna_of_int(-1, 3, K=2) == monna_of_int(8, 3, 2) == Fraction(8, 9)


def reversal_oracle(x, p, K):
    """sum d_i * p^(-i-1) over the digits of x mod p^K (K=None: every digit of x)."""
    if K is not None:
        x %= p**K
    digits = []
    while x:
        x, d = divmod(x, p)
        digits.append(d)
    return sum(Fraction(d, p ** (i + 1)) for i, d in enumerate(digits))


class TestDigitReversals:
    @pytest.mark.parametrize("p", [2, 3, 7, 1048573])
    def test_lowest_terms_pairs_equal_monna_and_the_oracle(self, p):
        # x = 0, K=None, a given K, and negative x with K, among them K up to
        # 40 with values near -1 and near -p^K (the complement mod p^K on
        # both sides of p^(K-1))
        rng = random.Random(p + 1)
        for K in (None, 1, 2, 3, 8, 40):
            bound = p**8 if K is None else 2 * p**K
            values = [0, 1, p - 1] + [rng.randint(0, bound) for _ in range(30)]
            if K is not None:
                values += [-1, -p, -p**K, -p**K + 1, -p**K - 1, -(p ** (K - 1)), -(p ** (K - 1)) - 1]
                values += [rng.randint(-bound, -1) for _ in range(30)]
                values += [-rng.randint(1, p**3) for _ in range(10)]
            pairs = digit_reversals(values, p, K)
            assert len(pairs) == len(values)
            for x, (num, den) in zip(values, pairs):
                image = Fraction(num, den)
                assert (image.numerator, image.denominator) == (num, den), (x, K)
                assert den == 1 if num == 0 else den == p ** valuation(den, p), (x, K)
                assert image == monna_of_int(x, p, K) == reversal_oracle(x, p, K), (x, p, K)

    def test_examples(self):
        assert digit_reversals([0, 3, 5, -1], 3, 2) == [(0, 1), (1, 9), (7, 9), (8, 9)]
        assert digit_reversals([], 3) == []

    def test_domain_errors(self):
        with pytest.raises(ValueError, match="finite digit expansion"):
            digit_reversals([1, -1], 3)
        with pytest.raises(ValueError, match="precision K must be >= 1"):
            digit_reversals([1], 3, 0)
        with pytest.raises(ValueError, match="prime"):
            digit_reversals([1], 4)


def test_check_prime_accepts_primes():
    for p in (2, 3, 5, 7, 11, 104729):
        assert check_prime(p) == p


def trial_division_is_prime(n: int) -> bool:
    """Independent oracle: no divisor d with d*d <= n."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class TestPrimality:
    # every input is checked twice in a row: the second answer comes from the
    # cache on _is_prime and must agree with the first

    def test_agrees_with_trial_division_below_2_to_16(self):
        for n in range(2, 1 << 16):
            expected = trial_division_is_prime(n)
            assert _is_prime(n) == expected
            assert _is_prime(n) == expected

    def test_checks_just_below_2_to_20(self):
        for n in range((1 << 20) - 300, 1 << 20):
            for _ in range(2):
                if trial_division_is_prime(n):
                    assert check_prime(n) == n
                else:
                    with pytest.raises(ValueError, match="must be prime"):
                        check_prime(n)

    def test_composites_above_2_to_20_are_rejected(self):
        # 17 * 61681; then strong pseudoprimes to the first 4 and the first 12
        # prime bases, which the later bases expose
        for n in (1048577, 3215031751, 318665857834031151167461):
            for _ in range(2):
                with pytest.raises(ValueError, match="must be prime"):
                    check_prime(n)
        for _ in range(2):
            assert check_prime(2**61 - 1) == 2**61 - 1

    def test_beyond_the_exact_bound_is_rejected(self):
        for n in (PRIME_BOUND, 2**127 - 1):
            for _ in range(2):
                with pytest.raises(ValueError, match="must be below"):
                    check_prime(n)
        with pytest.raises(ValueError, match=r"got 3\.0$"):  # not an int at all
            check_prime(3.0)

    def test_repeated_check_is_cached(self):
        _is_prime.cache_clear()
        for _ in range(3):
            assert check_prime(1048573) == 1048573
        info = _is_prime.cache_info()
        assert (info.misses, info.hits) == (1, 2)
