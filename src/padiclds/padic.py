"""Exact base-p digit arithmetic on p-adic integers.

Everything here is integer/rational arithmetic only: valuations, the p-adic
absolute value, ball radii, finite-precision digit vectors and the
digit-reversal map into [0,1).  No floating point is used anywhere, so results
can be compared exactly.

All functions are pure and all values immutable; the module is safe for
unrestricted concurrent use.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

# Miller-Rabin over the first 13 prime bases decides primality exactly below
# this bound (Sorenson and Webster, Math. Comp. 86 (2017), "Strong pseudoprimes
# to twelve prime bases"); larger p are rejected rather than trusted.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3317044064679887385961981


@functools.lru_cache(maxsize=64)
def _is_prime(n: int) -> bool:
    """Deterministic primality for 2 <= n < PRIME_BOUND."""
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    if n < 43 * 43:  # no prime factor below 43
        return True
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    d = (n - 1) >> s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_prime(p: int) -> int:
    """Validate that p is a prime below PRIME_BOUND (about 3.3e24).

    Returns p unchanged so it can be used inline.  Raises ValueError for
    composite or out-of-range input.
    """
    if not isinstance(p, int) or p < 2:
        raise ValueError(f"p must be a prime >= 2, got {p!r}")
    if p >= PRIME_BOUND:
        raise ValueError(f"p must be below {PRIME_BOUND} (primality decided exactly), got {p}")
    if not _is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    return p


class InvariantError(RuntimeError):
    """An internal consistency check failed: a bug in this package, not bad input."""


def valuation(x: int, p: int) -> int:
    """Largest m such that p^m divides x.

    Examples:
        >>> valuation(18, 3)
        2
        >>> valuation(7, 3)
        0
    """
    check_prime(p)
    if x == 0:
        raise ValueError("valuation of zero is infinite")
    x = abs(x)
    m = 0
    while x % p == 0:
        x //= p
        m += 1
    return m


def abs_p(x: int, p: int) -> Fraction:
    """p-adic absolute value p^(-valuation(x, p)); |0|_p = 0 by convention."""
    check_prime(p)
    if x == 0:
        return Fraction(0)
    return Fraction(1, p ** valuation(x, p))


def ball_level(r: Fraction, p: int) -> int:
    """Smallest k >= 0 with p^(-k) <= r.

    A closed ball of radius r around a point is exactly a residue class mod
    p^k at this level, with Haar measure p^(-k).  Radii >= 1 give the whole
    ring (level 0).  Comparison is done by integer cross-multiplication.
    """
    check_prime(p)
    r = Fraction(r)
    if r <= 0:
        raise ValueError("empty/degenerate ball: radius must be positive")
    num, den = r.numerator, r.denominator
    k = 0
    pk = 1
    # p^-k <= num/den  <=>  den <= num * p^k
    while den > num * pk:
        pk *= p
        k += 1
    return k


@dataclass(frozen=True)
class PAdicApprox:
    """An element of the p-adic integers known exactly modulo p^K.

    ``digits`` is the little-endian base-p digit vector of length K; the
    represented residue is sum(digits[i] * p^i) mod p^K.  Instances with
    different precision (or different p) are deliberately incomparable:
    equality across precisions would silently conflate distinct amounts of
    information, which changes discrepancy answers downstream.
    """

    p: int
    digits: tuple[int, ...]

    def __post_init__(self) -> None:
        check_prime(self.p)
        digits = tuple(self.digits)
        object.__setattr__(self, "digits", digits)
        if len(digits) < 1:
            raise ValueError("precision K must be >= 1")
        for d in digits:
            if not isinstance(d, int) or not 0 <= d < self.p:
                raise ValueError(f"digit {d!r} out of range [0, {self.p})")

    @property
    def precision(self) -> int:
        return len(self.digits)

    @property
    def value(self) -> int:
        """The represented residue in [0, p^K)."""
        v = 0
        for d in reversed(self.digits):
            v = v * self.p + d
        return v

    def residue(self, k: int) -> int:
        """Residue mod p^k for k <= K; deeper digits are unknown, so fail."""
        if not 0 <= k <= self.precision:
            raise ValueError(
                f"insufficient precision: residue mod p^{k} requested at K={self.precision}"
            )
        v = 0
        for d in reversed(self.digits[:k]):
            v = v * self.p + d
        return v

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PAdicApprox):
            return NotImplemented
        if self.p != other.p:
            raise ValueError("cannot compare p-adic approximants with different p")
        if self.precision != other.precision:
            raise ValueError("cannot compare p-adic approximants with different precision")
        return self.digits == other.digits

    __hash__ = None  # type: ignore[assignment]  # eq may raise; keep unhashable


def digits_of(x: int, p: int, K: int) -> PAdicApprox:
    """Little-endian base-p expansion of x mod p^K.

    Examples:
        >>> digits_of(7, 3, 3).digits
        (1, 2, 0)
    """
    check_prime(p)
    if K < 1:
        raise ValueError("precision K must be >= 1")
    if x < 0:
        raise ValueError("digits_of expects a nonnegative integer")
    x %= p ** K
    out = []
    for _ in range(K):
        out.append(x % p)
        x //= p
    return PAdicApprox(p, tuple(out))


def monna_map(x: PAdicApprox) -> Fraction:
    """Digit-reversal image in [0,1): sum of digits[i] * p^(-i-1).

    Reversing the digit vector and reading it as a base-p numerator gives the
    exact rational value with denominator p^K.
    """
    num = 0
    for d in x.digits:
        num = num * x.p + d  # little-endian scan = reversed base-p numeral
    return Fraction(num, x.p ** x.precision)


def monna_of_int(x: int, p: int, K: int | None = None) -> Fraction:
    """Digit-reversal image of a plain integer.

    With K=None the full (finite) expansion of a nonnegative integer is used,
    so the image is exact.  Negative integers have no finite expansion; they
    require an explicit truncation precision K and are reduced mod p^K first.
    """
    check_prime(p)
    if K is None:
        if x < 0:
            raise ValueError("negative value has no finite digit expansion; pass a precision K")
        if x == 0:
            return Fraction(0)
        K = 1
        pk = p
        while pk <= x:
            pk *= p
            K += 1
    return monna_map(digits_of(x % p ** K, p, K))
