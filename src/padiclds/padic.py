"""Exact base-p digit arithmetic on p-adic integers.

Values are plain integers throughout.  This module holds the exact
primality check every entry point uses, the 16-character quoting of long
inputs in one-line errors, valuations, little-endian digit tuples of x mod
p^K and the digit-reversal (Monna) map into [0,1).  No floating point is
used anywhere, so results can be compared exactly.

All functions are pure; the module is safe for unrestricted concurrent use.
"""

from __future__ import annotations

import functools

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


def _quote(text: str) -> str:
    """repr of text's first 16 characters, plus "..." if it is longer: one short line."""
    return f"{text[:16]!r}{'...' if len(text) > 16 else ''}"


def _shown(n: int) -> int | str:
    """n itself, or its first 16 characters as ``_quote`` shows them if it has more,
    or its bit count if it has more digits than the interpreter converts to text."""
    try:
        return n if -10**15 < n < 10**16 else _quote(str(n))
    except ValueError:
        return f"<{'negative ' if n < 0 else ''}{n.bit_length()}-bit integer>"


def check_prime(p: int) -> int:
    """Validate that p is a prime below PRIME_BOUND (about 3.3e24).

    Returns p unchanged so it can be used inline.  Raises ValueError for
    composite or out-of-range input.
    """
    if not isinstance(p, int):
        raise ValueError(f"p must be a prime >= 2, got {p!r}")
    if p < 2:
        raise ValueError(f"p must be a prime >= 2, got {_shown(p)}")
    if p >= PRIME_BOUND:
        raise ValueError(f"p must be below {PRIME_BOUND} (primality decided exactly), "
                         f"got {_shown(p)}")
    if not _is_prime(p):
        raise ValueError(f"p must be prime, got {_shown(p)}")
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


def digit_expansions(values: list[int], p: int, K: int) -> list[tuple[int, ...]]:
    """Little-endian base-p digits of each x mod p^K; p, K and p^K once per call.

    A negative x is read through its complement ~x = -x-1: x and ~x sum to
    -1, so mod p^K their digits sum to p - 1 place by place, and the digit
    loop divides the small ~x rather than the K-digit residue of x.
    """
    check_prime(p)
    if K < 1:
        raise ValueError("precision K must be >= 1")
    pk = p ** K
    out = []
    for x in values:
        negative = x < 0
        x = (~x if negative else x) % pk
        digits = []
        for _ in range(K):
            x, d = divmod(x, p)
            digits.append(d)
        out.append(tuple(p - 1 - d for d in digits) if negative else tuple(digits))
    return out


def digit_reversals(values: list[int], p: int, K: int | None = None) -> list[tuple[int, int]]:
    """Digit-reversal images of integers, each as a pair (num, p^L) in lowest terms.

    The image of x is the sum of d_i * p^(-i-1) over its little-endian base-p
    digits d_0 .. d_(L-1), the last nonzero.  Reading those digits as a
    big-endian numeral gives num, whose last digit is d_(L-1), so p does not
    divide num and num / p^L is in lowest terms (x = 0 gives (0, 1)).  With K=None
    the full (finite) expansion of a nonnegative integer is used; with K
    every x is first reduced mod p^K.  p^K is formed once per call.

    A residue r mod p^K within p^(K-1) of p^K is reversed through its
    complement y = p^K - 1 - r: their digits sum to p - 1 place by place, so
    the reversal of r is p^K - 1 minus the K-digit reversal of y, and the
    digit loop runs over y's few digits instead of r's K (a small negative x
    with a large K).
    """
    check_prime(p)
    if K is None:
        if min(values, default=0) < 0:
            raise ValueError("negative value has no finite digit expansion; pass a precision K")
    elif K < 1:
        raise ValueError("precision K must be >= 1")
    else:
        pk = p ** K
        high = pk - pk // p  # residues r >= high have a complement below p^(K-1)
    out = []
    for x in values:
        complement = False
        if K is not None:
            x %= pk
            if x >= high:
                x, complement = pk - 1 - x, True
        num, den = 0, 1
        while x:
            x, d = divmod(x, p)
            num = num * p + d
            den *= p
        if complement:
            num, den = pk - 1 - num * (pk // den), pk
        out.append((num, den))
    return out


def monna_of_int(x: int, p: int, K: int | None = None) -> Fraction:
    """Digit-reversal image in [0,1): the sum of d_i * p^(-i-1) over x's digits.

    With K=None the full (finite) expansion of a nonnegative integer is used,
    so the image is exact.  Negative integers have no finite expansion; they
    require an explicit truncation precision K and are reduced mod p^K first.
    The single-value case of ``digit_reversals``.
    """
    from fractions import Fraction  # imported on use: the CLI builds no Fraction
    [(num, den)] = digit_reversals([x], p, K)
    return Fraction(num, den)
