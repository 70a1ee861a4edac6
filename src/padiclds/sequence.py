"""Generation of the integer value streams fed into the statistics modules.

Polynomial sequences are kept as full integers (no modular reduction), so any
ball depth is answerable exactly later on.  Linear sequences whose parameters
are genuine p-adic approximants are produced at the parameters' precision.
Indexing starts at n = 1 throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, repeat

from .padic import PAdicApprox, check_prime, digits_of
from .polynomials import IntPolynomial

KIND_POLYNOMIAL = "polynomial"
KIND_LINEAR = "linear"


def poly_sequence(f: IntPolynomial, N: int) -> list[int]:
    """Exact values f(1), ..., f(N).

    f(1), ..., f(d+1) come from Horner (d = deg f); their forward differences
    D_0, ..., D_d at n = 1 determine the rest, since the d-th difference of f
    is the constant D_d.  The values are then d chained running sums over
    that constant, in exact integer arithmetic.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    d = max(f.degree, 0)
    row = [f(n) for n in range(1, min(N, d + 1) + 1)]
    if N <= d + 1:
        return row
    leading = []
    while row:
        leading.append(row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    values = repeat(leading.pop(), N - d)
    for start in reversed(leading):
        values = accumulate(values, initial=start)
    return list(values)


def linear_sequence(a: PAdicApprox, b: PAdicApprox, N: int) -> list[PAdicApprox]:
    """x_n = n*a + b computed exactly mod p^K, n = 1..N.

    a and b must share both the prime and the precision; mixing precisions
    would silently pad digits and change discrepancy answers.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if a.p != b.p:
        raise ValueError("a and b must share the prime p")
    if a.precision != b.precision:
        raise ValueError("a and b must share the precision K")
    p, K = a.p, a.precision
    mod = p ** K
    av, bv = a.value, b.value
    return [digits_of((n * av + bv) % mod, p, K) for n in range(1, N + 1)]


@dataclass(frozen=True)
class SequenceSpec:
    """Description of a value stream: a polynomial or a linear rule n*a + b.

    Linear parameters may be plain integers (kept exact) or p-adic
    approximants (capped at their precision).  Construct via the
    ``polynomial`` / ``linear`` classmethods.
    """

    kind: str
    p: int
    f: IntPolynomial | None = None
    a: int | PAdicApprox | None = None
    b: int | PAdicApprox | None = None

    @classmethod
    def polynomial(cls, f: IntPolynomial, p: int) -> SequenceSpec:
        check_prime(p)
        return cls(kind=KIND_POLYNOMIAL, p=p, f=f)

    @classmethod
    def linear(cls, a: int | PAdicApprox, b: int | PAdicApprox, p: int) -> SequenceSpec:
        check_prime(p)
        if isinstance(a, PAdicApprox) != isinstance(b, PAdicApprox):
            raise ValueError("a and b must both be integers or both p-adic approximants")
        if isinstance(a, PAdicApprox):
            if a.p != p or b.p != p:
                raise ValueError("p-adic parameters must live at the sequence's prime")
            if a.precision != b.precision:
                raise ValueError("a and b must share the precision K")
        return cls(kind=KIND_LINEAR, p=p, a=a, b=b)

    @property
    def is_integer_valued(self) -> bool:
        return self.kind == KIND_POLYNOMIAL or isinstance(self.a, int)

    def integer_values(self, N: int) -> list[int]:
        """Exact integer values x_1..x_N (polynomial or integer-linear specs)."""
        if self.kind == KIND_POLYNOMIAL:
            return poly_sequence(self.f, N)
        if not isinstance(self.a, int):
            raise ValueError("p-adic linear spec has no exact integer values; use padic_values")
        return poly_sequence(IntPolynomial((self.b, self.a)), N)

    def padic_values(self, N: int, K: int | None = None) -> list[PAdicApprox]:
        """Values as digit vectors.

        For p-adic linear parameters the precision is theirs and K must be
        omitted or equal to it; integer-valued specs require an explicit K and
        reduce mod p^K.
        """
        if self.kind == KIND_LINEAR and isinstance(self.a, PAdicApprox):
            if K is not None and K != self.a.precision:
                raise ValueError("K is fixed by the parameters' precision")
            return linear_sequence(self.a, self.b, N)
        if K is None:
            raise ValueError("precision K required for integer-valued specs")
        return [digits_of(v % self.p ** K, self.p, K) for v in self.integer_values(N)]
