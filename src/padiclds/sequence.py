"""Generation of the integer value streams fed into the statistics modules.

Every sequence is a polynomial f in Z[x]; the linear rule n*a + b is the
polynomial a*x + b.  Values are kept as full integers (no modular
reduction), so any ball depth is answerable exactly later on.  Indexing
starts at n = 1 throughout.
"""

from __future__ import annotations

from .polynomials import IntPolynomial, _extend


def poly_sequence(f: IntPolynomial, N: int) -> list[int]:
    """Exact values f(1), ..., f(N): Horner at n = 1, ..., d+1 (d = deg f),
    then ``_extend``'s chained running sums over the forward differences, in
    exact integer arithmetic.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    row = [f(n) for n in range(1, min(N, max(f.degree, 0) + 1) + 1)]
    return row if N <= len(row) else list(_extend(row, N))
