"""Generation of the integer value streams fed into the statistics modules.

Every sequence is a polynomial f in Z[x]; the linear rule n*a + b is the
polynomial a*x + b.  Values are kept as full integers (no modular
reduction), so any ball depth is answerable exactly later on.  Indexing
starts at n = 1 throughout.
"""

from __future__ import annotations

from itertools import accumulate, repeat

from .polynomials import IntPolynomial


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
