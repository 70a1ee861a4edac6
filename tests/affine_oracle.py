"""Affine composition a*f(c*x + d) + b, the tests' orbit oracle for the catalog.

The package builds affine orbits by Taylor shifts and scalings of canons
(``catalog._affine_orbit_canons``); the tests compose maps directly instead,
so the two routes check each other.
"""

from math import gcd

from padiclds.polynomials import IntPolynomial


def affine_compose(
    f: IntPolynomial,
    outer: tuple[int, int],
    inner: tuple[int, int],
    m: int,
) -> IntPolynomial:
    """a*f(c*x + d) + b with coefficients reduced mod m.

    outer = (a, b), inner = (c, d); a and c must be units mod m, otherwise the
    map is not an affine equivalence and the permutation property would not be
    preserved.
    """
    a, b = outer
    c, d = inner
    if m < 1:
        raise ValueError("modulus must be >= 1")
    if gcd(a, m) != 1 or gcd(c, m) != 1:
        raise ValueError("not an affine equivalence: multipliers must be units mod m")
    # Horner on coefficient lists: acc <- acc*(c*x + d) + coef, then a*acc + b.
    acc = [0]
    for coef in reversed(f.coeffs):
        acc = [(d * v + c * u) % m for v, u in zip([*acc, 0], [0, *acc])]
        acc[0] = (acc[0] + coef) % m
    acc = [a * v % m for v in acc]
    acc[0] = (acc[0] + b) % m
    return IntPolynomial(acc)
