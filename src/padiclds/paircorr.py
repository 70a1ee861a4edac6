"""Exact pair-correlation statistics for sequences in the p-adic integers.

The statistic counts ordered pairs i != j whose values are p-adically within
s/N^alpha of each other, normalized by N^2 and by the measure of the ball of
that radius.  Closeness below a p-adic radius is congruence mod p^k for the
right k, so with rational alpha everything reduces to exact integer
comparisons and class counting.  The values are plain integers, read mod p^k
at level k.

A sweep over an (N, s) grid counts each distinct (N, k) once.  Per level k it
keeps one running count of residue classes, grown by the stretch of values
between consecutive N in one C-level pass, and the sum of the squared class
sizes, from which the ordered pairs follow; level 0 holds all N(N-1) pairs
and is not counted at all.  A sequence that permutes every Z/p^k (a certified
low-discrepancy sequence) needs no values: its classes are those of n -> n,
and ``lds_pair_count`` gives the pairs in closed form.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from operator import mod, mul

from .padic import check_prime

# ``threshold_level`` refuses a radius s = su/sv at alpha = u/v when v times
# the bits of su and sv exceeds this.  Its level loop grows with the square
# of that product and is dearest at v = 1, p = 2: about 5 ms at the limit
# (N = 10^5), 17 ms at twice it, and 10.5 s for s = 1/10^1000 at v = 1000
# (CPython 3.11, 2-core x86-64 host).
MAX_RADIUS_BITS = 10_000


@dataclass(frozen=True)
class PairCorrInput:
    """Inputs of one statistic evaluation.

    alpha is restricted to a rational so the radius comparison stays exact;
    s = 0 is rejected because the normalizing ball measure vanishes.
    """

    values: tuple
    p: int
    alpha: Fraction
    s: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(self.values))
        alpha, (s,) = _checked_parameters(self.p, self.alpha, [self.s])
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "s", s)
        if not self.values:
            raise ValueError("need at least one value")


def _checked_parameters(p: int, alpha, s_list) -> tuple[Fraction, list[Fraction]]:
    """alpha and the radii as fractions, each validated once."""
    check_prime(p)
    alpha = Fraction(alpha)
    radii = [Fraction(s) for s in s_list]
    if not 0 < alpha <= 1:
        raise ValueError("alpha must lie in (0, 1]")
    for s in radii:
        if s <= 0:
            raise ValueError("s must be positive: the normalizing measure vanishes at s = 0")
    return alpha, radii


def threshold_level(s: Fraction, N: int, alpha: Fraction, p: int) -> int:
    """Smallest k >= 0 with p^(-k) <= s / N^alpha, decided in exact integers.

    Being within the radius s/N^alpha is then exactly congruence mod p^k.
    With alpha = u/v and s = su/sv, the condition is N^u * sv^v <= su^v * p^(k*v),
    so v (by 1000) and v times the bits of su and sv (by ``MAX_RADIUS_BITS``)
    are bounded before any of these powers is formed.
    """
    check_prime(p)
    s = Fraction(s)
    alpha = Fraction(alpha)
    if s <= 0:
        raise ValueError("s must be positive")
    if N < 1:
        raise ValueError("N must be >= 1")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    u, v = alpha.numerator, alpha.denominator
    if v > 1000:
        raise ValueError(f"alpha = {alpha} has denominator {v}; at most 1000 is supported")
    bits = s.numerator.bit_length() + s.denominator.bit_length()
    if v * bits > MAX_RADIUS_BITS:  # named by its size: s may have too many digits to print
        raise ValueError(f"radius s of {bits} bits (numerator and denominator) at alpha = "
                         f"{alpha} needs {v * bits} bits; at most {MAX_RADIUS_BITS} is supported")
    lhs = N ** u * s.denominator ** v
    rhs = s.numerator ** v
    step = p ** v
    k = 0
    while lhs > rhs:
        rhs *= step
        k += 1
    return k


def _close_pairs(values, p: int, requests) -> dict[tuple[int, int], int]:
    """Ordered pairs i != j < N with x_i congruent to x_j mod p^k, for each
    (N, k) in ``requests``.

    The pairs are the sum of m*(m-1) over class sizes m, that is the sum of
    m^2 minus N.  Per level one residue count grows by the stretch
    values[upto:N] as N increases, and the sum of squares by
    2*m*d + d^2 for each class that gains d values.  Level 0 is N(N-1).
    """
    running: dict[int, tuple[Counter, int, int]] = {}  # k -> (counts, upto, sum m^2)
    out = {}
    for N, k in sorted(set(requests)):
        if k == 0:
            out[N, k] = N * (N - 1)
            continue
        counts, upto, squares = running.get(k, (Counter(), 0, 0))
        residues = list(map(mod, values[upto:N], repeat(p ** k)))
        gained = Counter(residues)
        sizes = gained.values()
        squares += sum(map(mul, sizes, sizes))
        squares += 2 * sum(map(mul, map(counts.get, gained, repeat(0)), sizes))
        counts.update(residues)
        running[k] = counts, N, squares
        out[N, k] = squares - N
    return out


def pair_count(values, p: int, k: int) -> int:
    """Ordered pairs i != j with x_i congruent to x_j mod p^k.

    Computed from class sizes as sum of m*(m-1); level 0 counts all N^2 - N
    ordered pairs.
    """
    check_prime(p)
    if k < 0:
        raise ValueError("level k must be >= 0")
    N = len(values)
    return _close_pairs(values, p, [(N, k)])[N, k]


def lds_pair_count(N: int, p: int, k: int) -> int:
    """``pair_count`` of f(1), ..., f(N) for an f that permutes every Z/p^k.

    Such an f fills the classes mod p^k as n -> n does: with N = q*p^k + s and
    0 <= s < p^k, s classes hold q + 1 values and p^k - s hold q, so the
    ordered pairs number s*(q+1)*q + (p^k - s)*q*(q-1) = q*((q-1)*p^k + 2s).
    Level 0 counts all N(N-1).
    """
    check_prime(p)
    if k < 0:
        raise ValueError("level k must be >= 0")
    if k == 0:
        return N * (N - 1)
    pk = p ** k
    q, s = divmod(N, pk)
    return q * ((q - 1) * pk + 2 * s)


def F_statistic(inp: PairCorrInput) -> Fraction:
    """The normalized pair count (p^k / N^2) * #{close ordered pairs}."""
    N = len(inp.values)
    k = threshold_level(inp.s, N, inp.alpha, inp.p)
    cnt = pair_count(inp.values, inp.p, k)
    return Fraction(inp.p ** k * cnt, N * N)


def ppc_sweep(
    source,
    p: int,
    alpha: Fraction,
    s_list: list[Fraction],
    N_schedule: list[int],
) -> list[tuple[int, Fraction, Fraction]]:
    """Evaluate the statistic on an (N, s) grid, emitted in schedule order.

    ``source`` is a full value list whose prefixes are used, a callable
    N -> values, or None for a sequence that permutes every Z/p^k, whose close
    pairs ``lds_pair_count`` gives with no values.  alpha and the radii are
    validated once, and each distinct (N, k) is counted once: over the
    prefixes of the value list together, or over each callable's list alone.
    """
    if not N_schedule:
        raise ValueError("schedule must be nonempty")
    alpha, radii = _checked_parameters(p, alpha, s_list)
    level: dict[tuple[int, Fraction], int] = {}

    def requests(sizes):
        for n in sizes:
            for s in radii:
                level[n, s] = k = threshold_level(s, n, alpha, p)
                yield n, k

    # N -> (length of the list the statistic is computed on, its close pairs)
    counted: dict[int, tuple[int, dict]] = {}
    if callable(source):
        for N in dict.fromkeys(N_schedule):
            values = source(N)
            if not values:
                raise ValueError("need at least one value")
            counted[N] = len(values), _close_pairs(values, p, requests([len(values)]))
    else:
        for N in N_schedule:
            if source is not None and N > len(source):
                raise ValueError(f"only {len(source)} values available, N={N} requested")
            if N < 1:
                raise ValueError("need at least one value")
        prefixes = set(N_schedule)
        if source is None:
            pairs = {(n, k): lds_pair_count(n, p, k) for n, k in set(requests(prefixes))}
        else:
            pairs = _close_pairs(source[: max(prefixes)], p, requests(prefixes))
        counted = {N: (N, pairs) for N in prefixes}
    rows: list[tuple[int, Fraction, Fraction]] = []
    for N in N_schedule:
        n, pairs = counted[N]
        for s in radii:
            k = level[n, s]
            rows.append((N, s, Fraction(p ** k * pairs[n, k], n * n)))
    return rows
