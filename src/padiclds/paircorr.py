"""Exact pair-correlation statistics for sequences in the p-adic integers.

The statistic counts ordered pairs i != j whose values are p-adically within
s/N^alpha of each other, normalized by N^2 and by the measure of the ball of
that radius.  Closeness below a p-adic radius is congruence mod p^k for the
right k, so with rational alpha everything reduces to exact integer
comparisons and class counting.  The values are plain integers, read mod p^k
at level k.

A sweep over an (N, s) grid counts each distinct (N, k) once.  Per level k it
keeps one running count of residue classes, into which the stretch of values
between consecutive N is counted once, in one C-level pass, and the sum of
the squared class sizes, from which the ordered pairs follow: summed over the
level's classes, or over the classes a stretch reaches when it is short
against them.  Level 0 holds all N(N-1) pairs and is not counted at all.  A
sequence that permutes every Z/p^k (a certified low-discrepancy sequence)
needs no values: its classes are those of n -> n, and ``lds_pair_count``
gives the pairs in closed form.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import repeat
from operator import mod, mul

from .padic import check_prime

# ``_close_pairs``'s sum of m^2 costs 0.02 us a class over a whole level and
# 0.1 us a class over those a stretch reaches (CPython 3.11.7, 2-core x86-64).
STRETCH_RATIO = 4

# A radius s = su/sv at alpha = u/v is refused when v times the bits of su and
# sv exceeds this.  Each radius's levels are walked once, up from k = 0; the
# walk's length grows with that product and is dearest at v = 1, p = 2, where
# at the limit it climbs 10^4 levels: 5 ms for one size, 0.11 s over the sizes
# 1..10^5 (CPython 3.11, 2-core x86-64 host).
MAX_RADIUS_BITS = 10_000


def _checked_parameters(p: int, alpha, s_list) -> tuple[Fraction, list[Fraction]]:
    """alpha and the radii as fractions, each validated once.

    alpha's denominator v (by 1000) and v times the bits of each radius (by
    ``MAX_RADIUS_BITS``) are bounded before any power of them is formed.
    """
    check_prime(p)
    alpha = Fraction(alpha)
    radii = [Fraction(s) for s in s_list]
    if not 0 < alpha <= 1:
        raise ValueError("alpha must lie in (0, 1]")
    for s in radii:
        if s <= 0:
            raise ValueError("s must be positive: the normalizing measure vanishes at s = 0")
    v = alpha.denominator
    if v > 1000:  # named by its size once it is too long to quote
        shown = (f"alpha = {alpha} has denominator {v}" if v.bit_length() <= 64
                 else f"alpha has a denominator of {v.bit_length()} bits")
        raise ValueError(f"{shown}; at most 1000 is supported")
    for s in radii:
        bits = s.numerator.bit_length() + s.denominator.bit_length()
        if v * bits > MAX_RADIUS_BITS:  # named by its size: s may have too many digits to print
            raise ValueError(f"radius s of {bits} bits (numerator and denominator) at alpha = "
                             f"{alpha} needs {v * bits} bits; at most {MAX_RADIUS_BITS} is "
                             f"supported")
    return alpha, radii


def _levels(s: Fraction, alpha: Fraction, p: int, sizes):
    """The smallest k >= 0 with p^(-k) <= s / N^alpha at each N of the
    increasing sizes.

    With alpha = u/v and s = su/sv, that is N^u * sv^v <= su^v * p^(k*v).  The
    level cannot fall as N grows, so one walk serves every size and never
    restarts k.
    """
    u, v = alpha.numerator, alpha.denominator
    scale = s.denominator ** v
    bound = s.numerator ** v
    step = p ** v
    k = 0
    for N in sizes:
        lhs = N ** u * scale
        while lhs > bound:
            bound *= step
            k += 1
        yield k


def threshold_level(s: Fraction, N: int, alpha: Fraction, p: int) -> int:
    """Smallest k >= 0 with p^(-k) <= s / N^alpha, decided in exact integers.

    Being within the radius s/N^alpha is then exactly congruence mod p^k.
    """
    alpha, (s,) = _checked_parameters(p, alpha, [s])
    if N < 1:
        raise ValueError("N must be >= 1")
    return next(_levels(s, alpha, p, [N]))


def _close_pairs(values, p: int, requests) -> dict[tuple[int, int], int]:
    """Ordered pairs i != j < N with x_i congruent to x_j mod p^k, for each
    (N, k) in ``requests``.

    The pairs are the sum of m*(m-1) over class sizes m, that is the sum of
    m^2 minus N.  Per level one residue count grows by the stretch
    values[upto:N] as N increases, counted once in one C-level pass; the sum
    of m^2 is then taken over the level's classes, or over the classes the
    stretch reaches if they outnumber it more than ``STRETCH_RATIO`` to 1.
    Level 0 is N(N-1).
    """
    running: dict[int, tuple[Counter, int, int]] = {}  # k -> (counts, upto, sum m^2)
    out = {}
    for N, k in sorted(set(requests)):
        if k == 0:
            out[N, k] = N * (N - 1)
            continue
        counts, upto, squares = running.get(k, (Counter(), 0, 0))
        residues = list(map(mod, values[upto:N], repeat(p ** k)))
        if len(counts) > STRETCH_RATIO * len(residues):
            reached = set(residues)
            before = list(map(counts.get, reached, repeat(0)))
            counts.update(residues)
            after = list(map(counts.__getitem__, reached))
            squares += sum(map(mul, after, after)) - sum(map(mul, before, before))
        else:
            counts.update(residues)
            sizes = counts.values()
            squares = sum(map(mul, sizes, sizes))
        running[k] = counts, N, squares
        out[N, k] = squares - N
    return out


def lds_pair_count(N: int, p: int, k: int) -> int:
    """Ordered pairs i != j <= N with f(i) = f(j) mod p^k, for f permuting every Z/p^k.

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


def F_statistic(values, p: int, alpha: Fraction, s: Fraction) -> Fraction:
    """The normalized pair count (p^k / N^2) * #{close ordered pairs} of all
    N values (a list or tuple), k the ``threshold_level`` of s at N.

    One cell of ``ppc_sweep``, which checks p, alpha and s, then that there
    is at least one value.  alpha is a rational so the radius comparison
    stays exact; s = 0 is refused because the normalizing measure vanishes.
    """
    return ppc_sweep(values, p, alpha, [s], [len(values)])[0][2]


def ppc_sweep(
    source,
    p: int,
    alpha: Fraction,
    s_list: list[Fraction],
    N_schedule: list[int],
) -> list[tuple[int, Fraction, Fraction]]:
    """Evaluate the statistic on an (N, s) grid, emitted in schedule order.

    ``source`` is a full value list whose prefixes are used, or None for a
    sequence that permutes every Z/p^k, whose close pairs ``lds_pair_count``
    gives with no values.  alpha and the radii are validated once, each
    radius's levels are walked once over the sorted sizes, and each distinct
    (N, k) is counted once over the prefixes of the value list together.
    """
    if not N_schedule:
        raise ValueError("schedule must be nonempty")
    alpha, radii = _checked_parameters(p, alpha, s_list)
    for N in N_schedule:
        if source is not None and N > len(source):
            raise ValueError(f"only {len(source)} values available, N={N} requested")
        if N < 1:
            raise ValueError("need at least one value")
    sizes = sorted(set(N_schedule))
    level = {s: dict(zip(sizes, _levels(s, alpha, p, sizes))) for s in radii}
    requests = {(N, k) for by_size in level.values() for N, k in by_size.items()}
    if source is None:
        pairs = {(N, k): lds_pair_count(N, p, k) for N, k in requests}
    else:
        pairs = _close_pairs(source[: sizes[-1]], p, requests)
    return [(N, s, Fraction(p ** k * pairs[N, k], N * N))
            for N in N_schedule for s in radii for k in [level[s][N]]]
