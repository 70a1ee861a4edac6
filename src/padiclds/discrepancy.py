"""Exact p-adic and real discrepancy of finite point sets.

The p-adic discrepancy is a supremum over balls of all radii.  It is made
finite in two exact pieces:

* levels k = 1 .. k_sep+1, where k_sep is the separation depth of the point
  set (beyond it, ball occupancy counts equal exact-value multiplicities);
  occupied residues are found by grouping, never by enumerating p^k classes,
  and each level's term is read off its largest and smallest count, an
  unoccupied residue counting 0 (an empty ball's term is p^-k);
* the tail supremum c*/N, where c* is the maximum multiplicity among exact
  values (the k -> infinity limit of an occupied ball's term).

One engine, ``prefix_discrepancy_rows``, computes it for any set of prefix
lengths in a single pass over the values, stretch by stretch between
requested lengths.  c* comes from a multiplicity count of the exact values,
k_sep from their residues mod p^k_sep.  The levels are scanned from k = 1
and only as deep as the supremum needs; each is counted from the prefix when
a scan first reaches it and then grown by every stretch, a long one in one
C-level pass, a short one (a dense schedule) value by value.  Its rows are
integers; only its views ``padic_discrepancy`` and ``discrepancy_profile``
form Fractions, and ``fractions`` is imported only where one is built, so
the CLI, which reads the integer rows, never loads it.  Given None for the
values, it answers for a sequence that permutes every Z/p^k (a certified
low-discrepancy sequence) in closed form, with no values.

The real extreme discrepancy on [0,1) has its own prefix engine,
``prefix_real_discrepancy_rows``: the points are integer numerators over one
common denominator, each is merged once into a sorted list, and at each
requested length two integer max passes give the exact value as an integer row.
``real_extreme_discrepancy`` views its one row at the full length.

Everything is computed in exact rational arithmetic.  The only floating point
in the whole package is the transcendental upper bound of the p-adic-to-real
discrepancy transfer inequality, quarantined in ``_meijer``, the integer core
of ``meijer_bound_check``, behind a declared tolerance and a three-valued
answer.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import compress, filterfalse, repeat
from operator import countOf, mod, sub
from typing import NamedTuple

from .padic import InvariantError, check_prime

WITNESS_TAIL = "tail"

# ``prefix_discrepancy_rows`` counts a stretch of L values into a level in bulk
# when L > STRETCH_MIN + (occupied residues) / STRETCH_RATIO, and value by
# value otherwise.  Per level, ``_Level.add`` costs about 0.2 us a value; a
# bulk count about 5 us, plus 0.13 us a value, plus 0.04 us an occupied
# residue to copy the counts and recount their extremes (CPython 3.11.7,
# 2-core x86-64 host).  One decision covers the whole stretch, on the mean
# occupancy of the built levels; c* and the separation depth follow a stretch
# longer than STRETCH_MIN in bulk too.
STRETCH_MIN = 32
STRETCH_RATIO = 4

# ``meijer_bound_check`` calls a float comparison this close to equality
# indeterminate rather than guessing.
MEIJER_TOLERANCE = 1e-9


class DiscrepancyResult(NamedTuple):
    """Exact discrepancy value with the ball (or tail) attaining it.

    ``witness_level`` is the ball depth k, or the string "tail" when the
    supremum comes from exact-value multiplicities; ``witness_residue`` is the
    ball's residue mod p^k (absent for the tail).
    """

    value: Fraction
    witness_level: int | str
    witness_residue: int | None
    separation_depth: int


def separation_depth(values: list[int], p: int) -> int:
    """Smallest k >= 1 such that distinct values are pairwise incongruent mod p^k.

    Equivalently 1 + the largest valuation of a difference of distinct values;
    1 for singletons or all-equal input.  Beyond this depth, ball counts equal
    exact-value multiplicities.
    """
    check_prime(p)
    return _separation(set(values), p, 1)[0]


def _separation(distinct, p: int, k: int) -> tuple[int, set[int]]:
    """The separation depth, known to be at least k, of the distinct values
    (a set or a dict's keys), with their residues mod p^depth.  The scan
    starts at the pigeonhole level, and each deeper level counts only the
    values that still share a class."""
    pk = p**k
    while pk < len(distinct):
        k, pk = k + 1, pk * p
    group = distinct
    counts = Counter(map(mod, group, repeat(pk)))
    while len(counts) < len(group):
        if countOf(counts.values(), 1):  # some values are alone in their class
            group = [v for v in group if counts[v % pk] > 1]
        k, pk = k + 1, pk * p
        counts = Counter(map(mod, group, repeat(pk)))
    return k, set(counts) if group is distinct else set(map(mod, distinct, repeat(pk)))


class _Level:
    """Ball occupancy mod p^k: the count of each occupied residue, the largest
    count, and the smallest count (0 while a residue is unoccupied) with the
    number of residues holding it, so the extremes follow every insertion.

    ``values`` (repeats counted) is the initial content; ``ingest`` adds a
    stretch of values in one C-level pass, ``add`` a single value."""

    __slots__ = ("pk", "counts", "maxc", "minc", "nmin")

    def __init__(self, pk: int, values) -> None:
        self.pk = pk
        self.counts: dict[int, int] = {}
        self.ingest(values)

    def ingest(self, values) -> None:
        # Counter.update counts in C; the level keeps a plain dict, which
        # ``add`` reads and writes faster than a Counter
        counts = Counter(self.counts)
        counts.update(map(mod, values, repeat(self.pk)))
        self.counts = dict(counts)
        self.maxc = max(counts.values())
        self.minc = min(counts.values()) if len(counts) == self.pk else 0
        self.nmin = countOf(counts.values(), self.minc) if self.minc else self.pk - len(counts)

    def add(self, v: int) -> None:
        r = v % self.pk
        c = self.counts.get(r, 0) + 1
        self.counts[r] = c
        if c > self.maxc:
            self.maxc = c
        if c - 1 == self.minc:
            self.nmin -= 1
            if not self.nmin:  # every residue now holds c or more
                self.minc = c
                self.nmin = countOf(self.counts.values(), c)


def _supremum(levels: list[_Level], values, p: int, N: int, depth: int, cstar: int) -> tuple:
    """The supremum for the first N values, of separation depth ``depth`` and
    largest multiplicity ``cstar``, from the ball levels k = 1, 2, ...

    Level k's best term is |c/N - p^-k| at c = maxc or c = minc; minc = 0
    when a residue is unoccupied, and then the term is p^-k.  The tail term
    is c*/N.  Ties are broken toward smaller level, then smaller residue,
    with the tail considered last, so a level wins only if it reaches the
    tail.  The terms are compared, and returned in a ``prefix_discrepancy_rows``
    row, as integer numerators over the common denominator N * p^K, K = depth + 1.
    The scan stops once no deeper level can win: classes refine, so every
    deeper term is at most max(maxc/N - p^-K, p^-(k+1)) = maxc/N - p^-K, as
    maxc >= N/p^k.  A level first reached is counted from values[:N].
    """
    top = p ** (depth + 1)
    tail = cstar * top
    best, best_level, best_term = tail - 1, WITNESS_TAIL, 0
    for k in range(1, depth + 2):
        if k > len(levels):
            levels.append(_Level(p**k, values[:N]))
        lv = levels[k - 1]
        pk = lv.pk
        term, low = lv.maxc * pk - N, N - lv.minc * pk
        if low > term:
            term = low
        scaled = term * (top // pk)  # term / (N * p^k) is scaled / (N * top)
        if scaled > best:
            best, best_level, best_term = scaled, k, term
        if lv.maxc * top - N <= best:
            break
    best = max(best, tail)  # tail - 1 while no level has reached the tail
    if not top <= best <= N * top:
        from fractions import Fraction
        raise InvariantError(f"internal error: discrepancy {Fraction(best, N * top)} outside "
                             f"[1/N, 1] for N={N}")
    residue = None
    if best_level != WITNESS_TAIL:
        lv = levels[best_level - 1]
        residue = lv.pk
        for c in lv.maxc, lv.minc:  # the one or two counts attaining the term
            if abs(c * lv.pk - N) == best_term:  # c = 0: the smallest unoccupied residue
                r = (min(compress(lv.counts, map(c.__eq__, lv.counts.values()))) if c
                     else next(filterfalse(lv.counts.__contains__, range(lv.pk))))
                residue = min(residue, r)
    return N, best, N * top, best_level, residue, depth


def _wanted(lengths, n: int | None) -> list[int]:
    """The distinct requested prefix lengths (default 1 to n), increasing, each
    in [1, n]; n None, for the closed form, bounds them only from below."""
    wanted = sorted(set(range(1, n + 1) if lengths is None else lengths))
    if not wanted or wanted[0] < 1 or n is not None and wanted[-1] > n:
        raise ValueError("prefix lengths must be >= 1" if n is None
                         else f"prefix lengths must lie in [1, {n}]")
    return wanted


def prefix_discrepancy_rows(
    values: list[int] | None, p: int, lengths: list[int] | None = None
) -> list[tuple]:
    """Exact discrepancy, with its witness, of each prefix values[:N].

    ``lengths`` lists the requested N (default: every N from 1 to
    len(values)); the answer has one row per distinct N, in increasing
    order: (N, numerator, N * p^K, witness level, witness residue, separation
    depth), with K = separation depth + 1.  The values are ingested once,
    one stretch values[prev:N] per requested N, into the exact-value
    multiplicities (for c*), the distinct values' residues mod p^depth (the
    depth is recomputed when two of them coincide) and the levels
    ``_supremum`` has reached.  A stretch that is long against the occupied
    residues (``STRETCH_MIN``, ``STRETCH_RATIO``) is counted into the levels
    in bulk, and their extreme counts are then recounted; a short one is
    added value by value, with the extremes kept up to date under insertion.

    ``values`` None stands for f(1), f(2), ... of an f that permutes every
    Z/p^k, and ``lengths`` must then be given.  Such an f fills the balls mod
    p^k exactly as n -> n does: with N = q*p^k + s and 0 <= s < p^k, s
    residues hold q + 1 of the first N values and the rest q.  The values are
    distinct, so the tail term is 1/N, and every level's term is below it:
    |c/N - p^-k| is (p^k - s)/(N*p^k) for c = q + 1 (held only when s > 0)
    and s/(N*p^k) for c = q, and an unoccupied residue (q = 0, so N < p^k)
    gives p^-k.  So each row is (N, 1, N, "tail", None, k), D_N = 1/N, with
    separation depth k the least k >= 1 with p^k >= N.
    """
    check_prime(p)
    if values is None:
        if lengths is None:
            raise ValueError("values None (an f permuting every Z/p^k) needs the prefix lengths")
        rows, k, pk = [], 1, p
        for N in _wanted(lengths, None):
            while pk < N:
                k, pk = k + 1, pk * p
            rows.append((N, 1, N, WITNESS_TAIL, None, k))
        return rows
    if not values:
        raise ValueError("need at least one value")
    mult: Counter[int] = Counter()  # exact-value multiplicities, the largest is cstar
    cstar, depth, pd, residues = 1, 1, p, set()  # the distinct values mod pd = p^depth
    levels: list[_Level] = []
    rows = []
    prev = 0
    for N in _wanted(lengths, len(values)):
        stretch = values[prev:N]
        prev = N
        excess = len(stretch) - STRETCH_MIN
        if excess > 0:
            mult.update(stretch)
            cstar = max(cstar, max(map(mult.__getitem__, stretch)))
            residues.update(map(mod, stretch, repeat(pd)))
        else:
            for v in stretch:
                c = mult[v] = mult.get(v, 0) + 1
                if c > cstar:
                    cstar = c
                residues.add(v % pd)
        if len(residues) < len(mult):  # distinct values share a residue mod p^depth
            depth, residues = _separation(mult, p, depth + 1)
            pd = p**depth
        if excess > 0 and excess * STRETCH_RATIO * len(levels) > sum(
            len(lv.counts) for lv in levels
        ):
            for lv in levels:
                lv.ingest(stretch)
        elif levels:
            for v in stretch:
                for lv in levels:
                    lv.add(v)
        rows.append(_supremum(levels, values, p, N, depth, cstar))
    return rows


def padic_discrepancy(values: list[int], p: int) -> DiscrepancyResult:
    """Exact supremum over all balls of |empirical proportion - measure|.

    Values are exact integers, so every ball depth is answerable; the result
    is the true supremum, not an approximation.  It is the last
    ``prefix_discrepancy_rows`` row, as a Fraction with its witness.
    """
    from fractions import Fraction
    [(_, num, den, *witness)] = prefix_discrepancy_rows(values, p, [len(values)])
    return DiscrepancyResult(Fraction(num, den), *witness)


def discrepancy_profile(values: list[int], p: int) -> list[Fraction]:
    """Exact discrepancies of every prefix, [D_1, D_2, ..., D_N]: the
    ``prefix_discrepancy_rows`` rows at every length, as Fractions."""
    from fractions import Fraction
    return [Fraction(num, den) for _, num, den, *_ in prefix_discrepancy_rows(values, p)]


# --------------------------------------------------------------------------
# Real (extreme) discrepancy on [0,1)
# --------------------------------------------------------------------------

def prefix_real_discrepancy_rows(
    numerators: list[int], Q: int, lengths: list[int] | None = None
) -> list[tuple[int, int, int]]:
    """Exact extreme discrepancy of each prefix of the points a_i / Q in [0,1).

    ``lengths`` follows ``prefix_discrepancy_rows``: the requested N (default
    every N from 1 to len(numerators)), duplicates and any order allowed;
    the answer has one row (N, numerator, N * Q) per distinct N, in
    increasing order, for the first N points.  With the prefix's numerators
    sorted, a_(1) <= ... <= a_(N), and x_(i) = a_(i) / Q, the supremum over
    half-open subintervals splits into the largest positive and largest
    negative deviation of the empirical counting function, evaluated at the
    points themselves:

        D_N = max_i(i/N - x_(i)) + max_i(x_(i) - (i-1)/N)

    Neither term is negative (i = N in the first, i = 1 in the second).
    The numerators are kept in one sorted list: each stretch between
    requested lengths is appended and merged in, so every point is placed
    once.  At each requested N both maxima are integer passes over N*Q.
    """
    if not numerators:
        raise ValueError("need at least one point")
    wanted = _wanted(lengths, len(numerators))
    if Q < 1:
        raise ValueError(f"common denominator must be >= 1, got {Q}")
    lo, hi = min(numerators), max(numerators)
    if lo < 0 or hi >= Q:  # name the first bad point in sorted order
        bad = lo if lo < 0 else min(a for a in numerators if a >= Q)
        from fractions import Fraction
        raise ValueError(f"point {Fraction(bad, Q)} outside [0,1)")
    ordered: list[int] = []
    rows = []
    prev = 0
    for N in wanted:
        ordered += numerators[prev:N]
        ordered.sort()  # merges the new run into the sorted one
        prev = N
        scaled = list(map(N.__mul__, ordered))  # a_(i) * N
        over = max(map(sub, range(Q, (N + 1) * Q, Q), scaled))  # i*Q - a_(i)*N
        under = max(map(sub, scaled, range(0, N * Q, Q)))  # a_(i)*N - (i-1)*Q
        rows.append((N, over + under, N * Q))
    return rows


def real_extreme_discrepancy(points: list[Fraction]) -> Fraction:
    """Exact extreme discrepancy over half-open subintervals of [0,1).

    The one ``prefix_real_discrepancy_rows`` row at the full length, over the
    common denominator of the points, as a Fraction.
    """
    from fractions import Fraction
    pts = [Fraction(x) for x in points]
    Q = math.lcm(*(x.denominator for x in pts))
    scaled = [x.numerator * (Q // x.denominator) for x in pts]
    [(_, num, den)] = prefix_real_discrepancy_rows(scaled, Q, [len(pts)])
    return Fraction(num, den)


def meijer_bound_check(delta: Fraction, d: Fraction, p: int) -> tuple[bool | None, float]:
    """Check the two-sided transfer inequality between delta (p-adic) and d (real).

    The lower inequality delta < d is exact rational comparison.  The upper
    bound delta * (2 + (2(p-1)/log p) * log(1/delta)) is transcendental and is
    evaluated in binary floating point; a comparison within ``MEIJER_TOLERANCE``
    of equality returns None ("indeterminate") instead of guessing.

    Returns (holds, upper) with holds in {True, False, None}.
    """
    from fractions import Fraction
    check_prime(p)
    delta, d = Fraction(delta), Fraction(d)
    a, b = delta.numerator, delta.denominator
    c, e = d.numerator, d.denominator
    if not 0 < a <= b:
        raise ValueError("delta must lie in (0, 1]")
    if not 0 < c <= e:
        raise ValueError("d must lie in (0, 1]")
    return _meijer(a, b, c, e, p)


def _meijer(a: int, b: int, c: int, e: int, p: int) -> tuple[bool | None, float]:
    """``meijer_bound_check`` of delta = a/b and d = c/e, where 0 < a <= b and
    0 < c <= e, in lowest terms or not: integer true division is correctly
    rounded.  A delta whose float underflows to 0.0 gets upper = 0.0, as the
    product would; one whose reciprocal overflows takes log(1/delta) from the
    integers."""
    deltaf = a / b
    upper = 0.0
    if deltaf:
        inverse = 1.0 / deltaf
        log_inverse = math.log(b) - math.log(a) if inverse == math.inf else math.log(inverse)
        upper = deltaf * (2.0 + (2.0 * (p - 1) / math.log(p)) * log_inverse)
    if not a * e < c * b:  # not delta < d, compared as integers
        return False, upper
    df = c / e
    if abs(df - upper) <= MEIJER_TOLERANCE:
        return None, upper
    return df < upper, upper
