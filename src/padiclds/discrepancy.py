"""Exact p-adic and real discrepancy of finite point sets.

The p-adic discrepancy is a supremum over balls of all radii.  It is made
finite in three exact pieces:

* levels k = 1 .. k_sep+1, where k_sep is the separation depth of the point
  set (beyond it, ball occupancy counts equal exact-value multiplicities);
  occupied residues are found by grouping, never by enumerating p^k classes;
* the first level with an unoccupied residue contributes p^-k, which
  dominates every deeper empty-ball term;
* the tail supremum c*/N, where c* is the maximum multiplicity among exact
  values (the k -> infinity limit of an occupied ball's term).

Everything is computed in exact rational arithmetic.  The only floating point
in the whole package is the transcendental upper bound of the p-adic-to-real
discrepancy transfer inequality, quarantined in ``meijer_bound_check`` behind
a declared tolerance and a three-valued answer.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .padic import InvariantError, PAdicApprox, check_prime

WITNESS_TAIL = "tail"


@dataclass(frozen=True)
class DiscrepancyResult:
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
    distinct = set(values)
    if len(distinct) <= 1:
        return 1
    k = 1
    while True:
        pk = p ** k
        groups: dict[int, int] = {}
        ok = True
        for v in distinct:
            r = v % pk
            if r in groups:
                ok = False
                break
            groups[r] = v
        if ok:
            return k
        k += 1


def _smallest_missing(occupied_sorted: list[int]) -> int:
    for i, r in enumerate(occupied_sorted):
        if i != r:
            return i
    return len(occupied_sorted)


def _discrepancy_core(values: list[int], multiplicities: Counter, k_sep: int, p: int) -> DiscrepancyResult:
    """Shared supremum scan over levels 1..k_sep+1 plus the tail term.

    Ties are broken toward smaller level, then smaller residue, with the tail
    considered last, so the witness is deterministic.
    """
    N = len(values)
    best = Fraction(-1)
    best_level: int | str = 0
    best_residue: int | None = None
    empty_found = False
    for k in range(1, k_sep + 2):
        pk = p ** k
        measure = Fraction(1, pk)
        counts: Counter = Counter(v % pk for v in values)
        candidates = {z: abs(Fraction(c, N) - measure) for z, c in counts.items()}
        if not empty_found and len(counts) < pk:
            # only the shallowest empty level matters: deeper ones are smaller
            empty_found = True
            candidates[_smallest_missing(sorted(counts))] = measure
        for z in sorted(candidates):
            if candidates[z] > best:
                best, best_level, best_residue = candidates[z], k, z
    cstar = max(multiplicities.values())
    tail = Fraction(cstar, N)
    if tail > best:
        best, best_level, best_residue = tail, WITNESS_TAIL, None
    if not Fraction(1, N) <= best <= 1:
        raise InvariantError(f"internal error: discrepancy {best} outside [1/N, 1] for N={N}")
    return DiscrepancyResult(
        value=best,
        witness_level=best_level,
        witness_residue=best_residue,
        separation_depth=k_sep,
    )


def padic_discrepancy(values: list[int], p: int) -> DiscrepancyResult:
    """Exact supremum over all balls of |empirical proportion - measure|.

    Values are exact integers, so every ball depth is answerable; the result
    is the true supremum, not an approximation.
    """
    check_prime(p)
    if not values:
        raise ValueError("need at least one value")
    k_sep = separation_depth(values, p)
    return _discrepancy_core(values, Counter(values), k_sep, p)


def padic_discrepancy_truncated(values: list[PAdicApprox], p: int) -> DiscrepancyResult:
    """Same supremum for points known only mod p^K.

    Requires the separation depth of the residues to be at most K-1: only then
    have the occupancy counts provably stabilized within the known digits, so
    equal residues can be treated as equal points.
    """
    check_prime(p)
    if not values:
        raise ValueError("need at least one value")
    K = values[0].precision
    for v in values:
        if v.p != p:
            raise ValueError("values must live at the given prime")
        if v.precision != K:
            raise ValueError("values must share the precision K")
    residues = [v.value for v in values]
    k_sep = separation_depth(residues, p)
    if k_sep > K - 1:
        raise ValueError(
            f"insufficient precision K={K}: counts not stabilized by level {K - 1}"
        )
    return _discrepancy_core(residues, Counter(residues), k_sep, p)


def discrepancy_profile(values: list[int], p: int) -> list[Fraction]:
    """Exact discrepancies of every prefix: [D_1, D_2, ..., D_N].

    Incremental counterpart of ``padic_discrepancy`` (no witnesses); per-level
    occupancy extremes are maintained under insertion, so the whole profile
    costs about one level scan per point instead of one full pass per prefix.
    """
    check_prime(p)
    if not values:
        raise ValueError("need at least one value")

    class _Level:
        __slots__ = ("pk", "counts", "sample", "hist", "maxc", "minc", "clean")

        def __init__(self, pk: int) -> None:
            self.pk = pk
            self.counts: dict[int, int] = {}
            self.sample: dict[int, int] = {}  # residue -> one exact value seen there
            self.hist: Counter = Counter()    # count -> number of residues with it
            self.maxc = 0
            self.minc = 0
            self.clean = True  # no residue holds two distinct exact values

        def add(self, v: int) -> None:
            r = v % self.pk
            c = self.counts.get(r, 0)
            if c == 0:
                self.sample[r] = v
            elif self.sample[r] != v:
                self.clean = False
            self.counts[r] = c + 1
            if c:
                self.hist[c] -= 1
                if self.hist[c] == 0:
                    del self.hist[c]
            self.hist[c + 1] += 1
            if c + 1 > self.maxc:
                self.maxc = c + 1
            if c == 0:
                self.minc = 1
            elif self.minc == c and c not in self.hist:
                m = c + 1
                while m not in self.hist:
                    m += 1
                self.minc = m

    levels: list[_Level] = [_Level(p)]
    seen: list[int] = []
    mult: Counter = Counter()
    cstar = 0
    out: list[Fraction] = []

    for v in values:
        seen.append(v)
        mult[v] += 1
        cstar = max(cstar, mult[v])
        for lv in levels:
            lv.add(v)
        # invariant: some level below the deepest is clean, so the scan range
        # 1..k_sep+1 always lies within the maintained levels
        while len(levels) < 2 or not levels[-2].clean:
            nxt = _Level(levels[-1].pk * p)
            for w in seen:
                nxt.add(w)
            levels.append(nxt)
        N = len(seen)
        best = Fraction(cstar, N)
        empty_found = False
        k_sep = next(i + 1 for i, lv in enumerate(levels) if lv.clean)
        for k in range(1, k_sep + 2):
            lv = levels[k - 1]
            measure = Fraction(1, lv.pk)
            hi = Fraction(lv.maxc, N) - measure
            lo = measure - Fraction(lv.minc, N)
            if hi > best:
                best = hi
            if lo > best:
                best = lo
            if not empty_found and len(lv.counts) < lv.pk:
                empty_found = True
                if measure > best:
                    best = measure
        out.append(best)
    return out


# --------------------------------------------------------------------------
# Real (extreme) discrepancy on [0,1)
# --------------------------------------------------------------------------

def real_extreme_discrepancy(points: list[Fraction]) -> Fraction:
    """Exact extreme discrepancy over half-open subintervals of [0,1).

    With sorted points x_(1) <= ... <= x_(N), the supremum splits into the
    largest positive and largest negative deviation of the empirical counting
    function, evaluated at the points themselves:

        D_N = max(0, max_i(i/N - x_(i))) + max(0, max_i(x_(i) - (i-1)/N))

    computed in integers over the common denominator of the points.
    """
    if not points:
        raise ValueError("need at least one point")
    pts = sorted(Fraction(x) for x in points)
    for x in pts:
        if not 0 <= x < 1:
            raise ValueError(f"point {x} outside [0,1)")
    N = len(pts)
    Q = 1
    for x in pts:
        Q = Q * x.denominator // math.gcd(Q, x.denominator)
    scaled = [x.numerator * (Q // x.denominator) for x in pts]
    over = max(0, max((i + 1) * Q - a * N for i, a in enumerate(scaled)))
    under = max(0, max(a * N - i * Q for i, a in enumerate(scaled)))
    return Fraction(over + under, N * Q)


def meijer_bound_check(
    delta: Fraction, d: Fraction, p: int, tolerance: float = 1e-9
) -> tuple[bool | None, float]:
    """Check the two-sided transfer inequality between delta (p-adic) and d (real).

    The lower inequality delta < d is exact rational comparison.  The upper
    bound delta * (2 + (2(p-1)/log p) * log(1/delta)) is transcendental and is
    evaluated in binary floating point; a comparison within ``tolerance`` of
    equality returns None ("indeterminate") instead of guessing.

    Returns (holds, upper) with holds in {True, False, None}.
    """
    check_prime(p)
    delta = Fraction(delta)
    d = Fraction(d)
    if not 0 < delta <= 1:
        raise ValueError("delta must lie in (0, 1]")
    if not 0 < d <= 1:
        raise ValueError("d must lie in (0, 1]")
    upper = float(delta) * (2.0 + (2.0 * (p - 1) / math.log(p)) * math.log(1.0 / float(delta)))
    if not delta < d:
        return False, upper
    df = float(d)
    if abs(df - upper) <= tolerance:
        return None, upper
    return df < upper, upper
