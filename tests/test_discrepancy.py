import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from padiclds import discrepancy
from padiclds.discrepancy import (
    STRETCH_MIN,
    WITNESS_TAIL,
    DiscrepancyResult,
    _Level,
    _meijer,
    _supremum,
    discrepancy_profile,
    meijer_bound_check,
    padic_discrepancy,
    prefix_discrepancy_rows,
    prefix_real_discrepancy_rows,
    real_extreme_discrepancy,
    separation_depth,
)
from padiclds.padic import InvariantError, monna_of_int, valuation
from padiclds.polynomials import parse_poly
from padiclds.sequence import poly_sequence


# --------------------------------------------------------------------------
# Independent oracles
# --------------------------------------------------------------------------

def naive_padic_discrepancy(values, p):
    """Direct sup with its witness: every ball at levels 1..k_sep+1, scanned
    level by level and residue by residue, then the tail; a later candidate
    wins only when strictly larger.  k_sep is the pairwise-valuation depth."""
    N = len(values)
    k_sep = pair_valuation_depth(values, p)
    scale = p ** (k_sep + 1)  # every term is an integer over N * scale
    best, level, residue = -1, None, None
    for k in range(1, k_sep + 2):
        pk = p**k
        counts = Counter(v % pk for v in values)
        for z in range(pk):
            term = abs(counts.get(z, 0) * pk - N) * (scale // pk)  # |count/N - 1/pk|
            if term > best:
                best, level, residue = term, k, z
    tail = max(Counter(values).values()) * scale
    if tail > best:
        best, level, residue = tail, WITNESS_TAIL, None
    return DiscrepancyResult(Fraction(best, N * scale), level, residue, k_sep)


def naive_real_discrepancy(points):
    """Grid maximization with closed and open endpoint variants.

    Half-open intervals approach, but do not attain, their extreme counts;
    the supremum is attained on the endpoint grid once both the closed count
    (shrunk interval) and open count (grown interval) are considered.
    """
    pts = sorted(points)
    N = len(pts)
    grid = sorted(set(pts) | {Fraction(0), Fraction(1)})
    best = Fraction(0)
    for i, a in enumerate(grid):
        for b in grid[i:]:
            closed = sum(1 for x in pts if a <= x <= b)
            opened = sum(1 for x in pts if a < x < b)
            length = b - a
            best = max(best, Fraction(closed, N) - length, length - Fraction(opened, N))
    return best


def pair_valuation_depth(values, p):
    """Literal definition: 1 + max valuation over differences of distinct values."""
    best = 0
    found = False
    for i, x in enumerate(values):
        for y in values[i + 1:]:
            if x != y:
                found = True
                best = max(best, valuation(x - y, p))
    return 1 + best if found else 1


# --------------------------------------------------------------------------
# Separation depth
# --------------------------------------------------------------------------

class TestSeparationDepth:
    @pytest.mark.parametrize(
        "values,p,expected", [([1, 2, 3], 3, 1), ([1, 10], 3, 3), ([5], 7, 1)]
    )
    def test_examples(self, values, p, expected):
        assert separation_depth(values, p) == expected
        assert pair_valuation_depth(values, p) == expected

    def test_matches_pairwise_definition(self):
        rng = random.Random(83)
        for _ in range(200):
            p = rng.choice([2, 3, 5])
            values = [rng.randint(-200, 200) for _ in range(rng.randint(1, 25))]
            assert separation_depth(values, p) == pair_valuation_depth(values, p)

    def test_all_equal(self):
        assert separation_depth([4, 4, 4], 3) == 1


# --------------------------------------------------------------------------
# p-adic discrepancy
# --------------------------------------------------------------------------

class TestPAdicDiscrepancy:
    def test_three_consecutive(self):
        res = padic_discrepancy([1, 2, 3], 3)
        assert res.value == Fraction(1, 3)
        assert res.witness_level == "tail"
        assert res.witness_residue is None

    def test_single_point(self):
        assert padic_discrepancy([1], 3).value == 1

    def test_permutation_sequence_is_one_over_N(self):
        values = poly_sequence(parse_poly("x^3 + x"), 200)
        for N in list(range(1, 31)) + [64, 100, 200]:
            res = padic_discrepancy(values[:N], 3)
            assert res.value == Fraction(1, N)
        for N in range(1, 31):
            assert naive_padic_discrepancy(values[:N], 3).value == Fraction(1, N)

    def test_agrees_with_naive_oracle(self):
        rng = random.Random(89)
        for _ in range(120):
            N = rng.randint(1, 30)
            values = [rng.randint(0, 120) for _ in range(N)]
            assert padic_discrepancy(values, 3) == naive_padic_discrepancy(values, 3)

    def test_translation_invariance(self):
        rng = random.Random(97)
        for _ in range(60):
            values = [rng.randint(0, 500) for _ in range(rng.randint(1, 40))]
            c = rng.randint(-1000, 1000)
            assert (
                padic_discrepancy(values, 3).value
                == padic_discrepancy([v + c for v in values], 3).value
            )

    def test_range_invariant(self):
        rng = random.Random(101)
        for _ in range(100):
            N = rng.randint(1, 40)
            values = [rng.randint(-50, 50) for _ in range(N)]
            v = padic_discrepancy(values, rng.choice([2, 3, 5])).value
            assert Fraction(1, N) <= v <= 1

    def test_witness_is_reproducible(self):
        rng = random.Random(103)
        for _ in range(80):
            N = rng.randint(2, 25)
            values = [rng.randint(0, 80) for _ in range(N)]
            res = padic_discrepancy(values, 3)
            if res.witness_level == "tail":
                cstar = max(Counter(values).values())
                assert res.value == Fraction(cstar, N)
            else:
                k, z = res.witness_level, res.witness_residue
                count = sum(1 for v in values if v % 3**k == z)
                assert res.value == abs(Fraction(count, N) - Fraction(1, 3**k))

    def test_out_of_range_value_raises_named_error(self):
        # levels and a multiplicity of three points, passed as two, put the
        # tail term above 1; the range check must catch it even under python -O
        levels = [_Level(3, [0, 0, 0]), _Level(9, [0, 0, 0])]
        with pytest.raises(InvariantError, match=r"outside \[1/N, 1\]"):
            _supremum(levels, [0, 0], 3, 2, 1, 3)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            padic_discrepancy([], 3)


class TestTruncatedDiscrepancy:
    # values known only mod p^K are reduced to residues and go through the
    # exact engine; levels up to K see the same counts as the full values
    def test_unit_slope_identity(self):
        values = [n % 3**4 for n in poly_sequence(parse_poly("x"), 9)]
        assert padic_discrepancy(values, 3).value == Fraction(1, 9)

    def test_non_unit_slope_misses_residues(self):
        values = [v % 3**4 for v in poly_sequence(parse_poly("3x"), 9)]
        assert padic_discrepancy(values, 3).value >= Fraction(1, 3)

    def test_single_point(self):
        assert padic_discrepancy([5 % 3**2], 3).value == 1

    def test_matches_exact_when_values_small(self):
        # residues pairwise distinct mod p^K: every ball count up to level K,
        # and so D_N with its witness, is the same for values and residues
        rng = random.Random(107)
        checked = 0
        for _ in range(60):
            N = rng.randint(1, 20)
            K = 6
            span = rng.choice([3**3, 10**6])
            values = [rng.randint(-span, span) for _ in range(N)]
            residues = [v % 3**K for v in values]
            if len(set(residues)) < N:
                continue
            assert padic_discrepancy(residues, 3) == padic_discrepancy(values, 3)
            checked += 1
        assert checked >= 30


class TestPrefixDiscrepancies:
    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_every_prefix_matches_naive_oracle(self, p):
        rng = random.Random(131 + p)
        shapes = 0
        for _ in range(60):
            # a small range forces repeats; a wide one deep separation
            span = rng.choice([3, 12, 60, 400])
            values = [rng.randint(-span, span) for _ in range(rng.randint(1, 30))]
            rows = prefix_discrepancy_rows(values, p)
            assert [row[0] for row in rows] == list(range(1, len(values) + 1))
            for N, num, den, level, *witness in rows:
                expected = naive_padic_discrepancy(values[:N], p)
                assert (Fraction(num, den), level, *witness) == expected, (p, values[:N])
                shapes |= 1 << (level == WITNESS_TAIL)
        assert shapes == 3  # both ball and tail witnesses occur

    def test_ties_go_to_the_smaller_residue_then_the_tail_last(self):
        # mod 3 the points 0, 1, 4 leave residue 2 empty (term 1/3) and put two
        # points on residue 1 (term 2/3 - 1/3); the tail term is 1/3 as well
        assert padic_discrepancy([0, 1, 4], 3) == DiscrepancyResult(Fraction(1, 3), 1, 1, 2)
        # the same ties, with the empty residue 0 the smaller one
        assert padic_discrepancy([2, 1, 4], 3) == DiscrepancyResult(Fraction(1, 3), 1, 0, 2)
        for values in ([0, 1, 4], [2, 1, 4]):
            assert naive_padic_discrepancy(values, 3) == padic_discrepancy(values, 3)

    def test_requested_lengths(self):
        values = [5, -1, 5, 8, 0, 13]
        rows = prefix_discrepancy_rows(values, 3, [6, 2, 6, 4])
        assert [row[0] for row in rows] == [2, 4, 6]
        for N, num, den, *witness in rows:
            assert (Fraction(num, den), *witness) == padic_discrepancy(values[:N], 3)
        for bad in ([0], [7], []):
            with pytest.raises(ValueError, match=r"^prefix lengths must lie in \[1, 6\]$"):
                prefix_discrepancy_rows(values, 3, bad)
        for bad in ([0], []):
            with pytest.raises(ValueError, match="^prefix lengths must be >= 1$"):
                prefix_discrepancy_rows(None, 3, bad)

    def test_closed_form_needs_lengths_of_at_least_1(self):
        # values None: one-line ValueErrors, never a TypeError from len(None)
        for bad in (None, [5, -2]):
            with pytest.raises(ValueError) as info:
                prefix_discrepancy_rows(None, 3, bad)
            assert "\n" not in str(info.value)
        assert prefix_discrepancy_rows(None, 3, [10, 1, 9, 3, 10]) == [
            (N, 1, N, WITNESS_TAIL, None, k) for N, k in ((1, 1), (3, 1), (9, 2), (10, 3))]

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_sparse_schedules_count_stretches_in_bulk_and_one_by_one(self, p, monkeypatch):
        # ingests into a level that already holds values are bulk stretches;
        # adds are the value-by-value ones
        paths = Counter()
        ingest, add = _Level.ingest, _Level.add

        def counted_ingest(self, values):
            paths["bulk"] += bool(self.counts)
            ingest(self, values)

        def counted_add(self, v):
            paths["add"] += 1
            add(self, v)

        monkeypatch.setattr(_Level, "ingest", counted_ingest)
        monkeypatch.setattr(_Level, "add", counted_add)
        rng = random.Random(173 + p)
        for _ in range(8):
            span = rng.choice([4, 30, 300])
            values = [rng.randint(-span, span) for _ in range(rng.randint(40, 150))]
            n = len(values)
            # long and short stretches, unsorted, with repeats
            lengths = [rng.randint(1, n) for _ in range(rng.randint(1, 6))]
            lengths += [lengths[0], n, n - 1, n - 2 - STRETCH_MIN, rng.randint(1, 4)]
            rng.shuffle(lengths)
            rows = prefix_discrepancy_rows(values, p, lengths)
            every = prefix_discrepancy_rows(values, p)
            assert [row[0] for row in rows] == sorted(set(lengths))
            for N, num, den, *witness in rows:
                assert (N, num, den, *witness) == every[N - 1], (p, N)
                assert (Fraction(num, den), *witness) == naive_padic_discrepancy(values[:N], p)
        assert paths["bulk"] > 0 and paths["add"] > 0

    @pytest.mark.parametrize("pk", [2, 3, 4, 9, 25])
    def test_level_extremes_follow_adds_and_ingests(self, pk):
        # after every add and ingest, (maxc, minc, nmin) equals a recount over
        # all pk residues, an unoccupied one counting 0; whole rounds of
        # consecutive values lift every residue, so minc rises as well
        rng = random.Random(pk)

        def value():
            return rng.randrange(-3 * pk, 3 * pk)

        for _ in range(20):
            level = _Level(pk, [value() for _ in range(rng.randint(1, pk))])
            for _ in range(rng.randint(1, 3 * pk)):
                start = value()
                stretch = rng.choice([[value()], range(start, start + pk),
                                      [value() for _ in range(rng.randint(1, 2 * pk))]])
                if rng.random() < 0.7:
                    steps = [(level.add, v) for v in stretch]
                else:
                    steps = [(level.ingest, stretch)]
                for step, arg in steps:
                    step(arg)
                    counts = [level.counts.get(r, 0) for r in range(pk)]
                    assert len(level.counts) == len(counts) - counts.count(0)
                    assert (level.maxc, level.minc, level.nmin) == (
                        max(counts), min(counts), counts.count(min(counts)))


class TestBoundedLevelScan:
    """The ball levels are scanned from k = 1 only as deep as the supremum
    needs; the scan stops once the deeper terms are bounded by the best one."""

    @staticmethod
    def samples(p, rng, n=400):
        yield [p * m + 1 for m in range(1, n + 1)]  # a*n + b with p | a
        yield [2 * p * m - 7 for m in range(1, n + 1)]  # p | a, negative at first
        yield [-3 * p * m + 5 for m in range(1, n + 1)]  # negative values
        yield [m * m - 5 * m for m in range(1, n + 1)]  # x^2 - 5x: f(m) = f(5 - m) repeats
        yield [rng.randint(-40, 40) for _ in range(n)]  # many repeats: the tail wins

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_rows_on_the_bound_match_the_naive_oracle(self, p):
        # dense, sparse (odd and even N), unsorted with repeats and
        # long-stretch schedules, up to N = 400
        rng = random.Random(307 + p)
        witnesses = set()
        for values in self.samples(p, rng):
            n = len(values)
            naive = {}
            runs = [(values[:48], None), (values, [n // 2 - 1, n // 2, n - 1, n]),
                    (values, [n, 37, n // 2, 37, 1, n - 1]), (values, [1, n])]
            for prefix, lengths in runs:
                rows = prefix_discrepancy_rows(prefix, p, lengths)
                for N, num, den, level, residue, depth in rows:
                    if N not in naive:
                        naive[N] = naive_padic_discrepancy(values[:N], p)
                    assert den == N * p ** (depth + 1)
                    res = DiscrepancyResult(Fraction(num, den), level, residue, depth)
                    assert res == naive[N], (p, N, values[:3])
                    witnesses.add(level == WITNESS_TAIL)
        assert witnesses == {False, True}

    def test_a_decided_level_stops_the_scan(self, monkeypatch):
        # 2n+1 at p = 2: every value is odd, so level 1's term 1/2 is the
        # supremum, and at N = 1500 level 2's counts already bound every deeper
        # term by it (at odd N, level 3's); levels 1 .. k_sep + 1 would be 13
        built = []
        init = _Level.__init__

        def counted_init(self, pk, values):
            built.append(pk)
            init(self, pk, values)

        monkeypatch.setattr(_Level, "__init__", counted_init)
        values = [2 * n + 1 for n in range(1, 1501)]
        for lengths in ([1500], [1499, 1500], None):
            built.clear()
            rows = prefix_discrepancy_rows(values, 2, lengths)
            assert rows[-1] == (1500, 1500 * 2**12, 1500 * 2**13, 1, 0, 12)
            assert len(built) <= 3, (lengths, built)
        assert naive_padic_discrepancy(values, 2) == DiscrepancyResult(Fraction(1, 2), 1, 0, 12)


class TestIntegerRows:
    """The engines' integer rows reduce exactly to the oracles, and each
    Fraction view is its engine's row."""

    @staticmethod
    def schedules(rng, n):
        # dense (None), sparse, unsorted with repeats, and long-stretch ones
        sparse = sorted(rng.sample(range(1, n + 1), min(n, 4)))
        unsorted = [rng.randint(1, n) for _ in range(6)] + [n, 1]
        return [None, sparse, unsorted + unsorted[:3], [n], [1, n - 1 or 1, n]]

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_padic_rows_reduce_to_the_views_and_the_oracle(self, p):
        rng = random.Random(211 + p)
        certified = [poly_sequence(parse_poly(f), 60)  # f permutes every Z/p^k
                     for f, ok in (("x", True), ("5x+3", p != 5), ("x^3+x", p == 3)) if ok]
        samples = certified + [[rng.randint(-span, span) for _ in range(rng.randint(1, 60))]
                               for span in (3, 12, 60, 400) for _ in range(2)]
        for values in samples:
            for lengths in self.schedules(rng, len(values)):
                rows = prefix_discrepancy_rows(values, p, lengths)
                wanted = sorted(set(lengths or range(1, len(values) + 1)))
                assert isinstance(rows, list) and [row[0] for row in rows] == wanted
                for N, num, den, level, residue, depth in rows:
                    assert den == N * p ** (depth + 1)
                    res = DiscrepancyResult(Fraction(num, den), level, residue, depth)
                    assert res == naive_padic_discrepancy(values[:N], p), (p, N)
        for values in certified:
            # the closed form's witnesses, and D_N = 1/N: numerator * N = denominator
            engine = prefix_discrepancy_rows(values, p)
            closed = prefix_discrepancy_rows(None, p, range(1, 61))
            assert [(N, *w) for N, _, _, *w in engine] == [(N, *w) for N, _, _, *w in closed]
            assert all(num * N == den for N, num, den, *_ in engine + closed)

    @pytest.mark.parametrize("Q", [1, 9, 64, 3**5])
    def test_real_rows_reduce_to_the_views_and_the_oracle(self, Q):
        rng = random.Random(223 + Q)
        numerators = [rng.randrange(Q) for _ in range(30)]
        for lengths in self.schedules(rng, len(numerators)):
            rows = prefix_real_discrepancy_rows(numerators, Q, lengths)
            wanted = sorted(set(lengths or range(1, len(numerators) + 1)))
            assert isinstance(rows, list) and [row[0] for row in rows] == wanted
            for N, num, den in rows:
                assert den == N * Q
                pts = [Fraction(a, Q) for a in numerators[:N]]
                assert Fraction(num, den) == naive_real_discrepancy(pts), (Q, N)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_each_view_is_its_engine_row_at_every_length(self, p):
        rng = random.Random(227 + p)
        for span in (3, 60, 400):  # tail and ball witnesses
            values = [rng.randint(-span, span) for _ in range(50)]
            profile = discrepancy_profile(values, p)
            for N, num, den, *witness in prefix_discrepancy_rows(values, p):
                assert profile[N - 1] == Fraction(num, den)
                assert padic_discrepancy(values[:N], p) == (Fraction(num, den), *witness)
        Q = p**4
        numerators = [rng.randrange(Q) for _ in range(50)]
        for N, num, den in prefix_real_discrepancy_rows(numerators, Q):
            points = [Fraction(a, Q) for a in numerators[:N]]
            assert real_extreme_discrepancy(points) == Fraction(num, den)


class TestDiscrepancyProfile:
    def test_equals_pointwise_computation(self):
        rng = random.Random(109)
        for _ in range(25):
            N = rng.randint(1, 60)
            values = [rng.randint(-100, 400) for _ in range(N)]
            p = rng.choice([2, 3, 5])
            profile = discrepancy_profile(values, p)
            assert len(profile) == N
            for n in range(1, N + 1):
                assert profile[n - 1] == naive_padic_discrepancy(values[:n], p).value

    def test_permutation_profile(self):
        values = poly_sequence(parse_poly("x^3 + x"), 300)
        assert discrepancy_profile(values, 3) == [Fraction(1, n) for n in range(1, 301)]


# --------------------------------------------------------------------------
# Real discrepancy and the transfer inequality
# --------------------------------------------------------------------------

class TestRealExtremeDiscrepancy:
    def test_worked_examples(self):
        pts = [Fraction(1, 9), Fraction(1, 3), Fraction(2, 3)]
        assert naive_real_discrepancy(pts) == Fraction(4, 9)
        assert real_extreme_discrepancy(pts) == Fraction(4, 9)
        assert real_extreme_discrepancy([Fraction(0), Fraction(1, 2)]) == Fraction(1, 2)
        grid = [Fraction(k, 10) for k in range(10)]
        assert real_extreme_discrepancy(grid) == Fraction(1, 10)

    def test_matches_grid_oracle_randomized(self):
        rng = random.Random(113)
        for _ in range(150):
            N = rng.randint(1, 12)
            pts = [
                Fraction(rng.randint(0, d - 1), d)
                for d in (rng.randint(1, 64) for _ in range(N))
            ]
            assert real_extreme_discrepancy(pts) == naive_real_discrepancy(pts)

    def test_point_outside_unit_interval(self):
        with pytest.raises(ValueError, match="outside"):
            real_extreme_discrepancy([Fraction(3, 2)])
        with pytest.raises(ValueError, match="outside"):
            real_extreme_discrepancy([Fraction(-1, 2)])
        # the first offending point in sorted order is named
        with pytest.raises(ValueError, match=r"^point -1/2 outside \[0,1\)$"):
            real_extreme_discrepancy([Fraction(3, 2), Fraction(-1, 3), Fraction(-1, 2)])
        with pytest.raises(ValueError, match=r"^point 1 outside \[0,1\)$"):
            real_extreme_discrepancy([Fraction(5, 3), Fraction(1, 3), Fraction(1)])

    def test_repeated_points(self):
        pts = [Fraction(1, 2)] * 4
        assert real_extreme_discrepancy(pts) == naive_real_discrepancy(pts) == 1


class TestPrefixRealDiscrepancies:
    @pytest.mark.parametrize("Q", [1, 2, 9, 64, 3**5])
    def test_every_prefix_matches_grid_oracle(self, Q):
        rng = random.Random(Q)
        numerators = [rng.randrange(Q) for _ in range(40)]
        rows = prefix_real_discrepancy_rows(numerators, Q)
        assert [row[0] for row in rows] == list(range(1, 41))
        for N, num, den in rows:
            pts = [Fraction(a, Q) for a in numerators[:N]]
            assert Fraction(num, den) == naive_real_discrepancy(pts), (Q, N)

    def test_schedules_give_the_same_rows(self):
        # dense, sparse (long stretches, appended and re-sorted), unsorted and
        # repeated schedules against the dense profile and the one-length call
        rng = random.Random(131)
        Q = 7**4
        numerators = [rng.randrange(Q) for _ in range(300)]
        every = prefix_real_discrepancy_rows(numerators, Q)
        for lengths in ([300], [1, 2, 3, 299, 300], [150, 7, 150, 1, 300, 7],
                        list(range(5, 301, 5)), [40, 41, 42, 200]):
            rows = prefix_real_discrepancy_rows(numerators, Q, lengths)
            assert [row[0] for row in rows] == sorted(set(lengths))
            for N, num, den in rows:
                pts = [Fraction(a, Q) for a in numerators[:N]]
                assert (N, num, den) == every[N - 1]
                assert Fraction(num, den) == real_extreme_discrepancy(pts), N

    def test_lengths_contract(self):
        with pytest.raises(ValueError, match="at least one point"):
            prefix_real_discrepancy_rows([], 3)
        for bad in ([0], [1, 4], [], [-1]):
            with pytest.raises(ValueError, match=r"prefix lengths must lie in \[1, 3\]"):
                prefix_real_discrepancy_rows([0, 1, 2], 3, bad)

    def test_points_outside_unit_interval(self):
        with pytest.raises(ValueError, match=r"^point -1/3 outside \[0,1\)$"):
            prefix_real_discrepancy_rows([5, -1, 4], 3)
        with pytest.raises(ValueError, match=r"^point 4/3 outside \[0,1\)$"):
            prefix_real_discrepancy_rows([5, 1, 4], 3, [1])
        with pytest.raises(ValueError, match="common denominator"):
            prefix_real_discrepancy_rows([0], 0)


class TestMeijerBound:
    def test_worked_point(self):
        holds, upper = meijer_bound_check(Fraction(1, 3), Fraction(4, 9), 3)
        assert holds is True
        assert upper == pytest.approx(2.0, abs=1e-12)

    def test_lower_failure(self):
        holds, _ = meijer_bound_check(Fraction(1, 2), Fraction(1, 4), 3)
        assert holds is False

    def test_indeterminate_band(self):
        # a tiny delta keeps the upper bound below 1, so d can sit exactly on
        # it (float-to-Fraction conversion is exact): the check must refuse to
        # decide rather than guess
        delta = Fraction(1, 10**9)
        _, upper = meijer_bound_check(delta, Fraction(1, 2), 3)
        d = Fraction(upper)
        assert delta < d < 1
        holds, _ = meijer_bound_check(delta, d, 3)
        assert holds is None

    def test_underflowing_delta(self):
        # a/b underflows to 0.0, where 1.0 / 0.0 used to raise; the upper
        # bound is then 0.0 and the tolerance decides
        tiny = Fraction(1, 10**400)
        for d, holds in ((Fraction(1, 2), False), (2 * tiny, None)):
            got = meijer_bound_check(tiny, d, 3)
            assert got == (holds, 0.0) and repr(got[1]) == "0.0"

    def test_subnormal_delta(self):
        # a/b is subnormal, so 1.0 / (a/b) overflows; log(1/delta) comes from
        # the integers and the bound, about 2.7e-317, stays finite and below d
        holds, upper = meijer_bound_check(Fraction(1, 10**320), Fraction(1, 2), 3)
        exact = 2 + 4 / math.log(3) * 320 * math.log(10)  # the bound times 10^320
        assert holds is False and math.isfinite(upper)
        assert float(Fraction(upper) * 10**320) == pytest.approx(exact, rel=0.01)

    @pytest.mark.parametrize("p", [2, 3, 7])
    def test_integer_helper_on_reduced_and_unreduced_pairs(self, p):
        # the integer core gives meijer_bound_check's (holds, upper) bit for
        # bit, whether or not each pair is in lowest terms
        rng = random.Random(229 + p)
        tiny = Fraction(1, 10**9)
        band = Fraction(meijer_bound_check(tiny, Fraction(1, 2), 3)[1])
        assert meijer_bound_check(tiny, band, 3)[0] is None  # test_indeterminate_band's input
        pairs = [(tiny, Fraction(1, 2)), (tiny, band), (Fraction(1, 10**400), Fraction(1, 2))]
        for k in (1, 2, 6, 30):
            for _ in range(8):
                a, b = sorted(rng.randint(1, 10**k) for _ in range(2))
                c, e = sorted(rng.randint(1, 99) for _ in range(2))
                pairs.append((Fraction(a, b), Fraction(c, e)))
        for delta, d in pairs:
            holds, upper = meijer_bound_check(delta, d, p)
            for s, t in ((1, 1), (rng.randint(2, 10**6), 1), (3**40, 2**70)):
                got = _meijer(delta.numerator * s, delta.denominator * s,
                              d.numerator * t, d.denominator * t, p)
                assert (got[0], repr(got[1])) == (holds, repr(upper)), (delta, d, p, s, t)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            meijer_bound_check(Fraction(0), Fraction(1, 2), 3)
        with pytest.raises(ValueError):
            meijer_bound_check(Fraction(1, 2), Fraction(0), 3)

    @pytest.mark.parametrize("p", [2, 3, 7])
    def test_int_str_and_fraction_inputs_agree_with_the_definition(self, p):
        # the float upper bound of delta, delta < d exactly, and a float
        # comparison of d with the bound within the tolerance
        grid = sorted({Fraction(a, b) for b in range(1, 9) for a in range(1, b + 1)})
        for delta in grid:
            for d in grid:
                upper = float(delta) * (2.0 + (2.0 * (p - 1) / math.log(p))
                                        * math.log(1.0 / float(delta)))
                if not delta < d:
                    expected = (False, upper)
                elif abs(float(d) - upper) <= discrepancy.MEIJER_TOLERANCE:
                    expected = (None, upper)
                else:
                    expected = (float(d) < upper, upper)
                got = meijer_bound_check(delta, d, p)
                assert got == expected and repr(got[1]) == repr(upper), (delta, d, p)
                assert meijer_bound_check(str(delta), str(d), p) == got
                if delta.denominator == d.denominator == 1:
                    assert meijer_bound_check(int(delta), int(d), p) == got

    def test_pipeline_point(self):
        values = [1, 2, 3, 4, 5, 6, 7, 8, 9]
        delta = padic_discrepancy(values, 3).value
        points = [monna_of_int(v, 3) for v in values]
        d = real_extreme_discrepancy(points)
        assert delta == Fraction(1, 9)
        holds, _ = meijer_bound_check(delta, d, 3)
        assert holds is True

    def test_lower_inequality_on_random_value_sets(self):
        rng = random.Random(127)
        for _ in range(40):
            N = rng.randint(1, 50)
            values = [rng.randint(0, 3**6) for _ in range(N)]
            delta = padic_discrepancy(values, 3).value
            d = real_extreme_discrepancy([monna_of_int(v, 3) for v in values])
            assert delta < d or (delta == 1 and d == 1)
