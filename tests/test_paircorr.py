import random
import time
from fractions import Fraction

import pytest

from padiclds import paircorr
from padiclds.discrepancy import separation_depth
from padiclds.padic import valuation
from padiclds.paircorr import (
    MAX_RADIUS_BITS,
    F_statistic,
    _close_pairs,
    lds_pair_count,
    ppc_sweep,
    threshold_level,
)
from padiclds.polynomials import parse_poly
from padiclds.sequence import poly_sequence


def pair_count_oracle(values, p, k):
    """O(N^2) double loop over ordered pairs."""
    pk = p**k
    n = len(values)
    return sum(
        1
        for i in range(n)
        for j in range(n)
        if i != j and (values[i] - values[j]) % pk == 0
    )


def level_oracle(s, N, alpha, p):
    """Smallest k >= 0 with N^u * sv^v <= su^v * p^(k*v) for alpha = u/v and
    s = su/sv, by a fresh loop from k = 0."""
    u, v = alpha.numerator, alpha.denominator
    lhs, rhs, k = N ** u * s.denominator ** v, s.numerator ** v, 0
    while lhs > rhs:
        rhs, k = rhs * p ** v, k + 1
    return k


class TestThresholdLevel:
    @pytest.mark.parametrize(
        "s,N,alpha,p,expected",
        [
            (Fraction(1), 3**8, Fraction(1, 2), 3, 4),
            (Fraction(3), 9, Fraction(1), 3, 1),
            (Fraction(5), 2, Fraction(1), 3, 0),
        ],
    )
    def test_examples(self, s, N, alpha, p, expected):
        assert threshold_level(s, N, alpha, p) == expected

    def test_matches_radius_comparison(self):
        # smallest k with p^-k <= s/N^alpha, against float arithmetic on clear-cut cases
        rng = random.Random(131)
        for _ in range(300):
            p = rng.choice([2, 3, 5])
            N = rng.randint(1, 1000)
            s = Fraction(rng.randint(1, 50), rng.randint(1, 50))
            alpha = Fraction(rng.randint(1, 4), rng.randint(4, 8))
            k = threshold_level(s, N, alpha, p)
            radius = float(s) / N ** float(alpha)
            assert p ** -k <= radius * (1 + 1e-9)
            if k > 0:
                assert p ** -(k - 1) > radius * (1 - 1e-9)

    def test_nonincreasing_in_s(self):
        levels = [
            threshold_level(Fraction(num, 12), 81, Fraction(1), 3, )
            for num in range(1, 40)
        ]
        assert levels == sorted(levels, reverse=True)

    def test_rejects_nonpositive_s(self):
        with pytest.raises(ValueError, match="measure vanishes at s = 0"):
            threshold_level(Fraction(0), 5, Fraction(1), 3)

    def test_rejects_alpha_outside_the_statistic_domain(self):
        with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\]"):
            threshold_level(Fraction(1), 5, Fraction(3, 2), 3)
        with pytest.raises(ValueError, match="alpha = 1/1001 has denominator 1001"):
            threshold_level(Fraction(1), 5, Fraction(1, 1001), 3)

    def test_oversized_radius_rejected_before_any_power(self):
        # the level loop would take about 3,300 steps on a 3.3-million-bit bound
        start = time.perf_counter()
        with pytest.raises(ValueError, match="radius s of 3323 bits .* at alpha = 1/1000"):
            threshold_level(Fraction(1, 10**1000), 10**5, Fraction(1, 1000), 2)
        assert time.perf_counter() - start < 0.1

    def test_radius_bits_admitted_up_to_the_limit(self):
        # v = 1 and p = 2 make the most level steps per bit: one per bit of s
        s = Fraction(1, 2 ** (MAX_RADIUS_BITS - 2))  # 1 + (MAX_RADIUS_BITS - 1) bits
        assert threshold_level(s, 10**5, Fraction(1), 2) == MAX_RADIUS_BITS - 2 + 17
        with pytest.raises(ValueError, match=f"at most {MAX_RADIUS_BITS}"):
            threshold_level(s / 2, 10**5, Fraction(1), 2)
        with pytest.raises(ValueError, match=f"needs {3 * MAX_RADIUS_BITS} bits"):
            threshold_level(s, 10**5, Fraction(1, 3), 2)


def pair_count(values, p, k):
    """``_close_pairs`` at the one cell (len(values), k)."""
    return _close_pairs(values, p, [(len(values), k)])[len(values), k]


class TestPairCount:
    @pytest.mark.parametrize(
        "values,p,k,expected",
        [
            (list(range(1, 10)), 3, 1, 18),
            (list(range(1, 10)), 3, 3, 0),
            ([5, 5], 7, 2, 2),
        ],
    )
    def test_examples(self, values, p, k, expected):
        assert pair_count_oracle(values, p, k) == expected
        assert pair_count(values, p, k) == expected

    def test_matches_double_loop(self):
        rng = random.Random(137)
        for _ in range(40):
            N = rng.randint(1, 200)
            values = [rng.randint(0, 500) for _ in range(N)]
            p = rng.choice([2, 3, 5])
            k = rng.randint(0, 4)
            assert pair_count(values, p, k) == pair_count_oracle(values, p, k)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_levels_serving_several_sizes_match_the_double_loop(self, p):
        # one running count per level serves every size: long stretches (m^2
        # summed over all classes) and single values into a level with many
        # classes (summed over the classes they reach), with repeats, level 0
        # and repeated requests
        rng = random.Random(149 + p)
        values = [rng.randint(-60, 60) for _ in range(150)]
        sizes = [1, 2, 3, 40, 41, 42, 43, 90, 149, 150]
        requests = [(N, k) for N in sizes for k in range(5)]
        assert _close_pairs(values, p, requests + requests[::7]) == {
            (N, k): pair_count_oracle(values[:N], p, k) for N, k in requests}


class TestFStatistic:
    def test_identity_sequence_closed_form(self):
        N = 3**8
        assert F_statistic(range(1, N + 1), 3, Fraction(1, 2), Fraction(1)) == Fraction(80, 81)

    def test_permutation_polynomial_has_no_close_pairs(self):
        values = poly_sequence(parse_poly("x^3 + x"), 27)
        assert F_statistic(values, 3, Fraction(1), Fraction(1, 2)) == 0

    def test_other_confirmed_generators_share_the_zero(self):
        # s < 1 at alpha = 1 and N = p^k gives exactly zero close pairs for
        # any confirmed generator, not just the classic cubic
        for text, p, Ns in (("x^5 + 4x^3 + 4x", 5, (25, 125)), ("x^6 + 2x", 11, (121,))):
            values = poly_sequence(parse_poly(text), max(Ns))
            for N in Ns:
                for s in (Fraction(1, 2), Fraction(9, 10)):
                    assert F_statistic(values[:N], p, Fraction(1), s) == 0, (text, N, s)

    def test_whole_ring_level_counts_all_pairs(self):
        assert F_statistic((0, 1, 2, 3, 4), 3, Fraction(1), Fraction(9)) == Fraction(4, 5)

    def test_nonnegative(self):
        rng = random.Random(139)
        for _ in range(100):
            N = rng.randint(1, 60)
            values = [rng.randint(0, 100) for _ in range(N)]
            alpha = Fraction(rng.randint(1, 2), 2)
            s = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            assert F_statistic(values, 3, alpha, s) >= 0

    def test_input_validation(self):
        with pytest.raises(ValueError, match="alpha"):
            F_statistic((1,), 3, Fraction(3, 2), Fraction(1))
        with pytest.raises(ValueError, match="measure vanishes"):
            F_statistic((1,), 3, Fraction(1), Fraction(0))
        with pytest.raises(ValueError, match=f"at most {MAX_RADIUS_BITS} is supported"):
            F_statistic((1,), 2, Fraction(1), Fraction(1, 2 ** MAX_RADIUS_BITS))
        with pytest.raises(ValueError, match="need at least one value"):
            F_statistic((), 3, Fraction(1), Fraction(1))


class TestSweep:
    def test_identity_sequence_approaches_one(self):
        rows = ppc_sweep(
            list(range(1, 3**8 + 1)),
            3,
            Fraction(1, 2),
            [Fraction(1)],
            [3**k for k in range(4, 9)],
        )
        values = [F for _, _, F in rows]
        assert values[-1] == Fraction(80, 81)
        assert values == sorted(values)
        assert all(v < 1 for v in values)

    def test_permutation_polynomial_all_zero(self):
        values = poly_sequence(parse_poly("x^3 + x"), 81)
        rows = ppc_sweep(
            values, 3, Fraction(1),
            [Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)],
            [27, 81],
        )
        assert all(F == 0 for _, _, F in rows)
        assert len(rows) == 6

    def test_square_has_collisions(self):
        values = poly_sequence(parse_poly("x^2"), 9)
        rows = ppc_sweep(values, 3, Fraction(1), [Fraction(1)], [9])
        assert rows[0][2] > 0

    def test_schedule_order_preserved(self):
        values = list(range(1, 28))
        rows = ppc_sweep(values, 3, Fraction(1), [Fraction(1), Fraction(2)], [27, 9, 3])
        assert [(N, s) for N, s, _ in rows] == [
            (27, 1), (27, 2), (9, 1), (9, 2), (3, 1), (3, 2)
        ]

    def test_empty_schedule_rejected(self):
        with pytest.raises(ValueError):
            ppc_sweep([1], 3, Fraction(1), [Fraction(1)], [])

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_grid_equals_statistic_per_cell(self, p):
        # unsorted schedules with repeats; radii from the whole ring (k = 0)
        # to balls deeper than the separation depth
        rng = random.Random(191 + p)
        reached = set()
        for _ in range(6):
            span = rng.choice([5, 50, 2000])
            values = [rng.randint(-span, span) for _ in range(rng.randint(30, 120))]
            depth = separation_depth(values, p)
            schedule = [rng.randint(1, len(values)) for _ in range(5)]
            schedule += [schedule[0], len(values), 1]
            rng.shuffle(schedule)
            alpha = Fraction(rng.randint(1, 3), 3)
            radii = [Fraction(len(values)), Fraction(1), Fraction(1, 2),
                     Fraction(1, p ** depth), Fraction(1, p ** (depth + 3))]
            rows = ppc_sweep(values, p, alpha, radii, schedule)
            assert [(N, s) for N, s, _ in rows] == [(N, s) for N in schedule for s in radii]
            for N, s, F in rows:
                k = level_oracle(s, N, alpha, p)
                assert threshold_level(s, N, alpha, p) == k
                reached.add("whole ring" if k == 0 else "past k_sep+1" if k > depth + 1 else "ball")
                assert F == F_statistic(values[:N], p, alpha, s), (p, N, s)
                assert F == Fraction(p ** k * pair_count_oracle(values[:N], p, k), N * N)
        assert reached == {"whole ring", "ball", "past k_sep+1"}

    def test_one_level_walk_per_radius(self, monkeypatch):
        walks = []
        walk = paircorr._levels

        def counted(s, *args):
            walks.append(s)
            return walk(s, *args)

        monkeypatch.setattr(paircorr, "_levels", counted)
        radii = [Fraction(1, 3), Fraction(1), Fraction(2)]
        schedule = list(range(300, 0, -1)) + [7, 300]
        for source in (list(range(1, 301)), None):
            walks.clear()
            ppc_sweep(source, 3, Fraction(1, 2), radii, schedule)
            assert walks == radii

    def test_radius_at_the_bit_bound_is_walked_once(self):
        # a fresh loop per size would climb the 10^4 levels 2,000 times
        s = Fraction(1, 2 ** 9990)
        start = time.perf_counter()
        rows = ppc_sweep(None, 2, Fraction(1), [s], list(range(1, 2001)))
        assert time.perf_counter() - start < 2
        assert rows == [(N, s, 0) for N in range(1, 2001)]  # no two values within 2^-9990
        assert threshold_level(s, 2000, Fraction(1), 2) == 9990 + 11

    @pytest.mark.parametrize("p,text", [(2, "x^4+x^2+x"), (3, "x^3+x"), (7, "5x+3")])
    def test_closed_form_source_equals_the_values(self, p, text):
        # source None: a sequence that permutes every Z/p^k, counted in closed form
        values = poly_sequence(parse_poly(text), 400)
        schedule = [400, 1, p * p, p * p - 1, 97, p * p + 1, 400]
        radii = [Fraction(400), Fraction(1), Fraction(1, 3), Fraction(1, p ** 9)]
        for alpha in (Fraction(1, 3), Fraction(1, 2), Fraction(1)):
            assert ppc_sweep(None, p, alpha, radii, schedule) == ppc_sweep(
                values, p, alpha, radii, schedule)
        for N in (1, 2, p, 97, 400):
            for k in range(6):
                assert lds_pair_count(N, p, k) == pair_count_oracle(values[:N], p, k), (N, k)
        with pytest.raises(ValueError, match="need at least one value"):
            ppc_sweep(None, p, Fraction(1), [Fraction(1)], [3, 0])

    def test_validation_messages(self):
        values = [1, 2, 3]
        with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\]"):
            ppc_sweep(values, 3, Fraction(3, 2), [Fraction(1)], [3])
        with pytest.raises(ValueError, match="measure vanishes"):
            ppc_sweep(values, 3, Fraction(1), [Fraction(1), Fraction(0)], [3])
        with pytest.raises(ValueError, match="only 3 values available, N=4"):
            ppc_sweep(values, 3, Fraction(1), [Fraction(1)], [2, 4, 5])
        with pytest.raises(ValueError, match="need at least one value"):
            ppc_sweep(values, 3, Fraction(1), [Fraction(1)], [0])
        with pytest.raises(ValueError, match="level k must be >= 0"):
            lds_pair_count(5, 3, -1)
        with pytest.raises(ValueError, match="N must be >= 1"):
            threshold_level(Fraction(1), 0, Fraction(1), 3)
