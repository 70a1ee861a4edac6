import itertools
import json
import random
from fractions import Fraction

import pytest

from padiclds import cli, permcheck, polynomials
from padiclds.discrepancy import padic_discrepancy
from padiclds.padic import InvariantError
from padiclds.permcheck import (
    METHOD_BRUTE_FORCE,
    METHOD_NOEBAUER,
    METHOD_UNIT_REDUCTION,
    Verdict,
    classify_low_discrepancy,
    classify_via_reduction,
    divergence_scan,
    first_missing_residue,
    is_permutation_mod,
    noebauer_mod_p2,
)
from padiclds.polynomials import (
    IntPolynomial,
    derivative,
    eval_mod,
    parse_poly,
    reduce_functional,
    render,
    unit_value_poly,
)
from padiclds.sequence import poly_sequence
from affine_oracle import affine_compose


def perm_oracle(f, m):
    """Independent occupancy check via a set of images."""
    return len({eval_mod(f, x, m) for x in range(m)}) == m


class TestIsPermutationMod:
    @pytest.mark.parametrize(
        "text,m,expected",
        [
            ("x^3 - 2x", 3, True),
            ("x^3 - 2x", 9, True),   # oracle-confirmed below
            ("x^2 + x", 3, False),
        ],
    )
    def test_examples(self, text, m, expected):
        f = parse_poly(text)
        assert perm_oracle(f, m) == expected
        assert is_permutation_mod(f, m) == expected

    def test_cap(self):
        with pytest.raises(ValueError, match="enumeration too large"):
            is_permutation_mod(parse_poly("x"), 10**7 + 1)
        with pytest.raises(ValueError, match="modulus must be >= 1"):
            is_permutation_mod(parse_poly("x"), 0)

    def test_missing_residue_helper(self):
        f = parse_poly("x^2")  # mod 3 misses residue 2
        assert first_missing_residue(f, 3) == 2
        assert first_missing_residue(parse_poly("x"), 3) is None


class TestNoebauer:
    def test_prop_family_member(self):
        v = noebauer_mod_p2(parse_poly("x^3 + x"), 3)
        assert v.perm_mod_p and v.perm_mod_p2 and v.low_discrepancy
        assert v.derivative_root is None
        assert v.method == METHOD_NOEBAUER

    def test_monomial_with_derivative_root(self):
        v = noebauer_mod_p2(parse_poly("x^5"), 3)
        assert v.perm_mod_p and not v.perm_mod_p2
        assert v.derivative_root == 0

    def test_cube_mod_5(self):
        v = noebauer_mod_p2(parse_poly("x^3"), 5)
        assert v.perm_mod_p and not v.perm_mod_p2
        assert v.derivative_root == 0

    def test_missing_residue_when_not_perm(self):
        v = noebauer_mod_p2(parse_poly("x^2"), 3)
        assert not v.perm_mod_p
        assert v.missing_residue == (1, 2)


class TestClassify:
    def test_positive(self):
        assert classify_low_discrepancy(parse_poly("x^3 + x"), 3).low_discrepancy

    def test_monomial_family_negative(self):
        v = classify_low_discrepancy(parse_poly("2x^9 + 3"), 3)
        assert not v.low_discrepancy

    def test_table_instance(self):
        assert classify_low_discrepancy(parse_poly("x^6 + 2x"), 11).low_discrepancy

    def test_method_tag_and_witnesses(self):
        v = classify_low_discrepancy(parse_poly("x^5"), 3)
        assert v.method == METHOD_BRUTE_FORCE
        assert v.perm_mod_p and not v.perm_mod_p2
        assert v.derivative_root == 0
        # n^5 mod 9 never hits 3: the smallest missing level-2 residue
        assert v.missing_residue == (2, 3)
        assert 3 not in {pow(n, 5, 9) for n in range(9)}

    def test_enumeration_disagreement_raises(self, monkeypatch):
        monkeypatch.setattr(permcheck, "is_permutation_mod", lambda f, m: False)
        with pytest.raises(InvariantError, match="Noebauer criterion disagrees"):
            classify_low_discrepancy(parse_poly("x^3 + x"), 3)

    @staticmethod
    def root_free_non_permutation(p):
        """The first x^3 + a*x, 0 < a < p, that misses a residue mod p while
        its derivative has no root mod p."""
        return next(f for a in range(1, p)
                    for f in [IntPolynomial([0, a, 0, 1])]
                    for v in [noebauer_mod_p2(f, p)]
                    if not v.perm_mod_p and v.derivative_root is None)

    @pytest.mark.parametrize("branch", ["root", "pair"])
    def test_non_lds_verdict_enumerates_nothing_mod_p2(self, monkeypatch, branch):
        # the root branch checks (r, r + p) at the root r = p - 1 of 2x + 2;
        # the pair branch lifts the first repeat mod p of a root-free f
        p, f = (1163, parse_poly("x^2 + 2x")) if branch == "root" else (
            1019, self.root_free_non_permutation(1019))
        moduli = []

        def recorded(coeffs, m, stop_at_repeat):
            moduli.append(m)
            return polynomials._image(coeffs, m, stop_at_repeat)

        monkeypatch.setattr(permcheck, "_image", recorded)
        permcheck._mod_p_facts.cache_clear()
        v = classify_low_discrepancy(f, p)
        assert not v.perm_mod_p and not v.perm_mod_p2
        assert v.derivative_root == (p - 1 if branch == "root" else None)
        assert moduli == [p]  # the mod-p table only

    def test_lds_verdict_enumerates_once(self, monkeypatch):
        calls = []

        def recorded(g, m):
            calls.append((g, m))
            return is_permutation_mod(g, m)

        monkeypatch.setattr(permcheck, "is_permutation_mod", recorded)
        f = parse_poly("x^6 + 2x")
        assert classify_low_discrepancy(f, 11).low_discrepancy
        assert calls == [(f, 121)]

    @pytest.mark.parametrize("text,p,facts", [
        ("x^2 + 2x", 1163, (0, 0)),     # the root of 2x + 2 is p - 1, not 0
        ("x^3 + x", 3, (None, 1)),      # f' = 3x^2 + 1 has no root mod 3
        ("x^6 + 2x", 11, (4, None)),    # f permutes Z/11: nothing is missed
    ])
    def test_wrong_mod_p_facts_fail_the_collision(self, monkeypatch, text, p, facts):
        monkeypatch.setattr(permcheck, "_mod_p_facts", lambda g, dg, q: facts)
        with pytest.raises(InvariantError, match="Noebauer criterion disagrees"):
            classify_low_discrepancy(parse_poly(text), p)

    def test_verdict_invariants_enforced(self):
        with pytest.raises(ValueError, match="conjunction"):
            Verdict(True, True, False, 0, None, METHOD_BRUTE_FORCE)
        with pytest.raises(ValueError, match="derivative-root"):
            Verdict(False, True, False, None, None, METHOD_NOEBAUER)
        with pytest.raises(ValueError, match="level-1"):
            Verdict(False, False, False, None, None, METHOD_BRUTE_FORCE)


class TestClassifyViaReduction:
    def test_examples(self):
        assert not classify_via_reduction(parse_poly("x^5 + x"), 3).low_discrepancy
        assert classify_via_reduction(parse_poly("x^3 + x"), 3).low_discrepancy
        # the known false positive: formula says yes, ground truth says no
        v = classify_via_reduction(parse_poly("x^5"), 3)
        assert v.low_discrepancy
        assert v.method == METHOD_UNIT_REDUCTION
        assert not classify_low_discrepancy(parse_poly("x^5"), 3).low_discrepancy

    def test_agrees_below_fold_degree(self):
        # below degree p-1 the foldings are literally f and f'
        rng = random.Random(61)
        for p in (3, 5, 7):
            for _ in range(120):
                deg = rng.randint(0, p - 2)
                f = IntPolynomial([rng.randint(0, p - 1) for _ in range(deg + 1)])
                assert (
                    classify_via_reduction(f, p).low_discrepancy
                    == classify_low_discrepancy(f, p).low_discrepancy
                )

    def test_rejects_p2(self):
        with pytest.raises(ValueError):
            classify_via_reduction(parse_poly("x"), 2)


class TestSharedModPFacts:
    """The (missing residue, derivative root) pair shared between the routes."""

    def test_key_keeps_p(self):
        f = parse_poly("x^3")  # permutes Z/5 (root 0 of f'), not Z/7
        for p in (5, 7, 5, 7):
            for route, method in ((noebauer_mod_p2, METHOD_NOEBAUER),
                                  (classify_via_reduction, METHOD_UNIT_REDUCTION)):
                assert route(f, p) == _criterion_oracle(f, derivative(f), p, method), p
        assert noebauer_mod_p2(f, 5).perm_mod_p and not noebauer_mod_p2(f, 7).perm_mod_p

    def test_lifts_by_p_share_verdicts(self):
        # f dense up to degree 5p plus sparse terms up to x^1000; its lift adds
        # sparse terms up to x^1000 whose coefficients p divides
        rng = random.Random(83)
        for p in (2, 3, 5, 7, 11, 13):
            for _ in range(12):
                cs = [rng.randint(-p, 2 * p) for _ in range(rng.randint(1, 5 * p + 1))]
                cs += [0] * 1000
                for _ in range(rng.randint(0, 2)):
                    cs[rng.randint(5 * p, 1000)] += rng.randint(1, 2 * p)
                f = IntPolynomial(cs)
                for _ in range(rng.randint(1, 3)):
                    cs[rng.randint(0, 1000)] += p * rng.choice([-1, 1, 2])
                lift = IntPolynomial(cs)
                assert noebauer_mod_p2(lift, p) == noebauer_mod_p2(f, p), (f, lift, p)
                for h in (f, lift):
                    assert classify_low_discrepancy(h, p) == _brute_oracle(h, p), (h, p)
                    dh = derivative(h)
                    assert noebauer_mod_p2(h, p) == _criterion_oracle(
                        h, dh, p, METHOD_NOEBAUER), (h, p)
                    if p >= 3:
                        # the unit folds, checked point by point: degree <= p-2 and
                        # equal to h and h' at the p-1 units, so unique
                        g, dg = unit_value_poly(h, p), unit_value_poly(dh, p)
                        assert max(g.degree, dg.degree) <= p - 2
                        assert all(eval_mod(g, x, p) == eval_mod(h, x, p)
                                   and eval_mod(dg, x, p) == eval_mod(dh, x, p)
                                   for x in range(1, p))
                        assert classify_via_reduction(h, p) == _criterion_oracle(
                            g, dg, p, METHOD_UNIT_REDUCTION), (h, p)
                if p >= 3:
                    assert classify_via_reduction(lift, p) == classify_via_reduction(f, p), (f, p)

    @pytest.mark.parametrize("text,verdict", [
        ("x + 101*x^20000", (True, None, None)),  # confirmed by the image mod p^2
        ("x^3 + 101*x^20000", (False, 0, (2, 101))),  # a level-2 witness from a root
        ("x^20000 + x", (False, 99, (1, 1))),  # the collision at the root 99
        ("x^20060 + 78*x^3 + 2*x", (False, None, (1, 1))),  # root-free: a lifted repeat
    ])
    def test_tables_mod_p_read_at_most_p_coefficients(self, monkeypatch, text, verdict):
        # every table mod p is a fold's, whatever deg f; only the tables mod
        # p^2 that confirm a verdict read f's own coefficients
        p, reads = 101, []

        def spy(name, modulus):  # modulus: the index of m among the arguments
            real = getattr(permcheck, name)

            def recorded(*args):
                reads.append((len(args[0]), args[modulus]))
                return real(*args)
            monkeypatch.setattr(permcheck, name, recorded)

        for name, modulus in (("_image", 1), ("_roots_mod", 1), ("_values", 2)):
            spy(name, modulus)
        permcheck._mod_p_facts.cache_clear()
        f = parse_poly(text)
        v = classify_low_discrepancy(f, p)
        assert (v.low_discrepancy, v.derivative_root, v.missing_residue) == verdict
        assert noebauer_mod_p2(f, p) == v._replace(method=METHOD_NOEBAUER, missing_residue=(
            v.missing_residue if v.missing_residue and v.missing_residue[0] == 1 else None))
        classify_via_reduction(f, p)
        mod_p = [n for n, m in reads if m == p]
        assert mod_p and max(mod_p) <= p, reads
        assert all(m in (p, p * p) for n, m in reads), reads

    def test_root_scan_stops_at_the_first_root(self):
        steps = []

        class Counted(int):
            def __radd__(self, other):  # the "v * x + c" of each Horner step of dg
                steps.append(other)
                return int(other) + int(self)

        # dg = (x - 3)(x - 5): at p = 37, below the crossover, Horner at x = 0,
        # 1, 2, 3, not at all p residues; at p = 101, past it, Horner only at
        # the seeds x = 0, 1, 2.  The scan resumes after the first root.
        for p, evaluated in ((37, 4), (101, 3)):
            g, dg = reduce_functional(parse_poly("x"), p), IntPolynomial([Counted(15), p - 8, 1])
            assert dg == reduce_functional(dg, p)  # reduced, below degree p: its own fold
            steps.clear()
            assert permcheck._mod_p_facts.__wrapped__(g, dg, p) == (None, 3)
            assert len(steps) == evaluated
            assert list(polynomials._roots_mod((15, p - 8, 1), p)) == [3, 5]

    def test_folding_route_reads_the_noebauer_pair(self):
        # deg f <= p-2: the foldings are f and f' mod p, so no new tables
        permcheck._mod_p_facts.cache_clear()
        noebauer_mod_p2(parse_poly("x^3 + 7x + 1"), 5)
        classify_via_reduction(parse_poly("x^3 + 7x + 1"), 5)
        assert permcheck._mod_p_facts.cache_info()[:2] == (1, 1)  # (hits, misses)
        # deg f > p-2: the foldings differ from f and f', so they get their own
        classify_via_reduction(parse_poly("x^5 + x"), 5)
        assert permcheck._mod_p_facts.cache_info()[:2] == (1, 2)


class TestNoebauerEquivalenceSweep:
    """Reduced-scale version of the acceptance sweep (full scale in test_acceptance)."""

    def test_p3_exhaustive_degree3(self):
        p = 3
        for coeffs in itertools.product(range(p * p), repeat=4):
            f = IntPolynomial(coeffs)
            assert noebauer_mod_p2(f, p).perm_mod_p2 == is_permutation_mod(f, p * p)

    def test_p5_sampled(self):
        rng = random.Random(67)
        p = 5
        for _ in range(4000):
            f = IntPolynomial([rng.randint(0, p * p - 1) for _ in range(4)])
            assert noebauer_mod_p2(f, p).perm_mod_p2 == is_permutation_mod(f, p * p)

    def test_hensel_lift_p5_sampled(self):
        rng = random.Random(71)
        p = 5
        found = 0
        while found < 60:
            f = IntPolynomial([rng.randint(0, p * p - 1) for _ in range(4)])
            if is_permutation_mod(f, p * p):
                found += 1
                assert is_permutation_mod(f, p**3)


class TestMonomialImpossibility:
    def test_sweep(self):
        for p in (3, 5, 7):
            for a in range(1, p):
                for b in range(p):
                    for n in range(2, 11):
                        coeffs = [b] + [0] * (n - 1) + [a]
                        v = classify_low_discrepancy(IntPolynomial(coeffs), p)
                        assert not v.low_discrepancy, (p, a, b, n)


class TestAffineStability:
    def test_exhaustive_p3_degree4(self):
        p = 3
        maps = [
            ((a, b), (c, d))
            for a in (1, 2) for b in (0, 1, 2) for c in (1, 2) for d in (0, 1, 2)
        ]
        rng = random.Random(73)
        for coeffs in itertools.product(range(p), repeat=5):
            f = IntPolynomial(coeffs)
            base = classify_low_discrepancy(f, p).low_discrepancy
            outer, inner = rng.choice(maps)
            g = affine_compose(f, outer, inner, p)
            assert classify_low_discrepancy(g, p).low_discrepancy == base

    def test_perm_mod_p_preserved_exhaustive_small(self):
        p = 3
        for coeffs in itertools.product(range(p), repeat=4):
            f = IntPolynomial(coeffs)
            base = is_permutation_mod(f, p)
            for outer, inner in [((2, 1), (1, 0)), ((1, 0), (2, 2)), ((2, 2), (2, 1))]:
                g = affine_compose(f, outer, inner, p)
                assert is_permutation_mod(g, p) == base


class TestDivergenceScan:
    def test_degree4_entries_all_genuine_and_no_quintic(self):
        report = divergence_scan(3, 4, range(0, 3))
        assert all(e.poly.degree <= 4 for e in report.entries)
        for e in report.entries:
            assert e.ground_truth.low_discrepancy != e.formula.low_discrepancy
            # re-verify both sides independently
            assert e.ground_truth.low_discrepancy == (
                perm_oracle(e.poly, 3) and perm_oracle(e.poly, 9)
            )

    def test_degree6_contains_the_quintic_witness(self):
        report = divergence_scan(3, 6, range(0, 3))
        quintic = next(e for e in report.entries if e.poly.coeffs == (0, 0, 0, 0, 0, 1))
        assert quintic.formula.low_discrepancy
        assert not quintic.ground_truth.low_discrepancy
        assert pow(3, 5, 9) == pow(0, 5, 9) == 0  # the collision behind the verdict
        # criterion 08's count, every verdict against the point-by-point oracles
        assert len(report.entries) == 324
        for e in report.entries:
            assert e.ground_truth == _brute_oracle(e.poly, 3), e.poly
            g, dg = unit_value_poly(e.poly, 3), unit_value_poly(derivative(e.poly), 3)
            assert e.formula == _criterion_oracle(g, dg, 3, METHOD_UNIT_REDUCTION), e.poly

    def test_degree1_empty(self):
        report = divergence_scan(3, 1, range(0, 3))
        assert report.entries == ()

    def test_ordering_and_cap(self):
        report = divergence_scan(3, 5, range(0, 3))
        keys = [(e.poly.degree, e.poly.coeffs) for e in report.entries]
        assert keys == sorted(keys)
        with pytest.raises(ValueError, match="cap"):
            divergence_scan(3, 20, range(0, 3))
        with pytest.raises(ValueError, match="empty coefficient range"):
            divergence_scan(3, 2, range(0))

    @pytest.mark.parametrize("p,max_degree,coefficients,count",
                             [(3, 5, range(-4, 2), 108), (5, 4, range(2, 7), 160)])
    def test_wrapped_ranges_come_in_degree_then_coefficient_order(
            self, p, max_degree, coefficients, count):
        # the residues of a range that wraps past p are enumerated sorted
        report = divergence_scan(p, max_degree, coefficients)
        keys = [(e.poly.degree, e.poly.coeffs) for e in report.entries]
        assert len(keys) == count
        assert keys == sorted(keys)

    def test_cap_stops_counting(self):
        # the count stops once it passes the cap instead of summing 10^9 degrees
        message = r"^search space of at least 1594323 candidates exceeds cap 1000000$"
        with pytest.raises(ValueError, match=message):
            divergence_scan(3, 10**9, range(3))

    def test_zero_only_range_scans_the_constant(self):
        # no nonzero lead: only the constant 0 is a candidate, whatever the degree
        for p, coefficients in ((3, range(0, 1)), (7, range(7, 8)), (5, range(0, 10, 5))):
            report = divergence_scan(p, 10**6, coefficients)
            assert (report.candidates, report.entries) == (1, ())

    def test_canonicalizes_coefficient_range(self):
        # ranges that differ only by mod-p lifts scan the same residue space;
        # a stepped range scans only its own members' residues
        for p, coefficients, residues in ((3, range(0, 6), range(0, 3)),
                                          (3, range(0, 9, 3), range(0, 1)),
                                          (5, range(9, -1, -2), range(0, 5)),
                                          (5, range(1, 30, 5), range(1, 2))):
            assert divergence_scan(p, 3, coefficients) == divergence_scan(p, 3, residues)


def _image(g, m):
    return {eval_mod(g, x, m) for x in range(m)}


def _smallest_missing(image, m):
    return min(set(range(m)) - image, default=None)


def _smallest_root(g, p):
    return next((x for x in range(p) if eval_mod(g, x, p) == 0), None)


def _criterion_oracle(g, dg, p, method):
    """Verdict "g permutes Z/p and dg is root-free mod p", point by point."""
    missing = _smallest_missing(_image(g, p), p)
    root = _smallest_root(dg, p)
    ok = missing is None and root is None
    return Verdict(ok, missing is None, ok, root, None if missing is None else (1, missing), method)


def _brute_oracle(f, p):
    missing_p = _smallest_missing(_image(f, p), p)
    missing_p2 = _smallest_missing(_image(f, p * p), p * p)
    perm_p, perm_p2 = missing_p is None, missing_p2 is None
    missing = (1, missing_p) if not perm_p else None if perm_p2 else (2, missing_p2)
    return Verdict(perm_p and perm_p2, perm_p, perm_p2, _smallest_root(derivative(f), p),
                   missing, METHOD_BRUTE_FORCE)


def exhaustive_cases():
    """Every (f, p) with p in {2, 3, 5, 7} and f of degree <= 3 over [0, p)."""
    for p in (2, 3, 5, 7):
        for coeffs in itertools.product(range(p), repeat=4):
            yield IntPolynomial(coeffs), p


def sampled_cases():
    """150 seeded (f, p) per p in {2, 3, 5, 7}, f of degree p..p+4 with negatives."""
    rng = random.Random(79)
    for p in (2, 3, 5, 7):
        for _ in range(150):
            degree = rng.randint(p, p + 4)
            coeffs = [rng.randint(-p, 2 * p) for _ in range(degree)] + [rng.randint(1, p - 1)]
            yield IntPolynomial(coeffs), p


class TestCertificateOracle:
    """Every Verdict field of the three routes against a point-by-point oracle."""

    def check(self, f, p):
        brute = _brute_oracle(f, p)
        assert classify_low_discrepancy(f, p) == brute, (f, p)
        noeb = _criterion_oracle(f, derivative(f), p, METHOD_NOEBAUER)
        assert noebauer_mod_p2(f, p) == noeb, (f, p)
        assert noeb.perm_mod_p2 == brute.perm_mod_p2  # the criterion itself
        if p >= 3:
            df = derivative(f)
            g, dg = unit_value_poly(f, p), unit_value_poly(df, p)
            assert all(eval_mod(g, x, p) == eval_mod(f, x, p) for x in range(1, p))
            assert all(eval_mod(dg, x, p) == eval_mod(df, x, p) for x in range(1, p))
            assert classify_via_reduction(f, p) == _criterion_oracle(
                g, dg, p, METHOD_UNIT_REDUCTION), (f, p)
        return brute

    def test_exhaustive_degree3(self):
        levels = set()
        for f, p in exhaustive_cases():
            v = self.check(f, p)
            levels.add(v.missing_residue and v.missing_residue[0])
        assert levels == {None, 1, 2}  # every witness branch was exercised

    def test_sampled_degree_at_least_p(self):
        folded = 0
        for f, p in sampled_cases():
            self.check(f, p)
            if p >= 3:
                folded += unit_value_poly(f, p) != IntPolynomial(c % p for c in f.coeffs)
        assert folded > 0  # the foldings really differ from f

    @pytest.mark.parametrize("cases", [exhaustive_cases, sampled_cases])
    def test_verdict_equals_the_discrepancy_at_p_squared_plus_one(self, cases):
        # the paper's theorem as a third oracle, with no Noebauer table and no
        # enumeration mod p^2: an LDS f fills every ball as n -> n does, so
        # D_N = 1/N, and any other f misses a ball mod p or p^2, so D_N >= p^-2
        seen = set()
        for f, p in cases():
            N = p * p + 1
            lds = padic_discrepancy(poly_sequence(f, N), p).value == Fraction(1, N)
            assert classify_low_discrepancy(f, p).low_discrepancy == lds, (f, p)
            seen.add(lds)
        assert seen == {True, False}

    def test_cli_blocks_equal_the_library_verdicts(self, capsys):
        # cmd_classify derives its noebauer block from the brute-force verdict
        levels = set()
        for f, p in sampled_cases():
            assert cli.main(["classify", "--p", str(p), "--", render(f)]) == 0
            doc = json.loads(capsys.readouterr().out)
            assert doc["noebauer"] == noebauer_mod_p2(f, p).as_dict(), (f, p)
            assert doc["brute_force"] == classify_low_discrepancy(f, p).as_dict(), (f, p)
            if p >= 3:
                assert doc["unit_reduction"]["verdict"] == (
                    classify_via_reduction(f, p).as_dict()), (f, p)
            missing = doc["brute_force"]["missing_residue"]
            levels.add(missing and missing[0])
        assert levels == {None, 1, 2}


class TestFibreWitness:
    """The level-2 witness from the Hensel fibres equals the enumerated one."""

    def level2_cases(self, cases):
        for f, p in cases:
            if is_permutation_mod(f, p) and not is_permutation_mod(f, p * p):
                yield f, p

    def check(self, cases):
        seen = 0
        for f, p in self.level2_cases(cases):
            v = classify_low_discrepancy(f, p)
            assert v.missing_residue == (2, first_missing_residue(f, p * p)), (f, p)
            seen += 1
        return seen

    def test_exhaustive_degree3(self):
        assert self.check(exhaustive_cases()) > 0

    def test_sampled_degree_at_least_p(self):
        assert self.check(sampled_cases()) > 0

    def test_cube_at_1013_without_a_second_enumeration(self, monkeypatch):
        f = parse_poly("x^3")
        expected = first_missing_residue(f, 1013 * 1013)
        moduli = []

        def recorded(g, m):
            moduli.append(m)
            return first_missing_residue(g, m)

        monkeypatch.setattr(permcheck, "first_missing_residue", recorded)
        permcheck._mod_p_facts.cache_clear()
        assert classify_low_discrepancy(f, 1013).missing_residue == (2, expected) == (2, 1013)
        assert moduli == [1013]  # the mod-p table only
