import copy
import itertools
import pickle
import random
from math import gcd, isqrt

import pytest

from padiclds.permcheck import first_missing_residue
from padiclds.polynomials import (
    MAX_EXPONENT,
    IntPolynomial,
    _crossover,
    _image,
    _roots_mod,
    _values,
    PolyParseError,
    derivative,
    eval_mod,
    parse_poly,
    reduce_functional,
    render,
    unit_value_poly,
)
from affine_oracle import affine_compose


def random_poly(rng, max_degree=8, bound=20):
    return IntPolynomial(
        rng.randint(-bound, bound) for _ in range(rng.randint(0, max_degree + 1))
    )


class TestIntPolynomial:
    def test_canonical_trim(self):
        assert IntPolynomial([1, 2, 0, 0]).coeffs == (1, 2)
        assert IntPolynomial([0, 0]).coeffs == ()
        assert IntPolynomial().degree == -1

    def test_copy_and_pickle_round_trip(self):
        f = IntPolynomial([1, 2])
        for g in (copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
            assert type(g) is IntPolynomial and g == f and hash(g) == hash(f)
            with pytest.raises(AttributeError, match="cannot assign to field 'coeffs'"):
                g.coeffs = (3,)

    def test_rejects_non_integers(self):
        with pytest.raises(TypeError):
            IntPolynomial([1.5])

    def test_exact_evaluation(self):
        f = parse_poly("x^3 - 2x")
        assert f(4) == 56
        assert f(-1) == 1


class TestParse:
    @pytest.mark.parametrize(
        "text,coeffs",
        [
            ("x^5 + 2*x^3 + x", (0, 1, 0, 2, 0, 1)),
            ("3", (3,)),
            ("x^3 - 2x + x", (0, -1, 0, 1)),  # like terms combine
            ("-x^2 + 3", (3, 0, -1)),
            ("2x", (0, 2)),
            ("  x ^ 2  -  1 ", (-1, 0, 1)),
            ("0", ()),
            ("\u0663x", (0, 3)),  # an Arabic-Indic digit is decimal
            ("x\xa0+\u30001", (1, 1)),  # every str.isspace character is whitespace
        ],
    )
    def test_expression_form(self, text, coeffs):
        assert parse_poly(text).coeffs == coeffs

    @pytest.mark.parametrize(
        "text,coeffs",
        [
            ("[1,0,-2,0]", (0, -2, 0, 1)),  # degree-descending input
            ("[3]", (3,)),
            ("[]", ()),
            ("[0, 0, 5]", (5,)),
        ],
    )
    def test_coefficient_list_form(self, text, coeffs):
        assert parse_poly(text).coeffs == coeffs

    @pytest.mark.parametrize("bad,position,message", [
        ("", 0, "empty polynomial expression"),
        ("  ", 2, "empty polynomial expression"),
        ("x +", 3, "dangling sign"),
        ("x^", 2, "expected digits"),
        ("x^-2", 2, "expected digits"),
        ("^2", 0, "expected term, found '^'"),
        ("*x", 0, "expected term, found '*'"),
        ("--x", 1, "expected term, found '-'"),
        ("x**2", 1, "expected '+' or '-', found '*'"),
        ("2 2", 2, "expected '+' or '-', found '2'"),
        ("2*", 2, "expected 'x' after '*'"),
        # digits that are not decimal belong to the literal, which int() refuses
        ("1\u00b2x", 0, "invalid integer '1\u00b2'"),
        ("x^\u00b2", 2, "invalid integer '\u00b2'"),
        # a list entry is placed where it starts in the text as typed, spaces
        # after its comma included, not where its text first occurs
        ("[1, a]", 3, "invalid integer 'a'"),
        ("[1,,2]", 3, "invalid integer ''"),
        (" [1,]", 4, "invalid integer ''"),
        ("[-1,-]", 4, "invalid integer '-'"),
        ("[1_0,1_]", 1, "invalid integer '1_0'"),
        ("[ 7 , 1x]", 5, "invalid integer '1x'"),
        ("  [1,2", 5, "coefficient list must be enclosed in [ ]"),
    ])
    def test_errors_carry_position(self, bad, position, message):
        with pytest.raises(PolyParseError) as err:
            parse_poly(bad)
        assert err.value.position == position
        assert str(err.value) == f"syntax error at position {position}: {message}"

    def test_invalid_list_entry_is_quoted(self):
        with pytest.raises(PolyParseError) as err:
            parse_poly("[1, a]")
        assert str(err.value) == "syntax error at position 3: invalid integer 'a'"

    @pytest.mark.parametrize("entry,quoted", [
        ("a" * 16, repr("a" * 16)),  # 16 characters are quoted in full
        ("a" * 17, repr("a" * 16) + "..."),
        ("a" + "b" * 5000, repr("a" + "b" * 15) + "..."),
    ], ids=["16", "17", "5001"])
    def test_long_invalid_list_entry_is_cut_to_16_characters(self, entry, quoted):
        with pytest.raises(PolyParseError) as err:
            parse_poly(f"[1, {entry}]")
        assert str(err.value) == f"syntax error at position 3: invalid integer {quoted}"

    def test_exponent_bound(self):
        # the limit itself parses; one more is refused at the exponent, before
        # any coefficient tuple is built
        f = parse_poly(f"3 - x^{MAX_EXPONENT}")
        assert f.degree == MAX_EXPONENT and f.coeffs[0] == 3 and f.coeffs[-1] == -1
        for exponent in (MAX_EXPONENT + 1, 10**4000):
            with pytest.raises(PolyParseError) as err:
                parse_poly(f"3 - x ^ {exponent}")
            assert err.value.position == 8
        assert str(err.value) == ("syntax error at position 8: exponent '1000000000000000'... "
                                  f"is above the limit of {MAX_EXPONENT}")

    def test_parse_render_round_trip(self):
        rng = random.Random(17)
        for _ in range(300):
            f = random_poly(rng)
            assert parse_poly(render(f)) == f
        assert render(IntPolynomial()) == "0"
        assert render(parse_poly("-x^3 - x - 7")) == "-x^3 - x - 7"


class TestEvalMod:
    def test_examples(self):
        assert eval_mod(parse_poly("x^3 - 2x"), 4, 9) == 2
        f = parse_poly("5x^2 - 3x + 11")
        assert eval_mod(f, 0, 7) == 11 % 7
        # a root of 4x^3 + 3 mod 7
        assert eval_mod(parse_poly("4x^3 + 3"), 1, 7) == 0

    def test_agrees_with_exact_evaluation(self):
        rng = random.Random(23)
        for _ in range(300):
            f = random_poly(rng)
            x = rng.randint(-50, 50)
            m = rng.randint(1, 97)
            assert eval_mod(f, x, m) == f(x) % m
        # points far past the modulus, moduli past any table, m = 1 and the
        # zero polynomial
        for _ in range(300):
            f = random_poly(rng)
            x = rng.randint(-10**6, 10**6)
            m = rng.randint(1, 10**9)
            assert eval_mod(f, x, m) == f(x) % m
            assert eval_mod(f, x, 1) == 0
            assert eval_mod(IntPolynomial(), x, m) == 0

    def test_bad_modulus(self):
        with pytest.raises(ValueError):
            eval_mod(IntPolynomial([1]), 0, 0)


def horner_table(coeffs, m, count=None):
    """[f(0) mod m, ..., f(count-1) mod m] (count m by default), one Horner
    loop per x."""
    table = []
    for x in range(m if count is None else count):
        v = 0
        for c in reversed(coeffs):
            v = (v * x + c) % m
        table.append(v)
    return table


def counted(coeffs):
    """(coeffs as ints that record each Horner step "v * x + c" they end, the
    list of those steps): the list's length counts the steps."""
    steps = []

    class Counted(int):
        def __radd__(self, other):
            steps.append(other)
            return int(other) + int(self)

    return [Counted(c) for c in coeffs], steps


def table_steps(coeffs, count):
    """The Horner steps of a table of ``count`` values: every x up to the
    crossover, and past it the d+1 seeds of the differences."""
    return (count if count <= _crossover(len(coeffs)) else len(coeffs) or 1) * len(coeffs)


class TestSquareRows:
    """_image against a Horner table: by its q fibres mod q^2 for q >= 16, read
    off a table over [0, 2q), and by a table of every x at every other modulus."""

    def check(self, coeffs, m):
        """Compare both modes with the oracle and return whether f is one-to-one
        mod m.  At q^2 with q >= 16 both modes take one table of 2q values; at
        any other m the full image takes a table of m values, and the
        injectivity test Horner at every x up to its first repeat."""
        image = bytearray(m)
        for v in horner_table(coeffs, m):
            image[v] = 1
        q = isqrt(m)
        fibres = q * q == m and q >= 16
        injective = all(image)
        for stop_at_repeat, expected in ((False, image), (True, image if injective else None)):
            spied, steps = counted(coeffs)
            assert _image(spied, m, stop_at_repeat) == expected, (coeffs, m, stop_at_repeat)
            if fibres or not stop_at_repeat:
                assert len(steps) == table_steps(coeffs, 2 * q if fibres else m)
            else:
                full = m * len(coeffs)
                assert len(steps) == full or expected is None and len(steps) < full
        return injective

    def test_random_degrees_and_moduli(self):
        rng = random.Random(61)
        answers = set()
        for q in (2, 3, 4, 5, 6, 7, 9, 11, 12, 13, 16, 17, 19, 23):
            for m in (q * q, q * q + 1):
                self.check((), m)  # the zero polynomial
            m = q * q
            # d >= q included, up to 2q where the moduli take fibres
            for d in [*range(18), *([q + 1, q + 5, 2 * q] if q >= 16 else [])]:
                for _ in range(6):
                    coeffs = [rng.randint(-3 * m, 3 * m) for _ in range(d)]
                    coeffs.append(rng.choice([-1, 1]) * rng.randint(1, 2 * q))
                    for modulus in (m, m - 1):
                        answers.add(self.check(coeffs, modulus))
                    # x + q*h(x) permutes Z/q^2 and exercises the full enumeration
                    perm = [q * c for c in coeffs]
                    if d >= 1:
                        perm[1] += 1
                        assert self.check(perm, m)
        assert answers == {False, True}

    @pytest.mark.parametrize("q", [3, 5])
    def test_every_polynomial_of_degree_at_most_2(self, q):
        answers = set()
        for coeffs in itertools.product(range(q * q), repeat=3):
            answers.add(self.check(IntPolynomial(coeffs).coeffs, q * q))
        assert answers == {False, True}

    @pytest.mark.parametrize("q", [211, 509])
    def test_large_square_moduli(self, q):
        rng = random.Random(q)
        for _ in range(2):
            coeffs = [rng.randrange(q * q) for _ in range(rng.randint(1, 9))]
            self.check(coeffs, q * q)
            # x + q*h(x) permutes Z/q^2: every fibre is a whole class mod q
            perm = [q * rng.randrange(q) for _ in range(rng.randint(2, 9))]
            perm[1] += 1
            assert self.check(perm, q * q)

    @pytest.mark.parametrize("q", [20, 24, 36])
    def test_fibres_at_composite_q(self, q):
        # 2x + 1: b - a = 2q, so s = 2q (1 < gcd(2, q) < q), half a class mod q;
        # q*x: b - a = q^2, so s = q^2 and each fibre is one value
        assert not self.check([1, 2], q * q)
        assert not self.check([0, q], q * q)

    def test_repeat_in_a_sample_row_stops_at_that_x(self):
        # a constant repeats at x = 1: two Horner steps, not 10^6 + 1
        spied, steps = counted([5])
        assert _image(spied, 10**6 + 1, True) is None
        assert len(steps) == 2

    def test_first_missing_residue_at_a_large_square(self):
        # x^3 + 7 permutes Z/1013 (1013 = 2 mod 3) but not Z/1013^2
        m = 1013 * 1013
        hit = {(pow(x, 3, m) + 7) % m for x in range(m)}
        expected = min(set(range(m)) - hit)
        spied, steps = counted(parse_poly("x^3 + 7").coeffs)
        assert first_missing_residue(IntPolynomial(spied), m) == expected
        assert len(steps) == 4 * 4  # the 4 seeds of a table over [0, 2026)


# degrees d with crossovers below, at and above every count a modulus here
# takes; moduli 1 and 2, primes on either side of 40, two composites
# (225 = 15^2 is read at every x) and the squares read off fibres
TABLE_DEGREES = [*range(21), 100, 300]
TABLE_MODULI = [1, 2, 37, 41, 91, 101, 225, *(q * q for q in (16, 17, 20, 24, 211))]


def table_coeffs(rng, d, m):
    """d+1 coefficients in [-3m - 3, 3m + 3] with a nonzero lead, so some are
    negative and some >= m; the zero polynomial at d = -1."""
    if d < 0:
        return ()
    lead = rng.choice([-1, 1]) * rng.randint(1, 3 * m + 3)
    return (*(rng.randint(-3 * m - 3, 3 * m + 3) for _ in range(d)), lead)


def unit_slope_non_permutation(q):
    """The first c3*x^3 + c2*x^2 + x whose derivative is a unit mod q at every
    x though it is not one-to-one mod q: mod q^2 every fibre is then a whole
    class mod q, and two fibres share one."""
    for c3, c2 in itertools.product(range(q), repeat=2):
        if all(gcd(3 * c3 * x * x + 2 * c2 * x + 1, q) == 1 for x in range(q)) and len(
                {(c3 * x ** 3 + c2 * x * x + x) % q for x in range(q)}) < q:
            return (0, 1, c2, c3)


class TestValueTables:
    """``_values`` and ``_roots_mod`` against Horner at every x, and both
    ``_image`` modes through ``TestSquareRows.check``, on both sides of the
    crossover where tables turn to differences."""

    @pytest.mark.parametrize("m", TABLE_MODULI)
    def test_values(self, m):
        rng = random.Random(m)
        for d in [-1, *TABLE_DEGREES]:
            coeffs = table_coeffs(rng, d, m)
            crossover = _crossover(d + 1)
            for count in (0, 1, crossover, crossover + 1, crossover + 41):
                assert list(_values(coeffs, count, m)) == horner_table(coeffs, m, count), (d, count)
        # a zero lead, as a coefficient tuple reduced mod p may keep
        assert list(_values((3, -1, 0, 0), 50, m)) == horner_table((3, -1), m, 50)

    @pytest.mark.parametrize("m", TABLE_MODULI)
    def test_images_and_roots(self, m):
        rng = random.Random(-m)
        q = isqrt(m)
        # an oracle table of m values a degree: past 10^4 only the low degrees
        degrees = TABLE_DEGREES if m < 10**4 else [0, 1, 2, 3, 5, 20]
        polys = [table_coeffs(rng, d, m) for d in [-1, *degrees]]
        polys.append((m + 5, 1 - 2 * m))  # x + 5 mod m, one-to-one
        if q * q == m and q >= 16:
            polys.append(unit_slope_non_permutation(q))
            polys.append((0, 1, *(q * c for c in table_coeffs(rng, 6, m)[2:])))  # x + q*h
        answers = set()
        for coeffs in polys:
            answers.add(TestSquareRows().check(coeffs, m))
            # the same table with a root at x = 1, and its roots
            table = horner_table(coeffs, m)
            shift = table[1 % m]
            rooted = (coeffs[0] - shift, *coeffs[1:]) if coeffs else ()
            roots = [x for x, v in enumerate(table) if v == shift]
            assert list(_roots_mod(rooted, m)) == roots, coeffs
        assert answers == ({True} if m == 1 else {False, True})


class TestDerivative:
    def test_examples(self):
        assert derivative(parse_poly("x^3 + x")).coeffs == (1, 0, 3)
        assert derivative(IntPolynomial([5])).coeffs == ()
        assert derivative(parse_poly("x^5 + 4x^3 + 4x")).coeffs == (4, 0, 12, 0, 5)

    def test_linearity(self):
        def add(f, g):
            return IntPolynomial(map(sum, itertools.zip_longest(f.coeffs, g.coeffs, fillvalue=0)))

        rng = random.Random(31)
        for _ in range(200):
            f, g = random_poly(rng), random_poly(rng)
            assert derivative(add(f, g)) == add(derivative(f), derivative(g))


class TestAffineCompose:
    def expansion_oracle(self, f, outer, inner, m):
        """Evaluate a*f(c*x+d)+b pointwise; compare polynomials as functions."""
        a, b = outer
        c, d = inner
        return [(a * f(c * x + d) + b) % m for x in range(m)]

    def test_examples(self):
        assert affine_compose(parse_poly("x"), (2, 1), (1, 0), 5).coeffs == (1, 2)
        assert affine_compose(parse_poly("x^2"), (1, 0), (1, 1), 7).coeffs == (1, 2, 1)
        assert affine_compose(parse_poly("x^3 - 2x"), (1, 0), (2, 0), 3).coeffs == (0, 2, 0, 2)

    def test_matches_pointwise_oracle(self):
        rng = random.Random(41)
        for _ in range(200):
            m = rng.choice([3, 5, 7, 9, 11])
            f = random_poly(rng, max_degree=6)
            units = [u for u in range(1, m) if __import__("math").gcd(u, m) == 1]
            a, c = rng.choice(units), rng.choice(units)
            b, d = rng.randint(0, m - 1), rng.randint(0, m - 1)
            g = affine_compose(f, (a, b), (c, d), m)
            assert [eval_mod(g, x, m) for x in range(m)] == self.expansion_oracle(
                f, (a, b), (c, d), m
            )

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError, match="affine equivalence"):
            affine_compose(parse_poly("x"), (3, 0), (1, 0), 9)
        with pytest.raises(ValueError, match="affine equivalence"):
            affine_compose(parse_poly("x"), (1, 0), (6, 1), 9)
        with pytest.raises(ValueError, match="modulus must be >= 1"):
            affine_compose(parse_poly("x"), (1, 0), (1, 0), 0)


class TestReduceFunctional:
    def test_examples(self):
        # x^5 folds to x mod 3; confirmed by evaluation at every residue
        g = reduce_functional(parse_poly("x^5"), 3)
        assert g.coeffs == (0, 1)
        for x in range(3):
            assert eval_mod(g, x, 3) == pow(x, 5, 3)
        assert reduce_functional(parse_poly("x^3 + x"), 3).coeffs == (0, 2)
        assert reduce_functional(parse_poly("x^2 + x"), 3).coeffs == (0, 1, 1)

    def test_agrees_everywhere_and_degree_drops(self):
        rng = random.Random(43)
        for p in (3, 5, 7, 11):
            # every monomial up to degree 3p, so every exponent folds at least once
            monomials = [IntPolynomial([0] * d + [1]) for d in range(3 * p + 1)]
            for f in monomials + [random_poly(rng, max_degree=3 * p) for _ in range(60)]:
                g = reduce_functional(f, p)
                assert g.degree <= p - 1
                for x in range(p):
                    assert eval_mod(g, x, p) == eval_mod(f, x, p)


class TestUnitFoldings:
    def test_value_examples(self):
        assert unit_value_poly(parse_poly("x^5 + x + 1"), 3).coeffs == (1, 2)
        assert unit_value_poly(parse_poly("x^5"), 3).coeffs == (0, 1)
        assert unit_value_poly(parse_poly("5"), 7).coeffs == (5,)

    def test_derivative_examples(self):
        # the folding of f', as the folding route and the classify CLI take it
        assert unit_value_poly(derivative(parse_poly("x^5 + x")), 3).coeffs == ()
        assert unit_value_poly(derivative(parse_poly("x^5")), 3).coeffs == (2,)
        assert unit_value_poly(derivative(parse_poly("x^3 + x")), 3).coeffs == (1,)

    def test_degree_bound(self):
        rng = random.Random(47)
        for p in (3, 5, 7):
            for _ in range(50):
                f = random_poly(rng, max_degree=20)
                assert unit_value_poly(f, p).degree <= p - 2
                assert unit_value_poly(derivative(f), p).degree <= p - 2

    def test_agree_with_f_on_units(self):
        rng = random.Random(53)
        for p in (3, 5, 7):
            monomials = [IntPolynomial([0] * d + [1]) for d in range(3 * p + 1)]
            for f in monomials + [random_poly(rng, max_degree=4 * p) for _ in range(80)]:
                gv = unit_value_poly(f, p)
                gd = unit_value_poly(derivative(f), p)
                df = derivative(f)
                for x in range(1, p):
                    assert eval_mod(gv, x, p) == eval_mod(f, x, p)
                    assert eval_mod(gd, x, p) == eval_mod(df, x, p)

    def test_rejects_p2(self):
        with pytest.raises(ValueError):
            unit_value_poly(parse_poly("x"), 2)
