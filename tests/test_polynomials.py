import itertools
import random

import pytest

from padiclds.polynomials import (
    IntPolynomial,
    _is_injective_mod,
    _is_injective_mod_square,
    _square_rows,
    _value_table,
    PolyParseError,
    affine_compose,
    derivative,
    eval_mod,
    parse_poly,
    reduce_functional,
    render,
    unit_derivative_poly,
    unit_value_poly,
)


def random_poly(rng, max_degree=8, bound=20):
    return IntPolynomial(
        rng.randint(-bound, bound) for _ in range(rng.randint(0, max_degree + 1))
    )


class TestIntPolynomial:
    def test_canonical_trim(self):
        assert IntPolynomial([1, 2, 0, 0]).coeffs == (1, 2)
        assert IntPolynomial([0, 0]).coeffs == ()
        assert IntPolynomial().degree == -1

    def test_rejects_non_integers(self):
        with pytest.raises(TypeError):
            IntPolynomial([1.5])

    def test_arithmetic(self):
        f = IntPolynomial([1, 2])      # 2x + 1
        g = IntPolynomial([0, 0, 3])   # 3x^2
        assert (f + g).coeffs == (1, 2, 3)
        assert (f - f).is_zero
        assert (f * g).coeffs == (0, 0, 3, 6)
        assert (2 * f).coeffs == (2, 4)

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

    @pytest.mark.parametrize("bad", ["", "x +", "x^", "^2", "x**2", "2 2", "[1, a]", "x^-2"])
    def test_errors_carry_position(self, bad):
        with pytest.raises(PolyParseError) as err:
            parse_poly(bad)
        assert "position" in str(err.value)

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

    def test_bad_modulus(self):
        with pytest.raises(ValueError):
            eval_mod(IntPolynomial([1]), 0, 0)


class TestSquareRows:
    """The row enumeration mod q^2 against the Horner table and injectivity test."""

    def check(self, coeffs, q):
        rows = list(_square_rows(coeffs, q))
        assert [len(row) for row in rows] == [q] * q, (coeffs, q)
        assert [v for row in rows for v in row] == _value_table(coeffs, q * q), (coeffs, q)
        injective = _is_injective_mod_square(coeffs, q)
        assert injective == _is_injective_mod(coeffs, q * q), (coeffs, q)
        return injective

    def test_random_degrees_and_moduli(self):
        rng = random.Random(61)
        answers = set()
        for q in (2, 3, 4, 5, 6, 7, 9, 11, 12, 13):
            self.check((), q)  # the zero polynomial
            for d in range(13):  # includes d >= q for the small moduli
                for _ in range(6):
                    coeffs = [rng.randint(-3 * q * q, 3 * q * q) for _ in range(d)]
                    coeffs.append(rng.choice([-1, 1]) * rng.randint(1, 2 * q))
                    answers.add(self.check(coeffs, q))
                    # x + q*h(x) permutes Z/q^2 and exercises the full enumeration
                    perm = [q * c for c in coeffs]
                    if d >= 1:
                        perm[1] += 1
                        assert self.check(perm, q)
        assert answers == {False, True}

    @pytest.mark.parametrize("q", [3, 5])
    def test_every_polynomial_of_degree_at_most_2(self, q):
        answers = set()
        for coeffs in itertools.product(range(q * q), repeat=3):
            answers.add(self.check(IntPolynomial(coeffs).coeffs, q))
        assert answers == {False, True}

    def test_rows_are_lazy(self):
        # the first row comes before any later one is computed: a generator that
        # built the whole table first would evaluate 10^8 residues here
        rows = _square_rows([1, 1], 10**4)
        assert next(rows)[:3] == [1, 2, 3]


class TestDerivative:
    def test_examples(self):
        assert derivative(parse_poly("x^3 + x")).coeffs == (1, 0, 3)
        assert derivative(IntPolynomial([5])).is_zero
        assert derivative(parse_poly("x^5 + 4x^3 + 4x")).coeffs == (4, 0, 12, 0, 5)

    def test_linearity(self):
        rng = random.Random(31)
        for _ in range(200):
            f, g = random_poly(rng), random_poly(rng)
            assert derivative(f + g) == derivative(f) + derivative(g)


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
            for _ in range(60):
                f = random_poly(rng, max_degree=3 * p)
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
        assert unit_derivative_poly(parse_poly("x^5 + x"), 3).is_zero
        assert unit_derivative_poly(parse_poly("x^5"), 3).coeffs == (2,)
        assert unit_derivative_poly(parse_poly("x^3 + x"), 3).coeffs == (1,)

    def test_degree_bound(self):
        rng = random.Random(47)
        for p in (3, 5, 7):
            for _ in range(50):
                f = random_poly(rng, max_degree=20)
                assert unit_value_poly(f, p).degree <= p - 2
                assert unit_derivative_poly(f, p).degree <= p - 2

    def test_agree_with_f_on_units(self):
        rng = random.Random(53)
        for p in (3, 5, 7):
            for _ in range(80):
                f = random_poly(rng, max_degree=4 * p)
                gv = unit_value_poly(f, p)
                gd = unit_derivative_poly(f, p)
                df = derivative(f)
                for x in range(1, p):
                    assert eval_mod(gv, x, p) == eval_mod(f, x, p)
                    assert eval_mod(gd, x, p) == eval_mod(df, x, p)

    def test_rejects_p2(self):
        with pytest.raises(ValueError):
            unit_value_poly(parse_poly("x"), 2)
