"""Property tests: the modular image against a set oracle, the text round trip,
the parser on any text (a polynomial or a parse error, nothing else) and on
terms written in each surface form, the real-discrepancy engine against a
grid oracle, the closed forms of a low-discrepancy sequence against the
p-adic engines, the classifier against enumeration mod p^2, the discrepancy
at N = p^2 + 1 and the normal-form rule for A + (x^p - x)B, and the
pair-correlation level walk against a fresh loop per size; and ``classify``,
``discrepancy``, ``paircorr``, ``generate``, ``bridge``, ``search`` and
``verify-tables`` on arbitrary arguments, which must end in an exit code,
never a traceback; the CLI's table path against argparse on argv built
around each subcommand's options; and the JSON writer against
``json.dumps(..., indent=2)``.

Examples are derandomized and bounded, so every run checks the same inputs.
"""

import argparse
import contextlib
import functools
import io
import itertools
import json
from bisect import bisect_left, bisect_right
from fractions import Fraction
from math import gcd

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from padiclds import cli  # noqa: E402
from padiclds.discrepancy import (  # noqa: E402
    prefix_discrepancy_rows,
    prefix_real_discrepancy_rows,
    real_extreme_discrepancy,
)
from padiclds.paircorr import MAX_RADIUS_BITS, _close_pairs, _levels, lds_pair_count  # noqa: E402
from padiclds.permcheck import classify_low_discrepancy  # noqa: E402
from padiclds.polynomials import (  # noqa: E402
    IntPolynomial,
    PolyParseError,
    _image,
    derivative,
    parse_poly,
    render,
)
from padiclds.sequence import poly_sequence  # noqa: E402
from test_paircorr import level_oracle  # noqa: E402

fixed = settings(derandomize=True, database=None, deadline=None, max_examples=300)

# lengths drawn uniformly up to 60, so square moduli q^2 with q in 16..40 meet
# degrees above q as often as below
coefficients = st.integers(0, 60).flatmap(
    lambda n: st.lists(st.integers(-10**6, 10**6), min_size=n, max_size=n))
moduli = st.one_of(st.integers(1, 40).map(lambda q: q * q), st.integers(1, 1600))


@fixed
@given(coefficients, moduli)
def test_image_matches_set_oracle(coeffs, m):
    f = IntPolynomial(coeffs)
    values = [f(x) % m for x in range(m)]
    image = bytearray(m)
    for v in set(values):
        image[v] = 1
    assert _image(f.coeffs, m, False) == image
    assert _image(f.coeffs, m, True) == (image if len(set(values)) == m else None)


@fixed
@given(st.lists(st.integers(), max_size=12))
def test_parse_render_round_trip(coeffs):
    f = IntPolynomial(coeffs)
    assert parse_poly(render(f)) == f


# the characters of the grammar, digits that int() refuses or reads, and
# whitespace beyond ' ', beside any character at all
texts = st.text(st.one_of(st.sampled_from("x^*+-[], 0123456789_\t\xa0\u3000\u00b2\u2460\u0663"),
                          st.characters()), max_size=24)


@fixed
@given(texts)
@example("x^" + "9" * 5000)
@example("[1," + "9" * 5000 + "]")
def test_parse_ends_in_a_polynomial_or_a_parse_error(text):
    try:
        assert type(parse_poly(text)) is IntPolynomial
    except PolyParseError:
        pass


spaces = st.text(st.sampled_from(" \t\xa0\u3000"), max_size=2)


@st.composite
def written_terms(draw):
    """(text, coefficients): terms c*x^e in the surface forms the grammar allows,
    ``2x``, ``2*x``, ``2 * x ^ 3``, a bare ``x`` and a constant, each with its
    sign (the first one's optional) and any whitespace between tokens."""
    terms = draw(st.lists(st.tuples(st.integers(-10**20, 10**20), st.integers(0, 12)),
                          min_size=1, max_size=6))
    coeffs = [0] * 13
    tokens = []
    for k, (c, e) in enumerate(terms):
        coeffs[e] += c
        tokens.append("-" if c < 0 else draw(st.sampled_from(("+", "") if k == 0 else ("+",))))
        if e == 0 and draw(st.booleans()):
            tokens.append(str(abs(c)))
            continue
        if abs(c) != 1 or draw(st.booleans()):
            tokens += [str(abs(c)), *draw(st.sampled_from(([], ["*"])))]
        tokens += ["x"] if e == 1 and draw(st.booleans()) else ["x", "^", str(e)]
    return draw(spaces) + "".join(t + draw(spaces) for t in tokens), coeffs


@fixed
@given(written_terms())
def test_written_terms_parse_to_their_sums(case):
    text, coeffs = case
    assert parse_poly(text) == IntPolynomial(coeffs)


def grid_real_discrepancy(points):
    """Supremum over half-open intervals from the grid of the points, 0 and 1:
    a closed interval's count less its length (shrinking [a, b) onto it), and
    an open interval's length less its count (growing [a, b) onto it)."""
    pts = sorted(points)
    grid = sorted(set(pts) | {Fraction(0), Fraction(1)})
    N = len(pts)
    best = Fraction(0)
    for i, a in enumerate(grid):
        for b in grid[i:]:
            closed = bisect_right(pts, b) - bisect_left(pts, a)
            opened = max(bisect_left(pts, b) - bisect_right(pts, a), 0)
            best = max(best, Fraction(closed, N) - (b - a), (b - a) - Fraction(opened, N))
    return best


points = st.integers(1, 300).flatmap(lambda Q: st.tuples(
    st.just(Q), st.lists(st.integers(0, Q - 1), min_size=1, max_size=16)))


@fixed
@given(points, st.data())
def test_real_discrepancy_engine_matches_grid_oracle(qa, data):
    Q, numerators = qa
    lengths = data.draw(st.lists(st.integers(1, len(numerators)), min_size=1, max_size=4))
    rows = prefix_real_discrepancy_rows(numerators, Q, lengths)
    assert [row[0] for row in rows] == sorted(set(lengths))
    for N, num, den in rows:
        prefix = [Fraction(a, Q) for a in numerators[:N]]
        assert Fraction(num, den) == real_extreme_discrepancy(prefix) == grid_real_discrepancy(prefix)


@functools.cache
def lds_bases(p):
    """Every coefficient tuple over [0, p) of degree <= 3 that classify accepts."""
    return [c for c in itertools.product(range(p), repeat=4)
            if classify_low_discrepancy(IntPolynomial(c), p).low_discrepancy]


@st.composite
def lds_inputs(draw):
    """(p, coefficients) of a low-discrepancy f: a*x + b with p not dividing a,
    or a tuple classify accepts plus p*h for a random h.  f + p*h is
    low-discrepancy exactly when f is: they agree mod p, and so do their
    derivatives."""
    p = draw(st.sampled_from((2, 3, 5, 7, 11)))
    if draw(st.booleans()):
        a = p * draw(st.integers(-10**4, 10**4)) + draw(st.integers(1, p - 1))
        return p, [draw(st.integers(-10**4, 10**4)), a]
    base = draw(st.sampled_from(lds_bases(p)))
    h = draw(st.lists(st.integers(-5, 5), max_size=7))
    return p, [b + p * c for b, c in itertools.zip_longest(base, h, fillvalue=0)]


@settings(derandomize=True, database=None, deadline=None, max_examples=120)
@given(lds_inputs())
def test_closed_forms_equal_the_engines_on_low_discrepancy_input(pc):
    p, coeffs = pc
    f = IntPolynomial(coeffs)
    assert classify_low_discrepancy(f, p).low_discrepancy
    values = poly_sequence(f, 300)
    # the closed form's witnesses, and D_N = 1/N: numerator * N = denominator
    engine = prefix_discrepancy_rows(values, p)
    closed = prefix_discrepancy_rows(None, p, range(300, 0, -1))
    assert [(N, *w) for N, _, _, *w in engine] == [(N, *w) for N, _, _, *w in closed]
    assert all(num * N == den for N, num, den, *_ in engine + closed)
    for N in {1, 2, p, p * p + 1, 97, 300}:
        requests = [(N, k) for k in range(7)]
        assert _close_pairs(values, p, requests) == {
            (N, k): lds_pair_count(N, p, k) for N, k in requests}


@st.composite
def classify_inputs(draw):
    """(p, coefficients): a random f, or a*x + b + p*h with p not dividing a,
    which is low-discrepancy; p reaches 17 and 19, where the image mod p^2
    is read off its fibres."""
    p = draw(st.sampled_from((2, 3, 5, 7, 11, 13, 17, 19)))
    coeffs = draw(st.lists(st.integers(-10**6, 10**6), max_size=12))
    if draw(st.booleans()):
        lift = [p * c for c in coeffs] + [0, 0]
        lift[0] += draw(st.integers(-10**6, 10**6))
        lift[1] += draw(st.integers(1, p - 1))
        return p, lift
    return p, coeffs


@fixed
@given(classify_inputs())
def test_verdict_equals_enumeration_and_the_discrepancy_at_p_squared_plus_one(pc):
    p, coeffs = pc
    f = IntPolynomial(coeffs)
    verdict = classify_low_discrepancy(f, p)
    assert verdict.perm_mod_p2 == (_image(f.coeffs, p * p, True) is not None)
    if p <= 7:
        N = p * p + 1
        [(_, num, den, *_)] = prefix_discrepancy_rows(poly_sequence(f, N), p, [N])
        assert verdict.low_discrepancy == (num * N == den)  # D_N = 1/N


def divide_by_xp_minus_x(coeffs, p):
    """(quotient, remainder) of f by x^p - x over F_p: c*x^k = c*x^(k-p)*(x^p - x)
    + c*x^(k-p+1), from the top down."""
    r = [c % p for c in coeffs]
    q = [0] * max(len(r) - p, 0)
    for k in range(len(r) - 1, p - 1, -1):
        q[k - p], r[k - p + 1], r[k] = r[k], (r[k - p + 1] + r[k]) % p, 0
    return q, r[:p]


@st.composite
def normal_form_inputs(draw):
    """(p, coefficients) of degree <= 3p: random, or a permutation a*x^k + b of
    Z/p (gcd(k, p - 1) = 1) plus (x^p - x)*Q for a random Q, so that about a
    quarter of all draws are low-discrepancy."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    coeffs = draw(st.lists(st.integers(-50, 50), max_size=3 * p + 1))
    if draw(st.booleans()):
        k = draw(st.sampled_from([k for k in range(1, p) if gcd(k, p - 1) == 1]))
        q = coeffs[:2 * p + 1]
        coeffs = [0, *(-c for c in q), *[0] * (p - 1)]
        for i, c in enumerate(q):
            coeffs[i + p] += c
        coeffs[0] += draw(st.integers(0, p - 1))
        coeffs[k] += draw(st.integers(1, p - 1))
    return p, coeffs


@fixed
@given(normal_form_inputs())
# x^3 = x + (x^3 - x)*1 at p = 3: A' - B = 0 has a root, and A' + B = 2 has none
@example((3, [0, 0, 0, 1]))
def test_verdict_is_the_normal_form_rule(pc):
    # f = A + (x^p - x)B + (x^p - x)^2 C over F_p with deg A, deg B < p, and
    # f is low-discrepancy iff A permutes Z/p and A' - B has no root mod p
    p, coeffs = pc
    q, A = divide_by_xp_minus_x(coeffs, p)
    B = IntPolynomial(divide_by_xp_minus_x(q, p)[1])
    A, dA = IntPolynomial(A), derivative(IntPolynomial(A))
    rule = (len({A(x) % p for x in range(p)}) == p
            and all((dA(x) - B(x)) % p for x in range(p)))
    assert classify_low_discrepancy(IntPolynomial(coeffs), p).low_discrepancy == rule


# primes, non-primes, 0, 1, negatives, and the largest prime under the p^2
# enumeration cap beside the smallest above it
classify_p = st.one_of(
    st.sampled_from([2, 3, 5, 7, 17, 19, 101, 1009, 1163, 3137, 3163]),
    st.sampled_from([0, 1, -1, -7, 4, 9, 3139, 10**30]),
    st.integers(-10**4, 10**4),
)
classify_coefficients = st.lists(
    st.one_of(st.integers(-10**6, 10**6), st.integers(-10**4000, 10**4000)), max_size=10)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(classify_p, classify_coefficients, st.sampled_from(("csv", "json")))
# at the cap: a full enumeration mod 3137^2 (about a second), a collision, a refusal
@example(3137, [-10**4000, 1], "csv")
@example(3137, [10**4000, 0, -1], "json")
@example(3163, [0, 1], "json")
def test_classify_ends_in_an_exit_code(p, coeffs, fmt):
    argv = ["classify", "--p", str(p), "--format", fmt, "--", render(IntPolynomial(coeffs))]
    code, out, err = run_main(argv)
    assert code in (0, 1, 2), (argv, code, err)
    assert (code == 0) == (err == "") == (out != ""), argv


@st.composite
def walk_inputs(draw):
    """(s, alpha, p, sizes): alpha = u/v with v <= 8, a radius su/sv with up to
    MAX_RADIUS_BITS / v bits in su and sv together (often exactly that many),
    and increasing sizes up to 10^5."""
    v = draw(st.integers(1, 8))
    alpha = Fraction(draw(st.integers(1, v)), v)
    bits = draw(st.one_of(st.just(MAX_RADIUS_BITS // v), st.integers(2, MAX_RADIUS_BITS // v)))
    top = draw(st.integers(1, bits - 1))
    su, sv = (draw(st.integers(2 ** (b - 1), 2 ** b - 1)) for b in (top, bits - top))
    s = Fraction(su, sv)
    p = draw(st.sampled_from((2, 3, 5, 7)))
    sizes = sorted(draw(st.lists(st.integers(1, 10**5), min_size=1, max_size=6, unique=True)))
    return s, alpha, p, sizes


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(walk_inputs())
def test_level_walk_equals_a_fresh_loop_per_size(args):
    s, alpha, p, sizes = args
    assert list(_levels(s, alpha, p, sizes)) == [level_oracle(s, N, alpha, p) for N in sizes]


# numerals short enough to run and long enough to pass the interpreter's digit
# limit, and runs of one arbitrary character between short texts, so that
# inputs reach about 6,000 characters; paircorr's schedule and alpha are often
# valid, so that the radii are parsed too
short = st.integers(-2, 120).map(str)
numerals = st.one_of(short, st.builds(lambda d, n: d + "0" * n, st.sampled_from("123456789"),
                                      st.one_of(st.integers(0, 3), st.integers(4, 6000))))
junk = st.builds(lambda a, c, n, b: a + c * n + b, st.text(max_size=8), st.characters(),
                 st.integers(0, 6000), st.text(max_size=8))
schedules = st.one_of(
    numerals,
    st.builds("{}..{}".format, numerals, numerals),
    st.lists(numerals, min_size=1, max_size=4).map(",".join),
    st.builds("pk:{}..{}".format, numerals, numerals),
    junk,
)
rationals = st.one_of(
    numerals,
    st.builds("{}/{}".format, short, short),
    st.builds("{}/{}".format, numerals, numerals),
    st.builds("{}e{}".format, numerals, numerals),
    junk,
)


def often(valid, anything):
    """valid three times in four, else anything."""
    return st.integers(0, 3).flatmap(lambda i: valid if i else anything)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.sampled_from(("discrepancy", "paircorr")),
       often(st.sampled_from(("9", "1..30", "pk:0..6", "81,9,1")), schedules),
       often(st.sampled_from(("1/2", "1", "2/3")), rationals),
       st.lists(rationals, min_size=1, max_size=3).map(",".join))
# the echoes of a malformed schedule and rational, and of an N past the limit
@example("discrepancy", "1..2" + "z" * 5000, "1/2", "1")
@example("paircorr", "9", "1/2", "1/x" + "b" * 5000)
@example("paircorr", "9", "1/x" + "b" * 5000, "1")
@example("discrepancy", "1.." + "9" * 4000, "1/2", "1")
@example("discrepancy", "pk:1.." + "9" * 4000, "1/2", "1")
def test_schedules_and_rationals_end_in_an_exit_code(command, N, alpha, s):
    # x is certified low-discrepancy at p = 3, so any accepted schedule that
    # reaches N = 9 is answered from the closed forms
    argv = [command, "--p", "3", f"--N={N}", "--", "x"]
    if command == "paircorr":
        argv[4:4] = [f"--alpha={alpha}", f"--s={s}"]
    assert_one_outcome(argv)


# --n and --N: small counts, short schedules and numerals past the length
# limit; --K: small digit counts and numerals of up to 4,300 digits (the most
# the interpreter converts), whose bit budget K * N * bits(p) can pass it
counts = st.one_of(st.integers(-2, 60).map(str),
                   st.builds(lambda d, n: d * n, st.sampled_from("19"), st.integers(6, 4300)))
digit_counts = st.one_of(st.integers(-2, 40).map(str),
                         st.builds(lambda d, n: d * n, st.sampled_from("19"), st.integers(1, 4300)))


@st.composite
def generate_or_bridge(draw):
    """argv of a generate or bridge call that argparse accepts, so that every
    error is the program's own."""
    p = draw(st.sampled_from(("2", "3", "7")))
    K = draw(st.one_of(st.none(), digit_counts))
    tail = [*([] if K is None else [f"--K={K}"]), "--", draw(st.sampled_from(("x", "x^3+x", "x-5")))]
    if draw(st.booleans()):
        mode = draw(st.sampled_from(("digits", "monna", "integers")))
        return ["generate", "--p", p, f"--n={draw(counts)}", f"--mode={mode}", *tail]
    N = draw(st.one_of(counts, st.builds("{}..{}".format, counts, counts),
                       st.sampled_from(("30,7,1", "pk:0..3"))))
    return ["bridge", "--p", p, f"--N={N}", *tail]


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(generate_or_bridge())
# bit budgets of more digits than the interpreter converts to text
@example(["generate", "--p", "3", "--n=1000", "--mode=digits", "--K=" + "9" * 4299, "--", "x"])
@example(["bridge", "--p", "3", "--N=1..1000", "--K=" + "9" * 4299, "--", "x"])
def test_generate_and_bridge_end_in_an_exit_code(argv):
    assert_one_outcome(argv)


# integer options that argparse accepts, so that every error is the program's
# own: small values, numerals of up to 4,299 digits (the most the interpreter
# converts) and, for search, the primes at and past the p^2 enumeration cap
small_ints = st.integers(-3, 130).map(str)
long_ints = st.builds(lambda d, n: d + "0" * n, st.sampled_from("123456789"), st.integers(3, 4299))

# search: small primes at degrees that finish well within a second, beside any
# of those integers as --p at a degree that fails or is refused before it runs
# (a prime near 100 at degree 1 would take most of a second)
valid_search = st.sampled_from(((2, 6), (3, 6), (5, 5), (7, 4), (11, 3), (13, 2))).flatmap(
    lambda pd: st.tuples(st.just(str(pd[0])), st.integers(-1, pd[1]).map(str)))
any_search = st.tuples(
    st.one_of(small_ints, long_ints, st.sampled_from(("3137", "3163"))),
    st.one_of(st.sampled_from(("-1", "0")), long_ints.map(lambda n: n + "0" * 27),
              long_ints.map("-{}".format)))


@settings(derandomize=True, database=None, deadline=None, max_examples=120)
@given(often(valid_search, any_search),
       st.lists(st.sampled_from(("--monic", "--zero-constant", "--nonzero-linear")), unique=True),
       st.sampled_from(("csv", "json")))
# the candidate cap at p = 2, and a prime past the enumeration cap
@example(("2", "9" * 4299), [], "csv")
@example(("3163", "1"), ["--monic"], "json")
def test_search_ends_in_an_exit_code(p_degree, flags, fmt):
    p, degree = p_degree
    assert_one_outcome(["search", f"--p={p}", f"--degree={degree}", *flags, f"--format={fmt}"])


@settings(derandomize=True, database=None, deadline=None, max_examples=120)
@given(st.sampled_from(("dickson", "derivatives", "lds")),
       often(st.sampled_from((None, "2", "3", "5", "7", "11", "13", "17", "19", "23", "113")),
             st.one_of(small_ints, long_ints, st.just("1009"))),
       st.booleans(), st.sampled_from(("csv", "json")))
# a prime past the enumeration cap, refused before any row is verified
@example("dickson", "3163", False, "csv")
@example("derivatives", "3163", False, "json")
@example("lds", "3163", False, "csv")
def test_verify_tables_ends_in_an_exit_code(which, p, dump, fmt):
    argv = ["verify-tables", f"--which={which}", f"--format={fmt}"]
    assert_one_outcome(argv + ([] if p is None else [f"--p={p}"]) + (["--dump"] if dump else []))


# argv built around each subcommand's own options: a call that argparse accepts
# (required options, some optional ones and maybe a positional, in any order),
# then up to three changes: an option dropped, repeated, given too few or too
# many values, spelled --opt=value or abbreviated; a value replaced by a bad
# choice, a non-integer, an integer of 4,301 digits (the interpreter converts
# at most 4,300) or a token starting with "-"; help, a stray "--" or a second
# positional inserted anywhere; a trailing "--"
SUBPARSERS = cli.build_parser()._subparsers._group_actions[0].choices
dashed = ("-", "-2", "-x", "--", "-h", "--help", "--p", "--format")
bad_values = st.sampled_from(("xml", "x", "3.5", "1" * 4301) + dashed)
positionals = st.sampled_from(("x", "x^3+x", "-x^2+1", "-x", "", "--p", "-h", "--"))


def valid_values(action):
    if action.choices is not None:
        return st.sampled_from(action.choices)
    if action.type is cli._int:
        return st.one_of(st.integers(0, 40).map(str), st.just("1" * 4300))
    return st.sampled_from(("x^3+x", "1..9", "1/2", "out.csv", "", " 7"))


@st.composite
def command_lines(draw):
    name = draw(st.sampled_from(sorted(SUBPARSERS)))
    sp = SUBPARSERS[name]
    chunks = []
    for action in draw(st.permutations(sp._actions[1:])):
        n = 1 if action.nargs in (None, "?") else action.nargs
        if action.required or draw(st.booleans()):
            values = draw(st.lists(valid_values(action), min_size=n, max_size=n))
            chunks.append([*action.option_strings[:1], *values] if action.option_strings
                          else ["--", draw(positionals)])
    chunks.sort(key=lambda chunk: chunk[0] == "--")  # a positional comes last
    for _ in range(draw(st.sampled_from((0, 0, 1, 1, 2, 3)))):
        i = draw(st.integers(0, len(chunks)))
        chunk = chunks[i] if i < len(chunks) else []
        change = draw(st.integers(0, 8))
        if change == 0 and chunk:
            del chunks[i]
        elif change == 1:
            chunks.insert(i, list(chunk))
        elif change == 2 and chunk:
            chunk.pop()
        elif change == 3:
            chunk.append(draw(valid_values(sp._actions[-1])))
        elif change == 4 and len(chunk) > 1:
            chunk[draw(st.integers(1, len(chunk) - 1))] = draw(bad_values)
        elif change == 5 and len(chunk) > 1:
            chunk[:2] = [f"{chunk[0]}={chunk[1]}"]
        elif change == 6 and chunk and len(chunk[0]) > 3:
            chunk[0] = chunk[0][:draw(st.integers(3, len(chunk[0]) - 1))]
        else:
            chunks.insert(i, [draw(st.sampled_from(("-h", "--help", "--", "x", "-x")))])
    argv = [name, *itertools.chain.from_iterable(chunks)]
    return argv + ["--"] * draw(st.sampled_from((0, 0, 0, 1)))


@settings(derandomize=True, database=None, deadline=None, max_examples=1000)
@given(command_lines())
@example(["discrepancy", "--p", "3", "--linear", "-2", "3", "--N", "1..4"])
@example(["classify", "--p", "3", "--p", "5", "--", "x"])
@example(["discrepancy", "--p", "3", "x^3+x", "--N", "1..4"])
@example(["classify", "--p", "3", "--", "--"])
def test_plain_argv_parses_as_argparse_does(argv):
    """Wherever the table path answers, argparse accepts argv with the same namespace."""
    parser = cli.build_parser()
    got = cli._plain_args(parser, argv)
    if got is not None:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                expected = parser.parse_args(argv)
            except SystemExit as exc:
                raise AssertionError(f"argparse exits {exc.code} on {argv}") from None
        assert vars(got) == vars(expected), argv


def run_main(argv):
    """(exit code, stdout, stderr) of ``cli.main(argv)`` in-process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def assert_one_outcome(argv):
    """Exit 0, or 2 (a table claim that fails, or a search hit no row
    explains), with output and no error, or 1 with one short line; never a
    traceback, nor the interpreter's advice on its own digit limit."""
    code, out, err = run_main(argv)
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err and "set_int_max_str_digits" not in err, err
    assert (code != 1) == (err == "") == (out != ""), (argv, code, err)
    if code == 1:
        assert err.endswith("\n") and err.count("\n") == 1 and len(err.encode()) <= 300, err


# JSON cells: strings with NUL (the writer's token separator), "%" (its
# template's), quotes, backslashes, newlines, non-ASCII characters and lone
# surrogates; ints of up to 4,000 digits beside bools; floats with NaN, the
# infinities, -0.0 and a subnormal; and None
json_strings = st.one_of(
    st.text(st.characters(exclude_categories=()), max_size=8),
    st.sampled_from(("", "\x00", "%", "%s", "%%", "%(a)s", '"', "\\", "\n", "é", "\ud800",
                     "\udfff", "\U0001d53d", 'a\x00b%s"\\\n')))
json_scalars = st.one_of(
    json_strings,
    st.integers(-10**6, 10**6), st.integers(1 - 10**4000, 10**4000 - 1), st.booleans(),
    st.floats(), st.sampled_from((float("nan"), float("inf"), float("-inf"), -0.0, 5e-324)),
    st.none())


def emitted(emit, *args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        emit(argparse.Namespace(format="json", out=None), *args)
    return out.getvalue()


@st.composite
def row_sets(draw):
    header = draw(st.lists(json_strings, min_size=1, max_size=6, unique=True))
    width = len(header)
    rows = draw(st.lists(st.lists(json_scalars, min_size=width, max_size=width), max_size=5))
    return header, rows, draw(json_strings)


@fixed
@given(row_sets())
@example((["N", "%s", "a%b"], [[1, "%s", 0.5], [True, "\x00", None]], "search"))
@example((["N"], [], "discrepancy"))
def test_json_rows_are_json_dumps_indent_2(case):
    header, rows, command = case
    doc = {"schema_version": cli.SCHEMA_VERSION, "command": command,
           "rows": [dict(zip(header, row)) for row in rows]}
    assert emitted(cli._emit_rows, header, rows, command) == json.dumps(doc, indent=2) + "\n"


# documents shaped like classify's: nested dicts and lists of any depth,
# empty ones included, under string keys
json_values = st.recursive(
    json_scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(json_strings, inner, max_size=4)),
    max_leaves=20)


@fixed
@given(st.dictionaries(json_strings, json_values, max_size=6), json_strings)
@example({"p": 2, "coefficients": [0, 1], "brute_force": {"missing_residue": [1, 0]},
          "unit_reduction": None, "empty": {}, "none": []}, "classify")
def test_json_documents_are_json_dumps_indent_2(body, command):
    doc = {"schema_version": cli.SCHEMA_VERSION, "command": command, **body}
    encoded = {key: cli._json(value, "\n  ") for key, value in body.items()}
    assert emitted(cli._emit_json, command, encoded) == json.dumps(doc, indent=2) + "\n"
