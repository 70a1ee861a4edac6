"""Integer polynomials as plain values: canonical coefficient tuples.

Index i holds the coefficient of x^i, trailing zeros trimmed, the zero
polynomial being the empty tuple.  Coefficients are arbitrary signed
integers; modular reduction happens at evaluation or reduction time, never
silently at construction.

Besides parsing/printing and exact evaluation, this module provides the
formal derivative and the degree-lowering reductions used by the classifier:
folding exponents with the period of the unit group mod p yields a
polynomial of degree <= p-2 that agrees with its input (f, or f') at every
unit residue.  Its private evaluators mod m give the image of f (``_image``,
which reads a square q^2 with q >= 16 off its q fibres and evaluates every x
at any other modulus) and the roots of f mod p one at a time.  Each reads
one value table, ``_values``: Horner at every x for a short table, and past
max(40, 5(d+1)) values d+1 Horner seeds extended by forward differences in
C-level running sums (``_extend``, which also gives ``poly_sequence`` its
exact values).
"""

from __future__ import annotations

import re
import sys
from itertools import accumulate, repeat
from math import gcd, isqrt
from operator import indexOf, mod, sub

from .padic import _quote, _shown, check_prime

# The largest exponent a polynomial expression may hold.  The coefficient
# tuple is dense, one entry per power, so x^(10^7)+x ended in a MemoryError
# traceback; x^(10^6)+x classifies in about 2 s.
MAX_EXPONENT = 1_000_000


class IntPolynomial:
    """Polynomial with arbitrary-precision integer coefficients.

    ``coeffs[i]`` is the coefficient of x^i.  The representation is canonical:
    no trailing zeros, zero polynomial == empty tuple, degree of the zero
    polynomial is -1.  Immutable, and equal and hashed by ``coeffs``.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()) -> None:
        cs = list(coeffs)
        for c in cs:
            if not isinstance(c, int):
                raise TypeError(f"coefficient {c!r} is not an integer")
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")
    __delattr__ = __setattr__

    def __reduce__(self):
        # copy and pickle would restore the slot by setattr, which is refused
        return type(self), (self.coeffs,)

    def __eq__(self, other):
        return self.coeffs == other.coeffs if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x: int) -> int:
        """Exact integer evaluation (Horner)."""
        v = 0
        for c in reversed(self.coeffs):
            v = v * x + c
        return v

    def __str__(self) -> str:
        return render(self)

    def __repr__(self) -> str:
        return f"IntPolynomial({list(self.coeffs)!r})"


def eval_mod(f: IntPolynomial, x: int, m: int) -> int:
    """f(x) mod m in [0, m): ``_horner`` at the one point x mod m."""
    if m < 1:
        raise ValueError("modulus must be >= 1")
    return next(_horner(f.coeffs, (x % m,), m))


# The evaluators below take a bare little-endian coefficient sequence, so the
# exhaustive search can call them without building an IntPolynomial per
# candidate.  Every table is lazy, so a scan for a first root stops there.
# Up to _crossover's count it is Horner at every x; past it, d+1 Horner seeds
# and the O(d^2) difference table are paid back by values that cost d C-level
# additions each.  _image evaluates every x at non-squares and at q^2 with
# q < 16, with ``stop_at_repeat`` in its own inline loop that ends at the
# first repeat: a call, a closure or a shared generator there made the
# search's per-candidate tests mod p <= 13 slower.  Those tables are also the
# brute-force ones (mod 25, and mod p^2 for p <= 13) that the derivative
# criterion is checked against.

def _crossover(n: int) -> int:
    """The longest table of a polynomial with n coefficients that ``_values``
    builds by Horner at every x.  Timed on a 2-core x86-64 host under
    CPython 3.11 (m = 101, 1009, 1009^2, 3137^2), differences overtook Horner
    at 32-48 values for d = 1..10 and at 4-5(d+1) values for d = 10..300."""
    return max(40, 5 * n)


def _extend(seeds, count: int, m: int | None = None):
    """The values at ``count`` consecutive points of the polynomial of degree
    d < len(seeds) whose first values are ``seeds``, as an iterator: d
    chained running sums over the constant d-th forward difference, started
    at the seeds' leading differences.  Exact without m; with m, differences
    are reduced mod m, running sums whenever their bound passes 128 bits,
    and the values are yielded mod m.
    """
    leading = []
    while seeds:
        leading.append(seeds[0])
        seeds = [(b - a) % m if m else b - a for a, b in zip(seeds, seeds[1:])]
    values = repeat(leading.pop(), count - len(leading))
    bound = m
    for start in reversed(leading):
        values = accumulate(values, initial=start)
        if m:
            bound *= count + 1
            if bound.bit_length() > 128:
                values, bound = map(mod, values, repeat(m)), m
    return map(mod, values, repeat(m)) if m else values


def _horner(coeffs, xs, m: int):
    """Yield f(x) mod m for each x of ``xs``, by Horner with every step reduced."""
    rev = coeffs[::-1]
    for x in xs:
        v = 0
        for c in rev:
            v = (v * x + c) % m
        yield v


def _values(coeffs, count: int, m: int):
    """f(0), ..., f(count - 1) mod m as an iterator: Horner at every x, or
    past the crossover Horner at x = 0..d extended by differences."""
    if count > _crossover(len(coeffs)):
        return _extend(list(_horner(coeffs, range(len(coeffs) or 1), m)), count, m)
    return _horner(coeffs, range(count), m)


def _roots_mod(coeffs, p: int):
    """Yield the x in [0, p) with f(x) = 0 mod p, in increasing order, each
    found by ``indexOf`` over the lazy table of f mod p."""
    values, x = iter(_values(coeffs, p, p)), -1
    while True:
        try:
            x += 1 + indexOf(values, 0)
        except ValueError:
            return
        yield x


def _image(coeffs, m: int, stop_at_repeat: bool) -> bytearray | None:
    """The image of x -> f(x) mod m on [0, m), as m flags; with
    ``stop_at_repeat``, None if some value repeats.

    Mod m = q^2, f(tq + r) = a + t(b - a) with a = f(r), b = f(q + r), for
    any q >= 1: the higher Taylor terms are integers times (tq)^k, k >= 2.
    As q divides b - a, fibre r (x = tq + r, 0 <= t < q) takes exactly the
    residues = a mod s, s = gcd(b - a, q^2): f is one-to-one iff every s is q
    and no two fibres share a class mod q, and from q = 16 on each is a slice
    of one table of f over [0, 2q).  At any other modulus every x is
    evaluated, with ``stop_at_repeat`` in order to the first repeat.
    """
    q = isqrt(m)
    if q * q == m and q >= 16:
        table = list(_values(coeffs, 2 * q, m))
        A = table[:q]
        S = list(map(gcd, map(sub, table[q:], A), repeat(m)))
        if stop_at_repeat:
            one_to_one = S.count(q) == q and len(set(map(mod, A, repeat(q)))) == q
            return bytearray(b"\1") * m if one_to_one else None
        seen = bytearray(m)
        for a, s in zip(A, S):
            seen[a % s::s] = b"\1" * (m // s)
        return seen
    seen = bytearray(m)
    if not stop_at_repeat:
        for v in _values(coeffs, m, m):
            seen[v] = 1
        return seen
    rev = coeffs[::-1]
    for x in range(m):
        v = 0
        for c in rev:
            v = (v * x + c) % m
        if seen[v]:
            return None
        seen[v] = 1
    return seen


def derivative(f: IntPolynomial) -> IntPolynomial:
    """Formal derivative."""
    return IntPolynomial(i * c for i, c in enumerate(f.coeffs) if i >= 1)


def reduce_functional(f: IntPolynomial, p: int) -> IntPolynomial:
    """The unique polynomial of degree <= p-1 agreeing with f on every residue mod p.

    Computed by folding x^p -> x (valid at every residue, including 0) and
    reducing coefficients mod p.  Exponent e >= p folds onto the one in
    [1, p-1] congruent to it mod p-1, so the constant term is never touched.
    """
    check_prime(p)
    return _fold(f, p, p - 1)


def unit_value_poly(f: IntPolynomial, p: int) -> IntPolynomial:
    """Degree <= p-2 polynomial agreeing with f at every unit residue mod p.

    Exponents are folded with period p-1 (the order of the unit group), so the
    coefficient of x^k, 0 <= k <= p-2, collects every a_{k + j(p-1)}.  At
    x = 0 the folding is invalid and the result may disagree with f; callers
    that care about 0 must check it separately.
    """
    check_prime(p)
    if p < 3:
        raise ValueError("unit-group folding requires p >= 3")
    return _fold(f, p, p - 2)


def _fold(f: IntPolynomial, p: int, top: int) -> IntPolynomial:
    """f with each exponent e > top folded onto the one in (top - (p-1), top]
    congruent to it mod p-1 (x^(p-1) is 1 at units), coefficients mod p."""
    cs = f.coeffs
    if len(cs) > top + 1:  # one C-level sum over a stride of p-1 per target
        cs = list(cs[:top + 1])
        for e in range(top + 1, min(len(f.coeffs), top + p)):
            cs[e - (p - 1)] += sum(f.coeffs[e::p - 1])
    return IntPolynomial([c % p for c in cs])


# --------------------------------------------------------------------------
# Parsing and printing
# --------------------------------------------------------------------------

class PolyParseError(ValueError):
    """Syntax error in a polynomial expression, with 0-based position."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"syntax error at position {position}: {message}")
        self.position = position


def _int_literal(literal: str, position: int) -> int:
    """int(literal), or a PolyParseError at ``position`` if it is not one or too
    long; '_', which int() reads, is refused as in the expression form."""
    try:
        if "_" not in literal:
            return int(literal)
    except ValueError as exc:
        if str(exc).startswith("Exceeds the limit"):
            limit = sys.get_int_max_str_digits()
            raise PolyParseError(f"integer {_quote(literal)} has more than {limit} digits, the "
                                 f"most the interpreter converts", position) from None
    raise PolyParseError(f"invalid integer {_quote(literal)}", position)


def parse_poly(text: str) -> IntPolynomial:
    """Parse a polynomial expression into canonical form.

    Two input forms are accepted:

    * sums of terms like ``x^5 + 2*x^3 - 4x + 1`` (the ``*`` is optional,
      whitespace is ignored, unary minus is allowed), each term read by one
      match of ``_TERM`` and checked in the order its parts are written;
    * a bracketed coefficient list in degree-descending order,
      ``[a_k, ..., a_1, a_0]``.

    Like terms are combined; the result is canonical.  A syntax error is a
    ``PolyParseError`` at its 0-based position in ``text`` as typed.
    """
    if text.lstrip().startswith("["):
        return _parse_coeff_list(text)
    return _parse_terms(text)


def _parse_coeff_list(text: str) -> IntPolynomial:
    s = text.rstrip()  # leading spaces kept: positions count in text as typed
    if not s.endswith("]"):
        raise PolyParseError("coefficient list must be enclosed in [ ]", len(s) - 1)
    inner = s[:-1].lstrip()[1:].lstrip()
    if not inner:
        return IntPolynomial()
    at = len(s) - 1 - len(inner)  # where inner starts, as s[:-1] ends with it
    coeffs = []
    for part in inner.split(","):
        coeffs.append(_int_literal(part.strip(), at))
        at += len(part) + 1
    return IntPolynomial(coeffs[::-1])  # input is degree-descending


# One term: sign, coefficient, '*', 'x' and '^' with its exponent, each
# optional and each followed by any whitespace.  \s matches exactly the
# str.isspace characters that str.lstrip skips; \d only decimal digits, the
# runs _int_at widens.
_TERM = re.compile(r"([+-]?)\s*(\d*)\s*(\*?)\s*(?:(x)\s*(?:(\^)\s*(\d*))?)?\s*")


def _int_at(text: str, start: int, end: int) -> int:
    """The integer whose decimal digits are text[start:end], the run widened over
    the other str.isdigit characters (such as '²'), so that int() refuses them."""
    while end < len(text) and text[end].isdigit():
        end += 1
    if end == start:
        raise PolyParseError("expected digits", start)
    return _int_literal(text[start:end], start)


def _parse_terms(text: str) -> IntPolynomial:
    terms = {}
    n = len(text)
    i = n - len(text.lstrip())
    if i == n:
        raise PolyParseError("empty polynomial expression", i)
    while i < n:
        m = _TERM.match(text, i)
        sign, digits, star, x, caret, _ = m.groups()
        j = m.start(2)  # past the sign
        if not sign and terms:  # every term but the first has its sign
            raise PolyParseError(f"expected '+' or '-', found {text[i]!r}", i)
        if j == n:
            raise PolyParseError("dangling sign", j)
        coef = _int_at(text, j, m.end(2)) if text[j].isdigit() else 1
        if not digits and text[j] != "x":
            raise PolyParseError(f"expected term, found {text[j]!r}", j)
        if star and not x:
            raise PolyParseError("expected 'x' after '*'", m.end())
        power = _int_at(text, m.start(6), m.end(6)) if caret else 1 if x else 0
        if power > MAX_EXPONENT:
            raise PolyParseError(f"exponent {_shown(power)} is above the limit of "
                                 f"{MAX_EXPONENT}", m.start(6))
        terms[power] = terms.get(power, 0) + (-coef if sign == "-" else coef)
        i = m.end()
    return IntPolynomial(terms.get(k, 0) for k in range(max(terms) + 1))


def render(f: IntPolynomial) -> str:
    """Canonical text form; parse_poly(render(f)) == f."""
    if not f.coeffs:
        return "0"
    parts: list[str] = []
    for k in range(f.degree, -1, -1):
        c = f.coeffs[k]
        if c == 0:
            continue
        mag = abs(c)
        if k == 0:
            body = str(mag)
        elif k == 1:
            body = "x" if mag == 1 else f"{mag}*x"
        else:
            body = f"x^{k}" if mag == 1 else f"{mag}*x^{k}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)
