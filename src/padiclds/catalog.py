"""Machine-readable catalog of the small-degree permutation-polynomial tables.

Each catalog row is a parametrized family, written once as its formula in x
and a, together with the prime (or prime congruence class) where it applies,
the admissibility predicate on the parameter, and the expected derivative-root
behavior.  Rows written with a ``+-`` where the source has a sign choice are
expanded into explicit sign variants; for rows carrying two signs the
variants where both signs agree are the asserted ones (the crossed variants
are generated and verified anyway, and their outcomes are reported rather
than suppressed, since the source notation does not disambiguate the
coupling).

The module also provides the exhaustive small-degree search that reproduces
the table contents from scratch, and the diff that partitions search hits
into explained/unexplained.  The search builds each hit as
A + (x^p - x)B + (x^p - x)^2 C over F_p: A a permutation of Z/p of degree
< p, B avoiding A' at every residue, C free.  It walks orbit representatives
of A only below degree p.
"""

from __future__ import annotations

import functools
import itertools
from operator import ne
from typing import NamedTuple

from .padic import check_prime
from .permcheck import (_check_enumeration, _confirm, _count_candidates,
                        classify_low_discrepancy, is_permutation_mod, noebauer_mod_p2)
from .polynomials import IntPolynomial, _image, _roots_mod, _values, derivative

PRED_NONSQUARE = "nonsquare"
PRED_NOT_FOURTH_POWER = "not_fourth_power"
PRED_NONZERO = "nonzero"
PRED_SQUARE = "square"
PRED_NONE = "none"

# Finite sample of the "p congruent to +-2 mod 5" prime class used wherever a
# concrete prime list is needed; exhausting the class is impossible.
FAMILY_5M2_SAMPLE_PRIMES = (2, 3, 7, 13, 17, 23)


class DicksonEntry(NamedTuple):
    """One expanded catalog row.

    ``name`` is the row's formula in x and a, and ``build(a, p)`` instantiates
    it at parameter a (ignored when the predicate is "none") with coefficients
    reduced mod p, refusing a p that is not prime or that the row does not
    match.  ``asserted`` is False for the crossed sign variants of
    two-sign rows: they are verified and reported but the catalog makes no
    claim about them.
    """

    name: str
    source_table: int
    prime_spec: int | str
    parameter_predicate: str
    expected_derivative_roots: frozenset[int] | None = None
    derivative_root_exists: bool | None = None
    sign_variant: str | None = None
    asserted: bool = True

    def matches_prime(self, p: int) -> bool:
        return p == self.prime_spec if isinstance(self.prime_spec, int) else p % 5 in (2, 3)

    def build(self, a: int, p: int) -> IntPolynomial:
        check_prime(p)
        if not self.matches_prime(p):
            raise ValueError(f"prime {p} incompatible with entry {self.name!r}")
        terms = _terms_mod(self.name, p)
        coeffs = [0] * (terms[0][0] + 1)
        for e, c, k in terms:
            coeffs[e] = c * a ** k % p
        return IntPolynomial(coeffs)

    def as_dict(self) -> dict:
        out = self._asdict()
        if self.expected_derivative_roots is not None:
            out["expected_derivative_roots"] = sorted(self.expected_derivative_roots)
        return out


@functools.cache
def _terms(formula: str) -> tuple:
    """(e, c, d, k) for each term c/d * a^k * x^e of a formula such as
    ``x^5 + a*x^3 + 5^-1*a^2*x``.

    Terms are apart by " + " or " - ", in falling powers of x, each a product
    of integers, a and x, each to an optional integer power.  Anything else,
    such as a negative power of a or x, raises ValueError.
    """
    terms = []
    for term in formula.replace(" - ", " + -1*").split(" + "):
        c, d, power = 1, 1, {"a": 0, "x": 0}
        for factor in term.split("*"):
            base, _, n = factor.partition("^")
            n = int(n or 1)
            if base in power:
                power[base] += n
            elif n < 0:
                d *= int(base) ** -n
            else:
                c *= int(base) ** n
        k, e = power.values()
        if min(k, e) < 0 or terms and e >= terms[-1][0]:
            raise ValueError(f"unreadable catalog formula {formula!r}")
        terms.append((e, c, d, k))
    return tuple(terms)


@functools.cache
def _terms_mod(formula: str, p: int) -> tuple:
    """(e, c/d mod p, k) for each term c/d * a^k * x^e of a formula: one
    reduction per prime, so that a build is a multiplication per term."""
    return tuple((e, c * pow(d, -1, p) % p, k) for e, c, d, k in _terms(formula))


def admissible_parameters(predicate: str, p: int) -> list[int]:
    """Concrete parameter values satisfying the predicate at p."""
    check_prime(p)
    units = range(1, p)
    if predicate == PRED_NONE:
        return [0]
    if predicate == PRED_NONZERO:
        return list(units)
    squares = {y * y % p for y in units}
    if predicate == PRED_NONSQUARE:
        return [a for a in units if a not in squares]
    if predicate == PRED_SQUARE:
        return [a for a in units if a in squares]
    if predicate == PRED_NOT_FOURTH_POWER:
        fourths = {pow(y, 4, p) for y in units}
        return [a for a in units if a not in fourths]
    raise ValueError(f"unknown parameter predicate {predicate!r}")


# Table 2, one line per source row: its formula in x and a, with +- where the
# source has a sign choice, its prime (or prime class), its parameter
# predicate, and its derivative-root claim: whether a root exists, or the
# root set of each sign variant.
_TABLE2 = (
    ("x^3 - a*x", 3, PRED_NONSQUARE, None),
    ("x^4 +- 3*x", 7, PRED_NONE, ({1, 2, 4}, {3, 5, 6})),
    ("x^5 - a*x", 5, PRED_NOT_FOURTH_POWER, None),
    ("x^5 + a*x^3 +- x^2 + 3*a^2*x", 7, PRED_NONSQUARE, True),
    ("x^5 + a*x^3 + 5^-1*a^2*x", "5m+-2", PRED_NONZERO, None),
    ("x^5 + a*x^3 + 3*a^2*x", 13, PRED_NONSQUARE, True),
    ("x^5 + 2*a*x^3 + a^2*x", 5, PRED_NONSQUARE, False),
    ("x^6 +- 2*x", 11, PRED_NONE, ((), ())),
    ("x^6 +- 4*x", 11, PRED_NONE, ((), ())),
    ("x^6 +- a^2*x^3 + a*x^2 +- 5*x", 11, PRED_SQUARE, True),
    ("x^6 +- 4*a^2*x^3 + a*x^2 +- 4*x", 11, PRED_NONSQUARE, True),
)


@functools.cache
def dickson_entries() -> tuple[DicksonEntry, ...]:
    """All expanded catalog rows (both source tables)."""
    table2 = [DicksonEntry(formula.replace("+-", "%s") % signs, 2, prime, predicate,
                           frozenset(claim[i]) if isinstance(claim, tuple) else None,
                           claim if asserted and isinstance(claim, bool) else None,
                           "".join(signs) or None, asserted)
              for formula, prime, predicate, claim in _TABLE2
              for i, signs in enumerate(itertools.product("+-", repeat=formula.count("+-")))
              for asserted in [len(set(signs)) < 2]]
    for entry in table2:
        _terms(entry.name)  # read once, here: a bad row fails at load, and no build parses
    # Table 1 (the low-discrepancy generators) is x^5 + 2*a*x^3 + a^2*x, x^6 +- 2*x,
    # x^6 +- 4*x and x^5 + a*x^3 + 5^-1*a^2*x of Table 2, in that order.
    return tuple(table2 + [e._replace(source_table=1) for e in table2[8:13] + table2[6:7]])


# --------------------------------------------------------------------------
# Verification
# --------------------------------------------------------------------------

class ParameterResult(NamedTuple):
    a: int
    poly: IntPolynomial
    is_perm: bool
    derivative_roots: tuple[int, ...]
    low_discrepancy: bool | None = None


class EntryVerification(NamedTuple):
    results: tuple[ParameterResult, ...]
    failures: tuple[str, ...]
    notes: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def verify_entry(entry: DicksonEntry, p: int) -> EntryVerification:
    """Re-derive one row's claims at a concrete prime.

    For every admissible parameter the instantiation must be a permutation
    mod p, the recomputed derivative-root set must match the recorded
    expectation (exact set or existence flag), and for a Table 1 row the
    full low-discrepancy classification must come out positive.  Each fact
    is read off one Verdict per parameter (classify's for Table 1, Noebauer's
    for Table 2), and f' is scanned for all its roots only when it has one.
    Failed claims go to ``failures``, non-asserted sign variants' to ``notes``.
    """
    check_prime(p)
    if not entry.matches_prime(p):
        raise ValueError(f"prime {p} incompatible with entry {entry.name!r}")
    results: list[ParameterResult] = []
    failures: list[str] = []
    notes: list[str] = []
    sink = notes if not entry.asserted else failures
    verdict_of = classify_low_discrepancy if entry.source_table == 1 else noebauer_mod_p2
    for a in admissible_parameters(entry.parameter_predicate, p):
        f = entry.build(a, p)
        verdict = verdict_of(f, p)
        roots = () if verdict.derivative_root is None else tuple(
            _roots_mod(derivative(f).coeffs, p))
        lds = verdict.low_discrepancy if entry.source_table == 1 else None
        results.append(ParameterResult(a, f, verdict.perm_mod_p, roots, lds))
        label = f"{entry.name} @ p={p}, a={a}"
        if not verdict.perm_mod_p:
            sink.append(f"{label}: not a permutation mod {p}")
        if entry.expected_derivative_roots not in (None, set(roots)):
            sink.append(
                f"{label}: derivative roots {sorted(roots)} != expected "
                f"{sorted(entry.expected_derivative_roots)}"
            )
        if entry.derivative_root_exists is True and not roots:
            sink.append(f"{label}: expected a derivative root, found none")
        if entry.derivative_root_exists is False and roots:
            sink.append(f"{label}: expected no derivative roots, found {sorted(roots)}")
        if lds is False:
            sink.append(f"{label}: not classified low-discrepancy")
    return EntryVerification(tuple(results), tuple(failures), tuple(notes))


def verification_primes(entry: DicksonEntry) -> tuple[int, ...]:
    return (entry.prime_spec,) if isinstance(entry.prime_spec, int) else FAMILY_5M2_SAMPLE_PRIMES


# --------------------------------------------------------------------------
# Exhaustive search
# --------------------------------------------------------------------------

DEFAULT_SEARCH_CAP = 100_000_000


class SearchConstraints(NamedTuple):
    monic: bool = False
    zero_constant: bool = False
    nonzero_linear: bool = False


def _taylor_shift(coeffs, c: int, p: int) -> list[int]:
    """Coefficients of g(x + c) mod p, by repeated synthetic division."""
    a = list(coeffs)
    n = len(a) - 1
    for i in range(n):
        for j in range(n - 1, i - 1, -1):
            a[j] = (a[j] + c * a[j + 1]) % p
    return a


def _times_xp_minus_x(q, p: int) -> tuple[int, ...]:
    """Coefficients of (x^p - x) * q(x) mod p, trailing zeros trimmed."""
    if not any(q):
        return ()
    out = [0, *(-c % p for c in q), *[0] * (p - 1)]
    for k, c in enumerate(q):
        out[k + p] = (out[k + p] + c) % p
    return IntPolynomial(out).coeffs


def exhaustive_search(
    p: int,
    max_degree: int,
    constraints: SearchConstraints = SearchConstraints(),
) -> list[IntPolynomial]:
    """All polynomials of degree 1..max_degree (coefficients in [0, p)) under
    the given shape constraints that generate low-discrepancy sequences.

    Verdicts depend only on coefficient residues mod p (the permutation test
    mod p^2 reduces to mod-p data via the derivative criterion), so [0, p) is
    the complete search space; more than ``DEFAULT_SEARCH_CAP`` candidates
    are refused before any is tested.

    The hits are built, not searched for.  Dividing twice by P = x^p - x
    over F_p writes each candidate once as f = A + P*B + P^2*C with deg A < p
    and deg B < p.  At every integer x, P = 0 and P' = -1 mod p, so f is a hit
    iff A permutes Z/p and f' = A' - B has no root mod p, and C is free: from
    degree d = 2p - 1 on there are p! * (p - 1)^p * p^(d + 1 - 2p) hits.

    The verdict is invariant under f -> u*f(x + c) + v (u a unit), and over
    F_p P(x + c) = P(x), so only monic zero-constant representatives g of
    degree n < p take the mod-p test, with a_{n-1} = 0 as well when n >= 2:
    the x^{n-1} coefficient of g(x + c) is a_{n-1} + n*c, so a shift reaches
    every other a_{n-1}.  For each shift c of a generator, every B of degree
    <= min(d - p, p - 1) whose values mod p avoid those of g'(x + c) (B = 0
    passes iff g' has no root) and every C of degree <= d - 2p give
    h = g(x + c) - g(c) + P*B + P^2*C, which expands to its images u*h + v
    that meet the flags.  monic fixes u to the inverse of h's lead;
    nonzero_linear filters nothing, since a_1 = f'(0) = A_1 - B_0 is never 0
    in a hit, so it does not shrink the count checked against the cap
    either.  Output is in (degree, coefficient tuple) order.

    The hits are confirmed by brute force mod p^2, independently of the rule
    that built them.  Without zero_constant every non-constant part comes
    with all p constant terms, and f + v permutes Z/p^2 iff f does, since
    adding v is a bijection of Z/p^2.  So each non-constant part is
    enumerated once, as its zero-constant hit, in output order.
    """
    check_prime(p)
    _check_enumeration(p * p, "p^2")
    if max_degree < 1:
        raise ValueError("max_degree must be >= 1")
    n_lead = 1 if constraints.monic else p - 1
    n_a0 = 1 if constraints.zero_constant else p
    _count_candidates(
        (n_lead * n_a0 * p ** (d - 1) for d in range(1, max_degree + 1)),
        DEFAULT_SEARCH_CAP,
    )

    # (values mod p, P*B) of each B and P^2*C of each C: just B = 0 and C = 0 when d < p
    bs = [(bytes(_values(b, p, p)), _times_xp_minus_x(b, p)) for b in itertools.product(
        range(p), repeat=max(0, min(max_degree - p + 1, p)))]
    cs = [_times_xp_minus_x(_times_xp_minus_x(c, p), p) for c in itertools.product(
        range(p), repeat=max(0, max_degree - 2 * p + 1))]
    consts = (0,) if constraints.zero_constant else range(p)
    hits = []
    for n in range(1, min(max_degree, p - 1) + 1):
        for mids in itertools.product(range(p), repeat=max(n - 2, 0)):
            g = (0, *mids, 0, 1) if n > 1 else (0, 1)
            if _image(g, p, True) is None:
                continue
            dg = bytes(_values([i * c for i, c in enumerate(g)][1:], p, p))
            for c in range(p) if n > 1 else (0,):
                dh = dg[c:] + dg[:c]  # the values of h'(x) = g'(x + c)
                pbs = [pb for vb, pb in bs if all(map(ne, vb, dh))]
                if not pbs:
                    continue
                h = _taylor_shift(g, c, p)
                h[0] = 0
                for pb in pbs:
                    for pc in cs:
                        # f's lead is the top term of P^2*C, else of P*B, else of h
                        t = [sum(a) % p for a in itertools.zip_longest(h, pb, pc, fillvalue=0)]
                        for u in (pow(t[-1], -1, p),) if constraints.monic else range(1, p):
                            body = tuple(u * b % p for b in t[1:])
                            hits.extend((v, *body) for v in consts)
    hits.sort(key=lambda t: (len(t), t))
    found = [IntPolynomial(t) for t in hits]
    for f in found:
        if not f.coeffs[0]:
            _confirm(is_permutation_mod(f, p * p), f, p)
    return found


# --------------------------------------------------------------------------
# Diff against the catalog
# --------------------------------------------------------------------------

_CATEGORIES = ("table1", "prop_family", "affine", "linear", "unexplained")


class MatchReport(NamedTuple):
    """Partition of search hits by what explains them.

    ``prop_family`` holds the monic hits x^p + a*x + b with a and a+1 units;
    ``affine`` the other hits whose monic zero-constant canon lies in the
    orbit of a table-1 row or a family member under a*f(c*x + d) + b.
    ``linear`` holds the degree <= 1 hits: those are settled by the linear
    unit criterion and lie outside the degree-2..6 classification the tables
    cover.  ``unexplained`` entries are verbatim counterexamples to the
    completeness of the tables.
    """

    table1: tuple[IntPolynomial, ...]
    prop_family: tuple[IntPolynomial, ...]
    affine: tuple[IntPolynomial, ...]
    linear: tuple[IntPolynomial, ...]
    unexplained: tuple[IntPolynomial, ...]

    def category_of(self) -> dict:
        out = {}
        for cat in _CATEGORIES:
            for f in getattr(self, cat):
                out[f.coeffs] = cat
        return out


def table1_instances(p: int) -> list[IntPolynomial]:
    """Concrete Table-1 polynomials applicable at p, coefficients in [0, p)."""
    return list(_table1_instances(p))


@functools.cache
def _table1_instances(p: int) -> tuple[IntPolynomial, ...]:
    """table1_instances(p), built once per prime: the first build of each
    distinct polynomial, in row and parameter order."""
    out = {}
    for entry in dickson_entries():
        if entry.source_table == 1 and entry.matches_prime(p):
            for a in admissible_parameters(entry.parameter_predicate, p):
                f = entry.build(a, p)
                out.setdefault(f.coeffs, f)
    return tuple(out.values())


def prop_family_instances(p: int) -> list[IntPolynomial]:
    """Monic zero-constant representatives x^p + a*x with a and a+1 units."""
    out = []
    for a in range(1, p - 1):
        coeffs = [0] * (p + 1)
        coeffs[1] = a
        coeffs[p] = 1
        out.append(IntPolynomial(coeffs))
    return out


def _affine_canon(f: IntPolynomial, p: int) -> tuple[int, ...]:
    """Monic zero-constant normal form under value-side affine maps u*f + v."""
    u = pow(f.coeffs[-1], -1, p)
    return (0, *(u * c % p for c in f.coeffs[1:]))


def _affine_orbit_canons(templates: list[IntPolynomial], p: int) -> set[tuple[int, ...]]:
    """Canons of g(cx + d) over every template g, unit c and residue d.

    g(x + d) is Taylor-shifted once per d; scaling x by c multiplies
    coefficient k by c^k, and the canon divides by the lead's c^n, so
    coefficient k of the canon is b_k * (1/c)^(n-k) for the monic shift b.
    Every template coefficient is in [0, p) with a unit lead.
    """
    canons: set[tuple[int, ...]] = set()
    for g in templates:
        n = g.degree
        for d in range(p):
            a = _taylor_shift(g.coeffs, d, p)
            u = pow(a[n], -1, p)
            b = [u * x % p for x in a]
            for w in range(1, p):  # w = 1/c runs over the units as c does
                canon, s = [], 1
                for k in range(n, 0, -1):
                    canon.append(b[k] * s % p)
                    s = s * w % p
                canons.add((0, *reversed(canon)))
    return canons


def match_against_table(found: list[IntPolynomial], p: int) -> MatchReport:
    """Partition search hits into {table 1, degree-p family, affine image, linear, unexplained}.

    For each hit, reduced mod p to g, the first rule that holds decides: g is a
    literal table-1 row; deg g <= 1; the monic zero-constant canon of g lies in
    the affine orbit of a table-1 row or a family member -- prop_family if g is
    monic with a family-member canon, else affine; otherwise unexplained.
    """
    check_prime(p)
    t1 = _table1_instances(p)
    literal_t1 = {f.coeffs for f in t1}
    # search hits come reduced; only other input is copied mod p
    reduced = [f if all(0 <= c < p for c in f.coeffs) else IntPolynomial(c % p for c in f.coeffs)
               for f in found]
    degrees = {g.degree for g in reduced}
    # u*t(cx+d)+v == uc*x^p + uac*x + const (mod p) for a family member t, so every
    # image of t has canon t; unit multipliers keep the degree, so skip other rows.
    family = {t.coeffs for t in prop_family_instances(p)}
    orbit = _affine_orbit_canons([t for t in t1 if t.degree in degrees], p) | family

    buckets: dict[str, list[IntPolynomial]] = {cat: [] for cat in _CATEGORIES}
    for f, g in zip(found, reduced):
        if g.coeffs in literal_t1:
            category = "table1"
        elif g.degree <= 1:
            category = "linear"
        else:
            canon = _affine_canon(g, p)
            if canon not in orbit:
                category = "unexplained"
            elif g.coeffs[-1] == 1 and canon in family:
                category = "prop_family"
            else:
                category = "affine"
        buckets[category].append(f)
    return MatchReport(**{cat: tuple(hits) for cat, hits in buckets.items()})
