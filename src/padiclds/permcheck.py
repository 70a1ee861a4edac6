"""Permutation-polynomial decision procedures and the low-discrepancy classifier.

Every verdict comes from one private helper, ``_mod_p_verdict``, which reads
two value tables mod p: the table of a polynomial g gives the permutation
test and the smallest missed residue, the table of a second polynomial dg
gives the smallest root.  Every table comes from the one value-table
evaluator of ``polynomials`` (Horner at every x for a short table, forward
differences past max(40, 5(d+1)) values), and the root scan stops at the
first root.  The three routes differ only in what they feed it:

* the Noebauer criterion -- g = f, dg = f'.  f permutes Z/p^2 iff it permutes
  Z/p and f' has no root mod p, so this decides both levels from mod-p data;
* brute force -- the Noebauer verdict checked against f's own values mod
  p^2: a "permutes Z/p^2" verdict by f's whole image mod p^2 (``_image``,
  from p = 16 on read off one table of f over [0, 2p) by its p fibres),
  a "does not" verdict by one collision f(x) = f(x') mod p^2, x != x', found
  from the mod-p facts and proved by evaluating f at both points.  A check
  that fails is a broken invariant and raises ``InvariantError``.  This is
  the authoritative route.  When f permutes Z/p but not Z/p^2 its level-2
  missed residue comes from the Hensel fibres over the derivative roots,
  with no enumeration mod p^2;
* the unit-group folding formula -- g and dg are the two degree <= p-2
  reductions of f and f'.  The folding is only valid at unit residues, so this
  route can disagree with ground truth; it is never treated as authoritative,
  and ``divergence_scan`` hunts for exactly those disagreements.  When
  deg f <= p-2 the reductions are f and f' mod p, and the facts read from
  their tables are the Noebauer route's, taken from a small cache.

All decision procedures are pure.
"""

from __future__ import annotations

import functools
import itertools
from typing import NamedTuple

from .padic import InvariantError, check_prime
from .polynomials import (
    IntPolynomial,
    _horner,
    _image,
    _roots_mod,
    _values,
    derivative,
    eval_mod,
    unit_value_poly,
)

# Refuse exhaustive enumerations beyond this many residues; keeps worst-case
# classification fast while covering every prime of interest (p^2 <= cap).
DEFAULT_ENUMERATION_CAP = 10_000_000

# The most candidates ``divergence_scan`` enumerates.
DIVERGENCE_CAP = 1_000_000

METHOD_BRUTE_FORCE = "brute_force"
METHOD_NOEBAUER = "noebauer"
METHOD_UNIT_REDUCTION = "unit_reduction"


class _VerdictFields(NamedTuple):
    low_discrepancy: bool
    perm_mod_p: bool
    perm_mod_p2: bool
    derivative_root: int | None
    missing_residue: tuple[int, int] | None
    method: str


class Verdict(_VerdictFields):
    """Classification outcome for a polynomial at a prime.

    ``missing_residue`` is a (level, residue) pair with level in {1, 2}
    witnessing non-surjectivity mod p^level.  ``derivative_root`` is the
    smallest root of f' mod p when one exists.  For the unit-reduction method
    the fields describe the folded polynomials rather than f itself.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # else _replace skips __new__

    def __new__(cls, low_discrepancy, perm_mod_p, perm_mod_p2, derivative_root,
                missing_residue, method):
        if method in (METHOD_BRUTE_FORCE, METHOD_NOEBAUER):
            if low_discrepancy != (perm_mod_p and perm_mod_p2):
                raise ValueError("inconsistent verdict: low_discrepancy must equal the conjunction")
            if perm_mod_p and not perm_mod_p2 and derivative_root is None:
                raise ValueError("inconsistent verdict: missing derivative-root certificate")
            if not perm_mod_p and (missing_residue is None or missing_residue[0] != 1):
                raise ValueError("inconsistent verdict: missing level-1 witness")
        return super().__new__(cls, low_discrepancy, perm_mod_p, perm_mod_p2, derivative_root,
                               missing_residue, method)

    def as_dict(self) -> dict:
        missing = self.missing_residue
        return {**self._asdict(), "missing_residue": list(missing) if missing else None}


def _check_enumeration(m: int, name: str = "m") -> None:
    if m < 1:
        raise ValueError("modulus must be >= 1")
    if m > DEFAULT_ENUMERATION_CAP:
        raise ValueError(f"enumeration too large: {name}={m} exceeds cap {DEFAULT_ENUMERATION_CAP}")


def _count_candidates(sizes, cap: int) -> int:
    """The sum of ``sizes``, refused as soon as it passes ``cap``, so a huge
    number of terms is never summed in full."""
    total = 0
    for size in sizes:
        total += size
        if total > cap:
            raise ValueError(f"search space of at least {total} candidates exceeds cap {cap}")
    return total


def is_permutation_mod(f: IntPolynomial, m: int) -> bool:
    """True iff f induces a bijection on Z/mZ, by ``_image`` up to the first repeat."""
    _check_enumeration(m)
    return _image(f.coeffs, m, True) is not None


def first_missing_residue(f: IntPolynomial, m: int) -> int | None:
    """Smallest residue mod m not attained by f, or None if f is surjective."""
    _check_enumeration(m)
    z = _image(f.coeffs, m, False).find(0)
    return None if z < 0 else z


@functools.lru_cache(maxsize=16)
def _mod_p_facts(g: tuple[int, ...], dg: tuple[int, ...], p: int) -> tuple[int | None, int | None]:
    """(smallest residue mod p missed by g, smallest root of dg mod p), each None
    if there is none; g and dg are coefficient tuples reduced mod p.

    By pigeonhole g permutes Z/p exactly when it misses no residue, so the
    permutation test and the level-1 witness come from the same table.  Both
    facts depend only on (g, dg, p), so they are cached: when deg f <= p-2 the
    unit-group foldings of f and f' are f and f' mod p, and the folding route
    reads the pair the Noebauer route has just computed.  The keys keep any
    zero lead left by the reduction, which costs at most a cache miss; the
    tables are read with it trimmed, at the true degree of g and dg mod p.
    """
    dg = IntPolynomial(dg).coeffs
    return first_missing_residue(IntPolynomial(g), p), next(_roots_mod(dg, p), None)


def _mod_p_verdict(g: IntPolynomial, dg: IntPolynomial, p: int, method: str) -> Verdict:
    """Verdict "g permutes Z/p and dg has no root mod p", one value table each."""
    missing, root = _mod_p_facts(
        tuple([c % p for c in g.coeffs]), tuple([c % p for c in dg.coeffs]), p
    )
    perm_p = missing is None
    ok = perm_p and root is None
    return Verdict(
        low_discrepancy=ok,
        perm_mod_p=perm_p,
        perm_mod_p2=ok,
        derivative_root=root,
        missing_residue=None if perm_p else (1, missing),
        method=method,
    )


def noebauer_mod_p2(f: IntPolynomial, p: int) -> Verdict:
    """Decide permutation mod p^2 from the mod-p data alone.

    f is a permutation mod p^2 iff it is a permutation mod p and f' has no
    root mod p.  The smallest derivative root (when present) is recorded as a
    certificate.
    """
    check_prime(p)
    return _mod_p_verdict(f, derivative(f), p, METHOD_NOEBAUER)


def classify_low_discrepancy(f: IntPolynomial, p: int) -> Verdict:
    """Ground-truth verdict: the Noebauer verdict checked on f's values mod p^2.

    The sequence (f(n)) is low-discrepancy exactly when f permutes Z/p and
    Z/p^2.  A verdict that f permutes Z/p^2 is confirmed by f's image mod
    p^2 (``is_permutation_mod``); one that it does not, by a collision mod p^2
    that ``_collides_mod_p2`` evaluates, in O(p * deg f) at most.  Either
    check reads only values of f, so it is independent of the derivative
    criterion; a failed check would mean a broken invariant, so it raises
    ``InvariantError`` rather than returning.
    """
    check_prime(p)
    _check_enumeration(p * p, "p^2")
    df = derivative(f)
    verdict = _mod_p_verdict(f, df, p, METHOD_BRUTE_FORCE)
    _confirm(is_permutation_mod(f, p * p) if verdict.perm_mod_p2
             else _collides_mod_p2(f, df, p, verdict.derivative_root), f, p)
    if verdict.perm_mod_p and not verdict.perm_mod_p2:
        return verdict._replace(missing_residue=(2, _fibre_witness(f, p)))
    return verdict


def _confirm(confirmed: bool, f: IntPolynomial, p: int) -> None:
    """Raise ``InvariantError`` unless f's values mod p^2 confirmed the
    Noebauer verdict: a broken invariant, never a verdict."""
    if not confirmed:
        raise InvariantError(
            f"internal error: Noebauer criterion disagrees with enumeration for {f} mod {p}")


def _collides_mod_p2(f: IntPolynomial, df: IntPolynomial, p: int, root: int | None) -> bool:
    """Whether two distinct x, x' in [0, p^2), chosen from the mod-p facts,
    have f(x) = f(x') mod p^2, by evaluating f at both.

    For every x, f(x + tp) = f(x) + tp*f'(x) mod p^2.  At a root r of f' mod p
    the pair is (r, r + p).  With no root, f must miss a residue mod p: take
    its first repeat a < b mod p in x order, and lift a to a + tp with
    t = ((f(b) - f(a)) / p) / f'(a) mod p, f(a) and f(b) read mod p^2.  The
    derivative only finds the pair; the answer rests on f's two values.
    """
    pp = p * p
    if root is not None:
        x, y = root, root + p
    else:
        first: dict[int, int] = {}
        for y, v in enumerate(_values(f.coeffs, p, p)):
            x = first.setdefault(v, y)
            if x != y:
                break
        else:
            return False  # f permutes Z/p: no repeat to lift
        rise = (eval_mod(f, y, pp) - eval_mod(f, x, pp)) % pp // p
        # Fermat's inverse, which never raises: whatever f'(x) is, the
        # comparison below decides.
        x += rise * pow(eval_mod(df, x, p), p - 2, p) % p * p
    return eval_mod(f, x, pp) == eval_mod(f, y, pp)


def _fibre_witness(f: IntPolynomial, p: int) -> int:
    """Smallest residue mod p^2 missed by f, for f permuting Z/p but not Z/p^2.

    Over a root r of f' mod p the fibre r + tp maps to f(r) + tp*f'(r), which
    is f(r) mod p^2 for every t; as f permutes Z/p, no other x reaches that
    class mod p, so every other lift of f(r) mod p is missed.  Fibres over
    non-roots cover all p lifts.  The smallest missed residue is therefore the
    least, over the roots r, of f(r) mod p when that differs from f(r) mod
    p^2, and of f(r) mod p + p otherwise.
    """
    hits = _horner(f.coeffs, _roots_mod(derivative(f).coeffs, p), p * p)
    return min(hit % p if hit >= p else hit + p for hit in hits)


def classify_via_reduction(f: IntPolynomial, p: int) -> Verdict:
    """Verdict computed only from the unit-group foldings of f and f'.

    The folded value polynomial must be a permutation mod p and the folded
    derivative polynomial must be root-free.  Because the folding ignores the
    residue 0, this verdict can differ from ground truth; it is reported, not
    trusted.  Fields describe the folded polynomials: ``perm_mod_p`` is the
    permutation test of the value folding, ``derivative_root`` the smallest
    root of the derivative folding.
    """
    return _mod_p_verdict(
        unit_value_poly(f, p), unit_value_poly(derivative(f), p), p, METHOD_UNIT_REDUCTION
    )


class DivergenceEntry(NamedTuple):
    """One polynomial where the folding formula contradicts ground truth."""

    poly: IntPolynomial
    ground_truth: Verdict
    formula: Verdict


class DivergenceReport(NamedTuple):
    candidates: int
    entries: tuple[DivergenceEntry, ...]


def divergence_scan(p: int, max_degree: int, coefficient_range: range) -> DivergenceReport:
    """Enumerate polynomials and list every disagreement between the two classifiers.

    Coefficients are canonicalized into [0, p) before enumeration: both the
    permutation tests and the derivative-root test depend only on the
    coefficient residues mod p, so distinct lifts carry the same verdicts.
    A range's residues repeat with period p, so its first p members hold them
    all.  More than ``DIVERGENCE_CAP`` candidates are refused before any is
    classified.  Entries come in (degree, coefficient-tuple) order.
    """
    check_prime(p)
    residues = sorted({c % p for c in coefficient_range[:p]})
    if not residues:
        raise ValueError("empty coefficient range")
    width = len(residues)
    nonzero = [r for r in residues if r != 0]

    # Every candidate of degree d >= 1 has a nonzero lead, so without one
    # only the constants remain.
    degrees = range(max_degree + 1) if nonzero else range(1)
    total = _count_candidates(
        (width ** d * len(nonzero) if d else width for d in degrees), DIVERGENCE_CAP
    )

    entries: list[DivergenceEntry] = []
    for d in degrees:
        for coeffs in itertools.product(residues, repeat=d + 1):
            if d and not coeffs[-1]:
                continue
            f = IntPolynomial(coeffs)
            truth = classify_low_discrepancy(f, p)
            formula = classify_via_reduction(f, p)
            if truth.low_discrepancy != formula.low_discrepancy:
                entries.append(DivergenceEntry(f, truth, formula))
    return DivergenceReport(candidates=total, entries=tuple(entries))
