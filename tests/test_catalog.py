import collections
import functools
import itertools
import math
import random
import re

import pytest

from padiclds import catalog, permcheck
from padiclds.catalog import (
    FAMILY_5M2_SAMPLE_PRIMES,
    DicksonEntry,
    MatchReport,
    ParameterResult,
    SearchConstraints,
    admissible_parameters,
    dickson_entries,
    exhaustive_search,
    match_against_table,
    prop_family_instances,
    table1_instances,
    verification_primes,
    verify_entry,
)
from padiclds.permcheck import classify_low_discrepancy, is_permutation_mod
from padiclds.polynomials import (
    IntPolynomial,
    derivative,
    eval_mod,
    parse_poly,
)
from affine_oracle import affine_compose


def entry_by_name(name, table):
    matches = [
        e for e in dickson_entries() if e.name == name and e.source_table == table
    ]
    assert matches, f"no entry {name!r} in table {table}"
    return matches


class TestEntries:
    def test_row_inventory(self):
        entries = dickson_entries()
        t2 = [e for e in entries if e.source_table == 2]
        t1 = [e for e in entries if e.source_table == 1]
        assert len(t2) == 21  # 11 source rows, sign-expanded
        assert len(t1) == 6   # 4 source rows, sign-expanded
        # crossed sign variants of the two-sign rows are present but not asserted
        assert sum(1 for e in t2 if not e.asserted) == 4

    def test_contains_expected_rows(self):
        (quartic,) = entry_by_name("x^4 + 3*x", 2)
        assert quartic.prime_spec == 7
        assert quartic.build(0, 7).coeffs == (0, 3, 0, 0, 1)
        (inv5,) = entry_by_name("x^5 + a*x^3 + 5^-1*a^2*x", 1)
        assert inv5.prime_spec == "5m+-2"
        (cubic,) = entry_by_name("x^3 - a*x", 2)
        assert cubic.prime_spec == 3
        assert cubic.parameter_predicate == "nonsquare"

    def test_inverse5_instantiation(self):
        (inv5,) = entry_by_name("x^5 + a*x^3 + 5^-1*a^2*x", 1)
        f = inv5.build(1, 7)  # 5^-1 = 3 mod 7
        assert f.coeffs == (0, 3, 0, 1, 0, 1)
        with pytest.raises(ValueError, match="incompatible"):
            inv5.build(1, 5)
        with pytest.raises(ValueError, match="incompatible"):
            inv5.build(1, 11)

    def test_every_build_refuses_a_prime_it_does_not_match(self):
        refused = set()
        for entry in dickson_entries():
            for q in (2, 3, 5, 7, 11, 13):
                if not entry.matches_prime(q):
                    with pytest.raises(ValueError, match="incompatible"):
                        entry.build(1, q)
                    refused.add((entry.name, entry.source_table))
        assert len(refused) == len(dickson_entries()) == 27

    @pytest.mark.parametrize("n", [12, 10])
    def test_build_refuses_a_composite_modulus(self, n):
        # 12 % 5 == 2 would pass the 5m+-2 row's own test, and 10 would fail it
        # as "incompatible"; a composite is refused as one before either
        for entry in dickson_entries():
            with pytest.raises(ValueError, match=f"^p must be prime, got {n}$"):
                entry.build(1, n)

    def test_formula_reader_refuses_what_it_cannot_read_whole(self):
        for formula in ("x^5 + b*x", "x^5 +", "x^4 +- 3*x", "x^3 - a*y", "x + x^2",
                        "x^2 + 3*x^2", "x^2 + x^-1", "a^-1*x", ""):
            with pytest.raises(ValueError):
                DicksonEntry(formula, 2, 3, "none").build(1, 3)

    def test_admissible_parameters(self):
        assert admissible_parameters("nonsquare", 5) == [2, 3]
        assert admissible_parameters("square", 11) == [1, 3, 4, 5, 9]
        assert admissible_parameters("not_fourth_power", 5) == [2, 3, 4]
        assert admissible_parameters("nonzero", 3) == [1, 2]
        assert admissible_parameters("none", 7) == [0]
        with pytest.raises(ValueError, match="unknown parameter predicate 'cube'"):
            admissible_parameters("cube", 5)

    def test_prime_matching(self):
        (inv5,) = entry_by_name("x^5 + a*x^3 + 5^-1*a^2*x", 1)
        assert inv5.matches_prime(2) and inv5.matches_prime(13) and inv5.matches_prime(23)
        assert not inv5.matches_prime(5) and not inv5.matches_prime(11)
        assert verification_primes(inv5) == FAMILY_5M2_SAMPLE_PRIMES

    def test_table1_rows_are_table2_rows(self):
        t1 = [e for e in dickson_entries() if e.source_table == 1]
        for entry in t1:
            (twin,) = entry_by_name(entry.name, 2)
            assert entry.as_dict() == {**twin.as_dict(), "source_table": 1}
            for p in verification_primes(entry):
                for a in admissible_parameters(entry.parameter_predicate, p):
                    assert entry.build(a, p) == twin.build(a, p), (entry.name, p, a)

    def test_two_sign_sextic_builds(self):
        # build(a, 11) at the square a = 3 and the nonsquare a = 2, for the
        # asserted and the crossed sign variants alike
        expected = {
            "x^6 + a^2*x^3 + a*x^2 + 5*x": ((0, 5, 3, 9, 0, 0, 1), (0, 5, 2, 4, 0, 0, 1)),
            "x^6 + a^2*x^3 + a*x^2 - 5*x": ((0, 6, 3, 9, 0, 0, 1), (0, 6, 2, 4, 0, 0, 1)),
            "x^6 - a^2*x^3 + a*x^2 + 5*x": ((0, 5, 3, 2, 0, 0, 1), (0, 5, 2, 7, 0, 0, 1)),
            "x^6 - a^2*x^3 + a*x^2 - 5*x": ((0, 6, 3, 2, 0, 0, 1), (0, 6, 2, 7, 0, 0, 1)),
            "x^6 + 4*a^2*x^3 + a*x^2 + 4*x": ((0, 4, 3, 3, 0, 0, 1), (0, 4, 2, 5, 0, 0, 1)),
            "x^6 + 4*a^2*x^3 + a*x^2 - 4*x": ((0, 7, 3, 3, 0, 0, 1), (0, 7, 2, 5, 0, 0, 1)),
            "x^6 - 4*a^2*x^3 + a*x^2 + 4*x": ((0, 4, 3, 8, 0, 0, 1), (0, 4, 2, 6, 0, 0, 1)),
            "x^6 - 4*a^2*x^3 + a*x^2 - 4*x": ((0, 7, 3, 8, 0, 0, 1), (0, 7, 2, 6, 0, 0, 1)),
        }
        for name, (at_square, at_nonsquare) in expected.items():
            (entry,) = entry_by_name(name, 2)
            assert entry.build(3, 11).coeffs == at_square, name
            assert entry.build(2, 11).coeffs == at_nonsquare, name

    def test_builds_are_reduced_mod_p(self):
        # table1_instances and the search diff read the builds as residues
        for entry in dickson_entries():
            for p in verification_primes(entry):
                for a in admissible_parameters(entry.parameter_predicate, p):
                    coeffs = entry.build(a, p).coeffs
                    assert all(0 <= c < p for c in coeffs), (entry.name, p, a, coeffs)


class TestVerifyEntry:
    def test_quartic_derivative_roots(self):
        (quartic,) = entry_by_name("x^4 + 3*x", 2)
        ver = verify_entry(quartic, 7)
        assert ver.ok
        assert ver.results[0].derivative_roots == (1, 2, 4)
        (quartic_m,) = entry_by_name("x^4 - 3*x", 2)
        ver = verify_entry(quartic_m, 7)
        assert ver.ok
        assert ver.results[0].derivative_roots == (3, 5, 6)

    def test_sextic_rows_rootless(self):
        for name in ("x^6 + 2*x", "x^6 - 2*x", "x^6 + 4*x", "x^6 - 4*x"):
            (entry,) = entry_by_name(name, 2)
            ver = verify_entry(entry, 11)
            assert ver.ok
            assert ver.results[0].derivative_roots == ()

    def test_degree5_double_coeff_instance(self):
        (entry,) = entry_by_name("x^5 + 2*a*x^3 + a^2*x", 2)
        ver = verify_entry(entry, 5)
        assert ver.ok
        by_a = {r.a: r for r in ver.results}
        assert by_a[2].poly.coeffs == (0, 4, 0, 4, 0, 1)
        assert by_a[2].is_perm
        assert by_a[2].derivative_roots == ()

    def test_every_asserted_entry_passes_at_its_primes(self):
        for entry in dickson_entries():
            if not entry.asserted:
                continue
            for p in verification_primes(entry):
                ver = verify_entry(entry, p)
                assert ver.ok, (entry.name, p, ver.failures)

    def test_crossed_sign_variants_report_without_failing(self):
        crossed = [e for e in dickson_entries() if not e.asserted]
        assert crossed
        for entry in crossed:
            ver = verify_entry(entry, 11)
            assert ver.ok            # informational: failures land in notes
            assert ver.notes         # and the notes do record the outcomes

    def test_incompatible_prime_rejected(self):
        (quartic,) = entry_by_name("x^4 + 3*x", 2)
        with pytest.raises(ValueError, match="incompatible"):
            verify_entry(quartic, 11)

    def test_doctored_derivative_claims_fail(self):
        (sextic,) = entry_by_name("x^6 + 2*x", 2)
        doctored = sextic._replace(expected_derivative_roots=None, derivative_root_exists=True)
        assert verify_entry(doctored, 11).failures == (
            "x^6 + 2*x @ p=11, a=0: expected a derivative root, found none",
        )
        (quartic,) = entry_by_name("x^4 + 3*x", 2)
        doctored = quartic._replace(expected_derivative_roots=None, derivative_root_exists=False)
        assert verify_entry(doctored, 7).failures == (
            "x^4 + 3*x @ p=7, a=0: expected no derivative roots, found [1, 2, 4]",
        )

    def test_doctored_low_discrepancy_claim_fails(self):
        # x^4 + 3x permutes Z/7 but f' has roots there, so a table-1 claim fails;
        # its Verdict holds a root, so the whole root set is scanned
        (quartic,) = entry_by_name("x^4 + 3*x", 2)
        ver = verify_entry(quartic._replace(source_table=1), 7)
        assert ver.failures == ("x^4 + 3*x @ p=7, a=0: not classified low-discrepancy",)
        assert ver.results[0].low_discrepancy is False
        assert ver.results[0].is_perm is True
        assert ver.results[0].derivative_roots == (1, 2, 4)

    def test_rows_read_their_verdict(self, monkeypatch):
        # per parameter one Verdict (classify for Table 1, Noebauer for
        # Table 2) and no second permutation table; the roots are scanned only
        # when the Verdict holds one.  p = 43 is past the size where the value
        # tables turn to forward differences.
        calls = collections.Counter()

        def spy(name):
            real = getattr(catalog, name)

            def counted(*args):
                calls[name] += 1
                return real(*args)
            monkeypatch.setattr(catalog, name, counted)

        for name in ("classify_low_discrepancy", "noebauer_mod_p2", "is_permutation_mod",
                     "_roots_mod"):
            spy(name)
        checked = collections.Counter()
        for entry in dickson_entries():
            table1 = entry.source_table == 1
            for p in verification_primes(entry) + ((43,) if entry.matches_prime(43) else ()):
                calls.clear()
                ver = verify_entry(entry, p)
                expected = []
                for a in admissible_parameters(entry.parameter_predicate, p):
                    f = entry.build(a, p)
                    roots = tuple(x for x in range(p) if eval_mod(derivative(f), x, p) == 0)
                    lds = classify_low_discrepancy(f, p).low_discrepancy if table1 else None
                    expected.append(ParameterResult(a, f, is_permutation_mod(f, p), roots, lds))
                assert ver.results == tuple(expected), (entry.name, p)
                verdicts = "classify_low_discrepancy" if table1 else "noebauer_mod_p2"
                assert calls == collections.Counter({
                    verdicts: len(expected),
                    "_roots_mod": sum(1 for r in expected if r.derivative_roots),
                }), (entry.name, p)
                checked[entry.source_table] += len(expected)
                checked["roots"] += sum(1 for r in expected if r.derivative_roots)
        assert all(checked[k] for k in (1, 2, "roots"))

    def test_only_table1_rows_are_classified(self):
        for entry in dickson_entries():
            for p in verification_primes(entry):
                for r in verify_entry(entry, p).results:
                    if entry.source_table == 1:
                        assert isinstance(r.low_discrepancy, bool), (entry.name, p, r.a)
                    else:
                        assert r.low_discrepancy is None, (entry.name, p, r.a)

    def test_table1_rows_are_low_discrepancy(self):
        for entry in dickson_entries():
            if entry.source_table != 1:
                continue
            for p in verification_primes(entry):
                ver = verify_entry(entry, p)
                assert ver.ok, (entry.name, p, ver.failures)
                assert all(r.low_discrepancy for r in ver.results)

    def test_inverse5_family_noebauer_consistency(self):
        # permutation mod p for every a != 0; permutation mod p^2 exactly when
        # the derivative is root-free
        (inv5,) = entry_by_name("x^5 + a*x^3 + 5^-1*a^2*x", 1)
        for p in FAMILY_5M2_SAMPLE_PRIMES:
            for a in range(1, p):
                f = inv5.build(a, p)
                assert is_permutation_mod(f, p)
                rootless = all(eval_mod(derivative(f), x, p) != 0 for x in range(p))
                assert is_permutation_mod(f, p * p) == rootless


@functools.lru_cache(maxsize=None)
def low_discrepancy_space(p, max_degree):
    """Every low-discrepancy coefficient tuple of degree 1..max_degree, in
    (degree, coefficients) order, by classifying each candidate."""
    return tuple(
        t for d in range(1, max_degree + 1) for t in itertools.product(range(p), repeat=d + 1)
        if t[-1] and classify_low_discrepancy(IntPolynomial(t), p).low_discrepancy
    )


class TestExhaustiveSearch:
    def test_failed_confirmation_raises(self, monkeypatch):
        from padiclds.padic import InvariantError

        monkeypatch.setattr(catalog, "is_permutation_mod", lambda f, m: False)
        with pytest.raises(InvariantError, match=r"disagrees with enumeration for x mod 3$"):
            exhaustive_search(3, 1)

    def test_search_and_classify_raise_one_disagreement_message(self, monkeypatch):
        from padiclds.padic import InvariantError

        monkeypatch.setattr(catalog, "is_permutation_mod", lambda f, m: False)
        monkeypatch.setattr(permcheck, "is_permutation_mod", lambda f, m: False)
        messages = []
        for call in (lambda: exhaustive_search(3, 1),
                     lambda: classify_low_discrepancy(IntPolynomial((0, 1)), 3)):
            with pytest.raises(InvariantError) as info:
                call()
            messages.append(str(info.value))
        assert messages == ["internal error: Noebauer criterion disagrees with enumeration "
                            "for x mod 3"] * 2

    @pytest.mark.parametrize("flags", [(), ("nonzero_linear",), ("zero_constant",)],
                             ids=lambda flags: "-".join(flags) or "unflagged")
    @pytest.mark.parametrize("p,max_degree", [(2, 6), (3, 6), (5, 5)])
    def test_confirms_each_non_constant_part_once_mod_p2(self, monkeypatch, p, max_degree,
                                                         flags):
        # f + v permutes Z/p^2 iff f does: one enumeration per non-constant
        # part, of its zero-constant polynomial, in output order
        calls = []
        check = catalog.is_permutation_mod
        monkeypatch.setattr(catalog, "is_permutation_mod",
                            lambda f, m: calls.append((f.coeffs, m)) or check(f, m))
        found = exhaustive_search(p, max_degree, SearchConstraints(**dict.fromkeys(flags, True)))
        bodies = dict.fromkeys(f.coeffs[1:] for f in found)
        assert calls == [((0, *body), p * p) for body in bodies]
        assert len(found) == len(calls) * (1 if "zero_constant" in flags else p)

    @pytest.mark.parametrize("flags", list(itertools.product((False, True), repeat=3)),
                             ids=lambda flags: "flags" + "".join(str(int(b)) for b in flags))
    @pytest.mark.parametrize("p,max_degree", [(2, 6), (3, 6), (5, 5)])
    def test_every_translated_hit_comes_with_its_constant_class(self, p, max_degree, flags):
        # the premise of confirming a class once: a hit f + v with v != 0 is
        # only ever output beside f + u for every u mod p, f's among them
        coeffs = {f.coeffs for f in exhaustive_search(p, max_degree, SearchConstraints(*flags))}
        for c in coeffs:
            if c[0]:
                assert {(v, *c[1:]) for v in range(p)} <= coeffs, c

    def test_failed_confirmation_of_a_later_part_names_its_zero_constant_hit(self,
                                                                             monkeypatch):
        from padiclds.padic import InvariantError

        bodies = list(dict.fromkeys(f.coeffs[1:] for f in exhaustive_search(3, 4)))
        body = bodies[len(bodies) // 2]
        monkeypatch.setattr(catalog, "is_permutation_mod", lambda f, m: f.coeffs[1:] != body)
        message = f"disagrees with enumeration for {IntPolynomial((0, *body))} mod 3"
        with pytest.raises(InvariantError, match=re.escape(message) + "$"):
            exhaustive_search(3, 4)

    def test_p3_degree3_contains_the_classics(self):
        found = exhaustive_search(3, 3, SearchConstraints(monic=True, zero_constant=True))
        coeffs = {f.coeffs for f in found}
        assert (0, 1, 0, 1) in coeffs  # x^3 + x
        # x^3 - 2x reduces to the same residue polynomial
        assert tuple(c % 3 for c in parse_poly("x^3 - 2x").coeffs) == (0, 1, 0, 1)
        for f in found:
            assert classify_low_discrepancy(f, 3).low_discrepancy

    def test_derivative_root_at_zero_rejects_the_candidate(self):
        # x^3 permutes Z/5 and g' = 3x^2 vanishes only at 0: that first root is
        # falsy, yet it must reject x^3 before the confirmation mod 25 runs
        found = exhaustive_search(5, 3, SearchConstraints(monic=True, zero_constant=True))
        assert (0, 0, 0, 1) not in {f.coeffs for f in found}

    def test_p3_degree2_empty_beyond_linear(self):
        found = exhaustive_search(3, 2, SearchConstraints())
        assert all(f.degree == 1 for f in found)

    def test_degree1_hits_are_exactly_unit_slopes(self):
        found = exhaustive_search(7, 1, SearchConstraints())
        assert {f.coeffs for f in found} == {
            (b, a) for a in range(1, 7) for b in range(7)
        }

    def test_p7_degree4_has_no_degree4_hits(self):
        found = exhaustive_search(7, 4, SearchConstraints(monic=True, zero_constant=True))
        assert all(f.degree != 4 for f in found)

    def test_p11_degree6_hits(self):
        found = exhaustive_search(11, 6, SearchConstraints(monic=True, zero_constant=True))
        sextic_literals = {
            f.coeffs for f in found if f.degree == 6
        } & {t.coeffs for t in table1_instances(11)}
        assert sextic_literals == {
            (0, 2, 0, 0, 0, 0, 1),
            (0, 9, 0, 0, 0, 0, 1),
            (0, 4, 0, 0, 0, 0, 1),
            (0, 7, 0, 0, 0, 0, 1),
        }
        report = match_against_table(found, 11)
        assert report.unexplained == ()

    @pytest.mark.parametrize("flags", list(itertools.product((False, True), repeat=3)),
                             ids=lambda flags: "flags" + "".join(str(int(b)) for b in flags))
    @pytest.mark.parametrize("p,max_degree", [(2, 6), (3, 6), (5, 5), (7, 4), (3, 7), (2, 9)])
    def test_every_hit_and_no_miss(self, p, max_degree, flags):
        # the search output is exactly the brute-force filter over the space,
        # in order, by direct enumeration independent of the search internals;
        # degrees p and up, built with (x^p - x)B and (x^p - x)^2 C, are covered too
        monic, zero_constant, nonzero_linear = flags
        expected = [
            t for t in low_discrepancy_space(p, max_degree)
            if (not monic or t[-1] == 1) and (not zero_constant or t[0] == 0)
            and (not nonzero_linear or t[1] != 0)
        ]
        found = exhaustive_search(p, max_degree, SearchConstraints(*flags))
        assert [f.coeffs for f in found] == expected

    @pytest.mark.parametrize("p", [2, 3])
    def test_census_below_degree_2p(self, p):
        # As a function mod p^2, f = A + (x^p - x)B with deg A, deg B < p, and f
        # is low-discrepancy iff A permutes Z/p and A' - B has no root mod p.
        # Over F_p the degree <= 2p - 1 polynomials are exactly the pairs
        # (A, B), so p! * (p - 1)^p of them are hits: 2 at p = 2 and 48 at
        # p = 3, and one in p of those has a zero constant term.
        census = math.factorial(p) * (p - 1) ** p
        assert len(exhaustive_search(p, 2 * p - 1)) == census
        zero_constant = SearchConstraints(zero_constant=True)
        assert len(exhaustive_search(p, 2 * p - 1, zero_constant)) == census // p

    @pytest.mark.parametrize("p,max_degree,flags,hits", [
        (2, 9, (), 128), (3, 7, (), 432),
        (5, 9, ("zero_constant",), 24_576), (5, 9, ("monic", "zero_constant"), 6_144)],
        ids=lambda v: "-".join(v) if isinstance(v, tuple) else str(v))
    def test_census_past_degree_2p(self, p, max_degree, flags, hits):
        # From degree 2p - 1 on, B is any function of Z/p avoiding A' and
        # f = A + (x^p - x)B + (x^p - x)^2 C has a free C of degree <= d - 2p:
        # p! * (p - 1)^p * p^(d + 1 - 2p) hits, one in p of them with a zero
        # constant term and one in p - 1 of those monic
        census = math.factorial(p) * (p - 1) ** p * p ** (max_degree + 1 - 2 * p)
        found = exhaustive_search(p, max_degree, SearchConstraints(**dict.fromkeys(flags, True)))
        assert len(found) == hits
        assert hits == census // (p if "zero_constant" in flags else 1) // (
            p - 1 if "monic" in flags else 1)

    def test_tests_one_representative_below_degree_p(self, monkeypatch):
        # the mod-p test runs once per monic zero-constant representative of
        # degree <= 4 with a_{n-1} = 0 (1 + 1 + 5 + 25); hits of degree 5..9
        # are built from them, not walked
        calls = []
        image = catalog._image
        monkeypatch.setattr(catalog, "_image", lambda *args: calls.append(args) or image(*args))
        assert len(exhaustive_search(5, 9, SearchConstraints(monic=True, zero_constant=True))) == 6_144
        assert len(calls) == 32
        assert all(len(coeffs) <= 5 for coeffs, _, _ in calls)

    def test_cap_respected(self, monkeypatch):
        monkeypatch.setattr(catalog, "DEFAULT_SEARCH_CAP", 1000)
        with pytest.raises(ValueError, match="cap"):
            exhaustive_search(13, 6, SearchConstraints())

    def test_nonzero_linear_counts_as_many_candidates(self, monkeypatch):
        # the flag filters nothing, so it cannot carry a search past the cap:
        # p = 3, degree 4 counts 6 + 18 + 54 + 162 = 240 candidates either way
        monkeypatch.setattr(catalog, "DEFAULT_SEARCH_CAP", 200)
        for nonzero_linear in (False, True):
            with pytest.raises(ValueError) as exc:
                exhaustive_search(3, 4, SearchConstraints(nonzero_linear=nonzero_linear))
            assert str(exc.value) == "search space of at least 240 candidates exceeds cap 200"

    def test_ordering(self):
        found = exhaustive_search(5, 5, SearchConstraints(monic=True, zero_constant=True))
        keys = [(f.degree, f.coeffs) for f in found]
        assert keys == sorted(keys)


class TestMatchAgainstTable:
    def test_table1_rows_are_built_once_per_prime(self, monkeypatch):
        builds = []
        build = DicksonEntry.build
        monkeypatch.setattr(DicksonEntry, "build",
                            lambda self, a, p: builds.append((self.name, a, p)) or build(self, a, p))
        found = exhaustive_search(7, 5, SearchConstraints(monic=True, zero_constant=True))
        first = match_against_table(found, 7)
        builds.clear()
        assert match_against_table(found, 7) == first
        assert builds == []
        # each call of table1_instances is a fresh list
        assert table1_instances(7) is not table1_instances(7)

    @pytest.mark.parametrize("p,degree", [(5, 6), (7, 5)])
    def test_only_unreduced_hits_are_copied_mod_p(self, monkeypatch, p, degree):
        found = exhaustive_search(p, degree, SearchConstraints(monic=True, zero_constant=True))
        category = match_against_table(found, p).category_of()
        # each hit with its lead, and its x coefficient, raised by p: a lead of
        # p + 1 and a coefficient such as p + 1
        raised = [IntPolynomial((*f.coeffs[:k], f.coeffs[k] + p, *f.coeffs[k + 1:]))
                  for f in found for k in (f.degree, 1)]
        builds = []
        monkeypatch.setattr(catalog, "IntPolynomial",
                            lambda coeffs=(): builds.append(coeffs) or IntPolynomial(coeffs))
        counts = []
        for hits in ([], found, raised):
            builds.clear()
            report = match_against_table(hits, p)
            counts.append(len(builds))
        # no copy of a reduced hit; one of each raised one
        assert counts == [counts[0], counts[0], counts[0] + len(raised)]
        assert report.category_of() == {
            g.coeffs: category[f.coeffs] for f, g in zip(
                (f for f in found for _ in (0, 1)), raised)}

    def test_p5_partition(self):
        found = exhaustive_search(5, 5, SearchConstraints(monic=True, zero_constant=True))
        report = match_against_table(found, 5)
        assert report.unexplained == ()
        t1 = {f.coeffs for f in report.table1}
        assert (0, 4, 0, 4, 0, 1) in t1  # a = 2 instance of the table row
        prop = {f.coeffs for f in report.prop_family}
        assert prop == {(0, a, 0, 0, 0, 1) for a in (1, 2, 3)}
        assert {f.coeffs for f in report.linear} == {(0, 1)}

    def test_affine_images_are_recognized(self):
        rng = random.Random(149)
        for template in table1_instances(11) + prop_family_instances(5):
            p = 11 if template.degree == 6 else 5
            c = rng.choice(range(1, p))
            d = rng.randint(0, p - 1)
            u = rng.choice(range(1, p))
            v = rng.randint(0, p - 1)
            g = affine_compose(template, (u, v), (c, d), p)
            report = match_against_table([g], p)
            assert not report.unexplained, (template, g)

    def test_affine_closure_of_confirmed_generators(self):
        # random unit-parameter compositions of confirmed generators stay confirmed
        rng = random.Random(151)
        for p in (5, 11, 13):
            for template in table1_instances(p):
                for _ in range(3):
                    outer = (rng.choice(range(1, p)), rng.randint(0, p - 1))
                    inner = (rng.choice(range(1, p)), rng.randint(0, p - 1))
                    g = affine_compose(template, outer, inner, p)
                    assert classify_low_discrepancy(g, p).low_discrepancy

    def test_empty_input(self):
        report = match_against_table([], 5)
        assert report == match_against_table([], 5)
        assert not any(
            getattr(report, cat)
            for cat in ("table1", "prop_family", "affine", "linear", "unexplained")
        )

    def test_genuinely_new_polynomial_is_unexplained(self):
        # the degree-6 escape at p=5: a verified generator outside every category
        f = parse_poly("x^6 + 2x^3 + x")
        assert classify_low_discrepancy(f, 5).low_discrepancy
        report = match_against_table([f], 5)
        assert report.unexplained == (f,)


# --------------------------------------------------------------------------
# Differential test of the diff against the first, orbit-of-everything form
# --------------------------------------------------------------------------

CATEGORIES = ("table1", "prop_family", "affine", "linear", "unexplained")


def canon_mod(f, p):
    """Scale f monic mod p and drop the constant."""
    u = pow(f.coeffs[-1], -1, p)
    return tuple([0] + [u * c % p for c in f.coeffs[1:]])


@functools.lru_cache(maxsize=None)
def reference_orbit(p):
    """Canons of every table-1 and degree-p family template under every inner map."""
    orbit = set()
    for t in table1_instances(p) + prop_family_instances(p):
        for c in range(1, p):
            for d in range(p):
                orbit.add(canon_mod(affine_compose(t, (1, 0), (c, d), p), p))
    return frozenset(orbit)


def is_prop_instance(g, p):
    """x^p + a*x + b with a and a+1 units, read off the reduced coefficients."""
    if g.degree != p or g.coeffs[p] != 1:
        return False
    if any(g.coeffs[2:p]):
        return False
    a = g.coeffs[1]
    return a != 0 and (a + 1) % p != 0


def reference_partition(found, p):
    literal = {t.coeffs for t in table1_instances(p)}
    buckets = {cat: [] for cat in CATEGORIES}
    for f in found:
        g = IntPolynomial(c % p for c in f.coeffs)
        if g.coeffs in literal:
            cat = "table1"
        elif is_prop_instance(g, p):
            cat = "prop_family"
        elif g.degree <= 1:
            cat = "linear"
        elif canon_mod(g, p) in reference_orbit(p):
            cat = "affine"
        else:
            cat = "unexplained"
        buckets[cat].append(f)
    return MatchReport(**{cat: tuple(fs) for cat, fs in buckets.items()})


def search_inputs(monkeypatch):
    """Search hits per (p, flags) at the largest degree <= 5 with <= 20k candidates."""
    monkeypatch.setattr(catalog, "DEFAULT_SEARCH_CAP", 20_000)
    for p in (2, 3, 5, 7):
        for flags in itertools.product((False, True), repeat=3):
            cons = SearchConstraints(*flags)
            for degree in range(5, 0, -1):
                try:
                    yield p, exhaustive_search(p, degree, cons)
                    break
                except ValueError:
                    continue


def image_inputs(seed):
    """Every template and random u*t(c*x + d) + v images of it, per prime."""
    rng = random.Random(seed)
    for p in (3, 5, 7, 11, 13):
        found = []
        for t in table1_instances(p) + prop_family_instances(p):
            found.append(t)
            for _ in range(4):
                u, c = rng.randrange(1, p), rng.randrange(1, p)
                v, d = rng.randrange(p), rng.randrange(p)
                found.append(affine_compose(t, (u, v), (c, d), p))
        yield p, found


def lift(f, p, rng):
    """f with every coefficient moved by a multiple of p and one or two extra
    top coefficients that vanish mod p, so the degree drops on reduction."""
    cs = [c + p * rng.randint(-3, 3) for c in f.coeffs]
    cs += [p * rng.randint(-2, 2) for _ in range(rng.randint(0, 1))]
    cs.append(p * rng.choice((-2, -1, 1, 2)))
    return IntPolynomial(cs)


class TestMatchDifferential:
    def compare(self, found, p, seen):
        report = match_against_table(found, p)
        assert report == reference_partition(found, p), (p, found)
        seen.update(cat for cat in CATEGORIES if getattr(report, cat))

    def test_agrees_with_reference_partition(self, monkeypatch):
        # the lifted inputs all lose degree on reduction, so an orbit filter
        # reading the unreduced degrees would miss every table-1 image
        seen = set()
        for p, found in search_inputs(monkeypatch):
            self.compare(found, p, seen)
        rng = random.Random(163)
        for p, found in image_inputs(157):
            self.compare(found, p, seen)
            lifted = [lift(f, p, rng) for f in found]
            assert all(f.degree > IntPolynomial(c % p for c in f.coeffs).degree for f in lifted)
            self.compare(lifted, p, seen)
        assert seen == set(CATEGORIES)
