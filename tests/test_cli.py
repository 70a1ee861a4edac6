import importlib
import io
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import padiclds
from padiclds import cli, discrepancy, paircorr, sequence
from padiclds.cli import _frac, main, parse_fraction, parse_schedule
from padiclds.discrepancy import (discrepancy_profile, meijer_bound_check, prefix_discrepancy_rows,
                                  real_extreme_discrepancy)
from padiclds.padic import InvariantError, digit_expansions, monna_of_int
from padiclds.polynomials import parse_poly
from padiclds.sequence import poly_sequence


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestScheduleParsing:
    def test_forms(self):
        assert parse_schedule("1..5", 3) == [1, 2, 3, 4, 5]
        assert parse_schedule("3,9,27", 3) == [3, 9, 27]
        assert parse_schedule("pk:2..4", 3) == [9, 27, 81]

    def test_errors(self):
        for bad in ("0..3", "5..2", "pk:3..1", "", "1,0", "pk:2"):
            with pytest.raises(ValueError):
                parse_schedule(bad, 3)

    @pytest.mark.parametrize("argv", [
        ["discrepancy", "--p", "3", "--N", f"1..{10**12}", "--", "x"],
        ["discrepancy", "--p", "3", "--N", f"5,{10**12}", "--", "x"],
        ["paircorr", "--p", "3", "--N", "pk:1..40", "--alpha", "1/2", "--s", "1", "--", "x"],
        ["bridge", "--p", "2", "--N", f"pk:0..{10**12}", "--", "x"],
        ["generate", "--p", "3", "--n", str(10**12), "--", "x"],
    ])
    def test_length_budget_exits_1_before_allocating(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and err.startswith("padiclds: error: ")
        assert f"above the limit of {cli.MAX_SEQUENCE_LENGTH}" in err

    @pytest.mark.parametrize("schedule",
                             ["1..5,100", "1..x", "pk:a..3", "3.5", "1..zzzzzzzzzzzzz"])
    def test_malformed_number_exits_1_with_one_line(self, capsys, schedule):
        code, out, err = run_cli(capsys, "discrepancy", "--p", "3", "--N", schedule, "--", "x")
        assert code == 1 and out == ""
        assert err == (f"padiclds: error: invalid schedule {schedule!r}: expected "
                       '"a..b", "a,b,c" or "pk:k1..k2" with integer bounds and entries\n')

    @pytest.mark.parametrize("schedule,message", [
        ("1..2" + "z" * 5000, "invalid schedule '1..2zzzzzzzzzzzz'...: expected"),
        (f"1..{10**15}", f"schedule asks for N={10**15} values"),
        ("1.." + "9" * 4000, "schedule asks for N='9999999999999999'... values"),
        ("pk:1.." + "9" * 4000, "schedule asks for N=3^'9999999999999999'... values"),
    ], ids=["5004 characters", "N of 16 digits", "N of 4000 digits", "k2 of 4000 digits"])
    def test_long_schedule_is_cut_to_16_characters(self, capsys, schedule, message):
        code, out, err = run_cli(capsys, "discrepancy", "--p", "3", "--N", schedule, "--", "x")
        assert (code, out) == (1, "")
        assert err.startswith(f"padiclds: error: {message}") and err.count("\n") == 1
        assert len(err) < 200

    @pytest.mark.parametrize("argv", [
        ["generate", "--p", "3", "--n", "1", "--K", "100000000", "--mode", "digits", "--", "x"],
        ["generate", "--p", "3", "--n", "1", "--K", "100000000", "--mode", "monna", "--", "x"],
        ["bridge", "--p", "3", "--N", "1..2", "--K", "100000000", "--", "x"],
    ])
    def test_digit_budget_exits_1_before_forming_p_to_the_K(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and err.startswith("padiclds: error: --K 100000000 ")
        assert f"above the limit of {cli.MAX_DIGIT_BITS} bits" in err

    @pytest.mark.parametrize("command", [
        (["generate", "--n", "2", "--mode", "digits"], "1" + "0" * 4000,
         "N=2 values ('4000000000000000'... bits)"),
        (["bridge", "--N", "2"], "1" + "0" * 4000, "N=2 values ('4000000000000000'... bits)"),
        # the bit count has more digits than the interpreter converts to text
        (["generate", "--n", "1000", "--mode", "digits"], "9" * 4299,
         "N=1000 values (<14292-bit integer> bits)"),
    ])
    def test_long_K_is_cut_to_16_characters(self, capsys, command):
        argv, K, bits = command
        code, out, err = run_cli(capsys, *argv, "--p", "3", "--K", K, "--", "x")
        assert (code, out) == (1, "")
        assert err == (f"padiclds: error: --K {K[:16]!r}... asks for {K[:16]!r}... base-3 digits "
                       f"of {bits}, above the limit of {cli.MAX_DIGIT_BITS} bits\n")

    def test_digit_budget_admits_the_limit(self, capsys):
        # K * N * bit_length(3) is the limit exactly, then one digit above it;
        # the negative value is reversed through its complement mod 3^K
        K = cli.MAX_DIGIT_BITS // 2
        code, out, _ = run_cli(capsys, "bridge", "--p", "3", "--N", "1", "--K", str(K), "--", "x-2")
        assert code == 0 and out.splitlines()[1] == "1,1/1,1/1,2.0,false"
        code, _, err = run_cli(capsys, "bridge", "--p", "3", "--N", "1", "--K", str(K + 1),
                               "--", "x-2")
        assert code == 1 and f"--K {K + 1} " in err

    @pytest.mark.parametrize("argv, column, fix", [
        (["generate", "--p", "3", "--n", "1", "--K", "10000", "--mode", "monna", "--", "x-2"],
         "monna", "--K"),
        (["bridge", "--p", "3", "--N", "1..2", "--K", "10000", "--", "x-2"], "d_N", "--K"),
        (["generate", "--p", "3", "--n", "2", "--", "x^20000"], "value", "polynomial"),
        (["generate", "--p", "3", "--n", "2", "--format", "json", "--", "x^20000"],
         "value", "polynomial"),
        # only the fifth value is too long: 1, 2^7000, 3^7000 and 4^7000 print
        (["generate", "--p", "3", "--n", "5", "--", "x^7000"], "value", "polynomial"),
        # n^7000 (9 - 2n) is positive up to n = 4, then -5^7000
        (["generate", "--p", "3", "--n", "5", "--", "9x^7000-2x^7001"], "value", "polynomial"),
    ])
    def test_integer_too_long_to_print_exits_1_with_one_line(self, capsys, argv, column, fix):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and err.startswith(f"padiclds: error: the {column} column ")
        assert fix in err and "set_int_max_str_digits" not in err

    def test_length_budget_admits_the_limit(self):
        top = cli.MAX_SEQUENCE_LENGTH
        assert parse_schedule(f"{top - 1}..{top}", 2) == [top - 1, top]
        with pytest.raises(ValueError, match=f"N={top + 1} values"):
            parse_schedule(f"{top}..{top + 1}", 2)
        k = top.bit_length() - 1
        assert parse_schedule(f"pk:{k}..{k}", 2) == [2**k]
        with pytest.raises(ValueError, match="N=2\\^17 values"):
            parse_schedule("pk:0..17", 2)

    def test_fraction_parsing(self):
        from fractions import Fraction

        assert parse_fraction("1/3") == Fraction(1, 3)
        assert parse_fraction("2") == Fraction(2)
        with pytest.raises(ValueError):
            parse_fraction("one third")


class TestClassify:
    @pytest.mark.parametrize("argv", [["--p", "3"], ["--p", "3", "--"],
                                      ["--p", "3", "--format", "csv"]])
    def test_missing_polynomial_exits_1_with_one_line(self, capsys, argv):
        code, out, err = run_cli(capsys, "classify", *argv)
        assert (code, out) == (1, "")
        assert err == "padiclds: error: a polynomial expression is required\n"

    def test_divergent_quintic_json(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--p", "3", "x^5")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema_version"] == 1
        assert doc["brute_force"]["low_discrepancy"] is False
        assert doc["unit_reduction"]["verdict"]["low_discrepancy"] is True
        assert doc["divergence"] is True
        assert doc["unit_reduction"]["value_poly"] == "x"
        assert doc["unit_reduction"]["derivative_poly"] == "2"

    def test_positive_example(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--p", "3", "x^3+x")
        doc = json.loads(out)
        assert code == 0
        assert doc["brute_force"]["low_discrepancy"] is True
        assert doc["divergence"] is False

    def test_table_instance(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--p", "11", "x^6+2x")
        assert json.loads(out)["brute_force"]["low_discrepancy"] is True

    def test_p2_omits_reduction(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--p", "2", "x")
        doc = json.loads(out)
        assert code == 0
        assert doc["unit_reduction"] is None and doc["divergence"] is None

    def test_derivative_root_at_zero_is_reported(self, capsys):
        # f' = 2x vanishes at 0 only: a falsy first root is still the certificate
        code, out, _ = run_cli(capsys, "classify", "--p", "3", "--", "x^2")
        doc = json.loads(out)
        assert code == 0
        assert doc["brute_force"]["derivative_root"] == 0
        assert doc["noebauer"]["derivative_root"] == 0

    @pytest.mark.parametrize("poly,position", [
        ("1" + "0" * 5000 + "x", 0),
        ("x^1" + "0" * 5000, 2),
        ("[1" + "0" * 5000 + ",1]", 1),
    ])
    def test_integer_beyond_the_digit_limit_exits_1_in_one_short_line(self, capsys, poly,
                                                                        position):
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not 0 < limit <= 5000:
            pytest.skip("this interpreter converts integers of 5,001 digits")
        code, out, err = run_cli(capsys, "classify", "--p", "3", "--", poly)
        assert (code, out) == (1, "")
        assert err == (f"padiclds: error: syntax error at position {position}: integer "
                       f"'1000000000000000'... has more than {limit} digits, the most the "
                       f"interpreter converts\n")

    def test_parse_error_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "classify", "--p", "3", "x^^5")
        assert code == 1
        assert "error" in err

    def test_composite_p_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "classify", "--p", "9", "x")
        assert code == 1

    def test_broken_invariant_exits_2_with_one_line(self, capsys, monkeypatch):
        def broken(f, p):
            raise InvariantError("internal error: injected for the test")

        monkeypatch.setattr(cli, "classify_low_discrepancy", broken)
        code, out, err = run_cli(capsys, "classify", "--p", "3", "x^3+x")
        assert code == 2
        assert out == ""
        assert err == "padiclds: error: internal error: injected for the test\n"

    def test_closed_stdout_exits_1_without_traceback(self, capsys, monkeypatch):
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        code = cli.main(["classify", "--p", "3", "x^3+x"])
        try:
            assert code == 1
            assert sys.stdout.name == os.devnull
        finally:
            sys.stdout.close()
        assert capsys.readouterr().err == ""


class TestGenerate:
    def test_monna_images(self, capsys):
        code, out, _ = run_cli(capsys, "generate", "--p", "3", "x", "--n", "3",
                               "--mode", "monna")
        assert code == 0
        assert out.splitlines() == ["n,monna", "1,1/3", "2,2/3", "3,1/9"]

    def test_integers(self, capsys):
        code, out, _ = run_cli(capsys, "generate", "--p", "3", "x^3+x", "--n", "2",
                               "--mode", "integers")
        assert out.splitlines() == ["n,value", "1,2", "2,10"]

    def test_linear_digits(self, capsys):
        code, out, _ = run_cli(capsys, "generate", "--p", "3", "--linear", "1", "0",
                               "--n", "3", "--K", "2", "--mode", "digits")
        assert out.splitlines() == ["n,digit_0,digit_1", "1,1,0", "2,2,0", "3,0,1"]

    def test_digits_require_K(self, capsys):
        code, _, err = run_cli(capsys, "generate", "--p", "3", "x", "--n", "2",
                               "--mode", "digits")
        assert code == 1 and "--K" in err
        # a large negative K would make p**K a float 0.0
        for K in ("0", "-3000"):
            code, out, err = run_cli(capsys, "generate", "--p", "3", "x", "--n", "2",
                                     "--K", K, "--mode", "digits")
            assert (code, out, err) == (1, "", "padiclds: error: precision K must be >= 1\n")

    def test_negative_digits_and_images_match_the_residues_mod_p_to_the_K(self, capsys):
        # negative values take the complement path; each row equals the
        # digits and the image of v mod p^K
        values = poly_sequence(parse_poly("x^3-50"), 12)
        for K in (1, 2, 3, 30):
            pk = 7**K
            _, out, _ = run_cli(capsys, "generate", "--p", "7", "--n", "12", "--K", str(K),
                                "--mode", "digits", "--", "x^3-50")
            residues = [v % pk for v in values]
            assert [line.split(",")[1:] for line in out.splitlines()[1:]] == [
                [str(d) for d in digits] for digits in digit_expansions(residues, 7, K)]
            _, out, _ = run_cli(capsys, "generate", "--p", "7", "--n", "12", "--K", str(K),
                                "--mode", "monna", "--", "x^3-50")
            assert [line.split(",")[1] for line in out.splitlines()[1:]] == [
                str(monna_of_int(v % pk, 7)) if v % pk else "0/1" for v in values]

    def test_negative_monna_requires_K(self, capsys):
        code, _, err = run_cli(capsys, "generate", "--p", "3", "x^3-2x", "--n", "2",
                               "--mode", "monna")
        assert code == 1 and "finite expansion" in err
        code, out, _ = run_cli(capsys, "generate", "--p", "3", "x^3-2x", "--n", "2",
                               "--K", "4", "--mode", "monna")
        assert code == 0


class TestDiscrepancyCommand:
    def test_permutation_rows(self, capsys):
        code, out, _ = run_cli(capsys, "discrepancy", "--p", "3", "x^3+x",
                               "--N", "1..8")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("N,D_N,N_times_D_N")
        for n, line in enumerate(lines[1:], start=1):
            fields = line.split(",")
            assert fields[0] == str(n)
            assert fields[1] == f"1/{n}"
            assert fields[2] == "1/1"

    def test_square_floor(self, capsys):
        code, out, _ = run_cli(capsys, "discrepancy", "--p", "3", "x^2", "--N", "27")
        row = out.splitlines()[1].split(",")
        from fractions import Fraction

        assert Fraction(row[1]) >= Fraction(1, 27)
        assert Fraction(row[1]) >= Fraction(1, 27)

    def test_non_unit_linear(self, capsys):
        code, out, _ = run_cli(capsys, "discrepancy", "--p", "3", "--linear", "3", "0",
                               "--N", "9")
        from fractions import Fraction

        assert Fraction(out.splitlines()[1].split(",")[1]) >= Fraction(1, 3)

    def test_mutually_exclusive_spec(self, capsys):
        code, _, err = run_cli(capsys, "discrepancy", "--p", "3", "x", "--linear",
                               "1", "0", "--N", "3")
        assert code == 1

    def test_composite_or_huge_p_exits_1(self, capsys):
        for p in ("1048577", str(2**127 - 1)):
            code, out, err = run_cli(capsys, "discrepancy", "--p", p, "--N", "3", "--", "x")
            assert code == 1 and out == ""
            assert err.count("\n") == 1 and err.startswith("padiclds: error: p must be")


class TestRowText:
    """discrepancy and bridge rows print the Fraction views: D_N and N * D_N in
    lowest terms and float(D_N); delta_N, d_N and meijer_bound_check's answer."""

    @staticmethod
    def polys(p):
        rng = random.Random(p)
        drawn = [[rng.randint(0, 2 * p) for _ in range(rng.randint(2, 5))] for _ in range(3)]
        # certified at every p (x) or at some, beside ones that are not
        return ["x", "x^3+x", "x^4+x^2+x", "x^2+1", *(str(cs) for cs in drawn)]

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_discrepancy_rows(self, capsys, p):
        for poly in self.polys(p):
            f = parse_poly(poly)
            for text in ("1..40", "9,4,9,1,10", f"{p * p},3,{p * p + 1},3", "pk:0..3"):
                schedule = parse_schedule(text, p)
                values = None if cli._certified(f, p, schedule) else poly_sequence(f, max(schedule))
                rows = {N: row for N, *row in prefix_discrepancy_rows(values, p, schedule)}
                expected = []
                for N in schedule:
                    num, den, level, residue, depth = rows[N]
                    v = Fraction(num, den)
                    fields = [N, _frac(v), _frac(v * N), level,
                              "" if residue is None else residue, depth, float(v)]
                    expected.append(",".join(map(str, fields)))
                code, out, _ = run_cli(capsys, "discrepancy", "--p", str(p), "--N", text,
                                       "--", poly)
                assert code == 0 and out.splitlines()[1:] == expected, (p, poly, text)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_bridge_rows(self, capsys, p):
        for poly in self.polys(p):
            values = poly_sequence(parse_poly(poly), 30)
            deltas = discrepancy_profile(values, p)
            images = [monna_of_int(v, p) for v in values]
            for text in ("1..30", "9,4,9,1,10"):
                expected = []
                for N in parse_schedule(text, p):
                    delta, d = deltas[N - 1], real_extreme_discrepancy(images[:N])
                    holds, upper = meijer_bound_check(delta, d, p)
                    holds = "indeterminate" if holds is None else str(holds).lower()
                    expected.append(f"{N},{_frac(delta)},{_frac(d)},{upper!r},{holds}")
                code, out, _ = run_cli(capsys, "bridge", "--p", str(p), "--N", text, "--", poly)
                assert code == 0 and out.splitlines()[1:] == expected, (p, poly, text)


class TestListSchedules:
    """Rows follow the given schedule, repeats included, each equal to N run alone."""

    @pytest.mark.parametrize("command", ["discrepancy", "bridge"])
    def test_unsorted_schedule_with_repeats(self, capsys, command):
        code, out, _ = run_cli(capsys, command, "--p", "3", "--N", "9,3,9", "--", "x^2+1")
        assert code == 0
        header, *rows = out.splitlines()
        assert [row.split(",")[0] for row in rows] == ["9", "3", "9"]
        for N, row in zip((9, 3, 9), rows):
            code, alone, _ = run_cli(capsys, command, "--p", "3", "--N", str(N), "--", "x^2+1")
            assert code == 0
            assert alone.splitlines() == [header, row]


class TestPaircorrCommand:
    def test_closed_form_point(self, capsys):
        code, out, _ = run_cli(capsys, "paircorr", "--p", "3", "x", "--alpha", "1/2",
                               "--s", "1", "--N", "6561")
        assert code == 0
        assert out.splitlines()[1].split(",")[2] == "80/81"

    def test_zero_rows(self, capsys):
        code, out, _ = run_cli(capsys, "paircorr", "--p", "3", "x^3+x",
                               "--alpha", "1/1", "--s", "1/2", "--N", "27")
        assert out.splitlines()[1].split(",")[2] == "0/1"

    def test_whole_ring(self, capsys):
        code, out, _ = run_cli(capsys, "paircorr", "--p", "3", "x", "--alpha", "1/1",
                               "--s", "9", "--N", "3")
        assert out.splitlines()[1].split(",")[2] == "2/3"


    def test_oversized_alpha_denominator_exits_1_at_once(self, capsys):
        # p^v would have 10^8 * log2(3) bits: rejected before it is formed
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "paircorr", "--p", "3", "--N", "10",
                                 "--alpha", "1/100000000", "--s", "1", "--", "x")
        assert time.perf_counter() - start < 1
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and "alpha = 1/100000000" in err

    @pytest.mark.parametrize("s", ["1/1" + "0" * 4000, "1e-5000"])
    def test_oversized_radius_exits_1_at_once(self, capsys, s):
        # the level loop would step a 13-million-bit bound by 2^1000 per level;
        # s = 1/10^5000 has too many digits to print, so it is named by size
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "paircorr", "--p", "2", "--N", "1",
                                 "--alpha", "1/1000", "--s", s, "--", "x")
        assert time.perf_counter() - start < 1
        assert code == 1 and out == ""
        bits = 1 + parse_fraction(s).denominator.bit_length()
        assert err == (f"padiclds: error: radius s of {bits} bits (numerator and denominator) "
                       f"at alpha = 1/1000 needs {1000 * bits} bits; at most "
                       f"{paircorr.MAX_RADIUS_BITS} is supported\n")

    @pytest.mark.parametrize("option", ["--s", "--alpha"])
    def test_rational_beyond_the_digit_limit_exits_1_in_one_short_line(self, capsys, option):
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not limit:
            pytest.skip("this interpreter converts integers of any length")
        text = "1/1" + "0" * (limit + 700)
        given = {"--s": "1", "--alpha": "1/2", option: text}
        code, out, err = run_cli(capsys, "paircorr", "--p", "2", "--N", "5",
                                 "--alpha", given["--alpha"], "--s", given["--s"], "--", "x")
        assert code == 1 and out == ""
        assert err == (f"padiclds: error: rational '1/10000000000000'... ({len(text)} characters) "
                       f"has an integer of more than {limit} digits, the most the interpreter "
                       f"converts; write it with an exponent, like 1e-5000\n")

    @pytest.mark.parametrize("option,text,message", [
        # Fraction would form 10^9999999 before any bound is checked
        ("--s", "1e-9999999", "rational '1e-9999999' has a decimal exponent beyond 10000 in "
                              "magnitude, unlike any supported value"),
        ("--alpha", "0.50000000000000000001e+10001", "rational '0.50000000000000'... has a "
         "decimal exponent beyond 10000 in magnitude, unlike any supported value"),
        # denominators too long to quote are named by their size
        ("--alpha", "1e-5000", "alpha has a denominator of 16610 bits; at most 1000 is supported"),
        ("--alpha", "1/1" + "0" * 4000,
         "alpha has a denominator of 13288 bits; at most 1000 is supported"),
    ])
    def test_oversized_rational_exits_1_at_once_in_one_short_line(self, capsys, option, text,
                                                                    message):
        given = {"--s": "1", "--alpha": "1/2", option: text}
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "paircorr", "--p", "3", "--N", "5",
                                 "--alpha", given["--alpha"], "--s", given["--s"], "--", "x")
        assert time.perf_counter() - start < 1
        assert (code, out, err) == (1, "", f"padiclds: error: {message}\n")

    def test_largest_decimal_exponent_parses(self):
        bound = paircorr.MAX_RADIUS_BITS
        assert parse_fraction(f"1e-{bound}") == Fraction(1, 10**bound)
        assert parse_fraction(f"3E+{bound}") == 3 * 10**bound

    @pytest.mark.parametrize("option", ["--s", "--alpha"])
    def test_malformed_rational_is_echoed(self, capsys, option):
        given = {"--s": "1", "--alpha": "1/2", option: "1/x"}
        code, out, err = run_cli(capsys, "paircorr", "--p", "2", "--N", "5",
                                 "--alpha", given["--alpha"], "--s", given["--s"], "--", "x")
        assert (code, out, err) == (
            1, "", "padiclds: error: invalid rational '1/x' (expected forms like 2 or 1/3)\n")

    @pytest.mark.parametrize("option", ["--s", "--alpha"])
    def test_long_malformed_rational_is_cut_to_16_characters(self, capsys, option):
        given = {"--s": "1", "--alpha": "1/2", option: "1/x" + "b" * 5000}
        code, out, err = run_cli(capsys, "paircorr", "--p", "2", "--N", "5",
                                 "--alpha", given["--alpha"], "--s", given["--s"], "--", "x")
        assert (code, out) == (1, "")
        assert err == ("padiclds: error: invalid rational '1/xbbbbbbbbbbbbb'... "
                       "(expected forms like 2 or 1/3)\n")


class TestCertifiedRoute:
    """discrepancy and paircorr answer an input that classify certifies as
    low-discrepancy, with p^2 <= max N, from closed forms with no values, and
    every other input from the value engines, which count values in
    ``discrepancy._Level`` and ``paircorr._close_pairs``."""

    CERTIFIED = [
        ["discrepancy", "--p", "3", "--N", "9,4,9,1,10", "--", "x^3+x"],
        ["discrepancy", "--p", "2", "--N", "1..70", "--", "x^4+x^2+x"],
        ["discrepancy", "--p", "7", "--N", "49", "--linear", "5", "3"],
        ["discrepancy", "--p", "3", "--N", "pk:0..7", "--format", "json", "--", "x^3+x"],
        ["paircorr", "--p", "3", "--N", "3000,1,2999", "--alpha", "1/2", "--s", "1/3,1,2",
         "--", "x^3+x"],
        ["paircorr", "--p", "2", "--N", "pk:0..12", "--alpha", "1/3", "--s", "1/2,3",
         "--", "x^4+x^2+x"],
        ["paircorr", "--p", "7", "--N", "50,48,49", "--alpha", "1", "--s", "1",
         "--format", "json", "--linear", "5", "3"],
    ]
    ENGINE = [
        ["discrepancy", "--p", "3", "--N", "1..30", "--", "x^2+1"],  # not low-discrepancy
        ["discrepancy", "--p", "7", "--N", "48,3", "--linear", "5", "3"],  # 49 > max N
        ["paircorr", "--p", "3", "--N", "9,27", "--alpha", "1/2", "--s", "1", "--", "x^3"],
        ["paircorr", "--p", "11", "--N", "1..120", "--alpha", "1/2", "--s", "1",
         "--linear", "3", "1"],
    ]

    @staticmethod
    def refuse(*args, **kwargs):
        raise AssertionError("a value engine was reached")

    @pytest.mark.parametrize("argv", CERTIFIED)
    def test_certified_input_never_reaches_the_engines(self, capsys, monkeypatch, argv):
        with monkeypatch.context() as m:
            m.setattr(cli, "_certified", lambda f, p, schedule: False)
            engine = run_cli(capsys, *argv)
        assert engine[0] == 0
        monkeypatch.setattr(sequence, "poly_sequence", self.refuse)  # read at call time
        monkeypatch.setattr(discrepancy, "_Level", self.refuse)
        monkeypatch.setattr(paircorr, "_close_pairs", self.refuse)
        assert run_cli(capsys, *argv) == engine  # the same bytes

    @pytest.mark.parametrize("argv", ENGINE)
    def test_other_inputs_reach_the_engines(self, monkeypatch, argv):
        class Reached(Exception):
            pass

        def reached(*args, **kwargs):
            raise Reached

        monkeypatch.setattr(discrepancy, "_Level", reached)
        monkeypatch.setattr(paircorr, "_close_pairs", reached)
        with pytest.raises(Reached):
            main(argv)

    def test_broken_certificate_exits_2(self, capsys, monkeypatch):
        def broken(f, p):
            raise InvariantError("internal error: injected for the test")

        monkeypatch.setattr(cli, "classify_low_discrepancy", broken)
        for argv in self.CERTIFIED[0], self.CERTIFIED[4]:
            assert run_cli(capsys, *argv) == (
                2, "", "padiclds: error: internal error: injected for the test\n")


class TestVerifyTablesCommand:
    def test_derivative_roots_confirmed(self, capsys):
        code, out, _ = run_cli(capsys, "verify-tables", "--which", "derivatives",
                               "--p", "7")
        assert code == 0
        assert '"1,2,4"' in out and '"3,5,6"' in out

    def test_lds_at_11(self, capsys):
        code, out, _ = run_cli(capsys, "verify-tables", "--which", "lds", "--p", "11")
        assert code == 0
        rows = [l for l in out.splitlines()[1:] if l]
        assert len(rows) == 4  # the four sextic entries

    def test_dickson_at_13(self, capsys):
        code, out, _ = run_cli(capsys, "verify-tables", "--which", "dickson",
                               "--p", "13")
        assert code == 0
        assert "x^5 + a*x^3 + 3*a^2*x" in out
        assert "x^5 + a*x^3 + 5^-1*a^2*x" in out

    def test_dump(self, capsys):
        code, out, _ = run_cli(capsys, "verify-tables", "--which", "dickson", "--dump")
        doc = json.loads(out)
        assert code == 0
        names = {e["name"] for e in doc["dump"]}
        assert "x^3 - a*x" in names

    def test_dump_refuses_csv(self, capsys):
        dump = ["verify-tables", "--which", "lds", "--dump"]
        assert run_cli(capsys, *dump, "--format", "csv") == (
            1, "", "padiclds: error: --dump writes JSON only; --format csv does not apply\n")
        # the dump is JSON with no --format and with --format json alike
        assert run_cli(capsys, *dump, "--format", "json") == run_cli(capsys, *dump)

    @pytest.mark.parametrize("which", ["dickson", "derivatives", "lds"])
    def test_refused_past_the_cap_at_once(self, capsys, which):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "verify-tables", "--which", which, "--p", "9973")
        assert time.perf_counter() - start < 1.0
        assert code == 1 and out == ""
        assert err == "padiclds: error: enumeration too large: p^2=99460729 exceeds cap 10000000\n"
        # the catalog dump verifies nothing and is not refused
        assert run_cli(capsys, "verify-tables", "--which", which, "--p", "9973", "--dump")[0] == 0

    def test_full_verification_green(self, capsys):
        for which in ("dickson", "derivatives", "lds"):
            code, _, _ = run_cli(capsys, "verify-tables", "--which", which)
            assert code == 0, which


class TestSearchCommand:
    def test_degree2_empty_beyond_linear(self, capsys):
        code, out, _ = run_cli(capsys, "search", "--p", "3", "--degree", "2")
        assert code == 0
        rows = [l for l in out.splitlines()[1:] if l]
        assert all(r.split(",")[0] == "1" for r in rows)

    def test_degree1_all_unit_slopes(self, capsys):
        code, out, _ = run_cli(capsys, "search", "--p", "7", "--degree", "1")
        rows = [l.split(",") for l in out.splitlines()[1:] if l]
        assert len(rows) == 6 * 7
        assert all(r[2] == "linear" for r in rows)

    def test_p5_degree6_reports_the_escapes(self, capsys):
        code, out, _ = run_cli(capsys, "search", "--p", "5", "--degree", "6",
                               "--monic", "--zero-constant")
        assert code == 2  # genuinely unexplained generators exist at p = 5
        assert "x^6 + 2*x^3 + x,unexplained" in out

    def test_broken_invariant_exits_2_with_one_line(self, capsys, monkeypatch):
        from padiclds import catalog

        monkeypatch.setattr(catalog, "is_permutation_mod", lambda f, m: False)
        code, out, err = run_cli(capsys, "search", "--p", "3", "--degree", "1")
        assert code == 2
        assert out == ""
        assert err == ("padiclds: error: internal error: Noebauer criterion disagrees "
                       "with enumeration for x mod 3\n")

    @pytest.mark.parametrize("p", [10007, 50021])
    def test_p_squared_over_enumeration_cap_exits_1_with_one_line(self, capsys, p):
        # every hit is confirmed by enumeration mod p^2, so p^2 obeys classify's cap
        code, out, err = run_cli(capsys, "search", "--p", str(p), "--degree", "1",
                                 "--monic", "--zero-constant")
        assert code == 1
        assert out == ""
        assert err == (f"padiclds: error: enumeration too large: p^2={p * p} "
                       "exceeds cap 10000000\n")

    def test_largest_prime_under_the_enumeration_cap_searches(self, capsys):
        code, out, err = run_cli(capsys, "search", "--p", "3137", "--degree", "1",
                                 "--monic", "--zero-constant")
        assert code == 0
        assert out == "degree,polynomial,category\n1,x,linear\n"
        assert err == ""

    def test_over_cap_exits_1_with_one_line(self, capsys):
        # the candidate count stops at the cap, so a huge degree fails at once
        code, out, err = run_cli(capsys, "search", "--p", "2", "--degree", "1000000000")
        assert code == 1
        assert out == ""
        assert err == ("padiclds: error: search space of at least 134217726 "
                       "candidates exceeds cap 100000000\n")


class TestBridgeCommand:
    def test_worked_point(self, capsys):
        code, out, _ = run_cli(capsys, "bridge", "--p", "3", "--linear", "1", "0",
                               "--N", "3")
        assert code == 0
        fields = out.splitlines()[1].split(",")
        assert fields[:4] == ["3", "1/3", "4/9", "2.0"]
        assert fields[4] == "true"

    def test_polynomial_rows_hold(self, capsys):
        code, out, _ = run_cli(capsys, "bridge", "--p", "3", "x^3+x", "--N", "2..40")
        assert code == 0
        for line in out.splitlines()[1:]:
            assert line.endswith("true")

    def test_non_permutation_still_satisfies_lower_bound(self, capsys):
        code, out, _ = run_cli(capsys, "bridge", "--p", "3", "x^2", "--N", "81")
        from fractions import Fraction

        fields = out.splitlines()[1].split(",")
        assert Fraction(fields[1]) < Fraction(fields[2])


class TestOutputPlumbing:
    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "rows.csv"
        code, out, _ = run_cli(capsys, "discrepancy", "--p", "3", "x", "--N", "1..3",
                               "--out", str(target))
        assert code == 0 and out == ""
        assert target.read_text().startswith("N,D_N")

    @pytest.mark.parametrize("argv", [
        ["discrepancy", "--p", "3", "x", "--N", "1..3"],
        ["discrepancy", "--p", "3", "x", "--N", "1..3", "--format", "json"],
        ["classify", "--p", "5", "x^3+x"],
    ])
    def test_out_targets_write_the_same_bytes(self, capsys, tmp_path, argv):
        _, plain, _ = run_cli(capsys, *argv)
        _, dash, _ = run_cli(capsys, *argv, "--out", "-")
        target = tmp_path / "out"
        code, out, _ = run_cli(capsys, *argv, "--out", str(target))
        assert code == 0 and out == "" and plain
        assert dash == plain
        assert target.read_bytes() == plain.encode()

    @pytest.mark.parametrize("argv", [
        ["discrepancy", "--p", "3", "x", "--N", "1..3"],
        ["classify", "--p", "5", "x^3+x"],
    ])
    @pytest.mark.parametrize("target,reason", [
        ("missing/out.csv", "No such file or directory"),
        (".", "Is a directory"),
    ])
    def test_unopenable_out_exits_1_with_one_line(self, capsys, tmp_path, argv, target, reason):
        path = str(tmp_path / target)
        code, out, err = run_cli(capsys, *argv, "--out", path)
        assert code == 1
        assert out == ""
        assert err == f"padiclds: error: cannot write --out {path}: {reason}\n"

    def test_parser_built_once_and_reusable_after_errors(self, capsys):
        assert cli.build_parser() is cli.build_parser()
        argv = ["discrepancy", "--p", "3", "x^3+x", "--N", "1..4"]
        before = run_cli(capsys, *argv)
        assert run_cli(capsys, "classify", "--p", "3", "x^^5")[0] == 1
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--p", "3", "--workers", "2", "x"])
        assert exc.value.code == 1
        capsys.readouterr()
        assert run_cli(capsys, *argv) == before

    @pytest.mark.parametrize("argv", [
        ["classify", "--p", "5", "--", "x^3+x"],  # the table path
        ["classify", "--p=5", "--", "x^3+x"],     # argparse
    ])
    def test_argv_may_be_any_iterable(self, capsys, argv):
        expected = run_cli(capsys, *argv)
        assert main(tuple(argv)) == main(iter(argv)) == expected[0] == 0
        assert capsys.readouterr().out == expected[1] * 2

    def test_json_format_rows(self, capsys):
        code, out, _ = run_cli(capsys, "discrepancy", "--p", "3", "x", "--N", "2",
                               "--format", "json")
        doc = json.loads(out)
        assert doc["schema_version"] == 1
        assert doc["rows"][0]["D_N"] == "1/2"

    @pytest.mark.parametrize("argv", [
        ["classify", "--p", "5", "x^3+x"],
        ["classify", "--p", "2", "x^2+x"],
        ["generate", "--p", "3", "--n", "5", "--mode", "integers", "--", "x^3-10"],
        ["generate", "--p", "3", "--n", "5", "--K", "3", "--mode", "digits", "x^2"],
        ["generate", "--p", "5", "--n", "5", "--K", "2", "--mode", "monna", "--", "x^2-7"],
        ["discrepancy", "--p", "3", "--N", "1..9", "x^3+x"],
        ["paircorr", "--p", "3", "--N", "1..9", "--alpha", "1/2", "--s", "1,1/3", "x^3"],
        ["verify-tables", "--which", "derivatives", "--p", "7"],
        ["verify-tables", "--which", "derivatives", "--p", "3"],  # no rows
        ["verify-tables", "--which", "lds", "--dump"],
        ["search", "--p", "3", "--degree", "6"],
        ["bridge", "--p", "3", "--N", "1..9", "x^3+x"],
    ])
    def test_json_output_is_json_dumps_indent_2(self, capsys, argv):
        code, out, _ = run_cli(capsys, argv[0], "--format", "json", *argv[1:])
        assert code in (0, 2) and out
        assert json.dumps(json.loads(out), indent=2) + "\n" == out

    def test_startup_imports_no_dataclasses_or_inspect(self):
        # the result records are NamedTuples: starting the CLI loads neither
        # dataclasses nor inspect, ast, dis and tokenize behind it
        code = ("import sys, padiclds.cli; padiclds.cli.build_parser(); "
                "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    DEFERRED = ("padiclds.catalog", "padiclds.discrepancy", "padiclds.paircorr",
                "padiclds.sequence", "fractions", "decimal")

    @pytest.mark.parametrize("argv,loaded", [
        (None, ()),
        (["classify", "--p", "7", "--", "x^3+x"], ()),
        (["search", "--p", "3", "--degree", "3"], ("padiclds.catalog",)),
        (["bridge", "--p", "3", "--N", "1..9", "--", "x^3+x"],
         ("padiclds.discrepancy", "padiclds.sequence")),
        (["paircorr", "--p", "3", "--N", "1..30", "--alpha", "1/2", "--s", "1,2", "--", "x^3"],
         ("padiclds.paircorr", "padiclds.sequence", "fractions", "decimal")),
    ], ids=["start-up", "classify", "search", "bridge", "paircorr"])
    def test_startup_imports_only_what_the_subcommand_runs(self, argv, loaded):
        # a fresh interpreter starts on padic, polynomials and permcheck; each
        # subcommand imports its own engine, and no Fraction is built on the way
        code = ("import contextlib, io, sys, padiclds.cli; padiclds.cli.build_parser(); "
                f"argv = {argv!r}\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                "    code = argv and padiclds.cli.main(argv)\n"
                f"print(code or 0, sorted(set({self.DEFERRED!r}) & set(sys.modules)))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == f"0 {sorted(loaded)}\n"

    def test_console_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "padiclds.cli", "classify", "--p", "3", "x^3+x"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["brute_force"]["low_discrepancy"] is True

    def test_usage_error_exit_code(self):
        # no subcommand takes --workers: the search runs in one process
        for argv in (["classify"], ["classify", "--p", "3", "--workers", "2", "x"],
                     ["search", "--p", "3", "--degree", "2", "--workers", "2"]):
            proc = subprocess.run(
                [sys.executable, "-m", "padiclds.cli", *argv],
                capture_output=True, text=True,
            )
            assert proc.returncode == 1, argv

    def test_unknown_subcommand_exit_code(self):
        proc = subprocess.run(
            [sys.executable, "-m", "padiclds.cli", "frobnicate"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1


class TestPackageExports:
    """``padiclds`` exports each name below from its module, importing the
    module on the name's first use."""

    EXPORTS = {
        "padic": ["check_prime", "digit_expansions", "digit_reversals", "monna_of_int",
                  "valuation"],
        "polynomials": ["IntPolynomial", "PolyParseError", "derivative", "eval_mod", "parse_poly",
                        "reduce_functional", "render", "unit_value_poly"],
        "permcheck": ["DivergenceEntry", "DivergenceReport", "Verdict", "classify_low_discrepancy",
                      "classify_via_reduction", "divergence_scan", "first_missing_residue",
                      "is_permutation_mod", "noebauer_mod_p2"],
        "sequence": ["poly_sequence"],
        "discrepancy": ["DiscrepancyResult", "discrepancy_profile", "meijer_bound_check",
                        "padic_discrepancy", "real_extreme_discrepancy", "separation_depth"],
        "paircorr": ["F_statistic", "lds_pair_count", "ppc_sweep", "threshold_level"],
        "catalog": ["DicksonEntry", "EntryVerification", "MatchReport", "SearchConstraints",
                    "dickson_entries", "exhaustive_search", "match_against_table",
                    "verify_entry"],
    }

    def test_all_is_every_export_and_the_version(self):
        names = [name for names in self.EXPORTS.values() for name in names]
        assert len(names) == 41
        assert sorted(padiclds.__all__) == sorted(["__version__", *names])
        assert set(padiclds.__all__) <= set(dir(padiclds))

    def test_star_import_binds_each_module_attribute(self):
        namespace = {}
        exec("from padiclds import *", namespace)
        assert namespace["__version__"] == padiclds.__version__ == "0.1.0"
        for module, names in self.EXPORTS.items():
            owner = importlib.import_module(f"padiclds.{module}")
            for name in names:
                assert namespace[name] is getattr(owner, name) is getattr(padiclds, name), name

    def test_submodules_resolve_after_a_bare_import(self):
        code = ("import sys, padiclds; print(sorted(m for m in sys.modules if '.' in m and "
                "m.startswith('padiclds')), padiclds.catalog.__name__, "
                "padiclds.parse_poly.__module__)")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[] padiclds.catalog padiclds.polynomials\n"

    def test_unknown_name_raises_attribute_error_naming_it(self):
        with pytest.raises(AttributeError, match="'padiclds' has no attribute 'no_such_name'"):
            padiclds.no_such_name
        with pytest.raises(ImportError, match="no_such_name"):
            exec("from padiclds import no_such_name", {})


class TestErrorLines:
    LONG = "1" + "0" * 4000

    @pytest.mark.parametrize("argv,line", [
        (["generate", "--p", "3", "--n", "0", "--", "x"], "--n must be >= 1"),
        (["search", "--p", "3", "--degree", "0"], "max_degree must be >= 1"),
        (["classify", "--p", "3", "--", "[1,2"],
         "syntax error at position 3: coefficient list must be enclosed in [ ]"),
        (["classify", "--p", "3", "--", "3*y"], "syntax error at position 2: expected 'x' after '*'"),
        # p is shown in full up to 16 characters and cut to 16 beyond
        (["classify", "--p", "1048577", "--", "x"], "p must be prime, got 1048577"),
        (["classify", "--p", "-999999999999999", "--", "x"],
         "p must be a prime >= 2, got -999999999999999"),
        (["classify", "--p", LONG, "--", "x"], "p must be below 3317044064679887385961981 "
         "(primality decided exactly), got '1000000000000000'..."),
        (["classify", "--p", "-" + LONG, "--", "x"],
         "p must be a prime >= 2, got '-100000000000000'..."),
        (["discrepancy", "--p", "3", "--N", "5"],
         "a polynomial expression or --linear a b is required"),
        # verify-tables refuses p^2 past classify's enumeration cap for every
        # selection, before any row is verified
        (["verify-tables", "--which", "dickson", "--p", "3163"],
         "enumeration too large: p^2=10004569 exceeds cap 10000000"),
        (["verify-tables", "--which", "derivatives", "--p", "9973"],
         "enumeration too large: p^2=99460729 exceeds cap 10000000"),
        # the dense coefficient tuple is bounded before it is built
        (["classify", "--p", "7", "--", "x^10000000+x"],
         "syntax error at position 2: exponent 10000000 is above the limit of 1000000"),
        (["classify", "--p", "7", "--", "x^1000000000+x"],
         "syntax error at position 2: exponent 1000000000 is above the limit of 1000000"),
        (["generate", "--p", "3", "--n", "2", "--", "x^100000000"],
         "syntax error at position 2: exponent 100000000 is above the limit of 1000000"),
    ])
    def test_exits_1_with_one_exact_line(self, capsys, argv, line):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert err == f"padiclds: error: {line}\n"

    @pytest.mark.parametrize("argv,line", [
        (["generate", "--p", "3", "--n", "1", "--K", "1" * 5000, "--", "x"],
         "argument --K: invalid int value: '1111111111111111'..."),
        (["discrepancy", "--p", "3", "--N", "3", "--linear", "1", "x" * 3000],
         "argument --linear: invalid int value: 'xxxxxxxxxxxxxxxx'..."),
    ], ids=["long-K", "long-linear"])
    def test_argparse_type_errors_quote_16_characters(self, capsys, argv, line):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out, err = capsys.readouterr()
        assert exc.value.code == 1 and out == ""
        assert err.startswith(f"usage: padiclds {argv[0]} ")
        assert err.endswith(f"\npadiclds {argv[0]}: error: {line}\n")
        assert len(err.splitlines()[-1].encode()) <= 300

    def test_short_argparse_type_error_keeps_argparse_text(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--p", "3", "--n", "abc", "--", "x"])
        assert exc.value.code == 1
        assert capsys.readouterr().err == (
            "usage: padiclds generate [-h] --p P [--linear A B] [--format {json,csv}]\n"
            "                         [--out OUT] --n N [--K K]\n"
            "                         [--mode {digits,monna,integers}]\n"
            "                         [poly]\n"
            "padiclds generate: error: argument --n: invalid int value: 'abc'\n"
        )
