"""Digest of the CLI's observable output over a fixed set of invocations.

Runs every job of the four benchmark workloads (``perfbench/jobs.py``) at the
given seeds, plus a fixed list of extra invocations (the heavy degree-5 and -6
searches, four past degree p whose hits have a nonzero (x^p - x)B or
(x^p - x)^2 C part (``search --p 5 --degree 9 --monic --zero-constant``,
``search --p 3 --degree 8``, ``search --p 2 --degree 9 --nonzero-linear``
and ``search --p 7 --degree 7``, whose constant terms are free), error
paths, rationals and integer literals too long to convert or quote, malformed inputs too long to echo, six large-p, three
high-degree and two root-free non-permutation classify calls, four of
degree 20,000 or more at p = 101, one per brute-force branch, long and dense
discrepancy, paircorr and generate schedules, digit and digit-reversal output
of negative values, integer ``--linear`` sequences, unsorted, long, dense
and negative-valued bridge schedules, the catalog dump of each
``verify-tables --which`` selection (and of ``lds`` under ``--format json``
and ``--format csv``, which is refused), each selection at each catalog prime
(2, 3, 5, 7, 11, 13, 17 and 23) and at 43, the first prime past the value
tables' crossover that a row matches, two ``verify-tables`` calls refused at
classify's enumeration cap (``--which dickson --p 3163`` and ``--which
derivatives --p 9973``), and the closed-form ``discrepancy`` and
``paircorr`` rows of certified low-discrepancy inputs at their boundaries, beside the inputs that still take the value engines, and
paircorr's level walk on dense, power and bit-bound schedules, primes
too long to echo, integer options too long for argparse to echo, dense
discrepancy and bridge schedules whose ball levels fill, value tables on
both sides of the size where they turn to finite differences, and JSON
output the workloads miss: ``bridge`` at a fixed ``--K``, negative
``generate`` values, ``classify --p 2`` (null ``unit_reduction``),
``search`` past degree 2p - 1 and a document written with ``--out -``), inputs
on the bound of the discrepancy engine's level scan (a*n + b with p | a, and
values that repeat), a paircorr schedule whose radii share levels, and argv
that only argparse parses (an abbreviation, ``--opt=value``, a trailing ``--``,
a negative value, a repeat, help after an option, ``--`` as the positional)
beside bare positionals before and after the options, classify with no
polynomial (bare, with a trailing ``--`` and under ``--format csv``), one
classify per error exit of the expression reader, and coefficient lists whose
failing entry's text occurs earlier in the list or whose ``[`` follows
spaces, each reported at its position in the text as typed, through
``padiclds.cli.main`` in-process, and prints per workload the job count and
one sha256 over (argv, exit code, stdout, stderr) of its jobs in order.  A
last line digests the ``--help`` text of the top parser and of each
subcommand, formatted 80 columns wide.  Two trees whose digests agree
produce byte-identical CLI output on all of these inputs.

Usage:
    PYTHONPATH=<tree>/src python3 tools/cli_digest.py [SEED ...]   # default 1 2 3
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench"))

from jobs import WORKLOADS, make_jobs  # noqa: E402

EXTRA = [
    *(["search", "--p", str(p), "--degree", "6", "--monic", "--zero-constant"]
      for p in (5, 7, 11, 13)),
    # orbit expansion: unflagged searches, p = 17, and p dividing a degree
    ["search", "--p", "7", "--degree", "6"],
    ["search", "--p", "11", "--degree", "5"],
    ["search", "--p", "17", "--degree", "6", "--monic", "--zero-constant"],
    ["search", "--p", "3", "--degree", "6", "--nonzero-linear"],
    ["search", "--p", "2", "--degree", "6"],
    # hits built as A + (x^p - x)B + (x^p - x)^2 C: B reaching degree p - 1
    # (its top term meets x^p's), and C != 0
    ["search", "--p", "5", "--degree", "9", "--monic", "--zero-constant"],
    ["search", "--p", "3", "--degree", "8"],
    ["search", "--p", "2", "--degree", "9", "--nonzero-linear"],
    # and past degree p with every constant term: p translates of each part
    ["search", "--p", "7", "--degree", "7"],
    ["generate", "--p", "3", "--n", "4", "--K", "0", "--mode", "digits", "--", "x"],
    ["bridge", "--p", "3", "--N", "5", "--K", "0", "--", "x"],
    ["discrepancy", "--p", "1048577", "--N", "3", "--", "x"],
    ["classify", "--p", "9", "--", "x"],
    # large-p classify: an affine map (full enumeration mod p^2), a quadratic
    # whose first repeat mod p^2 is as late as a quadratic's can be (x = 2p-1),
    # and a permutation mod p with a derivative root, whose level-2 witness
    # needs the whole table mod p^2
    ["classify", "--p", "2003", "--", "3x+5"],
    ["classify", "--p", "1163", "--", "x^2+2x"],
    ["classify", "--p", "1013", "--", "x^3"],
    # the largest prime under the enumeration cap: a permutation of Z/3137^2
    # (its image mod 9,840,769 read off 3137 fibres) and a permutation of
    # Z/3137 with a level-2 witness; and a low-discrepancy quintic enumerated
    # in full
    ["classify", "--p", "3137", "--", "5x+7"],
    ["classify", "--p", "3137", "--", "x^3"],
    ["classify", "--p", "547", "--", "x^5+411x^3+89x"],
    # full enumerations mod p^2 at degree >= p - 6, and a permutation of Z/17
    # with a derivative root
    ["classify", "--p", "17", "--", "17x^30+x"],
    ["classify", "--p", "29", "--", "29x^60+3x+1"],
    ["classify", "--p", "17", "--format", "csv", "--", "x^33+x^17+x"],
    # non-permutations whose derivative has no root mod p, at a large prime
    # and at p = 2: the collision mod p^2 lifts their first repeat mod p
    ["classify", "--p", "1019", "--", "x^3+x"],
    ["classify", "--p", "2", "--format", "csv", "--", "x^2+x"],
    # long stretches between requested lengths (bulk counting), an unsorted
    # schedule with a short stretch, a dense schedule (value by value), and
    # a high-degree polynomial's values by finite differences
    ["discrepancy", "--p", "2", "--N", "4000,7,3999", "--", "x^3+x"],
    ["paircorr", "--p", "3", "--N", "3000,1,2999", "--alpha", "1/2", "--s", "1/3,1,2",
     "--", "x^3+x"],
    ["discrepancy", "--p", "3", "--N", "1..2000", "--", "x^3+x"],
    ["generate", "--p", "3", "--n", "3000", "--mode", "integers", "--", "x^12-7"],
    # digits and digit-reversal images of negative values (reduced mod p^K),
    # the negative-without-K error, integer --linear sequences, and both
    # polynomial-or---linear argument errors
    ["generate", "--p", "3", "--n", "30", "--K", "3", "--mode", "digits", "--", "x^3-10"],
    ["generate", "--p", "5", "--n", "30", "--K", "2", "--mode", "monna", "--", "x^2-7"],
    ["generate", "--p", "3", "--n", "10", "--mode", "monna", "--", "x-5"],
    ["generate", "--p", "3", "--n", "4", "--linear", "0", "5"],
    ["discrepancy", "--p", "3", "--N", "1..30", "--linear", "-3", "7"],
    ["bridge", "--p", "3", "--K", "3", "--N", "1..50", "--", "x^2-5"],
    ["discrepancy", "--p", "3", "--N", "5", "--linear", "1", "0", "--", "x"],
    ["discrepancy", "--p", "3", "--N", "5"],
    # the incremental real discrepancy: an unsorted schedule with repeats, a
    # long dense one, digit counts that vary without --K, and negative values
    # reversed through their complement mod p^K (small and large K)
    ["bridge", "--p", "3", "--N", "50,7,49,7", "--", "x^3+x"],
    ["bridge", "--p", "3", "--N", "1..400", "--", "x^3+x"],
    ["bridge", "--p", "7", "--N", "1..60", "--", "x^2+1"],
    ["bridge", "--p", "5", "--K", "4", "--N", "1..40", "--", "x^3-9"],
    ["bridge", "--p", "3", "--K", "20", "--N", "1..30", "--", "x-15"],
    ["generate", "--p", "3", "--n", "30", "--K", "40", "--mode", "monna", "--", "x^2-7"],
    ["generate", "--p", "7", "--n", "20", "--K", "25", "--mode", "digits", "--", "x^3-50"],
    # every catalog field of each table selection (the search workload runs
    # verify-tables without --dump)
    *(["verify-tables", "--which", which, "--dump"] for which in ("dickson", "derivatives", "lds")),
    # --dump writes JSON: with --format json too, and refused with --format csv
    *(["verify-tables", "--which", "lds", "--dump", "--format", fmt] for fmt in ("csv", "json")),
    # every row built at every catalog prime, its own or not
    *(["verify-tables", "--which", which, "--p", str(q)]
      for which in ("dickson", "derivatives", "lds") for q in (2, 3, 5, 7, 11, 13, 17, 23)),
    # p = 43, the first prime past the value tables' crossover of 40 values
    # that a row matches (the 5m+-2 class): classify's tables mod p come from
    # forward differences
    *(["verify-tables", "--which", which, "--p", "43"]
      for which in ("dickson", "derivatives", "lds")),
    # primes whose p^2 passes the enumeration cap, refused before any row
    ["verify-tables", "--which", "dickson", "--p", "3163"],
    ["verify-tables", "--which", "derivatives", "--p", "9973"],
    # certified low-discrepancy inputs answered in closed form: N = 1, p^2 - 1,
    # p^2, p^2 + 1 and p^k +- 1, an integer --linear sequence, a power
    # schedule at alpha 1/3, JSON, and an unsorted schedule with repeats
    *([cmd, "--p", p, "--N", sched, *radii, "--", f]
      for p, f, sched in (("2", "x^4+x^2+x", "1,3,4,5,1023,1025,65535,65537"),
                          ("7", "x^5+x^3+3x+49x^2", "1,48,49,50,342,344,16806,16808"))
      for cmd, radii in (("discrepancy", []),
                         ("paircorr", ["--alpha", "1/2", "--s", "1/3,1,2,7/2"]))),
    ["discrepancy", "--p", "7", "--N", "1..49", "--linear", "5", "3"],
    ["paircorr", "--p", "7", "--N", "1..60", "--alpha", "2/3", "--s", "1,1/7",
     "--linear", "5", "3"],
    ["paircorr", "--p", "2", "--N", "pk:0..16", "--alpha", "1/3", "--s", "1/2,1,3",
     "--", "x^4+x^2+x"],
    ["discrepancy", "--p", "3", "--N", "1..30", "--format", "json", "--", "x^3+x"],
    ["paircorr", "--p", "3", "--N", "81,9", "--alpha", "1", "--s", "1,3", "--format", "json",
     "--", "x^3+x"],
    ["discrepancy", "--p", "3", "--N", "50,9,50,1,9", "--", "x^3+x"],
    ["paircorr", "--p", "3", "--N", "50,9,50,1,9", "--alpha", "3/4", "--s", "1/2,2", "--", "x^3+x"],
    # the value engines: an input that is not low-discrepancy, and certified
    # ones whose largest N is below p^2
    ["discrepancy", "--p", "3", "--N", "1..100", "--", "x^3"],
    ["paircorr", "--p", "3", "--N", "100,10", "--alpha", "1/2", "--s", "1,1/3", "--", "x^3"],
    ["discrepancy", "--p", "7", "--N", "1..48", "--linear", "5", "3"],
    ["paircorr", "--p", "11", "--N", "120,1", "--alpha", "1/2", "--s", "1,2", "--linear", "3", "1"],
    # one level walk per radius: the dense baseline schedule in closed form and
    # on the value engine, a radius at the bit bound whose walk climbs 10^4
    # levels before the first size, and power schedules at alpha 2/3, whose
    # levels rise by 0 or 1 between consecutive sizes
    *(["paircorr", "--p", "3", "--alpha", "1/2", "--s", "1/3,1/2,1,2", "--N", "1..3000", "--", f]
      for f in ("x^3+x", "x^3")),
    *(["paircorr", "--p", "2", "--alpha", "1", "--N", "1..300", "--s", f"1/{2 ** 9990},1", "--", f]
      for f in ("x", "x^2")),
    *(["paircorr", "--p", "2", "--N", "pk:0..12", "--alpha", "2/3", "--s", "1/5,1,3", "--", f]
      for f in ("x^4+x^2+x", "x^3")),
    # one-line refusals of rationals and integer literals too long to convert
    # or quote: a decimal exponent that Fraction would expand, alpha
    # denominators named by their size, and integers past the digit limit in
    # a coefficient, an exponent and a coefficient list
    *(["paircorr", "--p", "3", "--N", "5", "--alpha", alpha, "--s", s, "--", "x"]
      for alpha, s in (("1/2", "1e-9999999"), ("1e-5000", "1"), ("1/1" + "0" * 4000, "1"))),
    *(["classify", "--p", "3", "--", f]
      for f in ("1" + "0" * 5000 + "x", "x^1" + "0" * 5000, "[1" + "0" * 5000 + ",1]")),
    # malformed inputs and numbers too long to echo, quoted by their first 16
    # characters: an integer, a rational, a schedule, a range end, a power and
    # a digit count
    ["classify", "--p", "3", "--", "[1, a" + "b" * 5000 + "]"],
    ["paircorr", "--p", "3", "--N", "5", "--alpha", "1/2", "--s", "1/x" + "b" * 5000, "--", "x"],
    *(["discrepancy", "--p", "3", "--N", N, "--", "x"]
      for N in ("1.." + "z" * 5000, "1.." + "9" * 4000, "pk:1.." + "9" * 4000)),
    ["generate", "--p", "3", "--n", "2", "--K", "1" + "0" * 4000, "--mode", "digits", "--", "x"],
    # a digit count whose bit budget has more digits than the interpreter
    # converts to text, named by its bit count
    ["generate", "--p", "3", "--n", "1000", "--K", "9" * 4299, "--mode", "digits", "--", "x"],
    # bounds and syntax errors no other job reaches, and primes of 4001 and
    # 4002 characters, cut to 16 in the message
    ["generate", "--p", "3", "--n", "0", "--", "x"],
    ["search", "--p", "3", "--degree", "0"],
    ["classify", "--p", "3", "--", "[1,2"],
    ["classify", "--p", "3", "--", "3*y"],
    ["classify", "--p", "1" + "0" * 4000, "--", "x"],
    ["classify", "--p", "-1" + "0" * 4000, "--", "x"],
    # argparse's own type errors on integer options too long to echo
    ["generate", "--p", "3", "--n", "1", "--K", "1" * 5000, "--", "x"],
    ["discrepancy", "--p", "3", "--N", "3", "--linear", "1", "x" * 3000],
    # value tables on both sides of the crossover max(40, 5(d+1)) past which
    # they are extended by differences: tables mod p at p = 37 and 41..47 at
    # degrees 2..9 (x^d permutes Z/p when gcd(d, p - 1) = 1), fibre tables over
    # [0, 2p) at p = 17, 19 (2p < 40) and 23 (2p > 40), a degree-300 classify
    # at p = 1009 (every x mod p, differences over [0, 2p)), and generate
    # around d + 1 = 13 values, where the exact sequence turns to differences
    *(["classify", "--p", str(p), "--", f] for p in (37, 41, 43, 47) for d in range(2, 10)
      for f in (f"x^{d}", f"x^{d}+2x+1")),
    *(["classify", "--p", str(p), "--", f] for p in (17, 19, 23)
      for f in ("5x+7", f"{p}x^4+x", f"{p}x^9+{p}x^2+x", "x^3")),
    *(["classify", "--p", "1009", "--", f] for f in ("1009x^300+x", "x^300+x+1", "x^300+5x^2")),
    # degree 20,000 and more at p = 101, one per brute-force branch, each read
    # mod p off the folds of f and f': a low-discrepancy verdict confirmed mod
    # p^2, a level-2 witness over the root 0, a collision at the root 99, and
    # a root-free non-permutation whose first repeat is lifted
    *(["classify", "--p", "101", "--", f] for f in (
        "x+101*x^20000", "x^3+101*x^20000", "x^20000+x", "x^20060+78*x^3+2*x")),
    *(["generate", "--p", "3", "--n", str(n), "--mode", "integers", "--", "x^12+5x^3-7"]
      for n in (12, 13, 14, 40, 41)),
    # dense schedules on the value engine whose levels fill: level 1 of an
    # input that is not low-discrepancy, whose smallest count keeps rising,
    # and every level up to 2^9 of an affine map at p = 2
    ["discrepancy", "--p", "3", "--N", "1..3000", "--", "x^3"],
    ["bridge", "--p", "2", "--N", "1..1000", "--", "3x+1"],
    # JSON documents the workloads do not write: bridge rows at a fixed K,
    # negative integer values, classify at p = 2 (unit_reduction is null),
    # search hits past degree 2p - 1, and a document written through --out -
    ["bridge", "--p", "3", "--N", "1..40", "--K", "2", "--format", "json", "--", "x^3+x"],
    ["generate", "--p", "3", "--n", "30", "--mode", "integers", "--format", "json", "--",
     "x^3-500"],
    ["classify", "--p", "2", "--format", "json", "--", "x^2+x"],
    ["search", "--p", "3", "--degree", "7", "--monic", "--format", "json"],
    ["discrepancy", "--p", "5", "--N", "1..25", "--format", "json", "--out", "-", "--", "x^2+x"],
    # inputs on the bound where the discrepancy engine stops its level scan:
    # a*n + b with p | a at odd and even N and on a dense schedule, and a
    # sparse schedule over x^2 - 5x, whose values repeat, so the tail wins at
    # small N; and a paircorr schedule whose radii share levels, consecutive
    # sizes adding one value to a level with many classes
    ["discrepancy", "--p", "2", "--linear", "2", "1", "--N", "1499,1500"],
    ["discrepancy", "--p", "3", "--linear", "3", "1", "--N", "1..200"],
    ["discrepancy", "--p", "5", "--N", "4,2,600,4,1500", "--", "x^2-5*x"],
    ["paircorr", "--p", "2", "--N", "4,5,300,301,302,1200", "--alpha", "1", "--s", "1,3/2,2,1/3",
     "--", "x^2-5*x"],
    # argv that argparse parses, not the table path: an abbreviation,
    # --opt=value, a trailing "--", a negative value, a repeated option, help
    # after an option and "--" as the positional; and the table path's bare
    # positionals, before the options and last
    ["search", "--p", "3", "--deg", "2"],
    ["search", "--p", "3", "--degree=2"],
    ["search", "--p", "3", "--degree", "2", "--"],
    ["discrepancy", "--p", "3", "--linear", "-2", "3", "--N", "1..4"],
    ["classify", "--p", "3", "--p", "5", "--", "x"],
    ["classify", "--p", "3", "-h"],
    ["classify", "--p", "3", "--", "--"],
    ["discrepancy", "--p", "3", "x^3+x", "--N", "1..4"],
    ["classify", "--p", "3", "x^3+x"],
    # classify with no polynomial, by the table path, by argparse and as csv
    ["classify", "--p", "3"],
    ["classify", "--p", "3", "--"],
    ["classify", "--p", "3", "--format", "csv"],
    # each error exit of the expression reader: an empty expression, a
    # dangling sign, a missing sign, no term, no x after '*', no exponent
    # digits, digits that are not decimal in a coefficient and in an exponent,
    # and an exponent past the limit; and coefficient lists whose failing
    # entry is empty, is a sign, or has its text earlier in the list, and
    # lists whose '[' follows spaces
    *(["classify", "--p", "3", "--", f]
      for f in ("", "  ", "x +", "2 2", "*x", "2*", "x^", "1\u00b2x", "x^\u00b2", "x^1000001",
                "[1,,2]", " [1,]", "[-1,-]", "[1_0,1_]", "  [1,2")),
]

HELP = [["--help"], *([command, "--help"] for command in (
    "classify", "generate", "discrepancy", "paircorr", "verify-tables", "search", "bridge"))]


def run(main, argv) -> tuple[int | str, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # reported in the digest, not fatal
            code = f"raised {type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()


def digest(main, argvs) -> str:
    h = hashlib.sha256()
    for argv in argvs:
        h.update(json.dumps([argv, *run(main, argv)]).encode())
        h.update(b"\n")
    return h.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("seeds", nargs="*", type=int, default=[1, 2, 3])
    args = parser.parse_args()
    os.environ["COLUMNS"] = "80"  # argparse wraps help and usage to the terminal width
    from padiclds import cli

    print(f"padiclds from {os.path.dirname(cli.__file__)}", file=sys.stderr)
    groups = {w: [j["argv"] for s in args.seeds for j in make_jobs(w, s)] for w in WORKLOADS}
    groups["extra"] = EXTRA
    groups["help"] = HELP
    for name, argvs in groups.items():
        print(f"{name:<9} {len(argvs):>5} jobs  sha256 {digest(cli.main, argvs)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
