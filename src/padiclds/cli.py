"""Command-line front end.

Subcommands: classify, generate, discrepancy, paircorr, verify-tables,
search, bridge.  Exact fractions are the primary output representation
(printed as num/den, always in lowest terms); decimal columns are convenience
approximations and carry an ``_approx`` suffix.  Exit codes: 0 success,
1 usage/parse error, 2 verification failure or broken internal invariant.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import os
import sys
from itertools import chain, islice, repeat
from json.encoder import encode_basestring_ascii
from math import gcd

# every subcommand parses p, and most a polynomial; the other engines are
# imported by the subcommands that run them
from .padic import InvariantError, _quote, _shown, check_prime, digit_expansions, digit_reversals
from .permcheck import (_check_enumeration, classify_low_discrepancy, classify_via_reduction,
                        noebauer_mod_p2)
from .polynomials import IntPolynomial, derivative, parse_poly, render, unit_value_poly

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFICATION = 2

# The longest value sequence a subcommand builds (--N schedules, --n).  A
# sparse discrepancy of 10^5 values of x^3+x at p=2 peaks at about 170 MB;
# ten times as many would not fit a 1 GB address space.
MAX_SEQUENCE_LENGTH = 100_000

# The most bits of base-p digits (K digits of bit_length(p) bits per value)
# that --K may ask for, checked before p^K is formed.  At p = 3, --mode
# digits then writes at most 10^6 digit cells; at the largest p (81 bits),
# p^K stays below 2*10^6 bits, where forming it takes milliseconds (at K =
# 10^6 it took over a minute).
MAX_DIGIT_BITS = 2_000_000

CLASSIFY_COLUMNS = (
    "p", "polynomial", "low_discrepancy", "perm_mod_p", "perm_mod_p2",
    "derivative_root", "missing_level", "missing_residue",
    "formula_low_discrepancy", "divergence",
)


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; the contract here is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _int(text: str) -> int:
    """argparse type of the integer options: argparse's own message for a
    non-integer, with the input quoted by its first 16 characters."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {_quote(text)}") from None


def _frac(fr: Fraction) -> str:
    return f"{fr.numerator}/{fr.denominator}"


def _reduced(num: int, den: int) -> tuple[int, int]:
    g = gcd(num, den)
    return num // g, den // g


def parse_fraction(text: str) -> Fraction:
    from fractions import Fraction
    from .paircorr import MAX_RADIUS_BITS
    _, e, exponent = text.lower().rpartition("e")
    try:
        # Fraction forms 10^|exponent| before any bound is checked; past
        # MAX_RADIUS_BITS no supported alpha or s has such an exponent
        if not (e and abs(int(exponent)) > MAX_RADIUS_BITS):
            return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        # a well-formed rational can still hold more digits than str -> int converts
        if str(exc).startswith("Exceeds the limit"):
            raise ValueError(f"rational {_quote(text)} ({len(text)} characters) has an integer "
                             f"of more than {sys.get_int_max_str_digits()} digits, the most the "
                             f"interpreter converts; write it with an exponent, like 1e-5000"
                             ) from None
        raise ValueError(f"invalid rational {_quote(text)} (expected forms like 2 "
                         f"or 1/3)") from None
    raise ValueError(f"rational {_quote(text)} has a decimal exponent beyond {MAX_RADIUS_BITS} "
                     f"in magnitude, unlike any supported value")


def _check_length(N: int, what: str) -> None:
    if N > MAX_SEQUENCE_LENGTH:
        raise ValueError(f"{what} asks for N={_shown(N)} values, above the limit of "
                         f"{MAX_SEQUENCE_LENGTH}")


def _check_digits(K: int | None, values: list[int], p: int) -> None:
    """K digits for each value; K=None (full expansions) fixes none, so it
    admits no negative value."""
    if K is None and min(values) < 0:
        raise ValueError("negative values have no finite expansion; pass --K")
    N = len(values)
    bits = 0 if K is None else K * N * p.bit_length()
    if bits > MAX_DIGIT_BITS:
        raise ValueError(f"--K {_shown(K)} asks for {_shown(K)} base-{p} digits of N={N} values "
                         f"({_shown(bits)} bits), above the limit of {MAX_DIGIT_BITS} bits")


def _check_printable(numbers, column: str, K: int | None = None) -> None:
    """Refuse, before any row is written, an integer of more decimal digits than the
    interpreter prints (a limit of 0, or CPython before 3.10.7, has none); below
    2^(3*limit) < 10^limit it fits, so short ones skip forming 10^limit."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    top = max(map(abs, numbers), default=0)
    if limit and top.bit_length() > 3 * limit and top >= 10 ** limit:
        fix = "a smaller --K" if K is not None else "a smaller polynomial or fewer values"
        raise ValueError(f"the {column} column needs an integer of more than {limit} decimal "
                         f"digits, the most the interpreter prints; use {fix}")


def parse_schedule(text: str, p: int) -> list[int]:
    """N-schedule forms: "a..b" (inclusive), "a,b,c" (list), "pk:k1..k2" (powers p^k).

    The largest N is checked against ``MAX_SEQUENCE_LENGTH`` before the
    schedule is built.
    """

    def num(part: str) -> int:
        try:
            return int(part)
        except ValueError:
            raise ValueError(f'invalid schedule {_quote(text)}: expected "a..b", "a,b,c" or '
                             f'"pk:k1..k2" with integer bounds and entries') from None

    text = text.strip()
    if text.startswith("pk:"):
        body = text[3:]
        if ".." not in body:
            raise ValueError('power schedule must look like "pk:k1..k2"')
        lo, hi = body.split("..", 1)
        k1, k2 = num(lo), num(hi)
        if k1 < 0 or k2 < k1:
            raise ValueError("power schedule bounds must satisfy 0 <= k1 <= k2")
        # p >= 2, so p^k2 exceeds the limit once k2 reaches its bit length
        if k2 >= MAX_SEQUENCE_LENGTH.bit_length() or p ** k2 > MAX_SEQUENCE_LENGTH:
            raise ValueError(f"schedule asks for N={p}^{_shown(k2)} values, above the limit of "
                             f"{MAX_SEQUENCE_LENGTH}")
        return [p ** k for k in range(k1, k2 + 1)]
    if ".." in text:
        lo, hi = text.split("..", 1)
        a, b = num(lo), num(hi)
        if a < 1 or b < a:
            raise ValueError("range schedule bounds must satisfy 1 <= a <= b")
        _check_length(b, "schedule")
        return list(range(a, b + 1))
    out = [num(part) for part in text.split(",") if part.strip()]
    if not out or any(n < 1 for n in out):
        raise ValueError("schedule entries must be integers >= 1")
    _check_length(max(out), "schedule")
    return out


def _sequence_spec(args) -> IntPolynomial:
    """The sequence's polynomial: the parsed expression, or A*x + B for --linear A B."""
    if args.linear is not None and args.poly is not None:
        raise ValueError("give either a polynomial or --linear, not both")
    if args.linear is not None:
        a, b = args.linear
        return IntPolynomial((b, a))
    if args.poly is None:
        raise ValueError("a polynomial expression or --linear a b is required")
    return parse_poly(args.poly)


@contextlib.contextmanager
def _out_stream(args):
    """The --out file (closed afterwards), or stdout for no --out and "-"."""
    if args.out and args.out != "-":
        try:
            stream = open(args.out, "w", newline="")
        except OSError as exc:
            raise ValueError(f"cannot write --out {args.out}: {exc.strerror}") from None
        with stream:
            yield stream
    else:
        yield sys.stdout


# json.dumps serves indent=2 only with its pure-Python encoder; the C encoder,
# called without indent, writes the same scalar tokens.  Items are parted by
# "\x00", which ensure_ascii escapes inside every string.
_ENCODE = json.JSONEncoder(separators=("\x00", ": "), check_circular=False).encode


def _json(obj, pad: str = "\n") -> str:
    """obj as json.dumps(obj, indent=2) writes it, ``pad`` being the newline
    and indent of the line obj starts on."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        return _ENCODE(obj)
    inner = pad + "  "
    if isinstance(obj, dict):
        items, brackets = [f"{encode_basestring_ascii(k)}: {_json(v, inner)}"
                           for k, v in obj.items()], "{}"
    else:
        items, brackets = [_json(v, inner) for v in obj], "[]"
    if not items:
        return brackets
    return brackets[0] + inner + ("," + inner).join(items) + pad + brackets[1]


def _emit_rows(args, header: list[str] | tuple[str, ...], rows: list[list], command: str) -> None:
    if args.format == "json":
        text = "[]"
        if rows:
            # every cell in one encoder call, laid into one template per row
            cells = _ENCODE(list(chain.from_iterable(rows)))[1:-1].split("\x00")
            row = "{" + ",".join("\n      " + encode_basestring_ascii(key).replace("%", "%%")
                                 + ": %s" for key in header) + "\n    }"
            text = "[\n    " + (",\n    ".join(repeat(row, len(rows))) % tuple(cells)) + "\n  ]"
        _emit_json(args, command, {"rows": text})
        return
    with _out_stream(args) as stream:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _emit_json(args, command: str, body: dict[str, str]) -> None:
    """Write {"schema_version", "command", **body} as json.dumps(..., indent=2)
    does; body's values come encoded, as by ``_json(value, "\\n  ")``."""
    fields = {"schema_version": _json(SCHEMA_VERSION), "command": _json(command), **body}
    text = ",".join(f"\n  {encode_basestring_ascii(key)}: {value}" for key, value in fields.items())
    with _out_stream(args) as stream:
        stream.write("{" + text + "\n}\n")


# --------------------------------------------------------------------------
# Subcommands
# --------------------------------------------------------------------------

def cmd_classify(args) -> int:
    if args.poly is None:
        raise ValueError("a polynomial expression is required")
    p = args.p
    f = parse_poly(args.poly)
    brute = classify_low_discrepancy(f, p)
    reduction = None
    divergence = None
    if p >= 3:
        formula = classify_via_reduction(f, p)
        reduction = {
            "value_poly": render(unit_value_poly(f, p)),
            "derivative_poly": render(unit_value_poly(derivative(f), p)),
            "verdict": formula.as_dict(),
        }
        divergence = formula.low_discrepancy != brute.low_discrepancy
    payload = {
        "p": p,
        "polynomial": render(f),
        "coefficients": list(f.coeffs),
        "brute_force": brute.as_dict(),
        "noebauer": noebauer_mod_p2(f, p).as_dict(),
        "unit_reduction": reduction,
        "divergence": divergence,
    }
    if args.format == "csv":
        missing = brute.missing_residue or (None, None)
        row = [
            p, render(f), brute.low_discrepancy, brute.perm_mod_p, brute.perm_mod_p2,
            brute.derivative_root, missing[0], missing[1],
            None if reduction is None else reduction["verdict"]["low_discrepancy"],
            divergence,
        ]
        _emit_rows(args, CLASSIFY_COLUMNS, [row], "classify")
    else:
        _emit_json(args, "classify", {key: _json(value, "\n  ") for key, value in payload.items()})
    return EXIT_OK


def cmd_generate(args) -> int:
    from .sequence import poly_sequence
    f = _sequence_spec(args)
    N = args.n
    if N < 1:
        raise ValueError("--n must be >= 1")
    _check_length(N, "--n")
    p, K = args.p, args.K
    values = poly_sequence(f, N)
    if args.mode == "digits":
        if K is None:
            raise ValueError("--K is required for digit output")
        _check_digits(K, values, p)
        header = ["n"] + [f"digit_{i}" for i in range(K)]
        rows = [[n, *digits] for n, digits in enumerate(digit_expansions(values, p, K), 1)]
    elif args.mode == "monna":
        _check_digits(K, values, p)
        images = digit_reversals(values, p, K)
        _check_printable((den for _, den in images), "monna", K)  # each num is below its den
        header = ["n", "monna"]
        rows = [[n, f"{num}/{den}"] for n, (num, den) in enumerate(images, 1)]
    else:
        _check_printable(values, "value")
        header = ["n", "value"]
        rows = [[n, v] for n, v in enumerate(values, 1)]
    _emit_rows(args, header, rows, "generate")
    return EXIT_OK


def _certified(f: IntPolynomial, p: int, schedule: list[int]) -> bool:
    """Whether f is a certified low-discrepancy sequence at p with p^2 <= max N.

    Such an f permutes every Z/p^k, so ``discrepancy`` and ``paircorr`` rows
    follow from closed forms with no values.  The certificate is
    ``classify_low_discrepancy``'s (a broken invariant exits 2); its
    enumeration mod p^2 costs no more than the N values it replaces, and a
    verdict that f is not low-discrepancy, checked by one collision mod p^2,
    costs O(p * deg f).
    """
    return p * p <= max(schedule) and classify_low_discrepancy(f, p).low_discrepancy


def cmd_discrepancy(args) -> int:
    from .discrepancy import prefix_discrepancy_rows
    from .sequence import poly_sequence
    f = _sequence_spec(args)
    schedule = parse_schedule(args.N, args.p)
    header = ["N", "D_N", "N_times_D_N", "witness_level", "witness_residue",
              "separation_depth", "D_N_approx"]
    values = None if _certified(f, args.p, schedule) else poly_sequence(f, max(schedule))
    rows = {}
    for N, num, den, level, residue, depth in prefix_discrepancy_rows(values, args.p, schedule):
        a, b = _reduced(num, den)
        h = gcd(N, b)
        rows[N] = [N, f"{a}/{b}", f"{N // h * a}/{b // h}", level,
                   "" if residue is None else residue, depth, a / b]
    _emit_rows(args, header, [rows[N] for N in schedule], "discrepancy")
    return EXIT_OK


def cmd_paircorr(args) -> int:
    from .paircorr import ppc_sweep
    from .sequence import poly_sequence
    f = _sequence_spec(args)
    schedule = parse_schedule(args.N, args.p)
    alpha = parse_fraction(args.alpha)
    s_list = [parse_fraction(s) for s in args.s.split(",")]
    values = None if _certified(f, args.p, schedule) else poly_sequence(f, max(schedule))
    rows_raw = ppc_sweep(values, args.p, alpha, s_list, schedule)
    header = ["N", "s", "F", "F_approx"]
    rows = [[N, _frac(s), _frac(F), float(F)] for N, s, F in rows_raw]
    _emit_rows(args, header, rows, "paircorr")
    return EXIT_OK


def cmd_verify_tables(args) -> int:
    from .catalog import dickson_entries, verification_primes, verify_entry
    which = args.which
    entries = [e for e in dickson_entries()
               if e.source_table == (1 if which == "lds" else 2)
               and (which != "derivatives" or e.expected_derivative_roots is not None
                    or e.derivative_root_exists is not None)]

    if args.dump:
        if args.format == "csv":
            raise ValueError("--dump writes JSON only; --format csv does not apply")
        _emit_json(args, "verify-tables", {"dump": _json([e.as_dict() for e in entries], "\n  ")})
        return EXIT_OK

    if args.p is not None:  # refused before any row, at classify's cap
        _check_enumeration(args.p * args.p, "p^2")
    failures: list[str] = []
    report_rows: list[list] = []
    for entry in entries:
        if args.p is not None:
            primes = (args.p,) if entry.matches_prime(args.p) else ()
        else:
            primes = verification_primes(entry)
        for q in primes:
            ver = verify_entry(entry, q)
            status = "ok" if ver.ok else "FAIL"
            if not entry.asserted:
                status = "info"
            roots = sorted({r for res in ver.results for r in res.derivative_roots})
            report_rows.append([
                entry.name, entry.source_table, q, entry.sign_variant or "",
                len(ver.results), ",".join(map(str, roots)), status,
                "; ".join(ver.failures + ver.notes),
            ])
            failures.extend(ver.failures)
    header = ["entry", "table", "p", "signs", "parameters", "derivative_roots",
              "status", "detail"]
    _emit_rows(args, header, report_rows, "verify-tables")
    return EXIT_VERIFICATION if failures else EXIT_OK


def cmd_search(args) -> int:
    from .catalog import SearchConstraints, exhaustive_search, match_against_table
    constraints = SearchConstraints(
        monic=args.monic,
        zero_constant=args.zero_constant,
        nonzero_linear=args.nonzero_linear,
    )
    found = exhaustive_search(args.p, args.degree, constraints)
    report = match_against_table(found, args.p)
    category = report.category_of()
    header = ["degree", "polynomial", "category"]
    rows = [[f.degree, render(f), category[f.coeffs]] for f in found]
    _emit_rows(args, header, rows, "search")
    return EXIT_VERIFICATION if report.unexplained else EXIT_OK


def cmd_bridge(args) -> int:
    from .discrepancy import _meijer, prefix_discrepancy_rows, prefix_real_discrepancy_rows
    from .sequence import poly_sequence
    f = _sequence_spec(args)
    p, K = args.p, args.K
    schedule = parse_schedule(args.N, p)
    values = poly_sequence(f, max(schedule))
    _check_digits(K, values, p)
    images = digit_reversals(values, p, K)
    # every denominator is a power of p, so the largest is a common one
    Q = max(den for _, den in images)
    scaled = [num * (Q // den) for num, den in images]
    reals = {N: _reduced(n, d) for N, n, d in prefix_real_discrepancy_rows(scaled, Q, schedule)}
    _check_printable((reals[N][1] for N in schedule), "d_N", K)  # each d_N <= 1
    deltas = {N: _reduced(n, d) for N, n, d, *_ in prefix_discrepancy_rows(values, p, schedule)}
    header = ["N", "delta_N", "d_N", "upper", "holds"]
    rows = []
    for N in schedule:
        (a, b), (c, e) = deltas[N], reals[N]
        holds, upper = _meijer(a, b, c, e, p)
        rows.append([
            N, f"{a}/{b}", f"{c}/{e}", repr(upper),
            "indeterminate" if holds is None else str(holds).lower(),
        ])
    _emit_rows(args, header, rows, "bridge")
    return EXIT_OK


# --------------------------------------------------------------------------
# Parser assembly
# --------------------------------------------------------------------------

def _add_common(sp, linear: bool = True, fmt_default: str = "csv") -> None:
    sp.add_argument("--p", type=_int, required=True, help="prime base")
    sp.add_argument("poly", nargs="?", default=None,
                    help='polynomial, e.g. "x^3+x" or "[1,0,1,0]"')
    if linear:
        sp.add_argument("--linear", nargs=2, type=_int, metavar=("A", "B"),
                        help="linear sequence n*A + B instead of a polynomial")
    sp.add_argument("--format", choices=("json", "csv"), default=fmt_default,
                    help=f"output format (default {fmt_default})")
    sp.add_argument("--out", default=None, help="output path (default stdout)")


@functools.lru_cache(maxsize=None)
def build_parser() -> _Parser:
    parser = _Parser(prog="padiclds", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    sp = sub.add_parser(
        "classify", help="classify a polynomial at a prime",
        description=f"CSV columns: {', '.join(CLASSIFY_COLUMNS)}.",
    )
    _add_common(sp, linear=False, fmt_default="json")
    sp.set_defaults(func=cmd_classify)

    sp = sub.add_parser(
        "generate", help="emit sequence values",
        description="CSV columns: n plus the payload -- digit_0..digit_{K-1} "
                    "(mode digits), monna (exact fraction, mode monna), or value "
                    "(mode integers).",
    )
    _add_common(sp)
    sp.add_argument("--n", type=_int, required=True, help="number of terms")
    sp.add_argument("--K", type=_int, default=None, help="digit precision")
    sp.add_argument("--mode", choices=("digits", "monna", "integers"),
                    default="integers")
    sp.set_defaults(func=cmd_generate)

    sp = sub.add_parser(
        "discrepancy", help="exact p-adic discrepancy over a schedule",
        description="CSV columns: N, D_N (exact fraction), N_times_D_N, "
                    "witness_level (ball depth or 'tail'), witness_residue, "
                    "separation_depth, D_N_approx (decimal convenience).",
    )
    _add_common(sp)
    sp.add_argument("--N", required=True,
                    help='schedule: "a..b", "a,b,c", or "pk:k1..k2" (powers of p)')
    sp.set_defaults(func=cmd_discrepancy)

    sp = sub.add_parser(
        "paircorr", help="pair-correlation statistic sweep",
        description="CSV columns: N, s (fraction), F (exact fraction), "
                    "F_approx (decimal convenience).",
    )
    _add_common(sp)
    sp.add_argument("--N", required=True, help="N schedule")
    sp.add_argument("--alpha", required=True, help='exponent as a rational "u/v"')
    sp.add_argument("--s", required=True, help="comma-separated list of rational radii")
    sp.set_defaults(func=cmd_paircorr)

    sp = sub.add_parser(
        "verify-tables", help="re-derive the catalog tables",
        description="CSV columns: entry, table, p, signs, parameters, "
                    "derivative_roots, status (ok/FAIL/info), detail. "
                    "Exits 2 when any asserted row fails.",
    )
    sp.add_argument("--which", choices=("dickson", "derivatives", "lds"), required=True)
    sp.add_argument("--p", type=_int, default=None, help="restrict to one prime")
    sp.add_argument("--dump", action="store_true", help="dump table data as JSON")
    sp.add_argument("--format", choices=("json", "csv"))  # None: CSV, or JSON under --dump
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_verify_tables)

    sp = sub.add_parser(
        "search", help="exhaustive low-discrepancy generator search",
        description="CSV columns: degree, polynomial, category (table1 / "
                    "prop_family / affine / linear / unexplained). "
                    "Exits 2 when unexplained generators exist.",
    )
    sp.add_argument("--p", type=_int, required=True)
    sp.add_argument("--degree", type=_int, required=True, help="maximum degree")
    sp.add_argument("--monic", action="store_true")
    sp.add_argument("--zero-constant", dest="zero_constant", action="store_true")
    sp.add_argument("--nonzero-linear", dest="nonzero_linear", action="store_true")
    sp.add_argument("--format", choices=("json", "csv"), default="csv")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_search)

    sp = sub.add_parser(
        "bridge", help="p-adic vs real discrepancy transfer table",
        description="CSV columns: N, delta_N (p-adic, exact), d_N (real, exact), "
                    "upper (float bound), holds (true/false/indeterminate).",
    )
    _add_common(sp)
    sp.add_argument("--N", required=True, help="N schedule")
    sp.add_argument("--K", type=_int, default=None,
                    help="truncation precision for the digit-reversal map")
    sp.set_defaults(func=cmd_bridge)

    return parser


def _plain_args(parser, argv):
    """``parser.parse_args(argv)`` for argv of the plain shape, read off the
    parser's own actions: a subcommand, then whole option strings of that
    subcommand, each at most once and with exactly its nargs values, none
    starting with "-", every required one present, and at most one positional,
    bare or as the one token after a final "--".  argparse's ``_get_values``
    converts and checks each value, and each action stores its own.  None for
    any other argv (help, "--opt=value", abbreviations, negative values,
    repeats, a value argparse refuses), which argparse then parses.
    """
    sub = parser._subparsers._group_actions[0]
    try:  # LookupError: no subcommand, an unknown one, or a required action missing
        sp, given, tokens = sub.choices[argv[0]], {}, iter(argv[1:])
        for token in tokens:
            action = sp._option_string_actions.get(token)  # None: the positional
            n = 1 if action is None or action.nargs is None else action.nargs
            # "--" takes every token left, which must be just one
            strings = ([*tokens] if token == "--" else [token] if action is None
                       else [*islice(tokens, n)])
            # no value may start with "-", nor the positional after "--" with "--"
            if action in given or len(strings) != n or any(
                    s.startswith("--" if token == "--" else "-") for s in strings):
                return None
            given[action] = strings
        args = argparse.Namespace(**{sub.dest: argv[0]}, **sp._defaults)
        for action in sp._actions[1:]:  # [0] is help: left in given, it is refused
            key = action.option_strings and action or None
            if action.required or key in given:
                action(sp, args, sp._get_values(action, given.pop(key)))
            else:
                setattr(args, action.dest, action.default)
    except (LookupError, argparse.ArgumentError):
        return None
    return None if given else args


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _plain_args(parser, argv) or parser.parse_args(argv)
    try:
        if getattr(args, "p", None) is not None:
            check_prime(args.p)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout early (`| head`): what is left goes to
        # devnull, so the flush at exit does not raise again.
        sys.stdout = open(os.devnull, "w")
        return EXIT_USAGE
    except ValueError as exc:
        print(f"padiclds: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InvariantError as exc:
        print(f"padiclds: error: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION


if __name__ == "__main__":
    sys.exit(main())
