"""The CLI against the benchmark's independent oracles, in-process.

Every job of the four benchmark workloads at one seed, and every
``verify-tables`` selection, runs through ``padiclds.cli.main``; each answer
is checked by ``perfbench/oracles.py``, which derives it without importing
padiclds.  The catalog's rows are also built at every verification prime and
admissible parameter and compared with the oracles' own encoding of the
tables.  The same jobs must reach ``main`` without calling argparse, which
only other argv (help, refusals, unusual spellings) reaches.  ``perfbench/``
is imported, never changed.
"""

import contextlib
import io
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench"))

from jobs import WORKLOADS, make_jobs  # noqa: E402
from oracles import catalog_rows, check, parameters, prime_matches, reference, trim  # noqa: E402

from padiclds import cli  # noqa: E402
from padiclds.catalog import dickson_entries, verification_primes  # noqa: E402

SEED = 100
VERIFY_PRIMES = (None, 2, 3, 5, 7, 11, 13)


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue()


def assert_oracle_agrees(argv, spec):
    reason = check(spec, reference(spec), *run(argv))
    assert reason is None, f"{reason}: padiclds {' '.join(argv)}"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_jobs_match_the_oracles(workload):
    for job in make_jobs(workload, SEED):
        assert_oracle_agrees(job["argv"], job["spec"])


@pytest.mark.parametrize("which", ("dickson", "derivatives", "lds"))
def test_verify_tables_selections_match_the_oracles(which):
    for p in VERIFY_PRIMES:
        argv = ["verify-tables", "--which", which] + (["--p", str(p)] if p else [])
        assert_oracle_agrees(argv, {"cmd": "verify-tables", "which": which, "p": p})


def test_row_builds_match_the_oracle_rows():
    rows = {(row[0], row[1]): row for row in catalog_rows()}
    assert len(rows) == len(dickson_entries())
    for entry in dickson_entries():
        name, _, spec, pred, build, roots, exists, signs, asserted = rows[
            entry.name, entry.source_table]
        assert (spec, pred, roots, exists, signs or None, asserted) == (
            entry.prime_spec, entry.parameter_predicate, entry.expected_derivative_roots,
            entry.derivative_root_exists, entry.sign_variant, entry.asserted), name
        for p in verification_primes(entry):
            assert prime_matches(spec, p)
            for a in parameters(pred, p):
                assert entry.build(a, p).coeffs == tuple(trim(build(a, p))), (name, p, a)


# argv that argparse parses, not the table path: help, --opt=value, an
# abbreviation, a negative value, a repeat, a failed int(), a bad choice, an
# extra positional, a missing required option, and "--" not followed by one
# last positional
FALLBACKS = [
    ["classify", "--p", "3", "-h"],
    ["search", "--help"],
    ["search", "--p", "3", "--degree=2"],
    ["search", "--p", "3", "--deg", "2"],
    ["discrepancy", "--p", "3", "--linear", "-2", "3", "--N", "1..4"],
    ["classify", "--p", "3", "--p", "5", "--", "x"],
    ["classify", "--p", "x", "--", "x"],
    ["classify", "--p", "3", "--format", "xml", "--", "x"],
    ["classify", "--p", "3", "x", "--", "y"],
    ["discrepancy", "--p", "3", "--", "x"],
    ["search", "--p", "3", "--degree", "2", "--"],
    ["classify", "--p", "3", "--", "x", "y"],
]


@pytest.fixture
def parse_args_calls(monkeypatch):
    """The argv of every ``_Parser.parse_args`` call, with each command's
    function stubbed out, so that ``main`` returns as soon as it has parsed."""
    calls = []
    parse_args = cli._Parser.parse_args
    monkeypatch.setattr(cli._Parser, "parse_args",
                        lambda self, args=None, namespace=None: calls.append(args)
                        or parse_args(self, args, namespace))
    for sp in cli.build_parser()._subparsers._group_actions[0].choices.values():
        monkeypatch.setitem(sp._defaults, "func", lambda args: 0)
    return calls


def test_benchmark_jobs_are_parsed_without_argparse(parse_args_calls):
    argvs = [job["argv"] for workload in WORKLOADS for job in make_jobs(workload, SEED)]
    argvs += [["verify-tables", "--which", which] + (["--p", str(p)] if p else [])
              for which in ("dickson", "derivatives", "lds") for p in VERIFY_PRIMES]
    for argv in argvs:
        assert run(argv)[0] == 0, argv
    assert parse_args_calls == []


@pytest.mark.parametrize("argv", FALLBACKS)
def test_other_argv_is_parsed_by_argparse(parse_args_calls, argv):
    run(argv)
    assert parse_args_calls == [argv]
