"""Mutation gate: each row breaks one engine, and the tests it names must fail.

A row of ``MUTANTS`` gives a file of the repository, an exact old text, which
must occur in that file exactly once, a new text, and a pytest selection.
The repository is copied into a temporary directory, and the unmutated copy
must first pass every selection.  Then, row by row, the edit is applied to
the copy, the row's selection runs up to its first failure, and the edit is
undone.  A mutant is killed when its selection fails.

One line per row gives its outcome (the first failing test of a killed
mutant) and its run time; a last line gives the count and the total time.
The exit status is 1 on a surviving mutant, on an old text that does not
occur exactly once, and on an unmutated copy that fails; otherwise 0.
Stdlib only; pytest runs in a subprocess.

Usage:
    python3 tools/mutants.py
"""

from __future__ import annotations

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = pathlib.Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    selection: tuple[str, ...]


VERIFY = ("tests/test_catalog.py::TestVerifyEntry",)
SEARCH = ("tests/test_catalog.py::TestExhaustiveSearch",)
DISCREPANCY = ("tests/test_discrepancy.py",)
CLI = ("tests/test_cli.py",)
PLAIN_ARGV = ("tests/test_properties.py::test_plain_argv_parses_as_argparse_does",)
PARSE = ("tests/test_polynomials.py::TestParse",)

MUTANTS = (
    # the permutation test mod p read off the level-2 field: the two differ
    # only where f' has a root mod p
    Mutant("verify: perm_mod_p2 read for perm_mod_p", "src/padiclds/catalog.py",
           "ParameterResult(a, f, verdict.perm_mod_p, roots, lds)",
           "ParameterResult(a, f, verdict.perm_mod_p2, roots, lds)", VERIFY),
    Mutant("verify: roots never scanned", "src/padiclds/catalog.py",
           "roots = () if verdict.derivative_root is None else",
           "roots = () if verdict else", VERIFY),
    Mutant("verify: Table-2 rows classified", "src/padiclds/catalog.py",
           "lds = verdict.low_discrepancy if entry.source_table == 1 else None",
           "lds = verdict.low_discrepancy", VERIFY),
    Mutant("verify: a row built with a^(k+1)", "src/padiclds/catalog.py",
           "coeffs[e] = c * a ** k % p",
           "coeffs[e] = c * a ** (k + 1) % p", ("tests/test_catalog.py",)),
    Mutant("_horner: constant term dropped", "src/padiclds/polynomials.py",
           "    rev = coeffs[::-1]\n    for x in xs:",
           "    rev = [*coeffs[:0:-1], 0]\n    for x in xs:",
           ("tests/test_polynomials.py::TestEvalMod",)),
    Mutant("eval_mod: modulus 0 accepted", "src/padiclds/polynomials.py",
           "        raise ValueError(\"modulus must be >= 1\")\n    return next(",
           "        pass\n    return next(",
           ("tests/test_polynomials.py::TestEvalMod",)),
    # the term reader's error positions, its digit runs, its exponent bound,
    # and the list reader's positions in the text as typed
    Mutant("parse: dangling sign one to the left", "src/padiclds/polynomials.py",
           'PolyParseError("dangling sign", j)',
           'PolyParseError("dangling sign", j - 1)', PARSE),
    Mutant("parse: expected term one to the right", "src/padiclds/polynomials.py",
           "found {text[j]!r}\", j)",
           "found {text[j]!r}\", j + 1)", PARSE),
    Mutant("parse: empty expression always at 0", "src/padiclds/polynomials.py",
           'PolyParseError("empty polynomial expression", i)',
           'PolyParseError("empty polynomial expression", 0)', PARSE),
    Mutant("parse: digit runs not widened to isdigit", "src/padiclds/polynomials.py",
           "while end < len(text) and text[end].isdigit():",
           "while False:", PARSE),
    Mutant("parse: exponent bound > read as >=", "src/padiclds/polynomials.py",
           "if power > MAX_EXPONENT:",
           "if power >= MAX_EXPONENT:", PARSE),
    Mutant("parse: list offsets in the stripped text", "src/padiclds/polynomials.py",
           "s = text.rstrip()",
           "s = text.strip()", PARSE),
    Mutant("_image: fibre classes mod q unchecked", "src/padiclds/polynomials.py",
           "one_to_one = S.count(q) == q and len(set(map(mod, A, repeat(q)))) == q",
           "one_to_one = S.count(q) == q",
           ("tests/test_polynomials.py::TestSquareRows",)),
    Mutant("_fibre_witness: always adds p", "src/padiclds/permcheck.py",
           "min(hit % p if hit >= p else hit + p for hit in hits)",
           "min(hit % p + p for hit in hits)",
           ("tests/test_permcheck.py::TestFibreWitness",)),
    Mutant("Noebauer: no root condition", "src/padiclds/permcheck.py",
           "ok = perm_p and root is None",
           "ok = perm_p", ("tests/test_permcheck.py::TestNoebauer",)),
    Mutant("search: B not checked against A'", "src/padiclds/catalog.py",
           "pbs = [pb for vb, pb in bs if all(map(ne, vb, dh))]",
           "pbs = [pb for vb, pb in bs]", SEARCH),
    # the Noebauer rule of the search read as A' + B in place of A' - B
    Mutant("search: B checked against -A'", "src/padiclds/catalog.py",
           "pbs = [pb for vb, pb in bs if all(map(ne, vb, dh))]",
           "pbs = [pb for vb, pb in bs if all(map(ne, vb, bytes(-v % p for v in dh)))]",
           SEARCH),
    Mutant("search: confirmation skipped", "src/padiclds/catalog.py",
           "            _confirm(is_permutation_mod(f, p * p), f, p)",
           "            pass", SEARCH),
    Mutant("p-adic rows: a level term one count too large", "src/padiclds/discrepancy.py",
           "term, low = lv.maxc * pk - N, N - lv.minc * pk",
           "term, low = lv.maxc * pk - N + 1, N - lv.minc * pk", DISCREPANCY),
    Mutant("p-adic rows: witness residue moved by one", "src/padiclds/discrepancy.py",
           "residue = min(residue, r)",
           "residue = min(residue, r + 1)", DISCREPANCY),
    Mutant("p-adic rows: depth one short on one shared class", "src/padiclds/discrepancy.py",
           "while len(counts) < len(group):",
           "while len(counts) < len(group) - 1:", DISCREPANCY),
    Mutant("closed form: D_N = 1/(N + 1)", "src/padiclds/discrepancy.py",
           "rows.append((N, 1, N, WITNESS_TAIL, None, k))",
           "rows.append((N, 1, N + 1, WITNESS_TAIL, None, k))",
           ("tests/test_discrepancy.py::TestPrefixDiscrepancies",)),
    Mutant("real rows: (i-1)/N read as i/N", "src/padiclds/discrepancy.py",
           "under = max(map(sub, scaled, range(0, N * Q, Q)))",
           "under = max(map(sub, scaled, range(Q, (N + 1) * Q, Q)))", DISCREPANCY),
    Mutant("Meijer: bound with 1 in place of 2", "src/padiclds/discrepancy.py",
           "upper = deltaf * (2.0 + ",
           "upper = deltaf * (1.0 + ", ("tests/test_discrepancy.py::TestMeijerBound",)),
    Mutant("paircorr: bulk sum keeps the old squares", "src/padiclds/paircorr.py",
           "squares += sum(map(mul, after, after)) - sum(map(mul, before, before))",
           "squares += sum(map(mul, after, after))", ("tests/test_paircorr.py",)),
    Mutant("paircorr: level 0 counts i = j", "src/padiclds/paircorr.py",
           "out[N, k] = N * (N - 1)",
           "out[N, k] = N * N", ("tests/test_paircorr.py",)),
    Mutant("cli: length cap one too high", "src/padiclds/cli.py",
           "    if N > MAX_SEQUENCE_LENGTH:",
           "    if N > MAX_SEQUENCE_LENGTH + 1:", CLI),
    Mutant("cli: JSON indented by one", "src/padiclds/cli.py",
           'inner = pad + "  "',
           'inner = pad + " "', CLI),
    # argparse checks every value of a repeated option, and refuses too few
    Mutant("cli: plain argv takes a repeated option", "src/padiclds/cli.py",
           "if action in given or len(strings) != n or any(",
           "if len(strings) != n or any(", PLAIN_ARGV),
    Mutant("cli: plain argv takes too few values", "src/padiclds/cli.py",
           "if action in given or len(strings) != n or any(",
           "if action in given or any(", PLAIN_ARGV),
)


def run_pytest(tree: pathlib.Path, selection) -> tuple[bool, str]:
    """(whether ``selection`` passed in ``tree``, its first failing test or
    the last line pytest printed)."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-rfE", "-p", "no:cacheprovider",
             *selection], cwd=tree, env=env, capture_output=True, text=True, timeout=600)
    except subprocess.TimeoutExpired:
        return False, "timed out after 600 s"
    lines = proc.stdout.splitlines()
    failed = [line.split()[1] for line in lines if line.startswith(("FAILED ", "ERROR "))]
    return proc.returncode == 0, failed[0] if failed else (lines or ["no output"])[-1]


def main() -> int:
    bad = [m for m in MUTANTS if (ROOT / m.path).read_text().count(m.old) != 1]
    for m in bad:
        print(f"{m.name}: its old text does not occur exactly once in {m.path}")
    if bad:
        return 1
    start = time.perf_counter()
    survivors = 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        tree = pathlib.Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench"))
        passed, detail = run_pytest(tree, dict.fromkeys(s for m in MUTANTS for s in m.selection))
        print(f"unmutated tree: {'passes' if passed else 'FAILS: ' + detail}", flush=True)
        if not passed:
            return 1
        for m in MUTANTS:
            path = tree / m.path
            text = path.read_text()
            path.write_text(text.replace(m.old, m.new))
            t = time.perf_counter()
            try:
                passed, detail = run_pytest(tree, m.selection)
            finally:
                path.write_text(text)
            survivors += passed
            outcome = "SURVIVED" if passed else f"killed by {detail}"
            print(f"{m.name:<48} {outcome}  {time.perf_counter() - t:.1f} s", flush=True)
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed in "
          f"{time.perf_counter() - start:.0f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
