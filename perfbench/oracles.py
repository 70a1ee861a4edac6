"""Reference answers for benchmark jobs, derived without importing padiclds.

Every oracle works from a job's structured spec (the same facts its argv
encodes) and returns the expected exit code and the expected answer in a
canonical form: exact fractions as "num/den" strings in lowest terms, floats
as floats, polynomials as little-endian coefficient lists.  ``check`` parses a
program's stdout into the same form, so answers are compared as values, not
bytes: a relabelled verdict method is not a failure, a changed D_N, a changed
certificate or a missing search hit is.

The oracles use different routes from the package where one exists:

* verdicts and certificates come from Noebauer's criterion, and the mod-p^2
  missing residue from the Hensel fibres of f, not from enumeration mod p^2;
* D_N and its witness come from a scan of every occupied ball plus the
  smallest empty one per level, in integers over one common denominator;
* d_N comes from Niederreiter's sorted-point formula
  1/N + max(i/N - x_i) - min(i/N - x_i);
* F comes from class counting at the threshold level;
* search hits come from a per-candidate Noebauer check of the monic,
  zero-constant forms, expanded by the value-side maps u*f + v (which keep
  both tests), each hit confirmed by enumeration mod p^2; categories come
  from a separate encoding of the catalog tables.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import json
import math
import re
from collections import Counter
from fractions import Fraction

# --------------------------------------------------------------------------
# Polynomials as little-endian integer coefficient lists
# --------------------------------------------------------------------------


def trim(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def peval(cs, x, m=None):
    v = 0
    for c in reversed(cs):
        v = v * x + c
        if m is not None:
            v %= m
    return v


def deriv(cs):
    return [i * c for i, c in enumerate(cs)][1:]


def poly_text(cs) -> str:
    """Expression text such as "3*x^4 - x^2 + 5" (zero polynomial: "0")."""
    parts = []
    for k in range(len(cs) - 1, -1, -1):
        c = cs[k]
        if c == 0:
            continue
        mag = abs(c)
        if k == 0:
            body = str(mag)
        else:
            base = "x" if k == 1 else f"x^{k}"
            body = base if mag == 1 else f"{mag}*{base}"
        if not parts:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append(("+ " if c > 0 else "- ") + body)
    return " ".join(parts) or "0"


def list_text(cs) -> str:
    """Degree-descending coefficient list such as "[1,0,-2,0]"."""
    return "[" + ",".join(str(c) for c in reversed(cs)) + "]"


_TERM = re.compile(r"\s*([+-])?\s*(\d+)?\s*\*?\s*(x(?:\s*\^\s*(\d+))?)?\s*")


def parse_text(text: str) -> list[int]:
    """Parse poly_text/list_text output (and the package's rendering)."""
    s = text.strip()
    if s.startswith("["):
        body = s[1:-1].strip()
        return trim(reversed([int(t) for t in body.split(",")])) if body else []
    terms: dict[int, int] = {}
    pos = 0
    while pos < len(s):
        m = _TERM.match(s, pos)
        if not m or m.end() == pos or not (m.group(2) or m.group(3)):
            raise ValueError(f"cannot parse polynomial {text!r}")
        sign = -1 if m.group(1) == "-" else 1
        coef = int(m.group(2)) if m.group(2) else 1
        power = 0 if not m.group(3) else int(m.group(4) or 1)
        terms[power] = terms.get(power, 0) + sign * coef
        pos = m.end()
    if not terms:
        return []
    return trim(terms.get(k, 0) for k in range(max(terms) + 1))


def compose_affine(cs, c, d, p):
    """g(c*x + d) mod p, by binomial expansion of each power."""
    out = [0] * max(len(cs), 1)
    for k, g in enumerate(cs):
        for j in range(k + 1):
            out[j] = (out[j] + g * math.comb(k, j) * pow(c, j, p) * pow(d, k - j, p)) % p
    return trim(out)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % q for q in range(2, math.isqrt(n) + 1))


def frac(x) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


# --------------------------------------------------------------------------
# Verdicts: Noebauer's criterion and the unit-group folding
# --------------------------------------------------------------------------


def smallest_missing(image, m):
    for z in range(m):
        if z not in image:
            return z
    return None


def smallest_root(cs, p):
    for x in range(p):
        if peval(cs, x, p) == 0:
            return x
    return None


def verdict(cs, p):
    """Ground-truth verdict fields via Noebauer's criterion.

    A permutation mod p whose derivative has a root r mod p misses, mod p^2,
    every lift of f(r) mod p except f(r) mod p^2 (the fibre r + t*p maps to
    f(r) + t*p*f'(r) = f(r)); all other classes are covered.
    """
    image = {peval(cs, x, p) for x in range(p)}
    perm_p = len(image) == p
    df = deriv(cs)
    root = smallest_root(df, p)
    perm_p2 = perm_p and root is None
    if not perm_p:
        missing = [1, smallest_missing(image, p)]
    elif not perm_p2:
        pp = p * p
        candidates = []
        for r in range(p):
            if peval(df, r, p) == 0:
                hit = peval(cs, r, pp)
                base = hit % p
                candidates.append(base if base != hit else base + p)
        missing = [2, min(candidates)]
    else:
        missing = None
    return {
        "low_discrepancy": perm_p and perm_p2,
        "perm_mod_p": perm_p,
        "perm_mod_p2": perm_p2,
        "derivative_root": root,
        "missing_residue": missing,
    }


def noebauer_fields(cs, p):
    v = verdict(cs, p)
    if v["missing_residue"] and v["missing_residue"][0] == 2:
        v["missing_residue"] = None  # the mod-p route certifies level 1 only
    return v


def folded_constants(cs, p):
    """Constant terms of the unit-group foldings of f and f' (values at 0)."""
    val0 = sum(cs[0::p - 1]) % p
    der0 = sum((1 - j) * c for j, c in enumerate(cs[1::p - 1])) % p
    return val0, der0


def reduction_fields(cs, p):
    """Verdict read off the foldings: they agree with f, f' at units only."""
    val0, der0 = folded_constants(cs, p)
    image = {val0} | {peval(cs, x, p) for x in range(1, p)}
    perm = len(image) == p
    df = deriv(cs)
    root = 0 if der0 == 0 else next((x for x in range(1, p) if peval(df, x, p) == 0), None)
    ok = perm and root is None
    return {
        "low_discrepancy": ok,
        "perm_mod_p": perm,
        "perm_mod_p2": ok,
        "derivative_root": root,
        "missing_residue": None if perm else [1, smallest_missing(image, p)],
    }


def folding_ok(text, cs, p, value0):
    """A rendered folding has degree <= p-2, coefficients in [0, p), agrees
    with cs at every unit and takes value0 at 0."""
    g = parse_text(text)
    if len(g) > p - 1 or any(not 0 <= c < p for c in g):
        return False
    if peval(g, 0, p) != value0:
        return False
    return all(peval(g, x, p) == peval(cs, x, p) for x in range(1, p))


VERDICT_KEYS = ("low_discrepancy", "perm_mod_p", "perm_mod_p2", "derivative_root",
                "missing_residue")


def classify_answer(cs, p):
    brute = verdict(cs, p)
    red = reduction_fields(cs, p) if p >= 3 else None
    return {
        "p": p,
        "coefficients": trim(cs),
        "brute_force": brute,
        "noebauer": noebauer_fields(cs, p),
        "unit_reduction": red,
        "divergence": None if red is None else red["low_discrepancy"] != brute["low_discrepancy"],
    }


# --------------------------------------------------------------------------
# Discrepancies, digit reversal, pair correlation
# --------------------------------------------------------------------------


def separation(values, p):
    distinct = set(values)
    k = 1
    while len({v % p ** k for v in distinct}) < len(distinct):
        k += 1
    return k


def ball_scan(values, p):
    """(D_N, witness level, witness residue, separation depth).

    Scans levels 1..sep+1, every occupied ball and the smallest empty one per
    level, then the tail c*/N, in integers scaled by N * p^L.  Deeper balls
    cannot win: a deeper empty ball is smaller than a shallower one, and an
    occupied one stays below its multiplicity over N, which the tail covers.
    Ties go to the smaller level, then the smaller residue, the tail last.
    """
    N = len(values)
    sep = separation(values, p)
    L = sep + 1
    best, level, residue = -1, None, None
    for k in range(1, L + 1):
        pk = p ** k
        w = p ** (L - k)
        counts = Counter(v % pk for v in values)
        terms = {r: abs(c * pk - N) * w for r, c in counts.items()}
        if len(counts) < pk:
            r = smallest_missing(counts, pk)
            terms[r] = N * w
        for r in sorted(terms):
            if terms[r] > best:
                best, level, residue = terms[r], k, r
    tail = max(Counter(values).values()) * p ** L
    if tail > best:
        best, level, residue = tail, "tail", None
    return Fraction(best, N * p ** L), level, residue, sep


def reversal(v, p, K=None):
    """Digit-reversal image of v as (numerator, p^K)."""
    if K is None:
        K = 1
        while p ** K <= v:
            K += 1
    v %= p ** K
    num = 0
    for _ in range(K):
        num = num * p + v % p
        v //= p
    return num, p ** K


def real_discrepancy(values, p):
    """Niederreiter's sorted-point formula on the digit-reversal images."""
    images = [reversal(v, p) for v in values]
    Q = max(den for _, den in images)
    xs = sorted(num * (Q // den) for num, den in images)
    N = len(xs)
    gaps = [i * Q - N * x for i, x in enumerate(xs, start=1)]
    return Fraction(Q + max(gaps) - min(gaps), N * Q)


def meijer(delta, d, p):
    upper = float(delta) * (2.0 + (2.0 * (p - 1) / math.log(p)) * math.log(1.0 / float(delta)))
    if not delta < d:
        return "false", upper
    if abs(float(d) - upper) <= 1e-9:
        return "indeterminate", upper
    return ("true" if float(d) < upper else "false"), upper


def threshold(s, N, alpha, p):
    u, v = alpha.numerator, alpha.denominator
    k = 0
    while Fraction(N) ** u > s ** v * Fraction(p) ** (k * v):
        k += 1
    return k


def f_stat(values, p, alpha, s):
    N = len(values)
    k = threshold(s, N, alpha, p)
    classes = Counter(v % p ** k for v in values)
    pairs = sum(m * (m - 1) for m in classes.values())
    return Fraction(p ** k * pairs, N * N)


# --------------------------------------------------------------------------
# Catalog tables, encoded separately from the package
# --------------------------------------------------------------------------

FAMILY = "5m+-2"
FAMILY_PRIMES = (2, 3, 7, 13, 17, 23)


def _sg(s):
    return "+" if s > 0 else "-"


def _inv5(a, p):
    return [0, pow(5, -1, p) * a * a % p, 0, a % p, 0, 1]


def catalog_rows():
    """(name, table, prime, predicate, build, roots, root_exists, signs, asserted)."""
    rows = [("x^3 - a*x", 2, 3, "nonsquare", lambda a, p: [0, -a % p, 0, 1], None, None, "", True)]
    for s in (1, -1):
        rows.append((f"x^4 {_sg(s)} 3*x", 2, 7, "none", lambda a, p, s=s: [0, 3 * s % p, 0, 0, 1],
                     {1, 2, 4} if s > 0 else {3, 5, 6}, None, _sg(s), True))
    rows.append(("x^5 - a*x", 2, 5, "not_fourth_power", lambda a, p: [0, -a % p, 0, 0, 0, 1],
                 None, None, "", True))
    for s in (1, -1):
        rows.append((f"x^5 + a*x^3 {_sg(s)} x^2 + 3*a^2*x", 2, 7, "nonsquare",
                     lambda a, p, s=s: [0, 3 * a * a % p, s % p, a % p, 0, 1], None, True, _sg(s), True))
    inverse5 = ("x^5 + a*x^3 + 5^-1*a^2*x", FAMILY, "nonzero", _inv5, None, None, "", True)
    double = ("x^5 + 2*a*x^3 + a^2*x", 5, "nonsquare",
              lambda a, p: [0, a * a % p, 0, 2 * a % p, 0, 1], None, False, "", True)
    sextics = [(f"x^6 {_sg(s)} {c}*x", 11, "none", lambda a, p, s=s, c=c: [0, s * c % p, 0, 0, 0, 0, 1],
                set(), None, _sg(s), True) for c in (2, 4) for s in (1, -1)]
    rows.append((inverse5[0], 2) + inverse5[1:])
    rows.append(("x^5 + a*x^3 + 3*a^2*x", 2, 13, "nonsquare",
                 lambda a, p: [0, 3 * a * a % p, 0, a % p, 0, 1], None, True, "", True))
    rows.append((double[0], 2) + double[1:])
    rows.extend((r[0], 2) + r[1:] for r in sextics)
    for k, pred in ((1, "square"), (4, "nonsquare")):
        lin = 5 if k == 1 else 4
        mid = "" if k == 1 else f"{k}*"
        for s1, s2 in itertools.product((1, -1), repeat=2):
            rows.append((f"x^6 {_sg(s1)} {mid}a^2*x^3 + a*x^2 {_sg(s2)} {lin}*x", 2, 11, pred,
                         lambda a, p, s1=s1, s2=s2, k=k, lin=lin:
                         [0, s2 * lin % p, a % p, s1 * k * a * a % p, 0, 0, 1],
                         None, True if s1 == s2 else None, _sg(s1) + _sg(s2), s1 == s2))
    rows.append((double[0], 1) + double[1:])
    rows.extend((r[0], 1) + r[1:] for r in sextics)
    rows.append((inverse5[0], 1) + inverse5[1:])
    return rows


def prime_matches(spec, p):
    return p == spec if isinstance(spec, int) else (p != 5 and p % 5 in (2, 3))


def parameters(pred, p):
    units = range(1, p)
    if pred == "none":
        return [0]
    if pred == "nonzero":
        return list(units)
    if pred == "not_fourth_power":
        fourths = {pow(y, 4, p) for y in units}
        return [a for a in units if a not in fourths]
    squares = {y * y % p for y in units}
    return [a for a in units if (a in squares) == (pred == "square")]


def roots_mod(cs, p):
    df = deriv(cs)
    return [x for x in range(p) if peval(df, x, p) == 0]


def verify_tables_answer(which, only_p):
    rows, failed = [], False
    for name, table, spec, pred, build, roots, exists, signs, asserted in catalog_rows():
        if which == "dickson" and table != 2 or which == "lds" and table != 1:
            continue
        if which == "derivatives" and (table != 2 or (roots is None and exists is None)):
            continue
        if only_p is not None:
            primes = [only_p] if prime_matches(spec, only_p) else []
        else:
            primes = [spec] if isinstance(spec, int) else list(FAMILY_PRIMES)
        for q in primes:
            problems, union, params = [], set(), parameters(pred, q)
            for a in params:
                f = build(a, q)
                rs = roots_mod(f, q)
                union.update(rs)
                if len({peval(f, x, q) for x in range(q)}) < q:
                    problems.append(a)
                if roots is not None and set(rs) != roots:
                    problems.append(a)
                if exists is True and not rs or exists is False and rs:
                    problems.append(a)
                if which == "lds" and not verdict(f, q)["low_discrepancy"]:
                    problems.append(a)
            status = "info" if not asserted else ("FAIL" if problems else "ok")
            failed = failed or (asserted and bool(problems))
            rows.append([name, table, q, signs, len(params), sorted(union), status, bool(problems)])
    return (2 if failed else 0), rows


def table1_instances(p):
    out = []
    for name, table, spec, pred, build, *_ in catalog_rows():
        if table == 1 and prime_matches(spec, p):
            for a in parameters(pred, p):
                f = trim(c % p for c in build(a, p))
                if f not in out:
                    out.append(f)
    return out


def affine_canon(cs, p):
    u = pow(cs[-1], -1, p)
    out = [u * c % p for c in cs]
    out[0] = 0
    return tuple(out)


@functools.cache
def affine_orbit(p, max_degree):
    """Monic zero-constant canons of g(c*x + d), g a Table-1 row or x^p + a*x.

    Affine maps keep the degree, so templates above max_degree are skipped.
    """
    templates = table1_instances(p) + [[0, a] + [0] * (p - 2) + [1] for a in range(1, p - 1)]
    return frozenset(affine_canon(compose_affine(g, c, d, p), p)
                     for g in templates if len(g) - 1 <= max_degree
                     for c in range(1, p) for d in range(p))


def category(cs, p, literal, orbit):
    if tuple(cs) in literal:
        return "table1"
    if (len(cs) - 1 == p and cs[-1] == 1 and not any(cs[2:p])
            and cs[1] % p and (cs[1] + 1) % p):
        return "prop_family"
    if len(cs) <= 2:
        return "linear"
    if affine_canon(cs, p) in orbit:
        return "affine"
    return "unexplained"


def perm_mod(cs, m):
    return len({peval(cs, x, m) for x in range(m)}) == m


@functools.cache
def monic_hits(p, d, nonzero_linear):
    """Monic zero-constant degree-d generators: Noebauer check per candidate,
    each hit confirmed by enumeration mod p^2."""
    if d == 1:
        candidates = [[0, 1]]
    else:
        a1s = range(1, p) if nonzero_linear else range(p)
        candidates = ([0, a1, *mids, 1] for a1 in a1s
                      for mids in itertools.product(range(p), repeat=d - 2))
    hits = []
    for cs in candidates:
        if perm_mod(cs, p) and smallest_root(deriv(cs), p) is None:
            if not perm_mod(cs, p * p):
                raise AssertionError(f"Noebauer and enumeration disagree on {cs} mod {p}")
            hits.append(tuple(cs))
    return tuple(hits)


def candidate_count(p, degree, monic, zero_constant, nonzero_linear):
    lead = 1 if monic else p - 1
    a0 = 1 if zero_constant else p
    a1 = p - 1 if nonzero_linear else p
    return sum(lead * a0 if d == 1 else lead * a0 * a1 * p ** (d - 2)
               for d in range(1, degree + 1))


def search_answer(p, degree, monic, zero_constant, nonzero_linear):
    leads = [1] if monic else range(1, p)
    a0s = [0] if zero_constant else range(p)
    found = []
    for d in range(1, degree + 1):
        for g in monic_hits(p, d, nonzero_linear):
            for u in leads:
                for v in a0s:
                    cs = [u * c % p for c in g]
                    cs[0] = v
                    found.append(tuple(cs))
    found.sort(key=lambda t: (len(t), t))
    literal = {tuple(f) for f in table1_instances(p)}
    orbit = affine_orbit(p, degree)
    rows = [[len(t) - 1, list(t), category(list(t), p, literal, orbit)] for t in found]
    return (2 if any(r[2] == "unexplained" for r in rows) else 0), rows


# --------------------------------------------------------------------------
# Job references and output checks
# --------------------------------------------------------------------------


def values_of(spec, n):
    if "linear" in spec:
        a, b = spec["linear"]
        return [i * a + b for i in range(1, n + 1)]
    return [peval(spec["coeffs"], i) for i in range(1, n + 1)]


def reference(spec):
    """(expected exit code, canonical answer) for one job spec."""
    cmd, p = spec["cmd"], spec.get("p")
    if cmd == "discrepancy":
        values = values_of(spec, max(spec["N"]))
        rows = []
        for N in spec["N"]:
            D, level, residue, sep = ball_scan(values[:N], p)
            rows.append([N, frac(D), frac(D * N), level, residue, sep, float(D)])
        return 0, rows
    if cmd == "bridge":
        values = values_of(spec, max(spec["N"]))
        rows = []
        for N in spec["N"]:
            delta = ball_scan(values[:N], p)[0]
            d = real_discrepancy(values[:N], p)
            holds, upper = meijer(delta, d, p)
            rows.append([N, frac(delta), frac(d), upper, holds])
        return 0, rows
    if cmd == "paircorr":
        values = values_of(spec, max(spec["N"]))
        alpha = Fraction(spec["alpha"])
        return 0, [[N, frac(s), frac(F), float(F)]
                   for N in spec["N"] for s in map(Fraction, spec["s"])
                   for F in [f_stat(values[:N], p, alpha, s)]]
    if cmd == "generate":
        values, K, mode = values_of(spec, spec["n"]), spec.get("K"), spec["mode"]
        rows = []
        for i, v in enumerate(values, start=1):
            if mode == "digits":
                r = v % p ** K
                rows.append([i] + [r // p ** j % p for j in range(K)])
            elif mode == "monna":
                rows.append([i, frac(Fraction(*reversal(v, p, K)))])
            else:
                rows.append([i, v])
        return 0, rows
    if cmd == "classify":
        return 0, classify_answer(spec["coeffs"], p)
    if cmd == "search":
        return search_answer(p, spec["degree"], spec["monic"], spec["zero_constant"],
                             spec["nonzero_linear"])
    if cmd == "verify-tables":
        return verify_tables_answer(spec["which"], p)
    raise ValueError(f"no oracle for {cmd!r}")


def _opt_int(x):
    return None if x in ("", None) else int(x)


def _level(x):
    return "tail" if x == "tail" else int(x)


def _fr(x):
    return frac(Fraction(x))


def _roots(x):
    return [int(t) for t in str(x).split(",") if t]


COLUMNS = {
    "discrepancy": (("N", int), ("D_N", _fr), ("N_times_D_N", _fr), ("witness_level", _level),
                    ("witness_residue", _opt_int), ("separation_depth", int), ("D_N_approx", float)),
    "bridge": (("N", int), ("delta_N", _fr), ("d_N", _fr), ("upper", float), ("holds", str)),
    "paircorr": (("N", int), ("s", _fr), ("F", _fr), ("F_approx", float)),
    "search": (("degree", int), ("polynomial", parse_text), ("category", str)),
    "verify-tables": (("entry", str), ("table", int), ("p", int), ("signs", str),
                      ("parameters", int), ("derivative_roots", _roots), ("status", str),
                      ("detail", bool)),
}


def _generate_columns(spec):
    if spec["mode"] == "digits":
        return (("n", int),) + tuple((f"digit_{i}", int) for i in range(spec["K"]))
    if spec["mode"] == "monna":
        return (("n", int), ("monna", _fr))
    return (("n", int), ("value", int))


def parse_rows(spec, text):
    columns = _generate_columns(spec) if spec["cmd"] == "generate" else COLUMNS[spec["cmd"]]
    names = [name for name, _ in columns]
    if spec.get("format") == "json":
        payload = json.loads(text)
        records = [[row[name] for name in names] for row in payload["rows"]]
    else:
        reader = list(csv.reader(io.StringIO(text)))
        if not reader or reader[0] != names:
            raise ValueError("unexpected CSV header")
        records = reader[1:]
    return [[conv(x) for (_, conv), x in zip(columns, rec, strict=True)] for rec in records]


def _bool(x):
    return {"True": True, "False": False, "": None}[x] if isinstance(x, str) else x


def parse_classify(spec, text):
    p = spec["p"]
    if spec.get("format") == "csv":
        rec = list(csv.reader(io.StringIO(text)))[1]
        level = _opt_int(rec[6])
        brute = {"low_discrepancy": _bool(rec[2]), "perm_mod_p": _bool(rec[3]),
                 "perm_mod_p2": _bool(rec[4]), "derivative_root": _opt_int(rec[5]),
                 "missing_residue": None if level is None else [level, int(rec[7])]}
        out = {"p": int(rec[0]), "coefficients": parse_text(rec[1]), "brute_force": brute,
               "formula_low_discrepancy": _bool(rec[8]), "divergence": _bool(rec[9])}
        return out
    payload = json.loads(text)
    cs = payload["coefficients"]
    out = {
        "p": payload["p"],
        "coefficients": cs if parse_text(payload["polynomial"]) == cs else "rendering mismatch",
        "brute_force": {k: payload["brute_force"][k] for k in VERDICT_KEYS},
        "noebauer": {k: payload["noebauer"][k] for k in VERDICT_KEYS},
        "unit_reduction": None,
        "divergence": payload["divergence"],
    }
    red = payload["unit_reduction"]
    if red is not None:
        val0, der0 = folded_constants(cs, p)
        out["unit_reduction"] = {k: red["verdict"][k] for k in VERDICT_KEYS}
        if not (folding_ok(red["value_poly"], cs, p, val0)
                and folding_ok(red["derivative_poly"], deriv(cs), p, der0)):
            out["unit_reduction"] = "folding mismatch"
    return out


def expected_classify(spec, answer):
    """The reference in the shape of the requested output format."""
    if spec.get("format") != "csv":
        return answer
    red = answer["unit_reduction"]
    return {"p": answer["p"], "coefficients": answer["coefficients"],
            "brute_force": answer["brute_force"],
            "formula_low_discrepancy": None if red is None else red["low_discrepancy"],
            "divergence": answer["divergence"]}


def same(a, b) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        return isinstance(a, (int, float)) and isinstance(b, (int, float)) and math.isclose(
            a, b, rel_tol=1e-12, abs_tol=0.0)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    return type(a) is type(b) and a == b


def check(spec, expected, exit_code, stdout) -> str | None:
    """None when the job's exit code and parsed answer match the reference,
    else a one-line reason."""
    want_exit, want = expected
    if exit_code != want_exit:
        return f"exit {exit_code}, expected {want_exit}"
    try:
        if spec["cmd"] == "classify":
            got, want = parse_classify(spec, stdout), expected_classify(spec, want)
        else:
            got = parse_rows(spec, stdout)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unparsable output: {exc}"
    if not same(got, want):
        return "answer differs from the reference"
    return None
