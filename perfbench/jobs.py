"""Seeded job lists for the four benchmark workloads.

A job is ``{"argv": [...], "spec": {...}}``: the argv that ``padiclds.cli``
receives and the same facts in structured form for the oracles.  The program
sees only argv.  Polynomials always come after ``--`` because argparse would
read a leading minus as an option, and ``--workers`` is never passed.

Each workload is a fixed list of slots.  A slot fixes what decides a job's
cost (subcommand, prime range, degree, schedule length); the seed picks the
rest (coefficients, the prime within a narrow stratum, flags within a cost
band).  That keeps the work of a pass nearly the same from seed to seed
while the inputs change.
"""

from __future__ import annotations

import math
import random

from oracles import (
    candidate_count,
    catalog_rows,
    compose_affine,
    is_prime,
    list_text,
    parameters,
    peval,
    poly_text,
    prime_matches,
    trim,
    verdict,
)

WORKLOADS = ("sweep", "points", "classify", "search")

WHY = {
    "sweep": "dense discrepancy and bridge schedules at p in {2,3,5,7}: the CLI recomputes "
             "every prefix, so discrepancy and the digit-reversal map do almost all the work",
    "points": "sparse schedules at large N, paircorr over an s-grid and generate at primes "
              "just below 2^20: the same discrepancy layer used differently, plus paircorr, "
              "sequence and check_prime",
    "classify": "classify at primes 3..~1300; a fixed 15% share of known low-discrepancy "
                "generators forces the full mod-p^2 enumeration, so p50 is per-verdict "
                "overhead and p90 the enumeration",
    "search": "exhaustive search over p <= 13, degree <= 6 and constraint flags with a "
              "candidate cap, plus verify-tables: the only workload where catalog works",
}

PRIMES = [q for q in range(2, 1400) if is_prime(q)]
# The primes just below 2^20, where trial division in check_prime is dearest.
BIG_PRIMES = [q for q in range((1 << 20) - 300, 1 << 20) if is_prime(q)]


def _poly(rng, degree, lo, hi, lead_hi=3, signed_lead=False):
    cs = [rng.randint(lo, hi) for _ in range(degree)]
    lead = rng.randint(1, lead_hi) * (rng.choice((1, -1)) if signed_lead else 1)
    return trim(cs + [lead])


def _text(rng, cs):
    return list_text(cs) if rng.random() < 0.2 else poly_text(cs)


def _job(cmd, opts, spec, poly=None, fmt=None):
    argv = [cmd, *opts]
    spec = dict(spec, cmd=cmd)
    if fmt:
        argv += ["--format", fmt]
        spec["format"] = fmt
    if poly is not None:
        argv += ["--", poly]
    return {"argv": argv, "spec": spec}


def _sequence(rng, p, degree, nonnegative, linear_share=0.0):
    """(options, spec, text) for a polynomial or an integer linear sequence."""
    if rng.random() < linear_share:
        a, b = rng.randint(1, 40), rng.randint(0, 40)
        return ["--p", str(p), "--linear", str(a), str(b)], {"p": p, "linear": [a, b]}, None
    if nonnegative:
        cs = _poly(rng, degree, 0, 6)
    else:
        cs = _poly(rng, degree, -6, 6, signed_lead=True)
    return ["--p", str(p)], {"p": p, "coeffs": cs}, _text(rng, cs)


# --------------------------------------------------------------------------
# sweep: dense 1..n schedules
# --------------------------------------------------------------------------

SWEEP_JOBS = 120
SWEEP_N = {"discrepancy": {2: 40, 3: 44, 5: 48, 7: 48}, "bridge": {2: 26, 3: 30, 5: 32, 7: 32}}


def sweep(rng):
    jobs = []
    for i in range(SWEEP_JOBS):
        p = (2, 3, 5, 7)[i % 4]
        cmd = ("discrepancy", "bridge")[i // 4 % 2]
        degree = 1 + i // 8 % 6
        n = SWEEP_N[cmd][p]
        opts, spec, text = _sequence(rng, p, degree, nonnegative=cmd == "bridge",
                                     linear_share=0.15 if cmd == "discrepancy" else 0.0)
        spec["N"] = list(range(1, n + 1))
        fmt = "json" if i % 5 == 4 else None
        jobs.append(_job(cmd, opts + ["--N", f"1..{n}"], spec, text, fmt))
    return jobs


# --------------------------------------------------------------------------
# points: sparse schedules at large N, paircorr grids, generate
# --------------------------------------------------------------------------


def _ld_sequence(rng, p, shape):
    """A sequence whose ball counts, and so whose cost, the seed cannot move:
    c + u*x + p*x^2*g(x) with u a unit and g of degree shape (it permutes
    every Z/p^k, so it is low-discrepancy), or n*a + b with p exactly
    dividing a."""
    u = rng.choice([u for u in range(-2 * p, 2 * p) if u % p])
    if shape == 2:
        a, b = p * abs(u), rng.randint(0, 40)
        return ["--p", str(p), "--linear", str(a), str(b)], {"p": p, "linear": [a, b]}, None
    cs = [rng.randint(-6, 6), u] + [p * c for c in _poly(rng, shape, -3, 3, signed_lead=True)]
    return ["--p", str(p)], {"p": p, "coeffs": cs}, _text(rng, cs)


POINTS_JOBS = 160
ALPHAS = ("1/2", "1/3", "2/3", "3/4", "1")
RADII = ("1/3", "1/2", "1", "3/2", "2", "3")


def _pk_schedule(p, top):
    """The last five powers of p up to top, as exponent bounds."""
    k2 = 0
    while p ** (k2 + 1) <= top:
        k2 += 1
    return max(k2 - 4, 0), k2


def points(rng):
    jobs = []
    for i in range(POINTS_JOBS):
        kind = i % 10
        if kind in (0, 3, 6):
            p = (2, 3, 5, 7, 11, 13)[i // 10 % 6]
            opts, spec, text = _ld_sequence(rng, p, kind // 3)
            schedule = [rng.randint(450, 550), rng.randint(1450, 1550)]
            spec["N"] = schedule
            jobs.append(_job("discrepancy", opts + ["--N", ",".join(map(str, schedule))],
                             spec, text))
        elif kind in (1, 4, 7):
            p = (2, 3, 5, 7)[i // 10 % 4]
            opts, spec, text = _sequence(rng, p, 1 + i % 3, nonnegative=False, linear_share=0.2)
            if rng.random() < 0.5:
                k1, k2 = _pk_schedule(p, 2400)
                sched, spec["N"] = f"pk:{k1}..{k2}", [p ** k for k in range(k1, k2 + 1)]
            else:
                spec["N"] = sorted(rng.sample(range(50, 2400), 4))
                sched = ",".join(map(str, spec["N"]))
            alpha, radii = rng.choice(ALPHAS), rng.sample(RADII, 3)
            spec.update(alpha=alpha, s=radii)
            jobs.append(_job("paircorr", opts + ["--N", sched, "--alpha", alpha,
                                                 "--s", ",".join(radii)], spec, text))
        else:
            big = kind != 9
            p = rng.choice(BIG_PRIMES) if big else rng.choice((3, 5, 7, 11, 13))
            mode, K = {2: ("monna", None), 5: ("digits", 3), 8: ("monna", 4),
                       9: (("integers", None), ("digits", 2), ("monna", None))[i // 10 % 3]}[kind]
            opts, spec, text = _sequence(rng, p, 1 + i % 3, nonnegative=K is None,
                                         linear_share=0.2)
            n = 300 if big else 400
            spec.update(n=n, mode=mode, K=K)
            opts += ["--n", str(n), "--mode", mode] + (["--K", str(K)] if K else [])
            jobs.append(_job("generate", opts, spec, text, "json" if i % 20 == 9 else None))
    return jobs


# --------------------------------------------------------------------------
# classify: random polynomials plus a fixed share of low-discrepancy ones
# --------------------------------------------------------------------------

CLASSIFY_JOBS = 200
LD_SLOTS = (3, 10, 17)  # positions mod 20: 30 of 200 jobs, 15%
LD_LARGE_RANGE = (150, 550)  # primes of the affine images, spread evenly in p^2
CLASSIFY_PRIMES = [q for q in PRIMES if 3 <= q <= 1300]


def _nearest_prime(target, ok=lambda q: True):
    return min((q for q in PRIMES if ok(q)), key=lambda q: (abs(q - target), q))


def _affine_image(rng, cs, p):
    """u*f(c*x + d) + v mod p with random units u, c."""
    u, c, d, v = rng.randint(1, p - 1), rng.randint(1, p - 1), rng.randrange(p), rng.randrange(p)
    g = [u * x % p for x in compose_affine(cs, c, d, p)]
    g[0] = (g[0] + v) % p
    return trim(g)


def _ld_large(rng, rank, count):
    """Rank by rank: an affine image of x, a quintic catalog row, or an
    affine image of one, at a prime spread evenly in p^2 over the range.
    The prime is fixed by the rank, so the order of these slowest jobs, and
    with it the 90th percentile, does not move with the seed."""
    lo, hi = LD_LARGE_RANGE
    target = math.sqrt(lo * lo + (hi * hi - lo * lo) * (rank + 0.5) / count)
    if rank % 3 == 0:
        p = _nearest_prime(target)
        return p, [rng.randrange(p), rng.randint(1, p - 1)]
    p = _nearest_prime(target, lambda q: q != 5 and q % 5 in (2, 3))
    for a in rng.sample(range(1, p), p - 1):
        f = [0, pow(5, -1, p) * a * a % p, 0, a % p, 0, 1]
        if rank % 3 == 2:
            f = _affine_image(rng, f, p)
        if verdict(f, p)["low_discrepancy"]:
            return p, f
    raise AssertionError(f"no low-discrepancy quintic found at p={p}")


def _ld_catalog(rng):
    rows = [r for r in catalog_rows() if r[1] == 1]
    name, _, spec, pred, build, *_ = rng.choice(rows)
    p = spec if isinstance(spec, int) else rng.choice([q for q in (7, 13, 17, 23)
                                                       if prime_matches(spec, q)])
    f = trim(c % p for c in build(rng.choice(parameters(pred, p)), p))
    if rng.random() < 0.5:
        f = _affine_image(rng, f, p)
    return p, f


def classify(rng):
    jobs = []
    ld = [i for i in range(CLASSIFY_JOBS) if i % 20 in LD_SLOTS]
    small = ld[7::8]  # catalog rows at their own small primes
    large = [i for i in ld if i not in small]
    randoms = [i for i in range(CLASSIFY_JOBS) if i not in ld]
    strata = len(randoms)
    for i in range(CLASSIFY_JOBS):
        if i in small:
            p, cs = _ld_catalog(rng)
        elif i in large:
            p, cs = _ld_large(rng, large.index(i), len(large))
        elif randoms.index(i) % 17 == 8:
            # a permutation mod p whose derivative has a root: the verdict
            # carries a level-2 missing residue
            p = rng.choice((3, 5, 7))
            while True:
                cs = _poly(rng, rng.randint(2, 8), -9, 9, lead_hi=9, signed_lead=True)
                v = verdict(cs, p)
                if v["perm_mod_p"] and not v["low_discrepancy"]:
                    break
        else:
            j = randoms.index(i)
            lo = len(CLASSIFY_PRIMES) * j // strata
            hi = len(CLASSIFY_PRIMES) * (j + 1) // strata
            p = rng.choice(CLASSIFY_PRIMES[lo:max(hi, lo + 1)])
            degree = 2 + j % 7
            while True:
                cs = _poly(rng, degree, -9, 9, lead_hi=9, signed_lead=True)
                if len({peval(cs, x, p) for x in range(p)}) < p:
                    break  # not a permutation mod p, so classify exits early
        fmt = "csv" if i % 4 == 1 else None
        jobs.append(_job("classify", ["--p", str(p)], {"p": p, "coeffs": cs},
                         _text(rng, cs), fmt))
    return jobs


# --------------------------------------------------------------------------
# search: exhaustive search with a candidate cap, plus verify-tables
# --------------------------------------------------------------------------

SEARCH_CAP = 4000
# 110 search slots; one verify-tables job at every tenth position.
SEARCH_PRIMES = [13] * 3 + [11] * 5 + [7] * 25 + [5] * 30 + [3] * 27 + [2] * 20
VERIFY_EVERY = 10


def _search_bands(p):
    combos = []
    for degree in range(1, 7):
        for flags in range(8):
            monic, zc, nzl = bool(flags & 1), bool(flags & 2), bool(flags & 4)
            n = candidate_count(p, degree, monic, zc, nzl)
            if n <= SEARCH_CAP:
                combos.append((n, degree, monic, zc, nzl))
    combos.sort()
    third = len(combos) / 3
    return [combos[int(b * third):int((b + 1) * third)] for b in range(3)]


def search(rng):
    # The order of the primes is the same for every seed, like every slot.
    order = random.Random("search-slots").sample(SEARCH_PRIMES, len(SEARCH_PRIMES))
    bands = {p: _search_bands(p) for p in set(SEARCH_PRIMES)}
    jobs, slot = [], 0
    for i in range(len(SEARCH_PRIMES) + len(SEARCH_PRIMES) // (VERIFY_EVERY - 1)):
        if i % VERIFY_EVERY == VERIFY_EVERY - 1:
            which = rng.choice(("dickson", "derivatives", "lds"))
            p = rng.choice((None, 3, 5, 7, 11, 13))
            opts = ["--which", which] + (["--p", str(p)] if p else [])
            jobs.append(_job("verify-tables", opts, {"p": p, "which": which},
                             fmt="json" if rng.random() < 0.3 else None))
            continue
        p = order[slot]
        _, degree, monic, zc, nzl = rng.choice(bands[p][slot % 3])
        slot += 1
        opts = ["--p", str(p), "--degree", str(degree)]
        opts += [flag for flag, on in (("--monic", monic), ("--zero-constant", zc),
                                       ("--nonzero-linear", nzl)) if on]
        spec = {"p": p, "degree": degree, "monic": monic, "zero_constant": zc,
                "nonzero_linear": nzl}
        jobs.append(_job("search", opts, spec, fmt="json" if rng.random() < 0.2 else None))
    return jobs


GENERATORS = {"sweep": sweep, "points": points, "classify": classify, "search": search}


def make_jobs(workload: str, seed: int) -> list[dict]:
    return GENERATORS[workload](random.Random(f"{workload}:{seed}"))
