"""Exact-arithmetic toolkit for polynomial low-discrepancy sequences in Z_p.

Generates polynomial and linear sequences in the p-adic integers, decides
whether they are low-discrepancy (permutation tests mod p and p^2, with
certificate-bearing verdicts), computes exact p-adic discrepancy and
pair-correlation statistics, reproduces the small-degree classification
tables by exhaustive search, and bridges to real sequences in [0,1) via the
digit-reversal map.
"""

from .padic import (
    check_prime,
    digit_expansions,
    digit_reversals,
    monna_of_int,
    valuation,
)
from .polynomials import (
    IntPolynomial,
    PolyParseError,
    derivative,
    eval_mod,
    parse_poly,
    reduce_functional,
    render,
    unit_value_poly,
)
from .permcheck import (
    DivergenceEntry,
    DivergenceReport,
    Verdict,
    classify_low_discrepancy,
    classify_via_reduction,
    divergence_scan,
    first_missing_residue,
    is_permutation_mod,
    noebauer_mod_p2,
)
from .sequence import poly_sequence
from .discrepancy import (
    DiscrepancyResult,
    discrepancy_profile,
    meijer_bound_check,
    padic_discrepancy,
    real_extreme_discrepancy,
    separation_depth,
)
from .paircorr import (
    F_statistic,
    lds_pair_count,
    ppc_sweep,
    threshold_level,
)
from .catalog import (
    DicksonEntry,
    EntryVerification,
    MatchReport,
    SearchConstraints,
    dickson_entries,
    exhaustive_search,
    match_against_table,
    verify_entry,
)

__version__ = "0.1.0"
