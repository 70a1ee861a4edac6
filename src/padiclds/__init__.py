"""Exact-arithmetic toolkit for polynomial low-discrepancy sequences in Z_p.

Generates polynomial and linear sequences in the p-adic integers, decides
whether they are low-discrepancy (permutation tests mod p and p^2, with
certificate-bearing verdicts), computes exact p-adic discrepancy and
pair-correlation statistics, reproduces the small-degree classification
tables by exhaustive search, and bridges to real sequences in [0,1) via the
digit-reversal map.

Each exported name, and each submodule, is imported on its first use
(PEP 562), so ``import padiclds.cli`` compiles only what a subcommand runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# exported name -> the submodule that defines it
_EXPORTS = {name: module for module, names in {
    "padic": "check_prime digit_expansions digit_reversals monna_of_int valuation",
    "polynomials": "IntPolynomial PolyParseError derivative eval_mod parse_poly "
                   "reduce_functional render unit_value_poly",
    "permcheck": "DivergenceEntry DivergenceReport Verdict classify_low_discrepancy "
                 "classify_via_reduction divergence_scan first_missing_residue "
                 "is_permutation_mod noebauer_mod_p2",
    "sequence": "poly_sequence",
    "discrepancy": "DiscrepancyResult discrepancy_profile meijer_bound_check "
                   "padic_discrepancy real_extreme_discrepancy separation_depth",
    "paircorr": "F_statistic lds_pair_count ppc_sweep threshold_level",
    "catalog": "DicksonEntry EntryVerification MatchReport SearchConstraints dickson_entries "
               "exhaustive_search match_against_table verify_entry",
}.items() for name in names.split()}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    if name in _EXPORTS.values():  # a submodule not yet imported
        return import_module(f".{name}", __name__)
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
