"""Nonvanishing of Koszul cohomology K_{p,q} for Veronese and ACM embeddings.

Three layers, all exact:

* closed-form nonvanishing intervals in p for each weight q, with the
  counting identities behind them (`ranges`, `combinatorics`);
* explicit monomial witness cycles and a combinatorial certificate checker
  (`witness`);
* a brute-force prime-field oracle that assembles the actual complexes and
  eliminates them (`koszul`), for confirming any of the above on small cases.

ACM rings (free over a polynomial Noether normalization) plug into the same
machinery through `acm.ACMSpec`.
"""

from .acm import (
    ACMInvariants,
    ACMMonomial,
    ACMSpec,
    hypersurface_spec,
    invariants,
    load_spec,
    reduce_product,
    save_spec,
    spec_from_json,
    spec_to_json,
    veronese_spec,
)
from .combinatorics import (
    Monomial,
    TruncatedRing,
    annihilates,
    binom,
    divides,
    enumerate_monomials,
    mixed_cap_dim,
    mul_truncated,
    quot_rem_by_dm1,
    truncated_dim,
)
from .errors import (
    ACMSpecError,
    InadmissibleWeightError,
    InconsistencyError,
    ParameterError,
    ResourceLimitError,
)
from .koszul import (
    DEFAULT_ENTRY_BUDGET,
    DEFAULT_PRIME,
    SECONDARY_PRIME,
    ComplexSlice,
    KoszulComplex,
    PrimeField,
    SparseMatrix,
    colex_rank,
    colex_unrank,
    wedge_basis,
)
from .ranges import (
    ACMRangeReport,
    AsymptoticCoefficients,
    DualParams,
    PQRange,
    VeroneseParams,
    VeroneseRangeReport,
    acm_range,
    acm_range_improved,
    acm_range_report,
    admissible_q,
    asymptotic_coefficients,
    dual_params,
    normalize,
    veronese_range,
    veronese_range_report,
)
from .witness import (
    ACMWitnessParams,
    CertificateCheck,
    CertificateReport,
    CountFormulas,
    ESetReport,
    VeroneseWitnessParams,
    WitnessCycle,
    ZSetReport,
    acm_e_set,
    acm_zero_set,
    build_witness,
    count_formulas,
    divisor_set,
    leftmost_monomial,
    verify_certificate,
    zero_set,
)

__version__ = "1.0.0"

__all__ = [
    "ACMInvariants", "ACMMonomial", "ACMRangeReport", "ACMSpec", "ACMSpecError",
    "ACMWitnessParams", "AsymptoticCoefficients", "CertificateCheck",
    "CertificateReport", "ComplexSlice", "CountFormulas", "DEFAULT_ENTRY_BUDGET",
    "DEFAULT_PRIME", "DualParams", "ESetReport", "InadmissibleWeightError",
    "InconsistencyError", "KoszulComplex", "Monomial", "PQRange", "ParameterError",
    "PrimeField", "ResourceLimitError", "SECONDARY_PRIME", "SparseMatrix",
    "TruncatedRing", "VeroneseParams", "VeroneseRangeReport", "VeroneseWitnessParams",
    "WitnessCycle", "ZSetReport", "acm_e_set", "acm_range", "acm_range_improved",
    "acm_range_report", "acm_zero_set", "admissible_q", "annihilates",
    "asymptotic_coefficients", "binom", "build_witness", "colex_rank",
    "colex_unrank", "count_formulas", "divides", "divisor_set", "dual_params",
    "enumerate_monomials", "hypersurface_spec", "invariants", "leftmost_monomial",
    "load_spec", "mixed_cap_dim", "mul_truncated", "normalize", "quot_rem_by_dm1",
    "reduce_product", "save_spec", "spec_from_json", "spec_to_json",
    "truncated_dim", "veronese_range", "veronese_range_report", "veronese_spec",
    "verify_certificate", "wedge_basis", "zero_set",
]
