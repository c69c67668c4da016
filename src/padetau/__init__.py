"""Exact Hermite-Pade approximation and tau-quotient determinants.

Truncated rational power series, the type-I/type-II approximation pair
with Mahler duality, block Toeplitz determinant identities behind
isomonodromic tau-quotients, combinatorial Pfaffian identities, and
formal expansions of linear ODE systems at infinity.
"""

from __future__ import annotations

from .errors import (
    BadNormalization,
    ConsistencyError,
    DegenerateFamily,
    InsufficientOrder,
    InvalidPartition,
    NonDiagonalizableLeading,
    NotSquare,
    OddLength,
    PadetauError,
    ParityViolation,
    ResonantExponents,
    ShapeMismatch,
    SingularMatrix,
    ZeroConstantTerm,
    ZeroParameter,
)
from .linalg import (
    ExactMatrix,
    ToeplitzBlockSpec,
    block_toeplitz_det,
    det_exact,
    solve_exact,
)
from .ode import (
    FinitePole,
    GaugeExpansion,
    InfinityExponentData,
    RationalODE,
    accessory_count,
    expand_at_infinity,
    expansion_residual,
    gauge_expansion,
    gauge_residual,
    ode_from_dict,
    ode_to_dict,
    pii_system,
)
from .pade import (
    HermitePadeResult,
    MahlerDuality,
    PolyMatrix,
    hermite_pade,
    mahler_duality,
    q_matrix,
    schlesinger_matrix,
    simultaneous_pade,
)
from .pfaffian import (
    PairMap,
    PerfectMatching,
    SkewMap,
    det_as_pfaffian,
    det_g,
    induced_skew_map,
    interleave,
    key_identity_via_pfaffian,
    perfect_matchings,
    pfaffian,
    plucker_check,
    sgn_permutation,
    sylvester_det,
)
from .series import (
    Polynomial,
    SeriesFamily,
    TruncatedSeries,
    normalize_family,
    rational,
)
from .tau import (
    IdentityReport,
    MatrixSeries,
    ShiftCheckReport,
    TauQuotientTable,
    apply_schlesinger,
    bordered_determinant,
    characteristic_det,
    one_step_sign,
    remainder_coeff_via_det,
    schlesinger_shift_check,
    sylvester_toeplitz_check,
    tau_determinant,
    tau_quotient_table,
)

__version__ = "0.1.0"
