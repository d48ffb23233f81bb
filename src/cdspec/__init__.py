"""c-differential spectra of power functions over finite fields."""

from .errors import (
    BudgetExceeded,
    CharTwoUnsupported,
    DivisionByZero,
    Error,
    FieldTooLarge,
    Inapplicable,
    LeadingCoeffZero,
    NotPrime,
    ParseError,
    ReducibleModulus,
    WrongCharacteristic,
)
from .field import (
    FieldContext,
    FieldSpec,
    build_context,
    char_sum_quadratic,
    find_irreducible,
    gamma_5n_direct,
    gcd_pk1,
    parse_field_spec,
    quadratic_solution_count,
)
from .spectrum import (
    CDiffSpectrum,
    IdentityReport,
    PowerMap,
    PowerMapCase,
    c_ddt_entry,
    c_delta,
    c_spectrum,
    check_identities,
    n4_bruteforce,
    n4_fourier,
    normalize_exponent,
)
from .closed_forms import (
    SpectrumPrediction,
    TheoremId,
    dispatch,
    gamma_5n_closed,
    n4_closed_5n,
    predict_3n_minus3,
    predict_3n_plus3_half,
    predict_5n_minus3_half,
    predict_inverse_char2,
    predict_inverse_odd,
    predict_pk1_half,
)
from .verifier import (
    FuzzReport,
    ScanResult,
    SplitMix64,
    SweepResult,
    VerifyReport,
    fuzz_identities,
    scan_exponents,
    sweep_c,
    verify_with_context,
)

__version__ = "0.1.0"
