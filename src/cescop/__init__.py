"""Weighted Cesaro/Copson function-space norms and pointwise multipliers.

Numerical evaluation of the quasi-norms of two- and three-parameter
Cesaro and Copson spaces on (0, inf), the A / A* weight transforms, the
gluing-lemma functionals, and the closed-form characterizations of
pointwise-multiplier norms between weighted Copson and Cesaro spaces,
with a brute-force oracle for validation.
"""

from .conventions import INF, xpow, xrecip
from .errors import (
    CescopError,
    ConfigError,
    DegenerateOperator,
    DivergentRepresentation,
    EmptyFamily,
    NonIntegrableOscillation,
    NoWitness,
    NumericOverflow,
    SpecInvalid,
    UnsupportedRegime,
    ZeroMass,
)
from .exponents import Exponent, INF_EXP, arrow, dual_exponent
from .realfun import (
    DEFAULT_CFG,
    FULL,
    Interval,
    ONE,
    QuadratureConfig,
    RealFun,
    ZERO,
    constant,
    esssup,
    expfam,
    from_log_callable,
    funsum,
    indicator,
    integrate,
    lp_norm,
    power,
    powerlog,
    powerof,
    primitive_at,
    product,
    table,
    tail_at,
    weight,
)
from .spaces import OmegaReport, SpaceSpec, check_omega, space_norm, space_norm3
from .operators import (
    big_V,
    cal_V,
    fundamental_function,
    FundamentalSpec,
    is_admissible,
    is_nondegenerate,
    is_quasiconcave,
    kernel_A,
    op_A,
    op_A_star,
    stieltjes_density,
    stieltjes_tail_density,
)
from .gluing import (
    GlueInstance,
    GlueResult,
    LEMMAS,
    almost_geometric_check,
    discrete_equiv,
    dyadic_cover,
    glue_eval,
    random_instance,
)
from .multiplier import (
    CharacterizationResult,
    REGIME_TAGS,
    ThreeWeightProblem,
    characterize,
    classify_regime,
    hypothesis_check,
    reduce_problem,
)
from .oracle import (
    Candidate,
    CandidateFamily,
    OracleResult,
    brute_force_multiplier,
    default_family,
    enrich,
)

__version__ = "0.1.0"
