"""q-calculus primitives, q-exponential summation operators, and the
verification toolkit around them: closed-form moments with a brute-force
series oracle, grid-based rate certificates, and statistical-convergence
experiments."""

from .errors import ConfigError, DomainError, EvaluationError, TruncationCapError
from .qcore import (
    DEFAULT_TOL,
    SERIES_CAP,
    QValue,
    q_integer,
    q_derivative,
    eq_exp,
    log_eq_exp,
    Eq_exp,
    Eq_exp_product,
    log_Eq_exp_product,
    Eq_exp_series,
)
from .appell import (
    FAMILIES,
    AppellFamily,
    family_by_name,
    family_from_spec,
    family_functionals,
    identity_residuals,
    moment_sum,
)
from .operators import (
    SAFETY,
    OperatorInstance,
    TargetFunction,
    as_target,
    central_moment2,
    evaluate,
    make_operator,
    moment_closed,
    moment_closed_uncorrected,
    moment_series,
    preset_function,
    shift_term,
)
from .analysis import (
    BoundReport,
    GridSpec,
    SupPair,
    check_lipschitz_theorem,
    check_local_theorem,
    check_maximal_theorem,
    check_rate_theorem,
    delta_n,
    lipschitz_maximal,
    modulus,
    phi_n,
    second_modulus,
)
from .statconv import (
    ScheduleSpec,
    clip_grid_for,
    is_perfect_square,
    korovkin_table,
)

__version__ = "0.1.0"
