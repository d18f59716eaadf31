"""hjlab: a numerical laboratory for nonlinear resolvent equations.

The package verifies, on finite state spaces, the operator-theoretic
machinery behind equations of the form f - lam * H f = h: pseudo-resolvent
families and their algebraic identities, viscosity sub/supersolutions
checked through optimizing sequences, semigroups built by resolvent
iteration, and convergence of all of the above along sequences of spaces
that approximate a limit space.
"""

from .errors import (
    ConfigError,
    HJLabError,
    PreconditionError,
    SolverError,
    StructuralError,
)
from .spaces import (
    CompactFamily,
    FiniteSpace,
    SpaceSequence,
    make_grid_sequence,
    make_product_sequence,
)
from .limits import (
    ConvergenceVerdict,
    ExtFn,
    Fn,
    FnSequence,
    check_LIM,
    compute_LIMINF,
    compute_LIMSUP,
    lift_to_members,
)
from .probes import (
    bump,
    random_bounded,
    trig_basis,
    trig_polynomial,
)
from .operators import (
    Hamiltonian,
    OperatorGraph,
    SlowFastCoupling,
    averaged_slowfast_hamiltonian,
    centered_quadratic,
    check_degenerate_elliptic,
    check_dissipative,
    graph_from_hamiltonian,
    linear_generator,
    random_rate_matrix,
    slowfast_hamiltonian,
    stationary_distribution,
    tilt_linear,
    upwind_quadratic,
)
from .resolvent import (
    ResolventFamily,
    build_Hhat,
    check_contractive,
    check_pseudo_resolvent_identity,
    estimate_equicontinuity,
    solve_resolvent,
)
from .viscosity import (
    check_comparison,
    check_subsolution,
    check_supersolution,
    find_optimizing_sequence,
    identification_bound,
    perturb_subsolution,
)
from .semigroup import (
    convergence_in_n,
    crandall_liggett,
    density_check_zero_operator,
    fit_loglog_slope,
    linear_semigroup_oracle,
    logexp_oracle,
    semigroup_convergence_experiment,
)
from .convergence import (
    OperatorSequence,
    barles_perthame_envelopes,
    check_ex_lim,
    check_ex_sublim,
    check_ex_superlim,
    resolvent_convergence_experiment,
    slowfast_resolvent_experiment,
)

__version__ = "0.1.0"
