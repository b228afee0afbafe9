"""Lie-Poisson brackets, quantum reductions, orbit two-forms, and integrable
flows on finite truncations of operator algebras.

The package treats a square complex matrix as a trace-class element paired
with observables through tr(x rho).  On top of that pairing it builds:

* ``operators``    matrix algebra, triangular/Hermitian splittings, class
                   tags, decompositions of unity, JSON serialization;
* ``brackets``     the Lie-Poisson bracket and Hamiltonian fields for the
                   full, lower-triangular coinduced, skew-Hermitian real,
                   and product variants, plus Poisson-map diagnostics;
* ``reduction``    measurement, triangular, and group-average projections
                   with their duals and algebraic law checks;
* ``orbits``       coadjoint action, orbit tangent spaces, and the orbit
                   two-form with rank diagnostics;
* ``integrators``  fixed-step RK4 and an exactly isospectral conjugation
                   scheme, trajectory recording, drift monitors;
* ``toda``         the open Toda chain: canonical equations, the map onto
                   lower Lax matrices, conserved charges in involution;
* ``fixtures``     seeded reproducible random states;
* ``verification`` the named-check registry behind `liepoisson verify`;
* ``cli``          the configuration-driven command line front end.
"""

from .brackets import (
    FULL,
    HERMITIAN_REAL,
    LOWER_COINDUCED,
    BracketSpec,
    MatrixLinearMap,
    Observable,
    bracket_observable,
    casimir,
    fd_gradient,
    ham_field,
    inclusion_lower_map,
    jacobi_defect,
    leibniz_defect,
    lower_projection_map,
    lp_bracket,
    pair_inclusion_map,
    poisson_map_defect,
    product,
    product_observable,
    reduction_condition_defect,
)
from .fixtures import KINDS, seeded_random_state
from .integrators import (
    IntegratorConfig,
    NumericalAbort,
    Trajectory,
    collective_defect,
    evolve,
    isospectral_step,
    noether_drift,
    rk4_step,
    spectral_drift,
)
from .operators import (
    ClassTag,
    DecompositionOfUnity,
    as_matrix,
    commutator,
    elementary,
    expm,
    hermitian_part,
    matrix_from_json,
    matrix_to_json,
    operator_norm,
    project_lower,
    project_strictly_lower,
    project_strictly_upper,
    project_upper_plus,
    skew_hermitian_part,
    spectral_projectors,
    standard_basis_decomposition,
    trace_norm,
    trace_pairing,
    validate,
    validate_decomposition,
)
from .orbits import (
    characteristic_rank,
    coadjoint_act,
    kks_eval,
    kks_form_rank,
    kks_welldefined_defect,
    rank_one_state,
)
from .reduction import (
    ReductionOp,
    apply,
    apply_dual,
    closure_defect,
    contraction_check,
    group_average,
    lower_triangularize,
    measurement,
    positivity_check,
    reduction_from_json,
    reduction_to_json,
)
from .toda import (
    LaxPair,
    TodaState,
    bidiagonal_rhs,
    canonical_field,
    canonical_rhs,
    default_weights,
    flaschka,
    flaschka_tangent,
    intertwining_defect,
    involution_defect,
    lax_field,
    lax_rhs,
    pack,
    toda_columns,
    toda_from_json,
    toda_hamiltonian,
    toda_hk,
    toda_to_json,
    unpack,
)
from .verification import CheckResult, report_payload, run_all

__version__ = "0.1.0"
