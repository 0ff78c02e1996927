"""stacky: exact Tate-motive decompositions, orbifold Chow dimensions and
correspondence calculus for finite-group quotient stack models."""

from .chars import CharacterTable, RepresentationRing, character_table, rep_ring
from .corresp import (
    Correspondence,
    SplitFactor,
    compose,
    graph_correspondences,
    is_idempotent,
    split_idempotent,
    splitting_certificate,
    transpose,
)
from .cyclo import Cyclotomic, cyclotomic_polynomial, euler_phi
from .decomp import (
    CharacterOrbitSet,
    ClassifyingStackMotive,
    CyclotomicInertiaComponent,
    GerbeDatum,
    GerbeMotive,
    InertiaComponent,
    InertialMotive,
    OrbifoldCurveMotive,
    bh_motive,
    cyclotomic_inertia,
    gerbe_motive,
    gerbe_rset,
    inertia,
    inertial_quotient_motive,
    orbifold_curve_motive,
    product_with_point_model,
    quotient_motive,
)
from .motives import (
    Atom,
    EquivariantModel,
    FixedLocus,
    Motive,
    chow_dim,
    direct_sum,
    poincare_polynomial,
    tensor,
)
from .perms import (
    ConjugacyClass,
    CyclicClass,
    FiniteGroup,
    Perm,
    Subgroup,
    alternating_group,
    centralizer,
    conjugacy_classes,
    conjugation_exponent,
    cyclic_group,
    cyclic_subgroup_classes,
    dihedral_group,
    direct_product,
    generate_group,
    quaternion_group,
    symmetric_group,
    trivial_group,
)
from .verify import (
    VerificationReport,
    check_degree_splitting,
    check_inertia_dimension,
    check_kunneth,
    check_rep_ring_vs_classes,
    run_suite,
    standard_splitting_reports,
    suite_inputs,
)

__version__ = "0.1.0"
