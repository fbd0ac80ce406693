"""commprob: exact commuting probabilities and structural invariants of
small finite permutation groups, with a verification harness for the
supersolvability and class-size threshold statements."""

from .perm import (
    DEFAULT_ORDER_CAP,
    MAX_GROUP_ORDER,
    FiniteGroup,
    GroupError,
    OrderCapExceeded,
    Permutation,
    element_order,
    generate_group,
)
from .structure import (
    ConjugacyClass,
    NotNormal,
    Subgroup,
    center,
    conjugacy_classes,
    derived_subgroup,
    find_complement,
    is_abelian,
    is_nilpotent,
    is_normal,
    is_solvable,
    is_supersolvable,
    normal_closure,
    normal_subgroups,
    subgroup_generated,
)
from .probability import (
    DEFAULT_ORACLE_CAP,
    GallagherResult,
    average_class_size,
    check_character_bound,
    class_count,
    commuting_pairs_oracle,
    commuting_probability,
    gallagher_check,
)
from .isomorphism import iter_isomorphisms
from .isoclinism import (
    IsoclinismWitness,
    are_isoclinic,
    find_isoclinism,
    is_stem,
)
from .constructors import (
    ActionSpec,
    automorphism_from_generator_images,
    catalog_keys,
    cyclic,
    direct_product,
    named,
    semidirect_product,
)
from .theorems import (
    GroupReport,
    Verdict,
    analyze,
    run_catalog_verification,
    verify_class_size_theorem,
    verify_klein_fixed_point,
    verify_odd_35_243,
    verify_supersolvable_1_3,
    verify_supersolvable_5_16,
)

__version__ = "0.1.0"
