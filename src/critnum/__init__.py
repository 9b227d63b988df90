"""Subset-sum closures and critical numbers of small finite groups."""

from .groups import (
    ElementSet,
    GroupTable,
    GroupValidationError,
    SubgroupInfo,
    center,
    cyclic,
    dicyclic,
    dihedral,
    direct_product,
    heisenberg,
    is_nilpotent,
    is_prime,
    load_cayley,
    make_group,
    prime_divisors,
    quotient,
    save_cayley,
    semidirect_cyclic,
    smallest_prime_divisor,
    subgroup_closure,
    subgroup_mask,
    subgroups_of_index,
)
from .sumsets import (
    CapacityError,
    SumsetClosure,
    fold_cd,
    is_additive_basis,
    lambda_count,
    sigma,
    sigma_r,
    sumset,
)
from .critical import (
    CrCertificate,
    ResolvingSequence,
    cr_exhaustive,
    cr_formula,
    cr_sampled_upper,
    find_nonbases,
    resolving_sequence,
    witness_lower_bound,
)
from .catalog import (
    CatalogEntry,
    catalog_group,
    catalog_init,
    order27_groups,
    resolve_group,
)
from .cache import ResultCache
from .verifiers import (
    VerificationReport,
    run_L2_5,
    verify_L2_1,
    verify_L2_2,
    verify_L2_3,
    verify_L2_4,
    verify_L2_5,
    verify_L2_6,
    verify_T1_3_small,
    verify_cd_fold,
    verify_ineq_2_3,
    verify_ineq_2_4,
)

__all__ = [name for name in dir() if not name.startswith("_")]
