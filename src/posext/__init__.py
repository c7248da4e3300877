"""Chordal PSD completion, partial multipliers, and positive definite extension."""

from . import errors
from .circleset import (
    CircleSet,
    DomainPredicates,
    cexi_truncation,
    closure,
    contains,
    contains_symmetric_neighborhood_of_zero,
    contains_zero,
    interior,
    is_closure_of_interior,
    is_positivity_domain_star,
    is_symmetric,
    negate,
    normalize,
)
from .completion import (
    CompletionResult,
    PartialHermitianMatrix,
    apply_multiplier,
    cb_norm_positive,
    expand,
    partially_positive,
    positive_completion,
    rank_one_positive_decomposition,
    restrict_to_pattern,
    verify_extension,
)
from .groupext import (
    FiniteGroup,
    GroupFunction,
    SymmetricSubset,
    cyclic_group,
    dihedral_group,
    direct_product,
    group_function,
    invariant_kernel,
    is_chordal_subset,
    is_positive_definite_on,
    klein_four_group,
    positive_definite_extension,
    star_pattern,
    validate_group,
    validate_subset,
    word_chordality_oracle,
)
from .linalg import (
    RankOneFactor,
    eigh,
    is_psd,
    pseudo_inverse,
    smallest_eigenvalues,
)
from .pattern import (
    CliqueTree,
    Pattern,
    clique_tree,
    is_chordal,
    maximal_cliques,
    perfect_elimination_order,
    square_partition,
    validate_pattern,
)

__version__ = "0.1.0"
