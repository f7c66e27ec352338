"""Exact combinatorics and representation theory of wreath products of
symmetric groups, verifiable at desk scale."""

from .combinatorics import (
    all_perms,
    bruhat_leq_typeA,
    conjugate_partition,
    hook_dim,
    n_stat,
    partitions_of,
    perm_compose,
    perm_inverse,
    perm_length,
)
from .convolution import (
    AlgebraVector,
    BasisIndex,
    ProductResult,
    convolve,
    convolve_basis,
    involution_T,
    pi0_act,
    verify_relations,
    y_bar,
    y_bar_sum,
)
from .orbits import (
    check_dimension_property,
    component_group,
    enumerate_IS,
    fiber_dim,
    gamma_of,
    jordan_type,
    orbit_dim,
    orbit_label,
)
from .reptheory import (
    Character,
    CliffordLabel,
    Representation,
    char_of,
    clifford_irrep,
    clifford_label,
    enumerate_IC,
    extend_to_wreath,
    induce,
    inflate,
    isotypic_character,
    specht_rep,
    springer_module,
)
from .springer import (
    HuLabel,
    SpringerLabel,
    hu_index,
    psi,
    psi_inv,
    typeB_table,
    typeD_table,
    verify_springer,
)
from .wreath import (
    BoundExceededError,
    CheckFailed,
    WreathElement,
    WreathGroup,
    bruhat_leq_wreath,
    cell_statistics,
    coxeterB_leq,
    embed_md,
    hasse_covers,
)

__version__ = "0.1.0"
