"""b-chromatic numbers, b-colorings and dominance vectors for graphs of
stability two and for tree-cographs."""

from .bcoloring import (
    BVerdict,
    Coloring,
    coloring_to_matching,
    continuity_chain,
    matching_to_coloring,
    verify_coloring,
)
from .dominance import (
    DominanceVector,
    PivotReport,
    b_chromatic_tree,
    b_coloring_tree,
    dominance_join,
    dominance_tc,
    dominance_union,
    dominance_vector_tree,
    find_pivot,
)
from .graph import (
    Graph,
    TcExpr,
    TcJoin,
    TcLeaf,
    TcUnion,
    complement,
    decompose_tree_cograph,
    evaluate_tc,
    is_coforest,
    is_tree,
    is_triangle_free,
    m_degree_bound,
    m_i_count,
    stability_at_most_two,
)
from .matching import (
    augment,
    find_short_augmenting,
    is_strongly_maximal,
    least_deficiency_matchings,
    min_length_augmenting_path,
    s1_s2,
)
from .oracle import (
    OracleBudget,
    oracle_chi_b,
    oracle_chromatic,
    oracle_dominance,
    oracle_f_t_k,
    oracle_min_smm,
)
from .reduction import (
    Gadget,
    ReductionReport,
    build_gadget,
    certify_reduction,
    f_sets,
    lift_matching,
    normalize_smm,
    project_matching,
)
from .route import NEEDS, ROUTES, Route, plan
from .tree_dp import (
    DeficiencyTables,
    SmmTables,
    combine_all,
    combine_one_distinguished,
    deficiency_matching,
    deficiency_tables,
    deficiency_vector,
    f_tree_k,
    min_smm_forest,
    min_smm_tree,
    minplus_convolve,
    reconstruct_deficiency_matching,
    reconstruct_smm,
    smm_tables,
)

__all__ = [name for name in dir() if not name.startswith("_")]
