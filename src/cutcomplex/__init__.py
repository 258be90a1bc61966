"""Exact combinatorics of graph cut complexes.

Construction of k-cut complexes, integer simplicial homology with torsion,
shellability certificates, and discrete Morse matchings, with closed-form
Betti predictions for the standard graph families.
"""

from .bitsets import bits, ksubset_masks, mask_of, to_tuple
from .complexes import SimplicialComplex, from_facets, full_simplex
from .cuts import (
    BettiPrediction,
    NotCoveredError,
    connected_kset_census,
    cut_complex,
    disconnected_ksets,
    facets_via_ridges,
    forest_betti,
    predicted_betti,
    realize_as_cut_complex,
    skeleton_condition_euler,
    triangle_free_delta2_betti,
    wedge_anchor_count,
)
from .graphs import (
    FAMILIES,
    FamilySpecError,
    Graph,
    cartesian_product,
    disjoint_union,
    family,
    from_edge_list,
    graph_join,
    has_triangle,
    induced_subgraph,
    is_chordal,
    is_connected_subset,
    minimal_separators,
    parse_family,
    read_graph_text,
    shortest_cycle_length,
    wedge,
    write_graph_text,
)
from .homology import (
    HomologyReport,
    IntMatrix,
    boundary_matrices,
    reduced_homology,
    smith_normal_form,
)
from .morse import (
    MorseMatching,
    element_matching_sequence,
    prism_matching_order,
    restricted_matching,
    spanning_tree,
    tree_matching_order,
    verify_acyclic_and_critical,
)
from .shelling import (
    ShellingCertificate,
    cycle_lex_order,
    find_shelling,
    verify_shelling_order,
)

__version__ = "0.1.0"
