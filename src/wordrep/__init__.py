"""Representing words and semi-transitive orientations for small graphs.

The package decides word-representability of small graphs by exhaustive
semi-transitive orientation search, emits explicit representing words for
the co-bipartite families that have them (complements of paths, even
cycles, generalized crowns, and graphs with a fixed clique of size 2 or
3), and provides a structural characterization of semi-transitivity for
co-bipartite orientations that is cross-checked against the generic
definition.
"""

from .graphs import (
    BipartiteSpec,
    CoBipartitePartition,
    GeneralizedCrownParams,
    Graph,
    GraphError,
    cobipartite_from_bipartite,
    cycle_bipartite,
    format_graph_text,
    generalized_crown,
    named_witness,
    parse_graph_text,
    path_bipartite,
)
from .words import (
    VerifyReport,
    Word,
    WordError,
    alternates,
    final_permutation,
    initial_permutation,
    is_uniform,
    prepend_initial,
    represents,
    restrict,
    rotate_uniform,
)
from .constructions import (
    NeighborhoodProfile,
    NeighborhoodProfile2,
    NeighborhoodProfile3,
    word_cobip,
    word_complement_even_cycle,
    word_complement_path,
    word_generalized_crown,
)
from .orientations import (
    CapExceededError,
    Orientation,
    OrientationError,
    ShortcutWitness,
    bounded_representation_number,
    enumerate_acyclic_orientations,
    find_noncomparability_witness,
    find_semi_transitive_orientation,
    find_shortcut,
    find_uniform_word,
    is_acyclic,
    is_comparability,
    is_semi_transitive,
    is_word_representable,
    representable_via_dominant,
)
from .cobipartite import (
    CharacterizationReport,
    CliqueOrder,
    VertexTypeInfo,
    classify_vertex,
    clique_order,
    is_semi_transitive_cobip,
    sweep_orientations,
)

__version__ = "0.1.0"
