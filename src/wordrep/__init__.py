"""Representing words and semi-transitive orientations for small graphs.

The package decides word-representability of small graphs by exhaustive
semi-transitive orientation search, emits explicit representing words for
the co-bipartite families that have them (complements of paths, even
cycles, generalized crowns, and graphs with a fixed clique of size 2 or
3), and provides a structural characterization of semi-transitivity for
co-bipartite orientations that is cross-checked against the generic
definition.

``import wordrep`` imports no submodule.  ``_HOMES`` maps each submodule
to the names the package exports from it; the first use of one of those
names, or of the submodule as an attribute of the package, imports that
submodule (PEP 562), so a command pays only for the code it runs.
"""

__version__ = "0.1.0"

_HOMES = {
    "graphs": (
        "BipartiteSpec", "CoBipartitePartition", "GeneralizedCrownParams", "Graph",
        "GraphError", "cobipartite_from_bipartite", "cycle_bipartite",
        "format_graph_text", "generalized_crown", "named_witness", "parse_graph_text",
        "path_bipartite",
    ),
    "words": (
        "VerifyReport", "Word", "WordError", "alternates", "final_permutation",
        "initial_permutation", "is_uniform", "prepend_initial", "represents",
        "restrict", "rotate_uniform",
    ),
    "constructions": (
        "NeighborhoodProfile", "NeighborhoodProfile2", "NeighborhoodProfile3",
        "word_cobip", "word_complement_even_cycle", "word_complement_path",
        "word_generalized_crown",
    ),
    "orientations": (
        "CapExceededError", "Orientation", "OrientationError", "ShortcutWitness",
        "bounded_representation_number", "enumerate_acyclic_orientations",
        "find_noncomparability_witness", "find_semi_transitive_orientation",
        "find_shortcut", "find_uniform_word", "is_acyclic", "is_comparability",
        "is_semi_transitive", "is_word_representable", "representable_via_dominant",
    ),
    "cobipartite": (
        "CharacterizationReport", "CliqueOrder", "VertexTypeInfo", "classify_vertex",
        "clique_order", "is_semi_transitive_cobip", "sweep_orientations",
    ),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}
__all__ = [*_HOMES, *_HOME]


def __getattr__(name: str):
    home = name if name in _HOMES else _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # The import statement's own path, which -X importtime reports, unlike importlib's
    module = getattr(__import__(f"{__name__}.{home}"), home)
    value = module if home == name else getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOMES, *_HOME})
