"""Small simple graphs over string vertex labels.

Adjacency is stored as one bitset per vertex, which keeps the exhaustive
searches elsewhere in the package cheap.  Everything here is immutable:
operations return new graphs and never reorder the vertex list of their
input.  Labels are plain strings so primed names such as ``1'`` survive
round trips through text files.

The module also provides the bipartite family builders (paths, cycles,
generalized crowns), their co-bipartite complements, and a small catalog
of named witness graphs used throughout the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Iterable, Iterator, Optional

MAX_VERTICES = 64


class GraphError(ValueError):
    """Malformed graph data: bad labels, bad edges, or size over the cap."""


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True, eq=False)
class Graph:
    """Simple undirected graph: ordered labels plus symmetric bitset adjacency."""

    vertices: tuple[str, ...]
    adj: tuple[int, ...]

    @cached_property
    def _index(self) -> dict[str, int]:
        return {v: i for i, v in enumerate(self.vertices)}

    @cached_property
    def _by_partition(self) -> dict:
        """What ``cobipartite`` derives from this graph and a partition, by
        partition: both are immutable, so it is computed once."""
        return {}

    @classmethod
    def from_edges(cls, vertices: Iterable[str], edges: Iterable[tuple[str, str]]) -> "Graph":
        verts = tuple(vertices)
        for v in verts:
            # such labels would not survive a round trip through the text format
            if v.split() != [v] or "#" in v or ":" in v:
                raise GraphError(f"bad vertex label {v!r}: empty, whitespace, '#' or ':'")
        if len(set(verts)) != len(verts):
            raise GraphError("duplicate vertex labels")
        if len(verts) > MAX_VERTICES:
            raise GraphError(f"too many vertices ({len(verts)} > {MAX_VERTICES})")
        index = {v: i for i, v in enumerate(verts)}
        adj = [0] * len(verts)
        for u, v in edges:
            if u not in index or v not in index:
                raise GraphError(f"edge ({u}, {v}) uses an unknown vertex")
            if u == v:
                raise GraphError(f"self-loop at {u}")
            adj[index[u]] |= 1 << index[v]
            adj[index[v]] |= 1 << index[u]
        return cls(verts, tuple(adj))

    def __len__(self) -> int:
        return len(self.vertices)

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise GraphError(f"unknown vertex {label!r}") from None

    def has_edge(self, u: str, v: str) -> bool:
        return bool(self.adj[self.index(u)] >> self.index(v) & 1)

    def neighbors(self, v: str) -> tuple[str, ...]:
        return tuple(self.vertices[i] for i in _bits(self.adj[self.index(v)]))

    def degree(self, v: str) -> int:
        return self.adj[self.index(v)].bit_count()

    def edges(self) -> list[tuple[str, str]]:
        """Edge list in vertex order, each edge once with the earlier endpoint first."""
        out = []
        for i, mask in enumerate(self.adj):
            for j in _bits(mask >> (i + 1) << (i + 1)):
                out.append((self.vertices[i], self.vertices[j]))
        return out

    @property
    def edge_count(self) -> int:
        return sum(mask.bit_count() for mask in self.adj) // 2

    def complement(self) -> "Graph":
        full = (1 << len(self.vertices)) - 1
        return Graph(
            self.vertices,
            tuple((full ^ mask ^ (1 << i)) for i, mask in enumerate(self.adj)),
        )

    def induced(self, labels: Iterable[str]) -> "Graph":
        """Induced subgraph; kept vertices stay in their original order."""
        keep = set(labels)
        verts = tuple(v for v in self.vertices if v in keep)
        missing = keep - set(verts)
        if missing:
            raise GraphError(f"unknown vertices {sorted(missing)}")
        return Graph.from_edges(
            verts, [(u, v) for u, v in self.edges() if u in keep and v in keep]
        )

    def without(self, label: str) -> "Graph":
        """The graph minus one vertex; the others keep their order."""
        i = self.index(label)
        low = (1 << i) - 1
        return Graph(self.vertices[:i] + self.vertices[i + 1:],
                     tuple(m & low | m >> (i + 1) << i for j, m in enumerate(self.adj) if j != i))

    def is_clique(self, labels: Iterable[str]) -> bool:
        idx = [self.index(v) for v in labels]
        return all(self.adj[i] >> j & 1 for i, j in combinations(idx, 2))

    def edge_set(self) -> frozenset[frozenset[str]]:
        return frozenset(frozenset(e) for e in self.edges())

    def __eq__(self, other: object) -> bool:
        # Label-set plus edge-set equality; vertex order is irrelevant.
        if not isinstance(other, Graph):
            return NotImplemented
        return set(self.vertices) == set(other.vertices) and self.edge_set() == other.edge_set()

    def __hash__(self) -> int:
        return hash((frozenset(self.vertices), self.edge_set()))

    def __repr__(self) -> str:
        return f"Graph({len(self.vertices)} vertices, {self.edge_count} edges)"


@dataclass(frozen=True)
class BipartiteSpec:
    """Bipartite graph given by its two independent parts and the cross edges."""

    part_x: tuple[str, ...]
    part_y: tuple[str, ...]
    cross_edges: frozenset[tuple[str, str]]

    def __post_init__(self) -> None:
        xs, ys = set(self.part_x), set(self.part_y)
        if len(xs) != len(self.part_x) or len(ys) != len(self.part_y):
            raise GraphError("duplicate labels within a part")
        if xs & ys:
            raise GraphError(f"parts overlap: {sorted(xs & ys)}")
        for x, y in self.cross_edges:
            if x not in xs or y not in ys:
                raise GraphError(f"cross edge ({x}, {y}) does not join X to Y")

    def graph(self) -> Graph:
        return Graph.from_edges(self.part_x + self.part_y, self.cross_edges)


@dataclass(frozen=True)
class CoBipartitePartition:
    """Split of a co-bipartite graph's vertices into two cliques."""

    clique_a: tuple[str, ...]
    clique_b: tuple[str, ...]

    def __post_init__(self) -> None:
        # tuples, so that a partition built from lists can key a memo
        for name in ("clique_a", "clique_b"):
            clique = getattr(self, name)
            if isinstance(clique, str):
                raise GraphError(f"{name} must be a sequence of labels, not the string {clique!r}")
            object.__setattr__(self, name, tuple(clique))

    def validate(self, g: Graph) -> tuple[list[int], list[int]]:
        """Raise GraphError unless the cliques split ``g``; return their index lists."""
        a, b = set(self.clique_a), set(self.clique_b)
        if a & b:
            raise GraphError("cliques overlap")
        if a | b != g._index.keys():
            raise GraphError("partition does not cover the vertex set")
        sides = []
        for part, labels, name in ((self.clique_a, a, "cliqueA"), (self.clique_b, b, "cliqueB")):
            idx = [g._index[v] for v in part]
            mask = sum(1 << i for i in idx)
            # a repeated label is not a clique, as with is_clique
            if len(labels) != len(idx) or any((g.adj[i] | 1 << i) & mask != mask for i in idx):
                raise GraphError(f"{name} does not induce a complete subgraph")
            sides.append(idx)
        return sides[0], sides[1]


@dataclass(frozen=True)
class GeneralizedCrownParams:
    """Crown-family parameters: part size n, and k+1 perfect matchings removed."""

    n: int
    k: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise GraphError("part size n must be >= 1")
        if not 0 <= self.k <= self.n - 1:
            raise GraphError(f"need 0 <= k <= n-1, got k={self.k}, n={self.n}")


def unprimed(i: int) -> str:
    return str(i)


def primed(i: int) -> str:
    return f"{i}'"


def _parts(n: int) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The parts 1..n and 1'..n' of the path, cycle and crown families.

    Rejects 2n > MAX_VERTICES here, before a caller builds its edge lists,
    which grow with n^2 in the co-bipartite complement.
    """
    if 2 * n > MAX_VERTICES:
        raise GraphError(f"too many vertices ({2 * n} > {MAX_VERTICES})")
    return tuple(unprimed(i) for i in range(1, n + 1)), tuple(primed(i) for i in range(1, n + 1))


def path_bipartite(n: int) -> BipartiteSpec:
    """Even path on 2n vertices, laid out as 1, 1', 2, 2', ..., n, n'.

    Part X is {1..n}, part Y is {1'..n'}; the path edges are 1~1' and, for
    1 < i <= n, i~(i-1)' and i~i'.
    """
    if n < 1:
        raise GraphError("need n >= 1")
    part_x, part_y = _parts(n)
    edges = {(unprimed(1), primed(1))}
    for i in range(2, n + 1):
        edges.add((unprimed(i), primed(i - 1)))
        edges.add((unprimed(i), primed(i)))
    return BipartiteSpec(part_x, part_y, frozenset(edges))


def cycle_bipartite(n: int) -> BipartiteSpec:
    """Even cycle on 2n vertices: the even path closed up by the edge 1~n'."""
    if n < 2:
        raise GraphError("need n >= 2 for a simple even cycle")
    path = path_bipartite(n)
    return BipartiteSpec(
        path.part_x, path.part_y, path.cross_edges | {(unprimed(1), primed(n))}
    )


def crown_removed_neighbors(params: GeneralizedCrownParams, i: int) -> set[str]:
    """Primed vertices matched away from i: i', (i+1)', ..., (i+k)', wrapping mod n."""
    n, k = params.n, params.k
    return {primed((i - 1 + t) % n + 1) for t in range(k + 1)}


def generalized_crown(params: GeneralizedCrownParams) -> BipartiteSpec:
    """Complete bipartite K_{n,n} with k+1 structured perfect matchings removed.

    i is matched away from (i+t)' for t = 0..k (``crown_removed_neighbors``),
    so i~j' is an edge iff (j - i) mod n > k.
    """
    n, k = params.n, params.k
    part_x, part_y = _parts(n)
    edges = frozenset((x, y) for i, x in enumerate(part_x)
                      for j, y in enumerate(part_y) if (j - i) % n > k)
    return BipartiteSpec(part_x, part_y, edges)


def cobipartite_from_bipartite(spec: BipartiteSpec) -> tuple[Graph, CoBipartitePartition]:
    """Complement of a bipartite graph: both parts become cliques, cross edges
    flip, and the parts are the partition."""
    return spec.graph().complement(), CoBipartitePartition(spec.part_x, spec.part_y)


# The two non-word-representable co-bipartite graphs on 7 vertices (there
# are exactly two, verified exhaustively in the test suite) arise as
# complements of small bipartite graphs: a 6-cycle plus an isolated vertex,
# and a 7-vertex spider tree.  They are built from those underlying
# bipartite graphs, not hard-coded.
_T1_EDGES = [
    ("1", "2"), ("2", "3"), ("3", "4"),
    ("4", "5"), ("5", "6"), ("6", "1"),
]
_T2_EDGES = [
    ("1", "5"), ("2", "6"), ("3", "7"),
    ("4", "5"), ("4", "6"), ("4", "7"),
]


def named_witness(name: str, n: Optional[int] = None) -> tuple[Graph, CoBipartitePartition]:
    """Catalog of witness graphs: ``T1bar``, ``T2bar``, and ``G1bar`` (needs n >= 3).

    T1bar and T2bar are the 7-vertex complements described above.  G1bar(n)
    is the complement of a crown plus one isolated vertex ``v``; in the
    complement ``v`` is adjacent to everything, and the returned partition
    records it inside clique A next to the unprimed vertices.
    """
    if name == "T1bar":
        t1 = Graph.from_edges([str(i) for i in range(1, 8)], _T1_EDGES)
        return t1.complement(), CoBipartitePartition(("1", "3", "5", "7"), ("2", "4", "6"))
    if name == "T2bar":
        t2 = Graph.from_edges([str(i) for i in range(1, 8)], _T2_EDGES)
        return t2.complement(), CoBipartitePartition(("1", "2", "3", "4"), ("5", "6", "7"))
    if name == "G1bar":
        if n is None or n < 3:
            raise GraphError("G1bar needs n >= 3")
        crown = generalized_crown(GeneralizedCrownParams(n, 0))
        with_isolated = Graph.from_edges(
            crown.part_x + crown.part_y + ("v",), crown.cross_edges)
        return with_isolated.complement(), CoBipartitePartition(
            crown.part_x + ("v",), crown.part_y)
    raise GraphError(f"unknown witness {name!r}")


# --- text format ---------------------------------------------------------
#
# line 1:        vertices: <label> <label> ...
# optional:      cliqueA: <labels> / cliqueB: <labels>
# other lines:   <label> <label>     one edge per line
# '#' starts a comment; blank lines are ignored.  Each header and each edge
# may appear once; labels never hold whitespace, '#' or ':' (from_edges).


def parse_graph_text(text: str) -> tuple[Graph, Optional[CoBipartitePartition]]:
    headers: dict[str, tuple[str, ...]] = {}
    edges: dict[frozenset[str], tuple[str, str]] = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, colon, rest = line.partition(":")
        if colon and key in ("vertices", "cliqueA", "cliqueB"):
            if key in headers:
                raise GraphError(f"repeated '{key}:' line")
            headers[key] = tuple(rest.split())
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphError(f"bad edge line: {raw!r}")
        if frozenset(parts) in edges:
            raise GraphError(f"repeated edge: {raw!r}")
        edges[frozenset(parts)] = (parts[0], parts[1])
    if "vertices" not in headers:
        raise GraphError("missing 'vertices:' line")
    g = Graph.from_edges(headers["vertices"], edges.values())
    partition = None
    clique_a, clique_b = headers.get("cliqueA"), headers.get("cliqueB")
    if clique_a is not None or clique_b is not None:
        if clique_a is None or clique_b is None:
            raise GraphError("cliqueA and cliqueB must both be present")
        partition = CoBipartitePartition(clique_a, clique_b)
        partition.validate(g)
    return g, partition


def format_graph_text(g: Graph, partition: Optional[CoBipartitePartition] = None) -> str:
    lines = ["vertices: " + " ".join(g.vertices)]
    if partition is not None:
        lines.append("cliqueA: " + " ".join(partition.clique_a))
        lines.append("cliqueB: " + " ".join(partition.clique_b))
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"
