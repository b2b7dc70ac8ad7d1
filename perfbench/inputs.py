"""Seeded input graphs for the benchmark workloads, built without wordrep.

Every generator takes a ``random.Random`` made from the run's seed, so the
same seed gives the same inputs.  Graphs are built from their textbook
definitions here, so the expected answers do not come from the code under
test.  Each input gets a seeded vertex relabelling (a shuffled vertex
order), because wordrep's enumeration order follows vertex index.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from random import Random
from typing import Optional


@dataclass(frozen=True)
class Graph:
    labels: tuple[str, ...]
    edges: frozenset  # of frozenset label pairs
    cliques: Optional[tuple[tuple[str, ...], tuple[str, ...]]] = None

    def shuffled(self, rng: Random) -> "Graph":
        labels = list(self.labels)
        rng.shuffle(labels)
        cliques = None
        if self.cliques is not None:
            cliques = tuple(tuple(v for v in labels if v in part) for part in self.cliques)
        return Graph(tuple(labels), self.edges, cliques)

    def edge_list(self) -> list[tuple[str, str]]:
        """Each edge once, endpoints in vertex order, edges in vertex order."""
        pos = {v: i for i, v in enumerate(self.labels)}
        pairs = [tuple(sorted(e, key=pos.__getitem__)) for e in self.edges]
        return sorted(pairs, key=lambda uv: (pos[uv[0]], pos[uv[1]]))

    def text(self) -> str:
        lines = ["vertices: " + " ".join(self.labels)]
        if self.cliques is not None:
            lines.append("cliqueA: " + " ".join(self.cliques[0]))
            lines.append("cliqueB: " + " ".join(self.cliques[1]))
        lines += [f"{u} {v}" for u, v in self.edge_list()]
        return "\n".join(lines) + "\n"

    def complement(self) -> "Graph":
        return Graph(self.labels, frozenset(
            frozenset(p) for p in combinations(self.labels, 2)
            if frozenset(p) not in self.edges), self.cliques)


def make(labels, pairs, cliques=None) -> Graph:
    return Graph(tuple(labels), frozenset(frozenset(p) for p in pairs), cliques)


def cobipartite(part_a, part_b, cross_pairs) -> Graph:
    """Two cliques joined by the given cross edges."""
    pairs = list(combinations(part_a, 2)) + list(combinations(part_b, 2)) + list(cross_pairs)
    return make(tuple(part_a) + tuple(part_b), pairs, (tuple(part_a), tuple(part_b)))


def cross_complement(part_a, part_b, bipartite_pairs) -> Graph:
    """Complement of a bipartite graph: both parts become cliques."""
    missing = {frozenset(p) for p in bipartite_pairs}
    return cobipartite(part_a, part_b, [(a, b) for a in part_a for b in part_b
                                        if frozenset((a, b)) not in missing])


def primed(i: int) -> str:
    return f"{i}'"


# --- the paper's families -------------------------------------------------


def co_path(n: int, even: bool = True) -> Graph:
    """Complement of the path 1, 1', 2, 2', ..., n, n' (without n' when odd)."""
    seq = [x for i in range(1, n + 1) for x in (str(i), primed(i))]
    if not even:
        seq.pop()
    xs = [v for v in seq if not v.endswith("'")]
    ys = [v for v in seq if v.endswith("'")]
    return cross_complement(xs, ys, zip(seq, seq[1:]))


def co_cycle(n: int) -> Graph:
    """Complement of the even cycle 1, 1', ..., n, n', 1."""
    seq = [x for i in range(1, n + 1) for x in (str(i), primed(i))]
    xs, ys = seq[0::2], seq[1::2]
    return cross_complement(xs, ys, list(zip(seq, seq[1:])) + [(seq[-1], seq[0])])


def co_crown(n: int, k: int) -> Graph:
    """Complement of K_{n,n} minus the matchings i ~ (i+t)' for t = 0..k (mod n)."""
    xs = [str(i) for i in range(1, n + 1)]
    ys = [primed(j) for j in range(1, n + 1)]
    removed = {(str(i), primed((i - 1 + t) % n + 1)) for i in range(1, n + 1)
               for t in range(k + 1)}
    crown = [(x, y) for x in xs for y in ys if (x, y) not in removed]
    return cross_complement(xs, ys, crown)


# Neighbourhood classes towards the fixed clique.  Size 3 excludes the empty
# class and the full class, as the paper's block word does.
K2_CLASSES = ("", "1", "2", "12")
K3_CLASSES = ("1", "2", "3", "12", "13", "23")


def profile_graph(fixed: int, classes: list[str]) -> Graph:
    """Fixed clique 1..fixed, members m0, m1, ... adjacent to their class."""
    part_a = [str(i) for i in range(1, fixed + 1)]
    part_b = [f"m{i}" for i in range(len(classes))]
    cross = [(t, m) for m, cls in zip(part_b, classes) for t in cls]
    return cobipartite(part_a, part_b, cross)


def random_profile_graph(fixed: int, sizes, rng: Random) -> Graph:
    """Profile graph whose members have classes of the given sizes, drawn at random."""
    allowed = K2_CLASSES if fixed == 2 else K3_CLASSES
    return profile_graph(fixed, [rng.choice([c for c in allowed if len(c) == size])
                                 for size in sizes])


def profile_arg(classes: list[str]) -> str:
    return ",".join(f"m{i}:N{cls or '0'}" for i, cls in enumerate(classes))


# --- witnesses and classical graphs --------------------------------------


def t1bar() -> Graph:
    """Complement of a 6-cycle plus an isolated vertex."""
    c6 = [(str(i), str(i % 6 + 1)) for i in range(1, 7)]
    return cross_complement(("1", "3", "5", "7"), ("2", "4", "6"), c6)


def t2bar() -> Graph:
    """Complement of the spider with centre 4, legs 4-5-1, 4-6-2, 4-7-3."""
    spider = [("1", "5"), ("2", "6"), ("3", "7"), ("4", "5"), ("4", "6"), ("4", "7")]
    return cross_complement(("1", "2", "3", "4"), ("5", "6", "7"), spider)


def g1bar(n: int) -> Graph:
    """Complement of the crown K_{n,n} minus a perfect matching, plus an isolated v."""
    xs = [str(i) for i in range(1, n + 1)] + ["v"]
    ys = [primed(j) for j in range(1, n + 1)]
    crown = [(str(i), primed(j)) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    return cross_complement(xs, ys, crown)


def cycle(n: int) -> Graph:
    return make([str(i) for i in range(n)], [(str(i), str((i + 1) % n)) for i in range(n)])


def path(n: int) -> Graph:
    return make([str(i) for i in range(n)], [(str(i), str(i + 1)) for i in range(n - 1)])


def complete(n: int) -> Graph:
    return make([str(i) for i in range(n)], combinations([str(i) for i in range(n)], 2))


def cone(g: Graph, hub: str = "z") -> Graph:
    """g plus one vertex adjacent to every vertex of g."""
    return Graph(g.labels + (hub,), g.edges | {frozenset((hub, v)) for v in g.labels})


def wheel5() -> Graph:
    return cone(cycle(5), "5")


def with_extra_vertices(g: Graph, degrees: list[int], rng: Random) -> Graph:
    """g plus vertices x0, x1, ..., the t-th joined to ``degrees[t]`` random earlier vertices."""
    labels = list(g.labels)
    edges = set(g.edges)
    for t, degree in enumerate(degrees):
        extra = f"x{t}"
        edges |= {frozenset((extra, v)) for v in rng.sample(labels, degree)}
        labels.append(extra)
    return Graph(tuple(labels), frozenset(edges))


def random_bipartite(n_x: int, n_y: int, rng: Random) -> Graph:
    xs = [f"a{i}" for i in range(n_x)]
    ys = [f"b{i}" for i in range(n_y)]
    return make(xs + ys, [(x, y) for x in xs for y in ys if rng.random() < 0.5])


def random_cross_pattern(size_a: int, size_b: int, cross: int, rng: Random) -> Graph:
    """Two cliques a0.., b0.. joined by ``cross`` cross edges chosen at random."""
    part_a = [f"a{i}" for i in range(size_a)]
    part_b = [f"b{i}" for i in range(size_b)]
    pairs = [(a, b) for a in part_a for b in part_b]
    return cobipartite(part_a, part_b, rng.sample(pairs, cross))


def is_t1_or_t2(g: Graph) -> bool:
    """Whether a 3+4 co-bipartite graph is isomorphic to T1bar or T2bar.

    The complement is the bipartite graph H of cross non-edges.  H is a
    6-cycle plus an isolated vertex exactly when its degrees are six 2s and
    one 0 (a 2-regular bipartite graph on six vertices is a 6-cycle).  H is
    the spider exactly when it is a tree whose one degree-3 vertex has
    three degree-2 neighbours.
    """
    h = g.complement()
    degree = {v: sum(1 for e in h.edges if v in e) for v in g.labels}
    if len(h.edges) != 6:
        return False
    if sorted(degree.values()) == [0, 2, 2, 2, 2, 2, 2]:
        return True
    if sorted(degree.values()) != [1, 1, 1, 2, 2, 2, 3]:
        return False
    centre = next(v for v, d in degree.items() if d == 3)
    around = [next(iter(e - {centre})) for e in h.edges if centre in e]
    if any(degree[v] != 2 for v in around):
        return False
    reached, frontier = {centre}, [centre]
    while frontier:
        v = frontier.pop()
        for e in h.edges:
            if v in e:
                (w,) = e - {v}
                if w not in reached:
                    reached.add(w)
                    frontier.append(w)
    return len(reached) == len(g.labels)
