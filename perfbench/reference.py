"""Independent reference checks for the benchmark's known answers.

Nothing here imports wordrep.  A graph is a pair ``(labels, edges)`` with
``edges`` a set of frozenset label pairs; the helpers turn it into index
bitsets where a check needs speed.  Every check raises ``CheckFailed``
with a reason, so a caller can count a wrong verdict or a corrupted
certificate as one failed input.
"""

from __future__ import annotations

from itertools import combinations


class CheckFailed(AssertionError):
    """An output disagrees with the known answer or fails its certificate check."""


def require(condition: bool, reason: str) -> None:
    if not condition:
        raise CheckFailed(reason)


def adjacency(labels, edges) -> list[int]:
    index = {v: i for i, v in enumerate(labels)}
    adj = [0] * len(labels)
    for e in edges:
        u, v = tuple(e)
        adj[index[u]] |= 1 << index[v]
        adj[index[v]] |= 1 << index[u]
    return adj


# --- acyclic orientations by source removal (Stanley 1973) -----------------
#
# Every acyclic orientation has a non-empty independent set of sources.
# Inclusion-exclusion over that set gives
#   a(S) = sum over non-empty independent I within S of (-1)^(|I|+1) a(S - I),
# evaluated here on every vertex subset S in increasing mask order.


def count_acyclic_orientations(labels, edges) -> int:
    adj = adjacency(labels, edges)
    n = len(labels)
    size = 1 << n
    independent = [True] * size
    for mask in range(1, size):
        low = (mask & -mask).bit_length() - 1
        rest = mask ^ (1 << low)
        independent[mask] = independent[rest] and not adj[low] & rest
    count = [0] * size
    count[0] = 1
    for s in range(1, size):
        total = 0
        sub = s
        while sub:
            if independent[sub]:
                sign = 1 if sub.bit_count() % 2 else -1
                total += sign * count[s ^ sub]
            sub = (sub - 1) & s
        count[s] = total
    return count[size - 1]


# --- orientation certificates ----------------------------------------------


def parse_arcs(labels, edges, arcs) -> list[int]:
    """Out-neighbour bitsets of an orientation given as (tail, head) pairs.

    Fails unless every edge of the graph is directed exactly once and no
    arc leaves the edge set.
    """
    index = {v: i for i, v in enumerate(labels)}
    out = [0] * len(labels)
    seen = set()
    for tail, head in arcs:
        require(tail in index and head in index, f"arc {tail}->{head} names a non-vertex")
        pair = frozenset((tail, head))
        require(pair in edges, f"arc {tail}->{head} is not an edge")
        require(pair not in seen, f"edge {tail}-{head} directed twice")
        seen.add(pair)
        out[index[tail]] |= 1 << index[head]
    require(len(seen) == len(edges), "some edge received no direction")
    return out


def is_acyclic(out: list[int]) -> bool:
    indeg = [0] * len(out)
    for mask in out:
        for j in range(len(out)):
            indeg[j] += mask >> j & 1
    ready = [i for i, d in enumerate(indeg) if d == 0]
    done = 0
    while ready:
        i = ready.pop()
        done += 1
        for j in range(len(out)):
            if out[i] >> j & 1:
                indeg[j] -= 1
                if indeg[j] == 0:
                    ready.append(j)
    return done == len(out)


def has_shortcut(out: list[int]) -> bool:
    """Brute force over directed paths v0 -> ... -> vk with k >= 3.

    On an acyclic orientation such a path with the edge v0 -> vk is a
    shortcut exactly when two of its vertices are not adjacent.
    """
    n = len(out)
    und = [out[i] | sum((out[j] >> i & 1) << j for j in range(n)) for i in range(n)]

    def walk(path: list[int], complete: bool) -> bool:
        last = path[-1]
        for nxt in range(n):
            if not out[last] >> nxt & 1:
                continue
            still = complete and all(und[p] >> nxt & 1 for p in path[:-1])
            if len(path) >= 3 and not still and out[path[0]] >> nxt & 1:
                return True
            if walk(path + [nxt], still):
                return True
        return False

    return any(walk([v], True) for v in range(n))


def is_transitive(out: list[int]) -> bool:
    return all(not (out[j] & ~mask)
               for mask in out for j in range(len(out)) if mask >> j & 1)


def check_semi_transitive(labels, edges, arcs) -> None:
    out = parse_arcs(labels, edges, arcs)
    require(is_acyclic(out), "orientation has a directed cycle")
    require(not has_shortcut(out), "orientation has a shortcut")


def check_transitive(labels, edges, arcs) -> None:
    out = parse_arcs(labels, edges, arcs)
    require(is_transitive(out), "orientation is not transitive")


# --- odd closed walks (the chord check of acceptance criterion 5) ----------


def check_chordless_odd_walk(edges, walk) -> None:
    k = len(walk)
    require(k % 2 == 1 and k >= 5, f"walk length {k} is not odd and at least 5")
    used = set()
    for i in range(k):
        a, b = walk[i], walk[(i + 1) % k]
        require(frozenset((a, b)) in edges, f"walk step {a}-{b} is not an edge")
        require((a, b) not in used, f"walk repeats the step {a}->{b}")
        used.add((a, b))
    for i in range(k):
        a, c = walk[i], walk[(i + 2) % k]
        require(a == c or frozenset((a, c)) not in edges,
                f"walk has the triangular chord {a}-{c}")


# --- words -------------------------------------------------------------------


def alternates(px: list[int], py: list[int]) -> bool:
    """Two letters alternate when their merged positions never repeat a letter."""
    if abs(len(px) - len(py)) > 1:
        return False
    merged = sorted([(p, 0) for p in px] + [(p, 1) for p in py])
    return all(merged[t][1] != merged[t + 1][1] for t in range(len(merged) - 1))


def check_word_represents(labels, edges, letters) -> None:
    positions: dict[str, list[int]] = {}
    for t, letter in enumerate(letters):
        positions.setdefault(letter, []).append(t)
    require(set(positions) == set(labels), "word alphabet differs from the vertex set")
    for x, y in combinations(labels, 2):
        require(alternates(positions[x], positions[y]) == (frozenset((x, y)) in edges),
                f"pair {x},{y} breaks alternation-iff-adjacency")
