"""Maximum satisfaction: orient edges so as many nodes as possible get at
least one incident edge pointed at them (at least one child home).

Each edge satisfies only its head, so a connected component with k nodes
can satisfy at most k of them, and at most k - 1 when it is a tree (its
k - 1 edges have k - 1 heads). Both bounds are met by a spanning forest
(Hakimi 1965): one breadth-first tree per component, rooted at its
smallest node, with every tree edge pointed at the child. That satisfies
every node but the root. If the component has a cycle, the first edge
found outside the tree, (x, y), points at x, and the tree path from x back
to the root is reversed: every node on it is then satisfied from below,
the root included. All other edges point at their lower endpoint.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import ConflictGraph

Orientation = dict[tuple[int, int], int]


@dataclass
class PeelStats:
    """Operation counter (adjacency steps and path flips) and a count of
    suboptimal components, which is 0 by construction: the orientation
    meets the per-component upper bound on every component."""

    ops: int = 0
    residual_anomalies: int = 0


def max_satisfaction(g: ConflictGraph) -> tuple[Orientation, int]:
    """Orientation maximizing the number of satisfied nodes, and that number."""
    orientation, count, _ = max_satisfaction_with_stats(g)
    return orientation, count


def max_satisfaction_with_stats(g: ConflictGraph) -> tuple[Orientation, int, PeelStats]:
    """Spanning-forest orientation (see the module docstring), its
    satisfied count and operation counters; O(V + E)."""
    orientation: Orientation = {}
    parent: dict[int, int] = {}
    stats = PeelStats()
    count = 0
    for root in sorted(g.nodes()):
        if root in parent:
            continue
        parent[root] = root
        tree = [root]
        cycle_at = None  # x of the first non-tree edge (x, y)
        for v in tree:
            for u in g.neighbors(v):
                stats.ops += 1
                edge = (v, u) if v < u else (u, v)
                if u not in parent:
                    parent[u] = v
                    orientation[edge] = u
                    tree.append(u)
                elif edge not in orientation:
                    if cycle_at is None:
                        cycle_at = v
                        orientation[edge] = v
                    else:
                        orientation[edge] = edge[0]
        if cycle_at is None:
            count += len(tree) - 1
            continue
        count += len(tree)
        v = cycle_at
        while v != root:
            u = parent[v]
            orientation[(u, v) if u < v else (v, u)] = u
            stats.ops += 1
            v = u
    return orientation, count, stats


def brute_force_satisfaction(g: ConflictGraph) -> int:
    """Maximum satisfied count over all edge orientations (test oracle).

    Exhaustive per connected component, with two sound cut-offs: stop a
    branch once it cannot touch more nodes than the best seen, and stop a
    component once every node in it is satisfied.
    """
    if g.num_edges() > 20:
        raise ValueError("brute force is capped at 20 edges")
    total = 0
    for comp in g.connected_components():
        index = {v: i for i, v in enumerate(comp)}
        edges = [(u, v) for u, v in g.edges() if u in index]
        if not edges:
            continue
        masks = [(1 << index[u], 1 << index[v]) for u, v in edges]
        full = (1 << len(comp)) - 1
        # suffix[k] = nodes reachable by edges k.. (upper bound on late gains)
        suffix = [0] * (len(edges) + 1)
        for k in range(len(edges) - 1, -1, -1):
            suffix[k] = suffix[k + 1] | masks[k][0] | masks[k][1]
        best = 0

        def explore(k: int, sat: int) -> None:
            nonlocal best
            if sat == full:
                best = len(comp)
                return
            if k == len(masks) or best == len(comp):
                best = max(best, bin(sat).count("1"))
                return
            if bin(sat | suffix[k]).count("1") <= best:
                return
            explore(k + 1, sat | masks[k][0])
            explore(k + 1, sat | masks[k][1])

        explore(0, 0)
        total += best
    return total


def alternating_schedule(g: ConflictGraph, v: int, t: int) -> bool:
    """Satisfied-or-not for node v on holiday t under strict alternation.

    Every couple alternates: their edge points to its lower-id endpoint on
    odd holidays and to its higher-id endpoint on even ones, so any node
    with a neighbor is satisfied at least every other holiday. A degree-0
    node is never satisfied; callers should treat such nodes separately.
    """
    if t < 1:
        raise ValueError("holidays are numbered from 1")
    if not g.has_node(v):
        raise ValueError(f"unknown node {v}")
    if t % 2 == 1:
        return any(u > v for u in g.neighbors(v))
    return any(u < v for u in g.neighbors(v))
