"""Seeded graph generators and the closed forms the benchmark checks against.

Every generator returns an undirected edge list over ``range(n)`` as sorted
``(u, v)`` pairs with ``u < v``.  The closed forms read only those lists
(through :func:`adjacency`), never the library, so an answer check never
runs the code path it is checking.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence, Set, Tuple

Edge = Tuple[int, int]


def random_tree(rng: random.Random, n: int) -> List[Edge]:
    """A random recursive tree in which every vertex has at most three
    children, so degrees stay at most 4."""
    children = [0] * n
    open_slots = [0]
    edges = []
    for child in range(1, n):
        slot = rng.randrange(len(open_slots))
        parent = open_slots[slot]
        edges.append((parent, child))
        children[parent] += 1
        if children[parent] == 3:
            open_slots[slot] = open_slots[-1]
            open_slots.pop()
        open_slots.append(child)
    return sorted(edges)


def grid(rows: int, cols: int) -> List[Edge]:
    """The rows x cols grid graph, vertex ``r * cols + c``."""
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return sorted(edges)


def grid_shape(n: int) -> Tuple[int, int]:
    """A nearly square ``(rows, cols)`` with ``rows * cols`` close to ``n``."""
    rows = max(2, int(round(n ** 0.5)))
    return rows, max(2, int(round(n / rows)))


def bounded_degree(rng: random.Random, n: int, max_degree: int = 4) -> List[Edge]:
    """A random graph with maximum degree ``max_degree`` and about
    ``0.8 * n * max_degree / 2`` edges."""
    degree = [0] * n
    edges: Set[Edge] = set()
    wanted = int(0.8 * n * max_degree / 2)
    while len(edges) < wanted:
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v or degree[u] >= max_degree or degree[v] >= max_degree:
            continue
        edge = (min(u, v), max(u, v))
        if edge in edges:
            continue
        edges.add(edge)
        degree[u] += 1
        degree[v] += 1
    return sorted(edges)


def adjacency(n: int, edges: Sequence[Edge]) -> Dict[int, Set[int]]:
    neighbours: Dict[int, Set[int]] = {v: set() for v in range(n)}
    for u, v in edges:
        neighbours[u].add(v)
        neighbours[v].add(u)
    return neighbours


# -- closed forms over an adjacency map --------------------------------------


def degrees(adj: Dict[int, Set[int]]) -> Dict[int, int]:
    return {v: len(ns) for v, ns in adj.items()}


def walks2(adj: Dict[int, Set[int]]) -> int:
    """Number of (x, y, z) with E(x, y) and E(y, z): the sum of deg^2."""
    return sum(len(ns) ** 2 for ns in adj.values())


def walks3(adj: Dict[int, Set[int]]) -> int:
    """Number of (x, y, z, w) with E(x, y), E(y, z), E(z, w)."""
    return sum(len(adj[y]) * len(adj[z]) for y in adj for z in adj[y])


def neighbours_above(adj: Dict[int, Set[int]], k: int) -> Dict[int, int]:
    """For each x, how many neighbours have degree greater than ``k``."""
    return {x: sum(1 for y in ns if len(adj[y]) > k) for x, ns in adj.items()}


def neighbour_degree_sum(adj: Dict[int, Set[int]]) -> Dict[int, int]:
    """For each x, the number of (y, z) with E(x, y) and E(y, z)."""
    return {x: sum(len(adj[y]) for y in ns) for x, ns in adj.items()}


def open_paths(adj: Dict[int, Set[int]], x: int) -> int:
    """Paths x - y - z with z at distance greater than 1 from x (the
    unary 2-path cl-term of the benchmark, with pattern edges {1,2},{2,3})."""
    own = adj[x]
    return sum(1 for y in own for z in adj[y] if z != x and z not in own)
