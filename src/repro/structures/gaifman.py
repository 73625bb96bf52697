"""Gaifman graphs, distances, balls and neighbourhoods (Section 2).

The Gaifman graph ``G_A`` of a structure ``A`` has the universe as vertices
and an edge between distinct ``a, b`` iff they co-occur in some tuple of some
relation.  All locality notions of the paper (r-balls ``N_r(a)``,
r-neighbourhood substructures, r-connectivity of tuples, the graphs
``G_{a-bar,r}``) are defined through it.

The BFS primitives run on the CSR int-array kernels of
:class:`~repro.structures.columnar.ColumnarStructure`
(:meth:`Structure.columnar`), which avoid per-node hashing and allocate
nothing per visited element.  :meth:`Structure.with_tuple` derives the
columnar view on insertion and deletion alike, so structures along an
update chain never rebuild it.  Returned dicts iterate in BFS discovery
order (callers relying on order use the sorted universe-order guarantees
documented per function).

Distances are returned as non-negative integers, with ``math.inf`` standing
for "no path" exactly as the paper's ``dist = infinity`` convention.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Dict, FrozenSet, Iterable, List, Sequence, Set, Tuple

from ..errors import UniverseError
from .structure import Element, Structure


def _source_ids(interner, sources: Iterable[Element]) -> List[int]:
    id_of = interner._ids
    ids: List[int] = []
    for source in sources:
        i = id_of.get(source)
        if i is None:
            raise UniverseError(f"{source!r} is not a universe element")
        ids.append(i)
    return ids


def distance(structure: Structure, source: Element, target: Element) -> float:
    """``dist_A(a, b)``: length of a shortest Gaifman-graph path, or ``inf``."""
    if source not in structure or target not in structure:
        raise UniverseError("distance endpoints must be universe elements")
    if source == target:
        return 0
    kernel = structure.columnar()
    id_of = kernel.interner._ids
    d = kernel.distance_between(id_of[source], id_of[target])
    return math.inf if d is None else d


def distances_from(
    structure: Structure, sources: Iterable[Element], radius: "float | None" = None
) -> Dict[Element, int]:
    """Multi-source BFS distances from ``sources``.

    Returns a dict mapping each element within ``radius`` (all reachable
    elements when ``radius`` is ``None``) to its distance from the *closest*
    source — the paper's ``dist_A(a-bar, b) = min_i dist(a_i, b)``.  The
    dict iterates in BFS discovery order; callers must not rely on the
    order beyond "sources first, then by increasing distance".
    """
    kernel = structure.columnar()
    ids, dists = kernel.distances(_source_ids(kernel.interner, sources), radius)
    elements = kernel.interner.elements
    return {elements[i]: d for i, d in zip(ids, dists)}


def tuple_distance(structure: Structure, tup: Sequence[Element], target: Element) -> float:
    """``dist_A(a-bar, b) = min_i dist(a_i, b)``; ``inf`` when unreachable."""
    best = math.inf
    for entry in tup:
        d = distance(structure, entry, target)
        if d < best:
            best = d
            if best == 0:
                break
    return best


def ball(structure: Structure, centres: Iterable[Element], radius: int) -> FrozenSet[Element]:
    """``N_r(a-bar)``: the set of elements at distance <= radius from the tuple."""
    if radius < 0:
        raise ValueError("radius must be non-negative")
    kernel = structure.columnar()
    interner = kernel.interner
    ids = kernel.ball_ids(_source_ids(interner, centres), radius)
    elements = interner.elements
    return frozenset(elements[i] for i in ids)


def neighbourhood(
    structure: Structure, centres: Iterable[Element], radius: int
) -> Structure:
    """The r-neighbourhood substructure ``A[N_r(a-bar)]``."""
    if radius < 0:
        raise ValueError("radius must be non-negative")
    kernel = structure.columnar()
    interner = kernel.interner
    ids = kernel.ball_ids(_source_ids(interner, centres), radius)
    elements = interner.elements
    # ball_ids returns sorted ids, and sorted ids *are* universe order —
    # the ordered element list is direct, skipping induced()'s O(|A|)
    # universe scan per ball.
    ordered = [elements[i] for i in ids]
    return _induced_ordered(structure, ordered, set(ordered))


def induced(structure: Structure, elements: Iterable[Element]) -> Structure:
    """The induced substructure ``A[B]`` on a non-empty ``B`` (subset of A)."""
    chosen = set(elements)
    if not chosen:
        raise UniverseError("cannot induce a substructure on the empty set")
    for element in chosen:
        if element not in structure:
            raise UniverseError(f"{element!r} is not a universe element")
    ordered = [a for a in structure.universe_order if a in chosen]
    return _induced_ordered(structure, ordered, chosen)


def _induced_ordered(
    structure: Structure, ordered: List[Element], chosen: Set[Element]
) -> Structure:
    """``A[B]`` from a pre-validated, universe-ordered element list.

    For small ``B`` the relevant tuples are gathered through the structure's
    per-position indexes (cost proportional to the tuples touching ``B``)
    rather than by scanning whole relations — the difference between
    O(|B| * degree) and O(||A||) per extraction, which matters when callers
    carve thousands of neighbourhood balls out of one big structure.
    """
    small = len(chosen) * 4 < structure.order()
    relations = {}
    for symbol, rel in structure.relations().items():
        if symbol.arity == 0 or not small:
            relations[symbol] = {
                tup for tup in rel if all(entry in chosen for entry in tup)
            }
            continue
        index = structure.index(symbol, 0)
        gathered = set()
        for element in chosen:
            for tup in index.get(element, ()):
                if all(entry in chosen for entry in tup):
                    gathered.add(tup)
        relations[symbol] = gathered
    return Structure(structure.signature, ordered, relations)


def connected_components(structure: Structure) -> List[FrozenSet[Element]]:
    """Connected components of the Gaifman graph, in deterministic order."""
    kernel = structure.columnar()
    neigh = kernel._neighbour_ids()
    elements = kernel.interner.elements
    seen = bytearray(kernel.n)
    components: List[FrozenSet[Element]] = []
    for start in range(kernel.n):
        if seen[start]:
            continue
        seen[start] = 1
        component = [start]
        frontier = [start]
        while frontier:
            node = frontier.pop()
            for neighbour in neigh[node]:
                if not seen[neighbour]:
                    seen[neighbour] = 1
                    component.append(neighbour)
                    frontier.append(neighbour)
        components.append(frozenset(elements[i] for i in component))
    return components


def is_connected(structure: Structure) -> bool:
    return len(connected_components(structure)) == 1


def connectivity_graph(
    structure: Structure, tup: Sequence[Element], radius: int
) -> FrozenSet[Tuple[int, int]]:
    """The graph ``G_{a-bar, r}`` of Section 7 as an edge set over 1-based
    positions: ``{i, j}`` is an edge iff ``i != j`` and ``dist(a_i, a_j) <= r``.

    Edges are returned as ordered pairs ``(i, j)`` with ``i < j``.
    """
    k = len(tup)
    edges = set()
    for i in range(k):
        reach = distances_from(structure, [tup[i]], radius)
        for j in range(i + 1, k):
            if tup[j] in reach:
                edges.add((i + 1, j + 1))
    return frozenset(edges)


def tuple_components(
    structure: Structure, tup: Sequence[Element], radius: int
) -> List[FrozenSet[int]]:
    """The r-components of a tuple: vertex sets of connected components of
    ``G_{a-bar, r}``, over 1-based positions, in order of smallest member."""
    k = len(tup)
    edges = connectivity_graph(structure, tup, radius)
    adjacency: Dict[int, Set[int]] = {i: set() for i in range(1, k + 1)}
    for i, j in edges:
        adjacency[i].add(j)
        adjacency[j].add(i)
    seen: Set[int] = set()
    components: List[FrozenSet[int]] = []
    for start in range(1, k + 1):
        if start in seen:
            continue
        component = {start}
        frontier = deque([start])
        while frontier:
            node = frontier.popleft()
            for neighbour in adjacency[node]:
                if neighbour not in component:
                    component.add(neighbour)
                    frontier.append(neighbour)
        seen |= component
        components.append(frozenset(component))
    return components


def is_tuple_connected(structure: Structure, tup: Sequence[Element], radius: int) -> bool:
    """Whether the tuple is r-connected (``G_{a-bar, r}`` connected)."""
    return len(tuple_components(structure, tup, radius)) <= 1


def eccentricity(structure: Structure, centre: Element) -> float:
    """Largest finite-or-infinite distance from ``centre`` to any element."""
    reach = distances_from(structure, [centre])
    if len(reach) < structure.order():
        return math.inf
    return max(reach.values())


def radius_of_set(structure: Structure, elements: FrozenSet[Element]) -> float:
    """The radius of a connected set X: min over c in X of the eccentricity of
    c *within the induced substructure* A[X] (Section 8.1)."""
    sub = induced(structure, elements)
    best = math.inf
    for candidate in sub.universe_order:
        reach = distances_from(sub, [candidate])
        if len(reach) < sub.order():
            continue
        best = min(best, max(reach.values()))
    return best
