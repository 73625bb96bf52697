"""Finite relational structures (Section 2 of the paper).

A sigma-structure ``A`` consists of a finite non-empty universe and one finite
relation per symbol of its signature.  Structures here are immutable after
construction; derived data (Gaifman adjacency, per-position indexes) is
computed lazily and cached, which is safe precisely because the relational
content never changes.

Universe elements may be arbitrary hashable Python objects.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, Iterable, List, Mapping, Set, Tuple

from ..errors import ArityError, SignatureError, UniverseError
from .signature import RelationSymbol, Signature

Element = Hashable
Tup = Tuple[Element, ...]


class Structure:
    """An immutable finite sigma-structure.

    Parameters
    ----------
    signature:
        The structure's signature.
    universe:
        A non-empty iterable of hashable elements.  Duplicates are collapsed;
        iteration order of the structure follows first occurrence, giving
        deterministic behaviour for evaluation and printing.
    relations:
        Mapping from relation *names* (or :class:`RelationSymbol`) to iterables
        of tuples.  Symbols of the signature that are missing from the mapping
        get the empty relation.  Every tuple must have the symbol's arity and
        all its entries must belong to the universe.

    Cache contract
    --------------
    Derived data — the Gaifman :meth:`adjacency`, the per-position
    :meth:`index` maps and the :meth:`columnar` view — is computed lazily
    and cached on the instance.  This is sound because the relational
    content never changes through the public API.  "Updates" are expressed
    as *derivation*: :meth:`with_tuple` returns a **new** structure sharing
    the unchanged relations with its parent and carrying every view the
    parent had already built, derived by a change proportional to the
    touched tuple's neighbourhood (insertions and deletions alike), so a
    query → update → query sequence always sees fresh derived data on the
    derived structure while the parent's caches stay valid for the parent.
    Code that nevertheless reaches into the internals (test harnesses,
    surgical subclasses) must call :meth:`invalidate_caches` afterwards or
    the next :meth:`adjacency` / :meth:`index` read will serve stale
    answers.
    """

    __slots__ = (
        "_signature",
        "_universe_order",
        "_universe",
        "_relations",
        "_adjacency",
        "_indexes",
        "_size",
        "_stats",
        "_interner",
        "_columnar",
    )

    def __init__(
        self,
        signature: Signature,
        universe: Iterable[Element],
        relations: "Mapping[object, Iterable[Tup]] | None" = None,
    ):
        universe_order: List[Element] = []
        seen = set()
        for element in universe:
            if element not in seen:
                seen.add(element)
                universe_order.append(element)
        if not universe_order:
            raise UniverseError("a structure's universe must be non-empty")

        resolved: Dict[RelationSymbol, FrozenSet[Tup]] = {
            symbol: frozenset() for symbol in signature
        }
        if relations:
            for key, tuples in relations.items():
                symbol = self._resolve_symbol(signature, key)
                checked = []
                for tup in tuples:
                    tup = tuple(tup)
                    if len(tup) != symbol.arity:
                        raise ArityError(
                            f"tuple {tup!r} has length {len(tup)}, but "
                            f"{symbol.name} has arity {symbol.arity}"
                        )
                    for entry in tup:
                        if entry not in seen:
                            raise UniverseError(
                                f"tuple {tup!r} of {symbol.name} mentions "
                                f"{entry!r}, which is not in the universe"
                            )
                    checked.append(tup)
                resolved[symbol] = frozenset(checked)

        self._signature = signature
        self._universe_order = tuple(universe_order)
        self._universe = frozenset(universe_order)
        self._relations = resolved
        self._adjacency: "Dict[Element, FrozenSet[Element]] | None" = None
        self._indexes: Dict[Tuple[str, int], Dict[Element, Tuple[Tup, ...]]] = {}
        self._size = len(universe_order) + sum(len(rel) for rel in resolved.values())
        # Cached cost-model statistics (repro.cost.stats.StructureStats).
        # Opaque to this module: built and read through structure_stats(),
        # derived duck-typed in with_tuple(), dropped by invalidate_caches().
        self._stats: "object | None" = None
        # Interned-id layer (repro.structures.interning / .columnar), lazy.
        # The interner depends only on the universe and is therefore shared
        # with derived structures and kept across invalidate_caches(); the
        # columnar view depends on the relations and follows the same
        # lifecycle as adjacency/indexes/stats.
        self._interner: "object | None" = None
        self._columnar: "object | None" = None

    @staticmethod
    def _resolve_symbol(signature: Signature, key: object) -> RelationSymbol:
        if isinstance(key, RelationSymbol):
            if key not in signature:
                raise SignatureError(f"symbol {key!r} is not in the signature")
            return key
        if isinstance(key, str):
            return signature[key]
        raise SignatureError(f"cannot resolve relation key {key!r}")

    # -- basic accessors -------------------------------------------------------

    @property
    def signature(self) -> Signature:
        return self._signature

    @property
    def universe(self) -> FrozenSet[Element]:
        return self._universe

    @property
    def universe_order(self) -> Tuple[Element, ...]:
        """The universe in deterministic (insertion) order."""
        return self._universe_order

    def relation(self, key: object) -> FrozenSet[Tup]:
        """The interpretation of a relation symbol (by symbol or name)."""
        return self._relations[self._resolve_symbol(self._signature, key)]

    def relations(self) -> Mapping[RelationSymbol, FrozenSet[Tup]]:
        return dict(self._relations)

    def has_tuple(self, key: object, tup: Tup) -> bool:
        return tuple(tup) in self.relation(key)

    def order(self) -> int:
        """``|A|``: the number of universe elements."""
        return len(self._universe_order)

    def size(self) -> int:
        """``||A||`` = |A| + sum of relation cardinalities."""
        return self._size

    def __contains__(self, element: Element) -> bool:
        return element in self._universe

    def __len__(self) -> int:
        return len(self._universe_order)

    # -- derived data (lazy, cached) -------------------------------------------

    def adjacency(self) -> Dict[Element, FrozenSet[Element]]:
        """Gaifman-graph adjacency: ``a`` and ``b`` are adjacent iff distinct
        and co-occurring in some tuple of some relation."""
        if self._adjacency is None:
            neighbours: Dict[Element, set] = {a: set() for a in self._universe_order}
            for rel in self._relations.values():
                for tup in rel:
                    distinct = set(tup)
                    if len(distinct) < 2:
                        continue
                    for a in distinct:
                        for b in distinct:
                            if a != b:
                                neighbours[a].add(b)
            self._adjacency = {a: frozenset(ns) for a, ns in neighbours.items()}
        return self._adjacency

    def index(self, key: object, position: int) -> Dict[Element, Tuple[Tup, ...]]:
        """Per-position index: maps each value ``v`` to the tuples of the
        relation whose ``position``-th entry is ``v``.  Built lazily."""
        symbol = self._resolve_symbol(self._signature, key)
        if not 0 <= position < symbol.arity:
            raise ArityError(
                f"position {position} out of range for {symbol.name}/{symbol.arity}"
            )
        cache_key = (symbol.name, position)
        built = self._indexes.get(cache_key)
        if built is None:
            built = self._build_index(symbol, position)
            self._indexes[cache_key] = built
        return built

    def _build_index(
        self, symbol: RelationSymbol, position: int
    ) -> Dict[Element, Tuple[Tup, ...]]:
        """A per-position index built from scratch (one relation scan)."""
        built: Dict[Element, List[Tup]] = {}
        for tup in self._relations[symbol]:
            built.setdefault(tup[position], []).append(tup)
        return {v: tuple(ts) for v, ts in built.items()}

    def interner(self):
        """The structure's :class:`~repro.structures.interning.ElementInterner`
        (lazy; shared with structures derived via :meth:`with_tuple`, since
        the universe — and hence the id space — is identical)."""
        if self._interner is None:
            from .interning import ElementInterner

            self._interner = ElementInterner(self._universe_order)
        return self._interner

    def columnar(self):
        """The structure's :class:`~repro.structures.columnar.
        ColumnarStructure` — the id-space view the kernel-backed evaluation
        paths run on.  Lazy, cached, dropped by :meth:`invalidate_caches`."""
        if self._columnar is None:
            from .columnar import ColumnarStructure

            self._columnar = ColumnarStructure(self)
        return self._columnar

    def invalidate_caches(self) -> None:
        """Drop all lazily derived data (adjacency, per-position indexes,
        cost-model statistics, the columnar view).

        The public API never needs this — structures are immutable and the
        caches are therefore always consistent.  It exists for code that
        mutates ``_relations`` in place (test fixtures, instrumentation):
        after any such mutation the caches are stale and *must* be dropped,
        or :meth:`adjacency` / :meth:`index` will answer for the old
        relational content.  The interner survives: in-place mutation can
        only touch ``_relations``, never the universe it is built from.
        """
        self._adjacency = None
        self._indexes.clear()
        self._stats = None
        self._columnar = None

    # -- derivation (copy-on-write updates) --------------------------------------

    def with_tuple(self, key: object, tup: Tup, present: bool = True) -> "Structure":
        """A structure that differs from this one by exactly one tuple.

        Validates only the delta (arity and universe membership of ``tup``)
        instead of revalidating every relation, and shares with the parent
        the universe, signature, interner and every untouched relation with
        its per-position indexes.  Each view the parent has already built
        is *derived*, never dropped, on insertion and deletion alike:

        * the touched relation's per-position indexes, by replacing the one
          bucket keyed by ``tup``'s entry at that position;
        * the Gaifman adjacency (dict and columnar), by adding the new
          tuple's co-occurrence edges on insertion, or removing on deletion
          exactly the edges no remaining tuple of any relation still
          witnesses (:meth:`_lost_edges`).

        Returns ``self`` unchanged when the update is a no-op (inserting a
        present tuple / deleting an absent one).  The parent structure and
        the caches it has built are never changed — this is the
        copy-on-write leg of the cache contract above.  (On deletion the
        co-witness search may lazily build a wide relation's per-position
        indexes on the parent, exactly as :meth:`index` would; they are
        then derived into the result along with the others.)
        """
        symbol = self._resolve_symbol(self._signature, key)
        tup = tuple(tup)
        if len(tup) != symbol.arity:
            raise ArityError(
                f"tuple {tup!r} has length {len(tup)}, but "
                f"{symbol.name} has arity {symbol.arity}"
            )
        for entry in tup:
            if entry not in self._universe:
                raise UniverseError(
                    f"tuple {tup!r} of {symbol.name} mentions {entry!r}, "
                    "which is not in the universe"
                )
        current = self._relations[symbol]
        if (tup in current) == present:
            return self

        derived = Structure.__new__(Structure)
        derived._signature = self._signature
        derived._universe_order = self._universe_order
        derived._universe = self._universe
        relations = dict(self._relations)
        relations[symbol] = (
            current | {tup} if present else current - {tup}
        )
        derived._relations = relations
        derived._size = self._size + (1 if present else -1)
        columnar = self._columnar
        distinct = set(tup)
        adjacency_built = self._adjacency is not None or (
            columnar is not None and columnar.has_adjacency()
        )
        # Before the indexes are derived: the co-witness search may build
        # a wide relation's per-position indexes on the parent, and those
        # must pass to the derived structure like every other index.
        lost = (
            self._lost_edges(symbol, tup, distinct)
            if not present and len(distinct) > 1 and adjacency_built
            else []
        )
        derived._indexes = {
            cache_key: (
                index
                if cache_key[0] != symbol.name
                else _derive_index(index, tup, cache_key[1], present)
            )
            for cache_key, index in self._indexes.items()
        }
        # When the update changes no Gaifman edge the parent's adjacency
        # is the derived one and is shared as-is.
        parent_adjacency = derived._adjacency = self._adjacency
        if parent_adjacency is not None:
            if present and any(
                not distinct <= parent_adjacency[a] | {a} for a in distinct
            ):
                adjacency = dict(parent_adjacency)
                for a in distinct:
                    adjacency[a] = adjacency[a] | (distinct - {a})
                derived._adjacency = adjacency
            elif lost:
                adjacency = dict(parent_adjacency)
                for a, b in lost:
                    adjacency[a] = adjacency[a] - {b}
                    adjacency[b] = adjacency[b] - {a}
                derived._adjacency = adjacency
        # Statistics follow the same copy-on-write discipline as the other
        # caches: the parent's stay untouched, the derived structure gets an
        # incrementally adjusted copy (duck-typed so this module stays free
        # of a repro.cost import).
        derived._stats = (
            self._stats.derive(symbol.name, present, derived)
            if self._stats is not None
            else None
        )
        # Same universe, same id space: the interner is shared, keeping ids
        # stable along derivation chains.
        derived._interner = self._interner
        if columnar is None:
            derived._columnar = None
        elif present:
            derived._columnar = columnar.derive_insert(derived, symbol, tup)
        else:
            derived._columnar = columnar.derive_delete(derived, symbol, lost)
        return derived

    def _lost_edges(
        self, symbol: RelationSymbol, tup: Tup, distinct: Set[Element]
    ) -> List[Tuple[Element, Element]]:
        """The Gaifman edges that deleting ``tup`` from ``symbol`` removes:
        the pairs of its distinct entries that no other tuple of any
        relation still contains.  Binary relations answer by membership;
        wider ones through the per-position indexes of one endpoint, so
        the cost follows that endpoint's degree, not ``||A||``."""
        entries = list(distinct)
        lost: List[Tuple[Element, Element]] = []
        for i, a in enumerate(entries):
            for b in entries[i + 1 :]:
                if not self._co_witnessed(a, b, symbol, tup):
                    lost.append((a, b))
        return lost

    def _co_witnessed(
        self, a: Element, b: Element, symbol: RelationSymbol, removed: Tup
    ) -> bool:
        """Whether a tuple other than ``removed`` (of ``symbol``) contains
        both ``a`` and ``b``."""
        for other, rel in self._relations.items():
            if other.arity < 2 or not rel:
                continue
            skip = removed if other is symbol else None
            if other.arity == 2:
                for pair in ((a, b), (b, a)):
                    if pair != skip and pair in rel:
                        return True
                continue
            for position in range(other.arity):
                for candidate in self.index(other, position).get(a, ()):
                    if b in candidate and candidate != skip:
                        return True
        return False

    # -- pickling ----------------------------------------------------------------

    def __getstate__(self):
        """Pickle only the defining data (signature, ordered universe,
        relations) — derived caches are rebuilt lazily on the receiving
        side.  This keeps process-backend payloads compact: adjacency,
        indexes and columnar arrays never cross the pipe."""
        return (self._signature, self._universe_order, self._relations)

    def __setstate__(self, state):
        signature, universe_order, relations = state
        self._signature = signature
        self._universe_order = universe_order
        self._universe = frozenset(universe_order)
        self._relations = relations
        self._adjacency = None
        self._indexes = {}
        self._size = len(universe_order) + sum(
            len(rel) for rel in relations.values()
        )
        self._stats = None
        self._interner = None
        self._columnar = None

    # -- equality is extensional -----------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Structure):
            return NotImplemented
        return (
            self._signature == other._signature
            and self._universe == other._universe
            and self._relations == other._relations
        )

    def __hash__(self) -> int:
        return hash(
            (
                self._signature,
                self._universe,
                tuple(
                    sorted(
                        ((s.name, rel) for s, rel in self._relations.items()),
                        key=lambda pair: pair[0],
                    )
                ),
            )
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        rels = ", ".join(
            f"{s.name}:{len(rel)}" for s, rel in sorted(self._relations.items(), key=lambda p: p[0].name)
        )
        return f"Structure(|A|={self.order()}, {rels})"


def _derive_index(
    index: Dict[Element, Tuple[Tup, ...]], tup: Tup, position: int, present: bool
) -> Dict[Element, Tuple[Tup, ...]]:
    """A per-position index after inserting/deleting ``tup``: a copy of the
    parent's with the one bucket keyed by ``tup[position]`` replaced (and
    dropped once its last tuple is gone)."""
    derived = dict(index)
    value = tup[position]
    bucket = index.get(value, ())
    if present:
        derived[value] = bucket + (tup,)
    else:
        remaining = tuple(t for t in bucket if t != tup)
        if remaining:
            derived[value] = remaining
        else:
            del derived[value]
    return derived
