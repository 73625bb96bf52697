"""Database updates — a prototype for the paper's open question (2).

Section 9 asks whether the evaluation machinery can support updates; [16]
achieved this for FOC(P) on bounded-degree classes.  The locality analysis
suggests the natural algorithm: the value ``u^A[a]`` of a unary basic
cl-term depends only on the ball of radius

    D = evaluation_radius + psi_radius

around ``a`` (Lemma 6.1 for the counted tuples, plus psi's own locality).
Inserting or deleting one tuple can therefore only change the values of
elements within distance D of the touched entries — measured in the old
*or* the new structure, since both the before- and after-neighbourhoods
matter.  On bounded-degree structures that affected set has constant size.
The structures stay immutable: :meth:`Structure.with_tuple` derives the
new structure's adjacency, columnar view and per-position indexes from the
old one's by a change local to the touched tuple (leaving only C-speed
copies of the touched relation and the view containers), so a repair costs
work proportional to the changed neighbourhood, not a rebuild of ``||A||``.

:class:`IncrementalUnaryCache` maintains ``u^A[a]`` for all ``a`` under
single-tuple insertions and deletions, recomputing only the affected
elements; the tests compare every state against full recomputation.

Recomputation goes through :func:`repro.core.local_eval.evaluate_basic_unary`,
which reuses the compile-once BFS pattern order
(:func:`repro.core.local_eval.pattern_order`) — the maintained term's
pattern graph never changes across updates, so the static half of the walk
is paid exactly once for the cache's lifetime.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Set

from ..errors import FormulaError, SignatureError
from ..logic.predicates import PredicateCollection
from ..robust.budget import EvaluationBudget
from ..structures.gaifman import ball
from ..structures.structure import Element, Structure, Tup
from .clterms import BasicClTerm
from .local_eval import evaluate_basic_unary


def _with_tuple(structure: Structure, relation: str, tup: Tup, present: bool) -> Structure:
    """A copy of the structure with ``tup`` added to / removed from a relation.

    Delegates to :meth:`Structure.with_tuple`, which validates only the
    delta and shares the untouched relations and their caches — rebuilding
    and revalidating all of ``||A||`` per single-tuple update made every
    update Omega(||A||) regardless of the locality analysis above.
    """
    if structure.signature.get(relation) is None:
        raise SignatureError(f"no relation named {relation!r}")
    return structure.with_tuple(relation, tuple(tup), present)


@dataclass
class UpdateStats:
    """Bookkeeping for one maintained cache."""

    updates: int = 0
    recomputed_elements: int = 0

    def recompute_ratio(self, order: int) -> float:
        if self.updates == 0 or order == 0:
            # No updates, or an empty universe (nothing to recompute per
            # update): the ratio is 0 by convention, never a division crash.
            return 0.0
        return self.recomputed_elements / (self.updates * order)


class IncrementalUnaryCache:
    """Maintains ``u^A[a]`` for all ``a`` under single-tuple updates.

    Parameters
    ----------
    structure:
        The initial structure.
    term:
        A *unary* basic cl-term whose ``psi`` is genuinely
        ``psi_radius``-local (Definition 6.2's contract).
    """

    def __init__(
        self,
        structure: Structure,
        term: BasicClTerm,
        predicates: "Optional[PredicateCollection]" = None,
        budget: "Optional[EvaluationBudget]" = None,
    ):
        if not term.unary:
            raise FormulaError("incremental maintenance needs a unary basic cl-term")
        self.term = term
        self.predicates = predicates
        self.budget = budget
        self.structure = structure
        self.stats = UpdateStats()
        self._dependency_radius = term.evaluation_radius() + term.psi_radius
        self.values: Dict[Element, int] = evaluate_basic_unary(
            structure, term, None, predicates, budget=budget
        )

    def value(self, element: Element) -> int:
        return self.values[element]

    def insert(self, relation: str, tup: Tup) -> None:
        """Insert a tuple and repair the affected values."""
        self._apply(relation, tup, present=True)

    def delete(self, relation: str, tup: Tup) -> None:
        """Delete a tuple and repair the affected values."""
        self._apply(relation, tup, present=False)

    def _apply(self, relation: str, tup: Tup, present: bool) -> None:
        old_structure = self.structure
        new_structure = _with_tuple(old_structure, relation, tuple(tup), present)
        if new_structure is old_structure:
            return  # no-op update: with_tuple returns the structure itself
        entries = [entry for entry in tup]
        affected: Set[Element] = set()
        if entries:
            affected |= ball(old_structure, entries, self._dependency_radius)
            affected |= ball(new_structure, entries, self._dependency_radius)
        # Compute first, commit after: a budget exhaustion mid-repair must
        # leave the cache at its pre-update (consistent) state, not with a
        # new structure and stale values.
        repaired: Dict[Element, int] = {}
        if affected:
            if self.budget is not None:
                self.budget.tick("incremental.repair", weight=len(affected))
            repaired = evaluate_basic_unary(
                new_structure,
                self.term,
                sorted(affected, key=repr),
                self.predicates,
                budget=self.budget,
            )
        self.structure = new_structure
        self.values.update(repaired)
        self.stats.updates += 1
        self.stats.recomputed_elements += len(affected)

    def verify(self) -> None:
        """Full recomputation check (test/debug helper); raises on mismatch."""
        fresh = evaluate_basic_unary(self.structure, self.term, None, self.predicates)
        if fresh != self.values:
            broken = {
                a: (self.values.get(a), fresh[a])
                for a in fresh
                if self.values.get(a) != fresh[a]
            }
            raise AssertionError(f"incremental cache out of sync at {broken}")
