"""Derived views stay exact under insert/delete streams.

``Structure.with_tuple`` derives every view the parent has built — the dict
adjacency, the columnar neighbour lists and the touched relation's
per-position indexes — instead of dropping them.  After every step of a
seeded update stream each derived view must equal the one a structure
rebuilt from scratch computes; and a warmed structure driven through an
incremental repair plus a degree re-query must never rebuild a view in
full.
"""

import random

import pytest

from repro.core.clterms import BasicClTerm
from repro.core.evaluator import Foc1Evaluator
from repro.core.incremental import IncrementalUnaryCache
from repro.logic.builder import Rel
from repro.logic.parser import parse_term
from repro.logic.syntax import And
from repro.sparse.classes import bounded_degree_graph
from repro.structures.columnar import ColumnarStructure
from repro.structures.signature import Signature
from repro.structures.structure import Structure

SIG = Signature.of(E=2, T=3, U=1)
E = Rel("E", 2)


def _warm(structure):
    structure.adjacency()
    structure.columnar().neighbours(0)
    for symbol in structure.signature:
        for position in range(symbol.arity):
            structure.index(symbol, position)


def _bucket_sets(index):
    return {value: frozenset(tuples) for value, tuples in index.items()}


def assert_views_exact(structure):
    """Every cached view equals that of a from-scratch rebuild."""
    fresh = Structure(
        structure.signature,
        structure.universe_order,
        {symbol: rel for symbol, rel in structure.relations().items()},
    )
    assert structure.adjacency() == fresh.adjacency()
    kernel, fresh_kernel = structure.columnar(), fresh.columnar()
    for eid in range(kernel.n):
        assert list(kernel.neighbours(eid)) == list(fresh_kernel.neighbours(eid))
        assert kernel.degree(eid) == fresh_kernel.degree(eid)
    assert structure._indexes, "the stream must keep the indexes cached"
    for (name, position), index in structure._indexes.items():
        assert _bucket_sets(index) == _bucket_sets(fresh.index(name, position))
        for tuples in index.values():
            assert tuples, "an emptied bucket must be dropped"


def _run_stream(structure, candidates, steps, seed):
    rng = random.Random(seed)
    _warm(structure)
    assert_views_exact(structure)
    for _ in range(steps):
        name, tup = rng.choice(candidates)
        present = not structure.has_tuple(name, tup)
        structure = structure.with_tuple(name, tup, present)
        assert structure.has_tuple(name, tup) == present
        assert_views_exact(structure)
    return structure


class TestViewParity:
    def test_symmetric_binary_pair(self):
        s = Structure(SIG, [1, 2, 3], {"E": [(1, 2), (2, 1), (2, 3)]})
        _warm(s)
        one = s.with_tuple("E", (1, 2), present=False)
        assert 2 in one.adjacency()[1]
        # Elements 1, 2, 3 carry ids 0, 1, 2.
        assert 1 in one.columnar().neighbours(0)
        assert_views_exact(one)
        both = one.with_tuple("E", (2, 1), present=False)
        assert 2 not in both.adjacency()[1]
        assert 1 not in both.columnar().neighbours(0)
        assert 0 not in both.columnar().neighbours(1)
        assert_views_exact(both)

    def test_ternary_co_witness_keeps_the_edge(self):
        s = Structure(SIG, [1, 2, 3, 4], {"E": [(1, 2)], "T": [(1, 2, 3)]})
        _warm(s)
        derived = s.with_tuple("E", (1, 2), present=False)
        assert 2 in derived.adjacency()[1]
        assert_views_exact(derived)
        gone = derived.with_tuple("T", (1, 2, 3), present=False)
        assert gone.adjacency()[1] == frozenset()
        assert_views_exact(gone)

    def test_ternary_with_repeated_entries(self):
        s = Structure(SIG, [1, 2, 3], {"T": [(1, 2, 1), (2, 2, 2)]})
        _warm(s)
        derived = s.with_tuple("T", (1, 2, 1), present=False)
        assert derived.adjacency()[1] == frozenset()
        assert_views_exact(derived)

    def test_last_tuple_of_a_bucket(self):
        s = Structure(SIG, [1, 2, 3], {"E": [(1, 2), (3, 2)]})
        _warm(s)
        derived = s.with_tuple("E", (1, 2), present=False)
        assert 1 not in derived.index("E", 0)
        assert derived.index("E", 1)[2] == ((3, 2),)
        assert_views_exact(derived)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_stream(self, seed):
        rng = random.Random(seed)
        universe = list(range(8))
        relations = {
            "E": {tuple(rng.sample(universe, 2)) for _ in range(8)},
            "T": {tuple(rng.choice(universe) for _ in range(3)) for _ in range(4)},
            "U": {(rng.choice(universe),) for _ in range(3)},
        }
        candidates = (
            [("E", (u, v)) for u in universe[:5] for v in universe[:5]]
            + [("T", (u, v, w)) for u in (0, 1) for v in (1, 2) for w in (0, 2, 3)]
            + [("U", (u,)) for u in universe]
        )
        _run_stream(Structure(SIG, universe, relations), candidates, 60, seed)

    def test_self_loops_and_unary_tuples(self):
        s = Structure(SIG, [1, 2, 3], {"E": [(1, 2)]})
        candidates = [("E", (1, 1)), ("E", (2, 2)), ("E", (1, 2)), ("E", (2, 1)),
                      ("U", (1,)), ("U", (3,))]
        _run_stream(s, candidates, 40, seed=11)


class TestNoFullRebuilds:
    def test_update_stream_never_rebuilds_a_view(self, monkeypatch):
        structure = bounded_degree_graph(400, max_degree=3, seed=5)
        open_paths = BasicClTerm(
            ("y1", "y2", "y3"),
            And(E("y1", "y2"), E("y2", "y3")),
            0,
            1,
            frozenset({(1, 2), (2, 3)}),
            unary=True,
        )
        engine = Foc1Evaluator(workers=1)
        degree = parse_term("#(y). E(x, y)")
        _warm(structure)
        cache = IncrementalUnaryCache(structure, open_paths)
        engine.unary_term_values(structure, degree, "x", [1, 2])

        builds = {"csr": 0, "index": 0}
        csr = ColumnarStructure._adjacency_csr
        index = Structure._build_index

        def counting_csr(self):
            if self._offsets is None:
                builds["csr"] += 1
            return csr(self)

        def counting_index(self, symbol, position):
            builds["index"] += 1
            return index(self, symbol, position)

        monkeypatch.setattr(ColumnarStructure, "_adjacency_csr", counting_csr)
        monkeypatch.setattr(Structure, "_build_index", counting_index)

        rng = random.Random(7)
        edges = sorted(structure.relation("E"))
        toggles = [edge for edge in rng.sample(edges, 20) if edge[0] < edge[1]]
        while len(toggles) < 20:
            u, v = sorted(rng.sample(range(1, 401), 2))
            if not structure.has_tuple("E", (u, v)):
                toggles.append((u, v))
        for u, v in toggles + toggles[::-1]:
            present = not cache.structure.has_tuple("E", (u, v))
            change = cache.insert if present else cache.delete
            change("E", (u, v))
            change("E", (v, u))
            values = engine.unary_term_values(cache.structure, degree, "x", [u, v])
            adjacency = cache.structure.adjacency()
            assert values == {u: len(adjacency[u]), v: len(adjacency[v])}
        assert builds == {"csr": 0, "index": 0}
        cache.verify()
        assert cache.structure == structure

    def test_wide_relation_indexes_pass_to_the_derived_structure(
        self, monkeypatch
    ):
        # Only the adjacency is warm: the first deletion's co-witness search
        # builds T's per-position indexes, and every later deletion must
        # find them derived instead of building them again.
        rng = random.Random(3)
        universe = list(range(30))
        triples = sorted({tuple(rng.sample(universe, 3)) for _ in range(60)})
        structure = Structure(SIG, universe, {"T": triples})
        structure.adjacency()
        builds = []
        index = Structure._build_index

        def counting_index(self, symbol, position):
            builds.append((symbol.name, position))
            return index(self, symbol, position)

        monkeypatch.setattr(Structure, "_build_index", counting_index)
        rng.shuffle(triples)
        structure = structure.with_tuple("T", triples[0], present=False)
        assert sorted(builds) == [("T", 0), ("T", 1), ("T", 2)]
        del builds[:]
        for tup in triples[1:20]:
            structure = structure.with_tuple("T", tup, present=False)
        assert builds == []
        assert_views_exact(structure)

    def test_neighbour_tuples_pass_to_the_derived_view(self, monkeypatch):
        # The parent holds only the CSR form; the neighbour tuples are
        # materialised once and then inherited along the chain, also by
        # updates that change no Gaifman edge.
        structure = Structure(SIG, range(6), {"E": [(0, 1), (1, 2), (2, 3)]})
        structure.index("E", 0)
        structure.columnar().neighbours(0)
        materialised = []
        neighbour_ids = ColumnarStructure._neighbour_ids

        def counting(self):
            if self._neigh is None:
                materialised.append(self)
            return neighbour_ids(self)

        monkeypatch.setattr(ColumnarStructure, "_neighbour_ids", counting)
        for tup, present in [((1, 0), True), ((1, 0), False), ((0, 2), True),
                             ((2, 1), True), ((0, 2), False)]:
            structure = structure.with_tuple("E", tup, present)
        assert len(materialised) == 1
        assert_views_exact(structure)
