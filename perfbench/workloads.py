"""The benchmark's four workloads.

Each workload turns a seed into a fixed list of operations (one *round*),
builds the structures and engines those operations run on, and runs the
round while a :class:`Recorder` times every operation.  A run repeats whole
rounds, each starting from the same state, so every round does the same
work and per-operation figures do not depend on how many rounds fit.

Expected answers come from closed forms over the generated edge lists
(:mod:`graphs`) or, on the tiny structure of ``query_mix``, from the
brute-force evaluator.  They are computed before timing starts and checked
between operations, outside the timed region.
"""

from __future__ import annotations

import asyncio
import random
import re
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import (
    BasicClTerm,
    BruteForceEvaluator,
    EvaluationBudget,
    Foc1Evaluator,
    Rel,
    ReproError,
    RobustEvaluator,
    graph_structure,
    is_foc1,
    parse_formula,
    parse_term,
    standard_collection,
)
from repro.core import IncrementalUnaryCache
from repro.obs import span
from repro.serve import QueryRequest, QueryService

import graphs
from tracing import PARSE, REPAIR, TimedPlanCache, cpu_seconds

E = Rel("E", 2)
#: u(x) = #(y). E(x, y): the degree, as a unary basic cl-term.
DEGREE = BasicClTerm(("y1", "y2"), E("y1", "y2"), 0, 1, frozenset({(1, 2)}), unary=True)
#: u(x) = #(y, z). E(x, y) & E(y, z) & dist(x, z) > 1: open 2-paths from x.
OPEN_PATHS = BasicClTerm(
    ("y1", "y2", "y3"),
    E("y1", "y2") & E("y2", "y3"),
    0,
    1,
    frozenset({(1, 2), (2, 3)}),
    unary=True,
)
#: u(x) = #(y). E(x, y) & exists z. (E(y, z) & z != x): neighbours of x that
#: have another neighbour, a term whose psi has radius 1.
BRANCHING = BasicClTerm(
    ("y1", "y2"),
    parse_formula("E(y1, y2) & exists z. (E(y2, z) & !(z = y1))"),
    1,
    1,
    frozenset({(1, 2)}),
    unary=True,
)


class Recorder:
    """Latency, CPU time and failures of the operations of a run phase."""

    def __init__(
        self,
        on_operation: "Optional[Callable[[], None]]" = None,
        after_operation: "Optional[Callable[[], None]]" = None,
    ):
        self.latencies: List[float] = []
        #: When each latency ended (``time.perf_counter``).
        self.ends: List[float] = []
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.failed = 0
        #: Operations run and checked but not timed (the warm-up round).
        self.untimed = 0
        self.rounds = 0
        #: The index in ``latencies`` of each round's first operation.
        self.round_starts: List[int] = []
        #: Wall and CPU time of each round's operations.
        self.round_wall_s: List[float] = []
        self.round_cpu_s: List[float] = []
        #: Each latency's and each round's scale to the reference machine
        #: (see calibrate.py).
        self.scales: List[float] = []
        self.round_scale: List[float] = []
        self.problems: List[str] = []
        #: Workload-specific per-layer sums (steps, repairs, serve responses).
        self.layer: Dict[str, float] = {}
        self.queue_waits: List[float] = []
        self._on_operation = on_operation
        self._after_operation = after_operation

    def begin(self) -> None:
        """Mark the start of an operation (or of a concurrent batch of them)."""
        if self._on_operation is not None:
            self._on_operation()

    def time(self, operation: Callable[[], Any]) -> Tuple[Any, "Optional[ReproError]"]:
        """Run one operation; a typed library error is returned, not raised.
        ``after_operation`` runs once the operation's timing has stopped."""
        self.begin()
        cpu = cpu_seconds()
        start = time.perf_counter()
        try:
            value, error = operation(), None
        except ReproError as exc:
            value, error = None, exc
        end = time.perf_counter()
        self.cpu_s += cpu_seconds() - cpu
        self.wall_s += end - start
        self.latencies.append(end - start)
        self.ends.append(end)
        if self._after_operation is not None:
            self._after_operation()
        return value, error

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(what[:200])

    def add(self, name: str, value: float) -> None:
        self.layer[name] = self.layer.get(name, 0.0) + value


def _structure(n: int, edges) -> Any:
    return graph_structure(range(n), edges)


def _warm_views(structure) -> None:
    structure.adjacency()
    structure.columnar()
    structure.index("E", 0)
    structure.index("E", 1)


def _family(rng: random.Random, family: str, n: int):
    """``(label, n, edges)`` of a seeded graph of about ``n`` vertices.

    Sizes do not depend on the seed, only the wiring of trees and
    bounded-degree graphs does, so that seeds change the inputs but
    hardly the amount of work.
    """
    if family == "grid":
        rows, cols = graphs.grid_shape(n)
        return f"grid{rows}x{cols}", rows * cols, graphs.grid(rows, cols)
    if family == "tree":
        return f"tree{n}", n, graphs.random_tree(rng, n)
    return f"bd{n}", n, graphs.bounded_degree(rng, n)


# ---------------------------------------------------------------------------
# query_mix
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Template:
    """A query shape.  ``{t}`` and ``{k}`` render the numerical-predicate
    arguments; a non-zero offset J adds ``+ J`` to both sides, giving a text
    with the same answer that the plan cache has never seen."""

    kind: str
    text: str
    variables: Tuple[str, ...]
    k: int
    closed: Callable[[Dict[int, set], int], Any]

    def render(self, offset: int) -> str:
        if offset:
            return self.text.format(t=f" + {offset}", k=f"{self.k} + {offset}")
        return self.text.format(t="", k=self.k)


def _degree_list(adj):
    return [len(ns) for ns in adj.values()]


TEMPLATES = (
    Template("count", "E(x, y) & E(y, z)", ("x", "y", "z"), 0,
             lambda adj, k: graphs.walks2(adj)),
    Template("count", "@eq(#(y). E(x, y){t}, {k})", ("x",), 3,
             lambda adj, k: sum(1 for d in _degree_list(adj) if d == k)),
    Template("count", "E(x, y) & @gt(#(z). E(y, z){t}, {k})", ("x", "y"), 2,
             lambda adj, k: sum(d for d in _degree_list(adj) if d > k)),
    Template("check", "forall x. @leq(#(y). E(x, y){t}, {k})", (), 3,
             lambda adj, k: max(_degree_list(adj)) <= k),
    Template("check", "exists x. @eq(#(y). E(x, y){t}, {k})", (), 4,
             lambda adj, k: k in _degree_list(adj)),
    Template("term", "#(x). @gt(#(y). E(x, y){t}, {k})", (), 2,
             lambda adj, k: sum(1 for d in _degree_list(adj) if d > k)),
    Template("term", "#(x). @geq1(#(y). (E(x, y) & @gt(#(z). E(y, z){t}, {k})))", (), 3,
             lambda adj, k: sum(1 for v in graphs.neighbours_above(adj, k).values() if v)),
    Template("unary", "#(y). (E(x, y) & @gt(#(z). E(y, z){t}, {k}))", ("x",), 2,
             lambda adj, k: graphs.neighbours_above(adj, k)),
    Template("unary", "#(y, z). (E(x, y) & E(y, z))", ("x",), 0,
             lambda adj, k: graphs.neighbour_degree_sum(adj)),
)

_PREDICATE = re.compile(r"@(\w+)\(")


def _parse(kind: str, text: str):
    with span(PARSE):
        return parse_formula(text) if kind in ("check", "count") else parse_term(text)


def _execute(engine, structure, kind: str, text: str, variables: Tuple[str, ...]):
    expression = _parse(kind, text)
    if kind == "count":
        return engine.count(structure, expression, variables)
    if kind == "check":
        return engine.model_check(structure, expression)
    if kind == "term":
        return engine.ground_term_value(structure, expression)
    return engine.unary_term_values(structure, expression, variables[0])


def _admissible(kind: str, text: str, names) -> bool:
    """Whether a generated text is FOC1(P) over the standard predicates."""
    if any(name not in names for name in _PREDICATE.findall(text)):
        return False
    return is_foc1(parse_formula(text) if kind in ("check", "count") else parse_term(text))


class QueryMix:
    """One client on the CLI's default engine: a seeded stream of FOC1(P)
    texts (count, check, ground term, unary) over trees, grids and
    bounded-degree graphs, a fixed share of them new to the plan cache."""

    name = "query_mix"
    concurrent = False
    tail_percentile = 95.0
    #: Texts per round that the (fresh, warmed) plan cache has never seen.
    new_texts = 9
    sizes = (("tree", 450), ("grid", 650), ("bd", 850), ("tree", 1000))

    def generate(self, seed: int) -> Dict[str, Any]:
        rng = random.Random(f"query_mix:{seed}")
        shapes = [_family(rng, family, n) for family, n in self.sizes]
        shapes.append(("tiny14", 14, graphs.bounded_degree(rng, 14, 3)))
        names = {p.name for p in standard_collection()}
        slots = [(s, t) for s in range(len(shapes)) for t in range(len(TEMPLATES))]
        renewable = [i for i, (_, t) in enumerate(slots) if "{k}" in TEMPLATES[t].text]
        offsets = dict(
            zip(rng.sample(renewable, self.new_texts), rng.sample(range(10, 10_000), self.new_texts))
        )
        ops = []
        for i, (s, t) in enumerate(slots):
            template = TEMPLATES[t]
            text = template.render(offsets.get(i, 0))
            if _admissible(template.kind, text, names):
                ops.append((s, t, text))
        rng.shuffle(ops)
        return {"shapes": shapes, "ops": ops}

    def oracle(self, inputs) -> List[Any]:
        shapes = inputs["shapes"]
        tiny = len(shapes) - 1
        brute = BruteForceEvaluator()
        tiny_structure = _structure(shapes[tiny][1], shapes[tiny][2])
        adjs = [graphs.adjacency(n, edges) for _, n, edges in shapes]
        expected = []
        for s, t, text in inputs["ops"]:
            template = TEMPLATES[t]
            if s == tiny:
                expected.append(
                    _execute(brute, tiny_structure, template.kind, text, template.variables)
                )
            else:
                expected.append(template.closed(adjs[s], template.k))
        return expected

    def build(self, inputs) -> Dict[str, Any]:
        structures = [_structure(n, edges) for _, n, edges in inputs["shapes"]]
        for structure in structures:
            _warm_views(structure)
        state = {"structures": structures, "ops": inputs["ops"]}
        self.prepare(state)
        return state

    def prepare(self, state) -> None:
        """A fresh plan cache, warmed with every template at offset 0 on the
        tiny structure (plans depend on the signature, not the structure)."""
        engine = Foc1Evaluator(plan_cache=TimedPlanCache(), workers=1)
        tiny = state["structures"][-1]
        for template in TEMPLATES:
            _execute(engine, tiny, template.kind, template.render(0), template.variables)
        state["engine"] = engine

    def run(self, state, rec: Recorder, expected, traced: bool) -> None:
        engine = state["engine"]
        structures = state["structures"]
        for (s, t, text), want in zip(state["ops"], expected):
            template = TEMPLATES[t]
            if traced:
                engine.budget = EvaluationBudget()
            value, error = rec.time(
                lambda: _execute(engine, structures[s], template.kind, text, template.variables)
            )
            rec.check(error is None and value == want, f"{template.kind} {text!r}: {error or value}")
            if traced:
                rec.add("plan_steps", engine.budget.steps)
        engine.budget = None

    def describe(self, inputs) -> Dict[str, Any]:
        return {
            "loop": "closed, 1 client",
            "structures": [label for label, _, _ in inputs["shapes"]],
            "ops_per_round": len(inputs["ops"]),
            "new_texts_per_round": self.new_texts,
        }


# ---------------------------------------------------------------------------
# cover_unary
# ---------------------------------------------------------------------------


class CoverUnary:
    """One client; each operation evaluates a unary basic cl-term through
    the Section 8.2 main algorithm (``route="cascade"``, two workers)."""

    name = "cover_unary"
    concurrent = False
    tail_percentile = 70.0
    sizes = (200, 250, 300, 350, 400)
    terms = (("degree", DEGREE), ("open_paths", OPEN_PATHS), ("branching", BRANCHING))

    def generate(self, seed: int) -> Dict[str, Any]:
        rng = random.Random(f"cover_unary:{seed}")
        shapes = [
            _family(rng, family, n)
            for n, family in zip(self.sizes, ("grid", "bd", "grid", "bd", "grid"))
        ]
        ops = [(s, t) for s in range(len(shapes)) for t in range(len(self.terms))]
        rng.shuffle(ops)
        return {"shapes": shapes, "ops": ops}

    def oracle(self, inputs) -> List[Any]:
        adjs = [graphs.adjacency(n, edges) for _, n, edges in inputs["shapes"]]
        expected = []
        for s, t in inputs["ops"]:
            adj = adjs[s]
            name = self.terms[t][0]
            if name == "degree":
                expected.append(graphs.degrees(adj))
            elif name == "open_paths":
                expected.append({x: graphs.open_paths(adj, x) for x in adj})
            else:
                expected.append(
                    {x: sum(1 for y in adj[x] if len(adj[y]) >= 2) for x in adj}
                )
        return expected

    def build(self, inputs) -> Dict[str, Any]:
        structures = [_structure(n, edges) for _, n, edges in inputs["shapes"]]
        for structure in structures:
            _warm_views(structure)
        evaluator = RobustEvaluator(route="cascade", workers=2, plan_cache=TimedPlanCache())
        smallest = min(structures, key=lambda s: s.order())
        for _, term in self.terms:
            evaluator.evaluate_unary_cl_term(smallest, term)
        return {"structures": structures, "ops": inputs["ops"], "evaluator": evaluator}

    def prepare(self, state) -> None:
        pass

    def run(self, state, rec: Recorder, expected, traced: bool) -> None:
        evaluator = state["evaluator"]
        structures = state["structures"]
        for (s, t), want in zip(state["ops"], expected):
            name, term = self.terms[t]
            value, error = rec.time(lambda: evaluator.evaluate_unary_cl_term(structures[s], term))
            rec.check(error is None and value == want, f"{name} on structure {s}: {error}")
            rec.add("robust_ops", 1)
            if evaluator.last_report.answered_by == "main_algorithm":
                rec.add("main_answered", 1)

    def describe(self, inputs) -> Dict[str, Any]:
        return {
            "loop": "closed, 1 client",
            "structures": [label for label, _, _ in inputs["shapes"]],
            "terms": [name for name, _ in self.terms],
            "ops_per_round": len(inputs["ops"]),
        }


# ---------------------------------------------------------------------------
# serve_preempt
# ---------------------------------------------------------------------------

WALKS3 = "E(x, y) & E(y, z) & E(z, w)"
LIGHT_A = (
    ("check", "exists x. @eq(#(y). E(x, y), 3)", (),
     lambda adj: 3 in _degree_list(adj)),
    ("term", "#(x). @gt(#(y). E(x, y), 2)", (),
     lambda adj: sum(1 for d in _degree_list(adj) if d > 2)),
)
LIGHT_B = (
    ("count", "@eq(#(y). E(x, y), 2)", ("x",),
     lambda adj: sum(1 for d in _degree_list(adj) if d == 2)),
    ("check", "forall x. @leq(#(y). E(x, y), 4)", (),
     lambda adj: max(_degree_list(adj)) <= 4),
)


class ServePreempt:
    """A two-worker ``QueryService`` with step-only quanta: one heavy
    tenant sending 3-walk counts that preempt several times, two light
    tenants whose requests fit in one quantum.  One closed-loop client per
    tenant, so the quotas are never reached and a shed would be a bug."""

    name = "serve_preempt"
    #: Operations of a round run at the same time, not one after another.
    concurrent = True
    tail_percentile = 90.0
    #: Step quantum: every light request fits in one, every heavy one
    #: needs several.
    quantum_steps = 2000
    #: Structures of one size, so that the median and the tail percentile
    #: fall inside tight classes of operations (light and heavy).
    heavy_sizes = (100,) * 5
    light_sizes = (100,) * 5

    def generate(self, seed: int) -> Dict[str, Any]:
        rng = random.Random(f"serve_preempt:{seed}")
        # Heavy requests run on grids, whose 3-walk counts (and so the steps
        # and preemptions of the heavy tenant) do not depend on the seed.
        heavy = [_family(rng, "grid", n) for n in self.heavy_sizes]
        light = [
            _family(rng, family, n)
            for n, family in zip(self.light_sizes, ("tree", "grid", "bd", "tree", "grid"))
        ]
        shapes = heavy + light
        clients = []
        for tenant, kinds in (("heavy", None), ("light_a", LIGHT_A), ("light_b", LIGHT_B)):
            if kinds is None:
                requests = [(s, "count", WALKS3, ("x", "y", "z", "w")) for s in range(len(heavy))]
            else:
                requests = [
                    (len(heavy) + s, op, text, variables)
                    for s in range(len(light))
                    for op, text, variables, _ in kinds
                ]
            rng.shuffle(requests)
            clients.append((tenant, requests))
        return {"shapes": shapes, "clients": clients}

    def _closed(self, text):
        if text == WALKS3:
            return graphs.walks3
        for _, known, _, closed in LIGHT_A + LIGHT_B:
            if known == text:
                return closed
        raise KeyError(text)

    def oracle(self, inputs) -> List[Any]:
        adjs = [graphs.adjacency(n, edges) for _, n, edges in inputs["shapes"]]
        return [
            [self._closed(text)(adjs[s]) for s, _, text, _ in requests]
            for _, requests in inputs["clients"]
        ]

    def build(self, inputs) -> Dict[str, Any]:
        structures = [_structure(n, edges) for _, n, edges in inputs["shapes"]]
        for structure in structures:
            _warm_views(structure)
        cache = TimedPlanCache()
        engine = Foc1Evaluator(plan_cache=cache, workers=1)
        tiny = _structure(4, graphs.grid(2, 2))
        seen = set()
        for _, requests in inputs["clients"]:
            for _, op, text, variables in requests:
                if text not in seen:
                    seen.add(text)
                    _execute(engine, tiny, op, text, variables)
        clients = [
            (
                tenant,
                [
                    QueryRequest(
                        tenant=tenant,
                        operation=op,
                        structure=structures[s],
                        expression=text,
                        variables=variables,
                        request_id=f"{tenant}-{i}",
                    )
                    for i, (s, op, text, variables) in enumerate(requests)
                ],
            )
            for tenant, requests in inputs["clients"]
        ]
        return {"clients": clients, "cache": cache}

    def prepare(self, state) -> None:
        pass

    def run(self, state, rec: Recorder, expected, traced: bool) -> None:
        rec.begin()
        outcomes, wall, cpu = asyncio.run(
            self._round(state, self.quantum_steps)
        )
        rec.wall_s += wall
        rec.cpu_s += cpu
        wanted = {
            request.request_id: want
            for (_, requests), wants in zip(state["clients"], expected)
            for request, want in zip(requests, wants)
        }
        for request, response, error, latency, end in outcomes:
            rec.latencies.append(latency)
            rec.ends.append(end)
            ok = (
                error is None
                and response.status == "ok"
                and not response.approximate
                and response.value == wanted[request.request_id]
            )
            rec.check(ok, f"{request.request_id}: {error or response}")
            if response is not None:
                rec.queue_waits.append(response.queue_wait_s)
                rec.add("quanta", response.quanta)
                rec.add("resumes", response.resumes)
                rec.add("steps", response.steps)
                rec.add("latency_s", response.latency_s)

    async def _round(self, state, quantum_steps: int):
        service = QueryService(
            workers=2,
            eval_workers=1,
            quantum_steps=quantum_steps,
            batch_max=1,
            plan_cache=state["cache"],
        )
        outcomes = []

        async def client(requests):
            for request in requests:
                start = time.perf_counter()
                try:
                    response, error = await service.submit(request), None
                except ReproError as exc:
                    response, error = None, exc
                end = time.perf_counter()
                outcomes.append((request, response, error, end - start, end))

        async with service:
            cpu = cpu_seconds()
            start = time.perf_counter()
            await asyncio.gather(*(client(requests) for _, requests in state["clients"]))
            wall = time.perf_counter() - start
            cpu = cpu_seconds() - cpu
        return outcomes, wall, cpu

    def unpreempted_steps(self, state) -> int:
        """Steps of one round's requests, each run in a single quantum."""
        outcomes, _, _ = asyncio.run(self._round(state, 10**12))
        return sum(outcome[1].steps for outcome in outcomes)

    def describe(self, inputs) -> Dict[str, Any]:
        return {
            "loop": "closed, 3 clients (1 per tenant)",
            "structures": [label for label, _, _ in inputs["shapes"]],
            "requests_per_round": {t: len(r) for t, r in inputs["clients"]},
            "quantum_steps": self.quantum_steps,
            "batch_max": 1,
        }


# ---------------------------------------------------------------------------
# update_stream
# ---------------------------------------------------------------------------


class UpdateStream:
    """One client; each operation toggles an edge of a bounded-degree graph
    (two tuple updates), repairs an ``IncrementalUnaryCache`` of open
    2-paths and re-queries the endpoints' degrees on the derived structure."""

    name = "update_stream"
    concurrent = False
    tail_percentile = 90.0
    sizes = (400, 700, 1000, 1300, 1600)
    #: Edges toggled per stream and round; each is toggled back later in
    #: the round, in reverse order.
    toggles = 10
    query = "#(y). E(x, y)"

    def generate(self, seed: int) -> Dict[str, Any]:
        rng = random.Random(f"update_stream:{seed}")
        streams = []
        for n in self.sizes:
            edges = graphs.bounded_degree(rng, n)
            present = set(edges)
            chosen = rng.sample(edges, self.toggles // 2)
            while len(chosen) < self.toggles:
                u, v = sorted(rng.sample(range(n), 2))
                if (u, v) not in present and (u, v) not in chosen:
                    chosen.append((u, v))
            rng.shuffle(chosen)
            streams.append((n, edges, chosen + chosen[::-1]))
        steps = len(streams[0][2])
        ops = [(i, j) for j in range(steps) for i in range(len(streams))]
        return {"streams": streams, "ops": ops}

    def oracle(self, inputs) -> List[Dict[int, int]]:
        """The initial open-path values of every stream; later values are
        derived from the edge lists as the round toggles them."""
        out = []
        for n, edges, _ in inputs["streams"]:
            adj = graphs.adjacency(n, edges)
            out.append({x: graphs.open_paths(adj, x) for x in adj})
        return out

    def build(self, inputs) -> Dict[str, Any]:
        engine = Foc1Evaluator(plan_cache=TimedPlanCache(), workers=1)
        query = parse_term(self.query)
        streams = []
        for n, edges, sequence in inputs["streams"]:
            structure = _structure(n, edges)
            _warm_views(structure)
            engine.unary_term_values(structure, query, "x", [0, 1])
            cache = IncrementalUnaryCache(structure, OPEN_PATHS)
            streams.append(
                {
                    "n": n,
                    "structure": structure,
                    "values": dict(cache.values),
                    "edges": edges,
                    "sequence": sequence,
                    "cache": cache,
                }
            )
        return {"streams": streams, "ops": inputs["ops"], "engine": engine, "query": query}

    def prepare(self, state) -> None:
        """Every round starts from the generated graphs."""
        for stream in state["streams"]:
            cache = stream["cache"]
            cache.structure = stream["structure"]
            cache.values = dict(stream["values"])
            stream["adj"] = graphs.adjacency(stream["n"], stream["edges"])

    def run(self, state, rec: Recorder, expected, traced: bool) -> None:
        engine, query = state["engine"], state["query"]
        streams = state["streams"]
        before = [(s["cache"].stats.updates, s["cache"].stats.recomputed_elements) for s in streams]
        for i, j in state["ops"]:
            stream = streams[i]
            cache, adj = stream["cache"], stream["adj"]
            u, v = stream["sequence"][j]
            present = v in adj[u]
            change = cache.delete if present else cache.insert
            label = f"{REPAIR}.{i}"

            def operation():
                with span(label):
                    change("E", (u, v))
                with span(label):
                    change("E", (v, u))
                return engine.unary_term_values(cache.structure, query, "x", [u, v])

            value, error = rec.time(operation)
            if present:
                adj[u].discard(v)
                adj[v].discard(u)
            else:
                adj[u].add(v)
                adj[v].add(u)
            near = {u, v} | adj[u] | adj[v]
            near |= {z for y in near for z in adj[y]}
            near |= {z for y in near for z in adj[y]}
            ok = (
                error is None
                and value == {u: len(adj[u]), v: len(adj[v])}
                and all(cache.values[x] == graphs.open_paths(adj, x) for x in near)
            )
            rec.check(ok, f"toggle {(u, v)} on stream {i}: {error or value}")
        for i, stream in enumerate(streams):
            rec.check(stream["cache"].values == expected[i], f"stream {i} after the round")
            updates, recomputed = before[i]
            stats = stream["cache"].stats
            rec.add("updates_x_order", (stats.updates - updates) * stream["n"])
            rec.add("recomputed", stats.recomputed_elements - recomputed)

    def describe(self, inputs) -> Dict[str, Any]:
        return {
            "loop": "closed, 1 client",
            "stream_orders": [n for n, _, _ in inputs["streams"]],
            "ops_per_round": len(inputs["ops"]),
            "term": "open 2-paths (unary basic cl-term)",
            "requery": self.query,
        }


WORKLOADS = {w.name: w for w in (QueryMix, CoverUnary, ServePreempt, UpdateStream)}
