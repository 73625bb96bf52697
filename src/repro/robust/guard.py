"""The graceful fallback cascade: :class:`RobustEvaluator`.

Section 4 of the paper shows that general FOC(P) evaluation is AW[*]-hard,
and the fixed-parameter tractability of FOC1(P) (Theorem 5.5) is
conditional on the input coming from a nowhere dense class.  An engine
facing untrusted queries and arbitrary structures therefore needs, beyond
hard resource limits (:mod:`repro.robust.budget`), a *degradation story*:
when the clever path fails — out of fragment, out of budget slice, or a
genuine defect — answer anyway, exactly, by a simpler path.

:class:`RobustEvaluator` implements a three-stage cascade:

1. ``main_algorithm`` — the Section 8.2 cover/removal loop; applicable
   only to unary basic cl-terms (:meth:`RobustEvaluator.evaluate_unary_cl_term`),
   recorded as *skipped* for other operations.
2. ``foc1`` — the generic :class:`~repro.core.evaluator.Foc1Evaluator`
   (memoised, guarded enumeration); exact on all inputs.
3. ``baseline`` — the literal Definition 3.1 brute force
   (:class:`~repro.core.baseline.BruteForceEvaluator`); exact on all of
   FOC(P), including formulas outside the FOC1 fragment.

With ``approx=True`` an optional fourth stage joins counting operations:
the sampling tier (:class:`~repro.approx.evaluator.ApproxEvaluator`),
last in the fixed order — a bounded-cost answer of last resort — and
allowed to *lead* only when ``route="auto"`` predicts every exact stage
blowing past the remaining budget.  An approx answer is an
:class:`~repro.approx.result.ApproxResult` (never a bare int) and the
report carries ``approximate=True``, so an estimate can never be
mistaken for an exact count.

Every exact stage computes the *exact* answer when it completes, so the
cascade never trades correctness for availability — only speed.  Each stage runs
under a slice of the shared :class:`~repro.robust.budget.EvaluationBudget`
(an even split of whatever remains), so one runaway stage cannot starve
its fallbacks; if every stage fails and the overall budget is exhausted,
the cascade raises :class:`~repro.errors.BudgetExceededError`, otherwise it
re-raises the last stage failure.  The outcome of every stage — who
answered, who failed and why, who was skipped — is recorded in a
structured :class:`RobustReport` available as
:attr:`RobustEvaluator.last_report`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.baseline import BruteForceEvaluator
from ..core.clterms import BasicClTerm
from ..core.evaluator import Foc1Evaluator
from ..core.main_algorithm import MainAlgorithmStats, evaluate_unary_main_algorithm
from ..approx.result import ApproxResult
from ..core.query import Foc1Query
from ..cost.router import _UNITS_PER_SECOND, EngineRouter, RouteDecision
from ..errors import BudgetExceededError, ReproError, SuspendedError
from ..logic.predicates import PredicateCollection, standard_collection
from ..logic.syntax import Expression, Formula, Term, Variable
from ..obs import active_metrics, span
from ..parallel import resolve_workers
from ..plan.cache import PlanCache, default_plan_cache
from ..plan.compiler import compile_plan
from ..plan.ir import PlanOptions, QueryPlan
from ..plan.normalise import canonicalise
from ..structures.structure import Element, Structure
from .breaker import CircuitBreaker
from .budget import EvaluationBudget
from .checkpoint import active_checkpoint_session
from .partial import PartialResult, validate_failure_mode
from .retry import RetryPolicy

__all__ = ["RobustEvaluator", "RobustReport", "StageReport", "STAGES"]

#: Cascade order (the optional ``approx`` stage, when enabled, runs last).
STAGES = ("main_algorithm", "foc1", "baseline")

#: Abstract work units treated as affordable when no deadline bounds the
#: run: without a clock to blow, only a truly astronomical exact
#: prediction justifies leading with an estimate.
_AFFORDABLE_NO_DEADLINE = 5e7


def _counter_delta(registry, before: Dict[str, int]) -> Dict[str, int]:
    """The counters that moved since ``before``.  Reads a copy: in the
    query service, worker threads share the registry and may add counters
    while a stage report is being filled in."""
    return {
        key: value - before.get(key, 0)
        for key, value in registry.counter_values().items()
        if value != before.get(key, 0)
    }


@dataclass
class StageReport:
    """Outcome of one cascade stage."""

    stage: str
    status: str  # "ok" | "failed" | "skipped"
    detail: str = ""
    error_type: "Optional[str]" = None
    error: "Optional[str]" = None
    elapsed: float = 0.0
    steps: int = 0
    #: Counter deltas attributed to this stage (only populated when a
    #: metrics registry is active during the run; see repro.obs).
    metrics: "Optional[Dict[str, int]]" = None

    def summary(self) -> str:
        if self.status == "ok":
            return f"{self.stage}: ok ({self.elapsed:.3f}s, {self.steps} steps)"
        if self.status == "partial":
            return f"{self.stage}: partial ({self.detail})"
        if self.status == "failed":
            return f"{self.stage}: failed [{self.error_type}] {self.error}"
        if self.status == "suspended":
            return f"{self.stage}: suspended ({self.detail})"
        return f"{self.stage}: skipped ({self.detail})"

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe view of this stage outcome (for ``--report-json``)."""
        return {
            "stage": self.stage,
            "status": self.status,
            "detail": self.detail,
            "error_type": self.error_type,
            "error": self.error,
            "elapsed": self.elapsed,
            "steps": self.steps,
            "metrics": dict(self.metrics) if self.metrics else None,
        }


@dataclass
class RobustReport:
    """Structured account of one robust evaluation."""

    operation: str
    answered_by: "Optional[str]" = None
    stages: List[StageReport] = field(default_factory=list)
    elapsed: float = 0.0
    steps: int = 0
    #: The salvaged :class:`~repro.robust.partial.PartialResult` when the
    #: answering stage lost shards (``None`` for complete answers).
    partial: "Optional[PartialResult]" = None
    #: The :class:`~repro.cost.router.RouteDecision` taken for this run
    #: (``None`` in ``route="cascade"`` mode or when nothing was estimable).
    routing: "Optional[RouteDecision]" = None
    #: True when the answering stage was the sampling tier — the answer
    #: is an :class:`~repro.approx.result.ApproxResult`, not an exact count.
    approximate: bool = False

    def stage(self, name: str) -> StageReport:
        for entry in self.stages:
            if entry.stage == name:
                return entry
        raise KeyError(f"no stage named {name!r} in this report")

    def failed_stages(self) -> List[str]:
        return [s.stage for s in self.stages if s.status == "failed"]

    def skipped_stages(self) -> List[str]:
        return [s.stage for s in self.stages if s.status == "skipped"]

    def succeeded(self) -> bool:
        return self.answered_by is not None

    def is_partial(self) -> bool:
        return self.partial is not None

    def summary(self) -> str:
        head = (
            f"{self.operation}: answered by {self.answered_by}"
            if self.answered_by
            else f"{self.operation}: no stage answered"
        )
        if self.partial is not None:
            head += f" (partial, coverage {self.partial.coverage:.1%})"
        parts = "; ".join(s.summary() for s in self.stages)
        return f"{head} ({parts})"

    def to_dict(
        self,
        breaker: "Optional[CircuitBreaker]" = None,
        checkpoint: "Optional[Dict[str, object]]" = None,
    ) -> Dict[str, object]:
        """JSON-safe view of the whole report (for ``--report-json``).

        ``breaker`` adds per-stage circuit states; ``checkpoint`` attaches
        suspension/resume info (as produced by ``Checkpoint.to_dict``).
        """
        partial = None
        if self.partial is not None:
            partial = {
                "coverage": self.partial.coverage,
                "covered": self.partial.covered,
                "expected": self.partial.expected,
                "failures": [
                    {
                        "shard": f.shard,
                        "items": len(f.items),
                        "error_type": f.error_type,
                        "error": f.error,
                        "attempts": f.attempts,
                    }
                    for f in self.partial.failures
                ],
            }
        breakers = None
        if breaker is not None:
            breakers = {
                s.stage: {
                    "state": breaker.state(s.stage),
                    "consecutive_failures": breaker.failures(s.stage),
                }
                for s in self.stages
            }
        return {
            "schema": "repro-robust-report/1",
            "operation": self.operation,
            "answered_by": self.answered_by,
            "elapsed": self.elapsed,
            "steps": self.steps,
            "stages": [s.to_dict() for s in self.stages],
            "partial": partial,
            "breakers": breakers,
            "checkpoint": checkpoint,
            "routing": self.routing.to_dict() if self.routing else None,
            "approximate": self.approximate,
        }


# A stage is (name, thunk) where thunk(budget) computes the exact answer,
# or (name, None) with a skip reason when the stage cannot apply.
_Stage = Tuple[str, "Optional[Callable[[Optional[EvaluationBudget]], object]]", str]


class RobustEvaluator:
    """Budgeted, fault-tolerant façade over the evaluation engines.

    Parameters
    ----------
    predicates:
        Numerical predicate collection shared by every stage.
    budget:
        The overall :class:`EvaluationBudget` for this evaluator's calls
        (all calls draw from the same pool; pass a fresh budget per request
        in a serving context).  ``None`` means unlimited.
    check_fragment:
        Whether the ``foc1`` stage enforces the FOC1(P) fragment.  With the
        default ``True``, out-of-fragment FOC(P) inputs simply fall through
        to the ``baseline`` stage — the cascade's answer stays exact.
    main_depth:
        Recursion depth handed to the Section 8.2 main algorithm.
    catch:
        Exception types treated as *stage* failures (triggering fallback)
        rather than evaluator failures.  Defaults to the library's typed
        errors plus ``RecursionError``; genuine programming errors
        (``TypeError`` &c.) always propagate.
    plan_cache:
        The :class:`~repro.plan.cache.PlanCache` shared by every planned
        stage (``main_algorithm`` base cases and ``foc1``), so a retry of
        the same query after a budget failure — and every later stage of
        the cascade — reuses the compiled plan instead of re-analysing.
        Defaults to the process-wide shared cache.
    workers:
        Worker count honoured by the cascade stages that have parallel
        paths: the ``main_algorithm`` stage fans its cluster loop out, and
        the ``foc1`` stage's engines inherit the count for their sharded
        entry points (:meth:`count_many`, unary targets).  The
        ``baseline`` stage stays deliberately serial — it is the
        last-resort oracle and takes no shortcuts.  ``None`` resolves
        ``REPRO_WORKERS`` (default 1).
    parallel_backend:
        ``"thread"`` (default) or ``"process"``; ignored at ``workers=1``.
    retry:
        Optional :class:`~repro.robust.retry.RetryPolicy` handed to every
        parallel stage, so a transient shard failure re-runs only that
        shard instead of failing the stage (and paying a whole fallback).
    on_shard_failure:
        ``"raise"`` (default) or ``"salvage"``, forwarded to the parallel
        stages.  A salvaged stage *answers* with its
        :class:`~repro.robust.partial.PartialResult` — recorded as status
        ``"partial"`` in the report with the coverage fraction — instead
        of falling through the cascade.
    breaker:
        The :class:`~repro.robust.breaker.CircuitBreaker` guarding the
        cascade stages: after its ``threshold`` *consecutive* failures of
        a stage (across this evaluator's calls), that stage is skipped —
        without consuming a budget slice — until a success or
        :meth:`CircuitBreaker.reset` closes the circuit.  Defaults to a
        fresh ``CircuitBreaker(threshold=3)`` per evaluator; share one
        instance across evaluators to pool their failure counts.
    route:
        ``"auto"`` (default) consults the :class:`~repro.cost.router.
        EngineRouter` per query and tries the predicted-cheapest stage
        first when the prediction is decisive (see the router's margin and
        confidence thresholds); ``"cascade"`` always runs the fixed
        ``STAGES`` order.  Routing only ever *reorders* the runnable
        stages — every stage remains available as a fallback, so answers
        are identical in both modes; the decision taken is recorded in
        :attr:`RobustReport.routing`.  Preemptible (checkpoint-session)
        runs always use the fixed order, so a resumed cascade replays the
        stage sequence its first quantum recorded.
    router:
        The :class:`~repro.cost.router.EngineRouter` instance to consult
        in ``route="auto"`` mode.  Share one across evaluators to pool
        their calibration (observed predicted-vs-actual corrections).
        Defaults to a fresh router per evaluator.
    approx:
        Opt-in fourth cascade stage for :meth:`count` and ground counting
        terms: the sampling tier (:class:`~repro.approx.evaluator.
        ApproxEvaluator`).  Off by default — the default cascade stays
        exactly the three exact stages.  When enabled it runs *last* in
        the fixed order, and ``route="auto"`` may promote it to first
        only when every exact stage's predicted cost exceeds what the
        remaining budget can afford.  Its answer is an
        :class:`~repro.approx.result.ApproxResult` and sets
        :attr:`RobustReport.approximate`.
    epsilon / delta / approx_seed:
        The ``(1 +- epsilon, delta)`` target and reproducibility seed for
        the approx stage (ignored unless ``approx=True``).
    """

    def __init__(
        self,
        predicates: "Optional[PredicateCollection]" = None,
        budget: "Optional[EvaluationBudget]" = None,
        check_fragment: bool = True,
        main_depth: int = 1,
        catch: Tuple[type, ...] = (ReproError, RecursionError),
        plan_cache: "Optional[PlanCache]" = None,
        workers: "Optional[int]" = None,
        parallel_backend: str = "thread",
        retry: "Optional[RetryPolicy]" = None,
        on_shard_failure: str = "raise",
        breaker: "Optional[CircuitBreaker]" = None,
        route: str = "auto",
        router: "Optional[EngineRouter]" = None,
        approx: bool = False,
        epsilon: float = 0.1,
        delta: float = 0.05,
        approx_seed: int = 0,
    ):
        if route not in ("auto", "cascade"):
            raise ReproError(
                f"route must be 'auto' or 'cascade', got {route!r}"
            )
        self._default_predicates = predicates is None
        self.predicates = predicates if predicates is not None else standard_collection()
        self.budget = budget
        self.check_fragment = check_fragment
        self.main_depth = main_depth
        self.catch = tuple(catch)
        self.plan_cache = plan_cache
        self.workers = resolve_workers(workers)
        self.parallel_backend = parallel_backend
        self.retry = retry
        self.on_shard_failure = validate_failure_mode(on_shard_failure)
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self.route = route
        self.router = router if router is not None else EngineRouter()
        self.approx = approx
        self.epsilon = epsilon
        self.delta = delta
        self.approx_seed = approx_seed
        self.last_report: "Optional[RobustReport]" = None

    # -- engine-API mirror -----------------------------------------------------

    def model_check(self, structure: Structure, sentence: Formula) -> bool:
        return self._run(
            "model_check",
            [
                self._not_applicable("main_algorithm"),
                ("foc1", lambda b: self._foc1(b).model_check(structure, sentence), ""),
                ("baseline", lambda b: self._baseline(b).model_check(structure, sentence), ""),
            ],
            route_info=self._route_info(
                structure, "model_check", (sentence,), ()
            ),
        )

    def count(
        self, structure: Structure, formula: Formula, variables: Sequence[Variable]
    ) -> int:
        stages: List[_Stage] = [
            self._not_applicable("main_algorithm"),
            ("foc1", lambda b: self._foc1(b).count(structure, formula, variables), ""),
            ("baseline", lambda b: self._baseline(b).count(structure, formula, variables), ""),
        ]
        if self.approx:
            stages.append(
                (
                    "approx",
                    lambda b: self._approx(b).count(structure, formula, variables),
                    "",
                )
            )
        return self._run(
            "count",
            stages,
            route_info=self._route_info(
                structure, "count", (formula,), tuple(variables)
            ),
        )

    def count_many(
        self,
        structures: Sequence[Structure],
        formula: Formula,
        variables: Sequence[Variable],
    ) -> List[int]:
        """Batched counting through the cascade (one plan, many inputs).

        The ``foc1`` stage runs :meth:`Foc1Evaluator.count_many` — compile
        once per distinct signature, fan out across this evaluator's
        workers.  The ``baseline`` stage answers with a deliberately serial
        brute-force loop over the batch.
        """
        structures = list(structures)
        return self._run(
            "count_many",
            [
                self._not_applicable("main_algorithm"),
                (
                    "foc1",
                    lambda b: self._foc1(b).count_many(structures, formula, variables),
                    "",
                ),
                (
                    "baseline",
                    lambda b: [
                        self._baseline(b).count(s, formula, variables)
                        for s in structures
                    ],
                    "",
                ),
            ],
            # Route on the first structure as the batch's representative.
            route_info=self._route_info(
                structures[0] if structures else None,
                "count",
                (formula,),
                tuple(variables),
            ),
        )

    def ground_term_value(self, structure: Structure, term: Term) -> int:
        stages: List[_Stage] = [
            self._not_applicable("main_algorithm"),
            ("foc1", lambda b: self._foc1(b).ground_term_value(structure, term), ""),
            ("baseline", lambda b: self._baseline(b).ground_term_value(structure, term), ""),
        ]
        if self.approx:
            from ..logic.syntax import CountTerm

            if isinstance(term, CountTerm):
                stages.append(
                    (
                        "approx",
                        lambda b: self._approx(b).ground_term_value(structure, term),
                        "",
                    )
                )
            else:
                stages.append(
                    ("approx", None, "only counting terms can be sampled")
                )
        return self._run(
            "ground_term_value",
            stages,
            route_info=self._route_info(
                structure, "ground_term", (term,), ()
            ),
        )

    def unary_term_values(
        self,
        structure: Structure,
        term: Term,
        variable: Variable,
        elements: "Optional[Sequence[Element]]" = None,
    ) -> Dict[Element, int]:
        return self._run(
            "unary_term_values",
            [
                self._not_applicable("main_algorithm"),
                (
                    "foc1",
                    lambda b: self._foc1(b).unary_term_values(
                        structure, term, variable, elements
                    ),
                    "",
                ),
                (
                    "baseline",
                    lambda b: self._baseline(b).unary_term_values(
                        structure, term, variable, elements
                    ),
                    "",
                ),
            ],
            route_info=self._route_info(
                structure, "unary_term", (term,), (variable,)
            ),
        )

    def evaluate_query(self, structure: Structure, query: Foc1Query) -> List[Tuple]:
        return self._run(
            "evaluate_query",
            [
                self._not_applicable("main_algorithm"),
                ("foc1", lambda b: self._foc1(b).evaluate_query(structure, query), ""),
                ("baseline", lambda b: self._baseline(b).evaluate_query(structure, query), ""),
            ],
            route_info=self._route_info(
                structure,
                "query",
                (query.condition, *query.head_terms),
                tuple(query.head_variables),
            ),
        )

    # -- the full three-stage cascade ------------------------------------------

    def evaluate_unary_cl_term(
        self, structure: Structure, term: BasicClTerm, depth: "Optional[int]" = None
    ) -> Dict[Element, int]:
        """``u^A[a]`` for all ``a`` through the full cascade.

        Stage 1 runs the Section 8.2 cover/removal loop, stage 2 the
        generic FOC1 engine on ``term.count_term()``, stage 3 the brute
        force.  All three are exact; the report records which answered.
        """
        if not term.unary:
            raise ReproError("evaluate_unary_cl_term expects a unary basic cl-term")
        use_depth = self.main_depth if depth is None else depth
        free = term.free_variable

        def main_stage(budget: "Optional[EvaluationBudget]") -> Dict[Element, int]:
            stats = MainAlgorithmStats()
            return evaluate_unary_main_algorithm(
                structure,
                term,
                depth=use_depth,
                predicates=self.predicates,
                stats=stats,
                budget=budget,
                plan_cache=self.plan_cache,
                workers=self.workers,
                retry=self.retry,
                on_shard_failure=self.on_shard_failure,
            )

        def foc1_stage(budget: "Optional[EvaluationBudget]") -> Dict[Element, int]:
            engine = Foc1Evaluator(
                predicates=self.predicates,
                check_fragment=False,
                budget=budget,
                plan_cache=self.plan_cache,
            )
            return engine.unary_term_values(structure, term.count_term(), free)

        def baseline_stage(budget: "Optional[EvaluationBudget]") -> Dict[Element, int]:
            return self._baseline(budget).unary_term_values(
                structure, term.count_term(), free
            )

        return self._run(
            "evaluate_unary_cl_term",
            [
                ("main_algorithm", main_stage, ""),
                ("foc1", foc1_stage, ""),
                ("baseline", baseline_stage, ""),
            ],
            route_info=self._route_info(
                structure,
                "unary_term",
                (term.count_term(),),
                (free,),
                cl_term=term,
            ),
        )

    # -- machinery -------------------------------------------------------------

    def _foc1(self, budget: "Optional[EvaluationBudget]") -> Foc1Evaluator:
        return Foc1Evaluator(
            predicates=self.predicates,
            check_fragment=self.check_fragment,
            budget=budget,
            plan_cache=self.plan_cache,
            workers=self.workers,
            parallel_backend=self.parallel_backend,
            retry=self.retry,
            on_shard_failure=self.on_shard_failure,
        )

    def _baseline(self, budget: "Optional[EvaluationBudget]") -> BruteForceEvaluator:
        # The last stage answers on all of FOC(P): fragment checking stays
        # off so out-of-fragment inputs rejected by the foc1 stage still
        # fall through to an exact brute-force answer.
        return BruteForceEvaluator(
            predicates=self.predicates, budget=budget, check_fragment=False
        )

    def _approx(self, budget: "Optional[EvaluationBudget]"):
        from ..approx.evaluator import ApproxEvaluator

        # A defaulted collection ships as None so the process backend can
        # rebuild it child-side (closures do not pickle).
        return ApproxEvaluator(
            predicates=None if self._default_predicates else self.predicates,
            budget=budget,
            epsilon=self.epsilon,
            delta=self.delta,
            seed=self.approx_seed,
            workers=self.workers,
            parallel_backend=self.parallel_backend,
        )

    @staticmethod
    def _not_applicable(name: str) -> _Stage:
        return (name, None, "not applicable to this operation")

    # -- routing ----------------------------------------------------------------

    def _route_info(
        self,
        structure: "Optional[Structure]",
        plan_kind: str,
        expressions: Tuple[Expression, ...],
        variables: Tuple[Variable, ...],
        cl_term: "Optional[BasicClTerm]" = None,
    ) -> "Optional[Dict[str, object]]":
        """The inputs :meth:`_run` needs to consult the router, or ``None``
        when routing is off or nothing is routable."""
        if self.route != "auto" or structure is None:
            return None
        return {
            "structure": structure,
            "plan_kind": plan_kind,
            "expressions": expressions,
            "variables": variables,
            "cl_term": cl_term,
        }

    def _plan_for_routing(
        self,
        kind: str,
        expressions: Tuple[Expression, ...],
        variables: Tuple[Variable, ...],
        structure: Structure,
    ) -> "Optional[QueryPlan]":
        """Fetch/compile the plan the foc1 stage would use, through the
        same cache key it builds, so routing never compiles twice.  Any
        failure (out-of-fragment input, unknown relations) returns None —
        the router then prices foc1 as un-estimable and falls back."""
        try:
            options = PlanOptions(True, True)
            canon = tuple(canonicalise(e) for e in expressions)
            cache = (
                self.plan_cache
                if self.plan_cache is not None
                else default_plan_cache()
            )
            key = (kind, canon, tuple(variables), structure.signature, options)
            return cache.get_or_compile(
                key,
                lambda: compile_plan(
                    kind, canon, tuple(variables), structure.signature, options
                ),
            )
        except Exception:
            return None

    def _route_decision(
        self, operation: str, stages: List[_Stage], info: Dict[str, object]
    ) -> "Optional[RouteDecision]":
        runnable = [name for name, fn, _ in stages if fn is not None]
        structure = info["structure"]
        plan = self._plan_for_routing(
            info["plan_kind"],  # type: ignore[arg-type]
            info["expressions"],  # type: ignore[arg-type]
            info["variables"],  # type: ignore[arg-type]
            structure,  # type: ignore[arg-type]
        )
        try:
            return self.router.route(
                operation,
                runnable,
                structure,
                plan=plan,
                expressions=info["expressions"],  # type: ignore[arg-type]
                variables=info["variables"],  # type: ignore[arg-type]
                cl_term=info["cl_term"],
            )
        except Exception:
            registry = active_metrics()
            if registry is not None:
                registry.inc("cost.route.error")
            return None

    @staticmethod
    def _reordered(stages: List[_Stage], chosen: str) -> List[_Stage]:
        first = [s for s in stages if s[0] == chosen]
        rest = [s for s in stages if s[0] != chosen]
        return first + rest

    def _exact_blowup(self, decision: RouteDecision) -> bool:
        """True when every *priced* exact stage is predicted to exceed
        what the remaining budget can afford — the only condition under
        which routing may put the sampling stage first."""
        exact = [
            units
            for name, units in decision.predicted.items()
            if name != "approx"
        ]
        if not exact:
            return True
        affordable = _AFFORDABLE_NO_DEADLINE
        if self.budget is not None:
            remaining = self.budget.remaining_seconds()
            if remaining is not None:
                affordable = remaining * _UNITS_PER_SECOND
        return min(exact) > affordable

    def _run(
        self,
        operation: str,
        stages: List[_Stage],
        route_info: "Optional[Dict[str, object]]" = None,
    ):
        report = RobustReport(operation=operation)
        started = time.monotonic()
        answer: object = None
        last_error: "Optional[BaseException]" = None
        runnable_left = sum(1 for _, fn, _ in stages if fn is not None)
        registry = active_metrics()

        # Resuming a suspended cascade: re-enter the stage the previous
        # quantum was suspended in.  Earlier stages already had their
        # outcome (failed or skipped) decided in that quantum — re-running
        # them would re-pay known failures — so they are recorded as
        # resume-skips without a budget slice or a breaker update.
        session = active_checkpoint_session()
        if session is not None and not session.on_owner_thread():
            session = None
        resume_past: set = set()
        if session is not None:
            resume_stage = session.consume_resume_stage()
            stage_names = [name for name, _, _ in stages]
            if resume_stage in stage_names:
                resume_past = set(stage_names[: stage_names.index(resume_stage)])

        # Cost-based routing: try the predicted-cheapest stage first.
        # Never under a checkpoint session — a resumed cascade must replay
        # the exact stage order its first quantum recorded.
        decision: "Optional[RouteDecision]" = None
        execution = stages
        if route_info is not None and session is None:
            decision = self._route_decision(operation, stages, route_info)
            if (
                decision is not None
                and decision.mode == "auto"
                and decision.chosen == "approx"
                and not self._exact_blowup(decision)
            ):
                # An estimate may lead only when exactness is predicted
                # unaffordable; otherwise the exact cascade runs (approx
                # stays available as the last fallback).
                decision.mode = "cascade"
                decision.chosen = next(
                    (
                        name
                        for name, fn, _ in stages
                        if fn is not None and name != "approx"
                    ),
                    decision.chosen,
                )
                decision.reason += (
                    "; approx withheld: an exact stage is predicted affordable"
                )
            if decision is not None and decision.mode == "auto":
                execution = self._reordered(stages, decision.chosen)
        report.routing = decision

        for name, fn, skip_reason in execution:
            if fn is not None and name in resume_past:
                runnable_left -= 1
                if registry is not None:
                    registry.inc(f"robust.stage.{name}.skipped")
                    registry.inc("robust.resume.skipped")
                report.stages.append(
                    StageReport(
                        name,
                        "skipped",
                        detail=(
                            "resumed: outcome decided before the previous "
                            "suspension"
                        ),
                    )
                )
                continue
            if fn is None:
                if registry is not None:
                    registry.inc(f"robust.stage.{name}.skipped")
                report.stages.append(
                    StageReport(name, "skipped", detail=skip_reason)
                )
                continue
            if report.answered_by is not None:
                if registry is not None:
                    registry.inc(f"robust.stage.{name}.skipped")
                report.stages.append(
                    StageReport(
                        name,
                        "skipped",
                        detail=f"not needed: answered by {report.answered_by}",
                    )
                )
                continue
            if not self.breaker.allow(name):
                # Circuit open: route straight to the next stage without
                # paying this stage's budget slice (runnable_left drops,
                # so the remaining stages split the freed share).
                runnable_left -= 1
                if registry is not None:
                    registry.inc(f"robust.stage.{name}.skipped")
                    registry.inc("robust.breaker.skipped")
                report.stages.append(
                    StageReport(
                        name,
                        "skipped",
                        detail=(
                            "circuit open: "
                            f"{self.breaker.failures(name)} consecutive "
                            "failures"
                        ),
                    )
                )
                continue

            stage_budget = self._slice_for(runnable_left)
            if stage_budget is not None:
                stage_budget.stage = name
            if session is not None:
                session.record_stage(name)
            runnable_left -= 1
            stage_started = time.monotonic()
            entry = StageReport(name, "failed")
            before = registry.counter_values() if registry is not None else None
            try:
                with span(f"robust.stage.{name}"):
                    answer = fn(stage_budget)
            except SuspendedError as error:
                # Suspension is the quantum boundary of a preemptible run,
                # not a stage failure: the breaker must not trip (the stage
                # will resume, not fall back) and the cascade re-raises
                # after finalising the report for this quantum.
                entry.status = "suspended"
                entry.detail = str(error)
                entry.elapsed = time.monotonic() - stage_started
                if stage_budget is not None:
                    entry.steps = stage_budget.steps
                    self._charge_parent(stage_budget.steps, name)
                if registry is not None:
                    entry.metrics = _counter_delta(registry, before)
                    registry.inc(f"robust.stage.{name}.suspended")
                report.stages.append(entry)
                report.elapsed = time.monotonic() - started
                report.steps = (
                    self.budget.steps
                    if self.budget is not None
                    else sum(s.steps for s in report.stages)
                )
                self.last_report = report
                raise
            except self.catch as error:
                entry.status = "failed"
                entry.error_type = type(error).__name__
                entry.error = str(error)
                last_error = error
                if self.breaker.record_failure(name):
                    if registry is not None:
                        registry.inc("robust.breaker.trip")
            else:
                if isinstance(answer, PartialResult):
                    # A salvaged stage answers with what it kept; record
                    # the degraded coverage rather than falling through.
                    entry.status = "partial"
                    entry.detail = (
                        f"coverage {answer.coverage:.1%} "
                        f"({answer.covered}/{answer.expected})"
                    )
                    report.partial = answer
                    if registry is not None:
                        registry.inc("robust.salvage.partial")
                elif isinstance(answer, ApproxResult):
                    # The sampling stage answered: the caller gets the
                    # full ApproxResult (never a bare int) and the report
                    # is marked so downstream serialisation says so.
                    entry.status = "ok"
                    entry.detail = answer.summary()
                    report.approximate = True
                    if registry is not None:
                        registry.inc("robust.approx.answered")
                else:
                    entry.status = "ok"
                report.answered_by = name
                self.breaker.record_success(name)
            entry.elapsed = time.monotonic() - stage_started
            if registry is not None:
                entry.metrics = _counter_delta(registry, before)
                registry.inc(f"robust.stage.{name}.{entry.status}")
            if stage_budget is not None:
                entry.steps = stage_budget.steps
                self._charge_parent(stage_budget.steps, name)
            report.stages.append(entry)

        # Reports always list stages in the canonical STAGES order, whatever
        # order routing actually ran them in (the per-stage details record
        # the outcomes; the routing decision records the order's cause).
        canonical = {name: i for i, (name, _, _) in enumerate(stages)}
        report.stages.sort(key=lambda s: canonical.get(s.stage, len(canonical)))

        report.elapsed = time.monotonic() - started
        report.steps = self.budget.steps if self.budget is not None else sum(
            s.steps for s in report.stages
        )
        if decision is not None:
            answered_elapsed = 0.0
            if report.answered_by is not None:
                try:
                    answered_elapsed = report.stage(report.answered_by).elapsed
                except KeyError:
                    pass
            try:
                self.router.observe(decision, report.answered_by, answered_elapsed)
            except Exception:
                pass
        self.last_report = report

        if report.answered_by is None:
            if self.budget is not None and self.budget.expired():
                # Surface the resource exhaustion (with overall stats)
                # rather than whichever per-slice error came last.
                self.budget.check(site="robust.cascade")
            if last_error is not None:
                raise last_error
            raise ReproError(f"no stage could answer operation {operation!r}")
        return answer

    def _slice_for(self, runnable_left: int) -> "Optional[EvaluationBudget]":
        if self.budget is None:
            return None
        fraction = 1.0 if runnable_left <= 1 else 1.0 / runnable_left
        return self.budget.slice(fraction)

    def _charge_parent(self, steps: int, site: str) -> None:
        if self.budget is None or steps == 0:
            return
        try:
            self.budget.charge(steps, site=f"robust.{site}")
        except BudgetExceededError:
            # The parent pool is dry; the next stage's slice (or the final
            # accounting in _run) will surface it.  Swallowing here keeps
            # charge-back from masking the stage's own outcome.
            pass
