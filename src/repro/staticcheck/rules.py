"""The repo-specific determinism-and-invariants rules.

Every replayability guarantee this library ships is enforced dynamically —
permutation tests for order-free counter draws, worker-count invariance for
parallel merges, kill-at-every-round checkpoint tests.  These rules are the
static counterparts: they make the invariants reviewable at diff time,
before a test run has to catch the regression.

========  =============================  =========================================
rule id   name                           guards
========  =============================  =========================================
R001      nondeterministic-rng           every draw threads a seed from a
                                         parameter (PRs 3-5 seed hygiene)
R002      wall-clock-in-logic            algorithm logic is time-free; clocks
                                         live in ``obs/``/``store/`` or marked
                                         timing envelopes
R003      unordered-iteration-           no set/dict-view iteration feeding RNG
          feeding-draws                  draws or flow emission (PR 4's
                                         permutation invariance)
R004      process-boundary-purity        boundary dataclasses stay picklable and
                                         canonical-JSON-stable (PR 5 dispatch,
                                         PR 6 config hashes)
R005      kernel-phase-coverage          backend round kernels run under
                                         ``kernel_phase(...)`` (PR 7 traces)
R006      edge-list-rebuild              per-round code reads ``Network``'s cached
                                         endpoint arrays instead of rebuilding
                                         them from ``.edges``
R007      networkx-on-run-path           networkx is imported only in
                                         ``network/graph.py`` (``Network.graph``
                                         is the on-demand view),
                                         ``network/topologies.py`` or on marked
                                         lines
========  =============================  =========================================
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from .engine import ModuleContext, RuleVisitor, VisitorRule

__all__ = [
    "NondeterministicRngRule",
    "WallClockInLogicRule",
    "UnorderedIterationRule",
    "ProcessBoundaryPurityRule",
    "KernelPhaseCoverageRule",
    "EdgeListRebuildRule",
    "NetworkxOnRunPathRule",
    "ALL_RULES",
    "RULES_BY_ID",
    "BOUNDARY_TYPES",
]


def _is_constant(node: ast.expr) -> bool:
    """Literal constants (incl. ``-3``) — a hard-coded, unthreaded seed."""
    if isinstance(node, ast.Constant):
        return True
    if isinstance(node, ast.UnaryOp) and isinstance(node.operand, ast.Constant):
        return True
    return False


def _seed_threaded(call: ast.Call) -> bool:
    """Whether a constructor call receives a non-literal seed argument."""
    candidates: List[ast.expr] = list(call.args[:1])
    candidates.extend(keyword.value for keyword in call.keywords
                      if keyword.arg == "seed")
    for candidate in candidates:
        if not _is_constant(candidate):
            return True
    return False


# --------------------------------------------------------------------- #
# R001 nondeterministic-rng
# --------------------------------------------------------------------- #

#: ``random.<draw>()`` — the interpreter-global Mersenne Twister.
_PY_RANDOM_DRAWS: FrozenSet[str] = frozenset({
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "triangular", "betavariate", "expovariate",
    "gammavariate", "gauss", "lognormvariate", "normalvariate",
    "vonmisesvariate", "paretovariate", "weibullvariate", "getrandbits",
    "randbytes", "seed",
})

#: ``np.random.<draw>()`` — numpy's legacy module-global RandomState.
_NP_GLOBAL_DRAWS: FrozenSet[str] = frozenset({
    "rand", "randn", "randint", "random", "random_sample", "ranf", "sample",
    "standard_normal", "choice", "shuffle", "permutation", "seed",
    "get_state", "set_state", "normal", "uniform", "binomial", "poisson",
    "exponential", "beta", "gamma", "bytes", "integers",
})


class _RngVisitor(RuleVisitor):
    """Track rng-module aliases, flag global-state draws and unthreaded seeds."""

    def __init__(self, rule: "NondeterministicRngRule",
                 module: ModuleContext) -> None:
        super().__init__(rule, module)
        self._random_modules: Set[str] = set()
        self._numpy_modules: Set[str] = set()
        self._np_random_modules: Set[str] = set()
        self._default_rng_names: Set[str] = set()
        self._random_draw_names: Dict[str, str] = {}
        self._random_class_names: Set[str] = set()

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if alias.name == "random":
                self._random_modules.add(bound)
            elif alias.name == "numpy":
                self._numpy_modules.add(bound)
            elif alias.name == "numpy.random":
                if alias.asname:
                    self._np_random_modules.add(alias.asname)
                else:
                    self._numpy_modules.add("numpy")
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        for alias in node.names:
            bound = alias.asname or alias.name
            if node.module == "numpy" and alias.name == "random":
                self._np_random_modules.add(bound)
            elif node.module == "numpy.random" and alias.name == "default_rng":
                self._default_rng_names.add(bound)
            elif node.module == "random":
                if alias.name in _PY_RANDOM_DRAWS:
                    self._random_draw_names[bound] = alias.name
                elif alias.name == "Random":
                    self._random_class_names.add(bound)
        self.generic_visit(node)

    def _resolve_module_attr(self, func: ast.expr) -> Optional[Tuple[str, str]]:
        """Resolve ``mod.attr`` to ``("random"|"np.random", attr)``."""
        if not isinstance(func, ast.Attribute):
            return None
        base = func.value
        if isinstance(base, ast.Name):
            if base.id in self._random_modules:
                return ("random", func.attr)
            if base.id in self._np_random_modules:
                return ("np.random", func.attr)
        if (isinstance(base, ast.Attribute) and base.attr == "random"
                and isinstance(base.value, ast.Name)
                and base.value.id in self._numpy_modules):
            return ("np.random", func.attr)
        return None

    def visit_Call(self, node: ast.Call) -> None:
        resolved = self._resolve_module_attr(node.func)
        if resolved is not None:
            family, attr = resolved
            if family == "random":
                if attr in _PY_RANDOM_DRAWS:
                    self.report(node, (
                        f"random.{attr}() draws from the process-global RNG; "
                        "thread a seeded Generator/Random instance from a "
                        "parameter instead"))
                elif attr == "Random" and not _seed_threaded(node):
                    self.report(node, (
                        "random.Random() without a seed threaded from a "
                        "parameter is not replayable"))
            else:
                if attr == "default_rng":
                    if not _seed_threaded(node):
                        self.report(node, (
                            "default_rng() without a seed threaded from a "
                            "parameter (missing or hard-coded literal) "
                            "breaks replay"))
                elif attr in _NP_GLOBAL_DRAWS:
                    self.report(node, (
                        f"np.random.{attr}() uses numpy's module-global "
                        "RandomState; use a seeded Generator threaded from "
                        "a parameter"))
        elif isinstance(node.func, ast.Name):
            name = node.func.id
            if name in self._default_rng_names and not _seed_threaded(node):
                self.report(node, (
                    "default_rng() without a seed threaded from a parameter "
                    "(missing or hard-coded literal) breaks replay"))
            elif name in self._random_draw_names:
                origin = self._random_draw_names[name]
                self.report(node, (
                    f"{name}() (= random.{origin}) draws from the "
                    "process-global RNG; thread a seeded instance instead"))
            elif name in self._random_class_names and not _seed_threaded(node):
                self.report(node, (
                    "Random() without a seed threaded from a parameter is "
                    "not replayable"))
        self.generic_visit(node)


class NondeterministicRngRule(VisitorRule):
    """R001: every random draw must thread its seed from a parameter."""

    rule_id = "R001"
    name = "nondeterministic-rng"
    description = ("global-state or unseeded RNG use outside counter_rng.py/"
                   "faults.py/tests")
    visitor_class = _RngVisitor

    #: The two modules allowed to own raw entropy: the counter-RNG helpers
    #: (which *define* the seeding discipline) and the fault injectors.
    exempt_files: FrozenSet[str] = frozenset({"counter_rng.py", "faults.py"})

    def applies_to(self, module: ModuleContext) -> bool:
        return not module.is_test and module.filename not in self.exempt_files


# --------------------------------------------------------------------- #
# R002 wall-clock-in-logic
# --------------------------------------------------------------------- #

#: Clock reads on the ``time`` module (wall and monotonic: both are
#: nondeterministic inputs if they leak into algorithm logic).
_TIME_CALLS: FrozenSet[str] = frozenset({
    "time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
    "perf_counter_ns", "process_time", "process_time_ns", "gmtime",
    "localtime", "ctime", "asctime",
})

#: Clock-reading classmethods on ``datetime.datetime`` / ``datetime.date``.
_DATETIME_CALLS: FrozenSet[str] = frozenset({"now", "utcnow", "today"})

_DATETIME_CLASSES: FrozenSet[str] = frozenset({"datetime", "date"})


class _WallClockVisitor(RuleVisitor):
    """Flag clock reads; the observability layer is exempt by scoping."""

    def __init__(self, rule: "WallClockInLogicRule",
                 module: ModuleContext) -> None:
        super().__init__(rule, module)
        self._time_modules: Set[str] = set()
        self._datetime_modules: Set[str] = set()
        self._time_func_names: Dict[str, str] = {}
        self._datetime_class_names: Set[str] = set()

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            bound = alias.asname or alias.name
            if alias.name == "time":
                self._time_modules.add(bound)
            elif alias.name == "datetime":
                self._datetime_modules.add(bound)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        for alias in node.names:
            bound = alias.asname or alias.name
            if node.module == "time" and alias.name in _TIME_CALLS:
                self._time_func_names[bound] = alias.name
            elif (node.module == "datetime"
                    and alias.name in _DATETIME_CLASSES):
                self._datetime_class_names.add(bound)
        self.generic_visit(node)

    def _clock_read(self, func: ast.expr) -> Optional[str]:
        """The dotted name of the clock read ``func`` performs, if any."""
        if isinstance(func, ast.Name):
            origin = self._time_func_names.get(func.id)
            if origin is not None:
                return f"time.{origin}"
            return None
        if not isinstance(func, ast.Attribute):
            return None
        base = func.value
        if isinstance(base, ast.Name):
            if base.id in self._time_modules and func.attr in _TIME_CALLS:
                return f"time.{func.attr}"
            if (base.id in self._datetime_class_names
                    and func.attr in _DATETIME_CALLS):
                return f"datetime.{func.attr}"
        if (isinstance(base, ast.Attribute)
                and base.attr in _DATETIME_CLASSES
                and isinstance(base.value, ast.Name)
                and base.value.id in self._datetime_modules
                and func.attr in _DATETIME_CALLS):
            return f"datetime.{base.attr}.{func.attr}"
        return None

    def visit_Call(self, node: ast.Call) -> None:
        clock = self._clock_read(node.func)
        if clock is not None:
            self.report(node, (
                f"wall-clock read {clock}() outside obs//store/: algorithm "
                "logic must be time-free — move it behind the observability "
                "layer, or mark an intentional timing envelope with "
                "'# repro: allow[R002] <reason>'"))
        self.generic_visit(node)


class WallClockInLogicRule(VisitorRule):
    """R002: no clock reads outside ``obs/``, ``store/`` and marked envelopes."""

    rule_id = "R002"
    name = "wall-clock-in-logic"
    description = ("time.time()/datetime.now()-style clock reads outside "
                   "obs//store/ or a marked timing envelope")
    visitor_class = _WallClockVisitor

    def applies_to(self, module: ModuleContext) -> bool:
        if module.is_test:
            return False
        return not (module.in_directory("obs") or module.in_directory("store"))


# --------------------------------------------------------------------- #
# R003 unordered-iteration-feeding-draws
# --------------------------------------------------------------------- #

_RNG_NAMES: FrozenSet[str] = frozenset({"rng", "_rng"})

_RNG_DRAW_METHODS: FrozenSet[str] = frozenset({
    "integers", "random", "choice", "shuffle", "permutation", "uniform",
    "normal", "standard_normal", "binomial",
})

_FLOW_CALL_NAMES: FrozenSet[str] = frozenset({"move", "send", "deliver", "emit"})


def _unordered_desc(node: ast.expr) -> Optional[str]:
    """Describe ``node`` when it is a syntactically unordered iterable."""
    if isinstance(node, ast.Set):
        return "a set literal"
    if isinstance(node, ast.SetComp):
        return "a set comprehension"
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
            return f"{func.id}(...)"
        if isinstance(func, ast.Attribute) and func.attr in ("keys", "values",
                                                             "items"):
            return f"a mapping's .{func.attr}() view"
    return None


def _iteration_sink(nodes: List[ast.stmt]) -> Optional[str]:
    """What the loop body does that makes iteration order load-bearing."""
    for statement in nodes:
        for node in ast.walk(statement):
            if isinstance(node, ast.Name) and node.id in _RNG_NAMES:
                return "touches an RNG"
            if isinstance(node, ast.Attribute) and node.attr in _RNG_NAMES:
                return "touches an RNG"
            if isinstance(node, ast.Call):
                func = node.func
                attr = func.attr if isinstance(func, ast.Attribute) else (
                    func.id if isinstance(func, ast.Name) else "")
                if attr in _RNG_DRAW_METHODS:
                    return "draws randomness"
                if attr in _FLOW_CALL_NAMES or "flow" in attr:
                    return "emits flow"
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                for target in targets:
                    text = (target.attr if isinstance(target, ast.Attribute)
                            else target.id if isinstance(target, ast.Name)
                            else "")
                    if "flow" in text or "cumulative" in text:
                        return "updates cumulative flow"
    return None


class _UnorderedIterationVisitor(RuleVisitor):
    """Flag for-loops/comprehensions over unordered collections that draw."""

    def _check(self, node: ast.AST, iter_node: ast.expr,
               body: List[ast.stmt]) -> None:
        desc = _unordered_desc(iter_node)
        if desc is None:
            return
        sink = _iteration_sink(body)
        if sink is None:
            return
        self.report(node, (
            f"iterating {desc} while the loop body {sink}: iteration order "
            "is not canonical across processes — iterate sorted(...) or an "
            "indexed sequence so draws stay order-free (permutation "
            "invariance, PR 4)"))

    def visit_For(self, node: ast.For) -> None:
        self._check(node, node.iter, node.body)
        self.generic_visit(node)

    def _visit_comprehension(self, node: ast.expr,
                             generators: List[ast.comprehension]) -> None:
        for generator in generators:
            desc = _unordered_desc(generator.iter)
            if desc is None:
                continue
            sink = _iteration_sink([ast.Expr(value=node)])
            if sink is not None:
                self.report(node, (
                    f"comprehension over {desc} while its body {sink}: "
                    "iteration order is not canonical across processes — "
                    "iterate sorted(...) so draws stay order-free"))
                return
        self.generic_visit(node)

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._visit_comprehension(node, node.generators)

    def visit_SetComp(self, node: ast.SetComp) -> None:
        self._visit_comprehension(node, node.generators)

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        self._visit_comprehension(node, node.generators)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self._visit_comprehension(node, node.generators)


class UnorderedIterationRule(VisitorRule):
    """R003: no unordered iteration where the body draws or emits flow."""

    rule_id = "R003"
    name = "unordered-iteration-feeding-draws"
    description = ("set/dict-view iteration feeding RNG draws or flow "
                   "emission in backend//core//discrete/")
    visitor_class = _UnorderedIterationVisitor

    def applies_to(self, module: ModuleContext) -> bool:
        if module.is_test:
            return False
        return (module.in_directory("backend") or module.in_directory("core")
                or module.in_directory("discrete"))


# --------------------------------------------------------------------- #
# R004 process-boundary-purity
# --------------------------------------------------------------------- #

#: The dataclasses that cross a process or disk boundary: worker dispatch
#: (pickle) and run-store/checkpoint hashing (canonical JSON).  Extend this
#: registry when a new spec type starts travelling.
BOUNDARY_TYPES: FrozenSet[str] = frozenset({
    "GridCell", "CellFailure", "CellOutcome", "FaultPlan", "Scenario",
    "SweepConfiguration", "StreamCheckpoint", "CapturedEvent",
})

#: Annotation names that mean "not picklable" or "not canonically
#: serialisable": callables, live iterators, handles, locks, executors.
_FORBIDDEN_ANNOTATIONS: FrozenSet[str] = frozenset({
    "Callable", "Generator", "Iterator", "AsyncIterator", "AsyncGenerator",
    "Coroutine", "Awaitable", "IO", "TextIO", "BinaryIO", "TextIOBase",
    "TextIOWrapper", "BufferedReader", "BufferedWriter", "FileIO",
    "Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore", "Barrier",
    "Thread", "Process", "Pool", "ProcessPoolExecutor", "ThreadPoolExecutor",
    "Future", "Popen", "socket", "ModuleType", "FunctionType", "LambdaType",
    "MethodType", "GeneratorType", "memoryview",
})


def _is_dataclass_decorated(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
        if isinstance(target, ast.Attribute) and target.attr == "dataclass":
            return True
    return False


def _forbidden_in_annotation(node: ast.expr) -> List[str]:
    """Forbidden type names referenced anywhere inside an annotation."""
    offenders: List[str] = []
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return offenders
    for child in ast.walk(node):
        name = ""
        if isinstance(child, ast.Name):
            name = child.id
        elif isinstance(child, ast.Attribute):
            name = child.attr
        elif isinstance(child, ast.Constant) and isinstance(child.value, str):
            offenders.extend(_forbidden_in_annotation(child))
        if name in _FORBIDDEN_ANNOTATIONS:
            offenders.append(name)
    return offenders


def _callable_default(node: Optional[ast.expr]) -> bool:
    """A default value that stores a callable on every instance."""
    if node is None:
        return False
    if isinstance(node, ast.Lambda):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        is_field = (isinstance(func, ast.Name) and func.id == "field") or (
            isinstance(func, ast.Attribute) and func.attr == "field")
        if is_field:
            for keyword in node.keywords:
                if keyword.arg == "default" and isinstance(keyword.value,
                                                           ast.Lambda):
                    return True
    return False


class _BoundaryPurityVisitor(RuleVisitor):
    """Check registered boundary dataclasses field by field."""

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if node.name in BOUNDARY_TYPES and _is_dataclass_decorated(node):
            for statement in node.body:
                if not isinstance(statement, ast.AnnAssign):
                    continue
                if not isinstance(statement.target, ast.Name):
                    continue
                field_name = statement.target.id
                for offender in _forbidden_in_annotation(
                        statement.annotation):
                    self.report(statement, (
                        f"boundary type {node.name}: field '{field_name}' "
                        f"is annotated with {offender}, which does not "
                        "survive the process boundary (pickle) or canonical-"
                        "JSON config hashing — carry plain data and rebuild "
                        "the live object on the far side"))
                if _callable_default(statement.value):
                    self.report(statement, (
                        f"boundary type {node.name}: field '{field_name}' "
                        "stores a callable default on every instance; use "
                        "field(default_factory=...) to build plain data "
                        "instead"))
        self.generic_visit(node)


class ProcessBoundaryPurityRule(VisitorRule):
    """R004: boundary dataclasses carry only picklable, JSON-stable fields."""

    rule_id = "R004"
    name = "process-boundary-purity"
    description = ("registered boundary dataclasses must have picklable, "
                   "canonical-JSON-stable fields")
    visitor_class = _BoundaryPurityVisitor

    def applies_to(self, module: ModuleContext) -> bool:
        return not module.is_test


# --------------------------------------------------------------------- #
# R005 kernel-phase-coverage
# --------------------------------------------------------------------- #

#: The round entry points the Chrome traces time.  ``advance`` is included
#: so a backend that bypasses ``_execute_round`` still gets caught.
_ROUND_METHODS: FrozenSet[str] = frozenset({"_execute_round", "advance"})


def _is_abstract(node: ast.FunctionDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = (target.id if isinstance(target, ast.Name)
                else target.attr if isinstance(target, ast.Attribute) else "")
        if name in ("abstractmethod", "abstractproperty"):
            return True
    return False


def _is_stub_body(body: List[ast.stmt]) -> bool:
    """Docstring-only / ``pass`` / ``raise`` bodies are declarations, not kernels."""
    for statement in body:
        if isinstance(statement, ast.Expr) and isinstance(statement.value,
                                                          ast.Constant):
            continue
        if isinstance(statement, (ast.Pass, ast.Raise)):
            continue
        return False
    return True


def _contains_kernel_phase(node: ast.FunctionDef) -> bool:
    for child in ast.walk(node):
        if not isinstance(child, (ast.With, ast.AsyncWith)):
            continue
        for item in child.items:
            expr = item.context_expr
            if not isinstance(expr, ast.Call):
                continue
            func = expr.func
            name = (func.id if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute) else "")
            if name == "kernel_phase":
                return True
    return False


class _KernelPhaseVisitor(RuleVisitor):
    """Every concrete round method must wrap its work in kernel_phase(...)."""

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        if (node.name in _ROUND_METHODS and not _is_abstract(node)
                and not _is_stub_body(node.body)
                and not _contains_kernel_phase(node)):
            self.report(node, (
                f"round kernel {node.name}() runs outside a "
                "kernel_phase(...) block: wrap its hot section so the "
                "Chrome traces and hot-kernel tables stay honest (PR 7)"))
        self.generic_visit(node)


class KernelPhaseCoverageRule(VisitorRule):
    """R005: backend round kernels report into the kernel-phase clock."""

    rule_id = "R005"
    name = "kernel-phase-coverage"
    description = ("round/advance kernels in backend/ and "
                   "core/flow_imitation.py must run under kernel_phase(...)")
    visitor_class = _KernelPhaseVisitor

    def applies_to(self, module: ModuleContext) -> bool:
        if module.is_test or module.filename == "__init__.py":
            return False
        if module.in_directory("backend"):
            return True
        return (module.in_directory("core")
                and module.filename == "flow_imitation.py")


# --------------------------------------------------------------------- #
# R006 edge-list-rebuild
# --------------------------------------------------------------------- #


def _edges_attribute(node: ast.expr) -> bool:
    """Whether ``node`` is an ``.edges`` attribute read."""
    return isinstance(node, ast.Attribute) and node.attr == "edges"


class _EdgeListRebuildVisitor(RuleVisitor):
    """Flag ``np.fromiter`` over ``.edges`` and ``.edges[...]`` inside loops.

    Names bound to ``<x>.edges`` count as ``.edges`` (``edges =
    network.edges`` then ``np.fromiter((u for u, _ in edges), ...)``); an
    ``.edges()`` *call* (networkx) is a different API and does not.  Only
    what runs once per iteration is "inside" a loop: a ``for`` loop's
    iterable and a comprehension's first iterable are evaluated once.
    """

    def __init__(self, rule: "EdgeListRebuildRule",
                 module: ModuleContext) -> None:
        super().__init__(rule, module)
        self._loop_depth = 0
        self._edge_aliases: Set[str] = set()

    def _reads_edges(self, node: ast.expr) -> bool:
        called = {id(child.func) for child in ast.walk(node)
                  if isinstance(child, ast.Call)}
        for child in ast.walk(node):
            if isinstance(child, ast.Name) and child.id in self._edge_aliases:
                return True
            if _edges_attribute(child) and id(child) not in called:
                return True
        return False

    def _visit_in_loop(self, nodes: List[ast.AST]) -> None:
        self._loop_depth += 1
        for node in nodes:
            self.visit(node)
        self._loop_depth -= 1

    def visit_Assign(self, node: ast.Assign) -> None:
        if _edges_attribute(node.value):
            self._edge_aliases.update(target.id for target in node.targets
                                      if isinstance(target, ast.Name))
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        self.visit(node.iter)
        self._visit_in_loop(list(node.body))
        for statement in node.orelse:
            self.visit(statement)

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        self.visit(node.iter)
        self._visit_in_loop(list(node.body))
        for statement in node.orelse:
            self.visit(statement)

    def visit_While(self, node: ast.While) -> None:
        self._visit_in_loop([node.test, *node.body])
        for statement in node.orelse:
            self.visit(statement)

    def _visit_comprehension(self, node: ast.expr,
                             generators: List[ast.comprehension]) -> None:
        first = generators[0]
        self.visit(first.iter)
        elements = [child for child in ast.iter_child_nodes(node)
                    if not isinstance(child, ast.comprehension)]
        self._visit_in_loop([*first.ifs, *generators[1:], *elements])

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._visit_comprehension(node, node.generators)

    def visit_SetComp(self, node: ast.SetComp) -> None:
        self._visit_comprehension(node, node.generators)

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        self._visit_comprehension(node, node.generators)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self._visit_comprehension(node, node.generators)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        name = (func.attr if isinstance(func, ast.Attribute)
                else func.id if isinstance(func, ast.Name) else "")
        if name == "fromiter" and node.args and self._reads_edges(node.args[0]):
            self.report(node, (
                "np.fromiter() over .edges rebuilds the edge endpoints in "
                "Python: read Network.edge_endpoints (cached, read-only "
                "int64 arrays) instead"))
            return  # one finding per rebuild, not one per nested subscript
        self.generic_visit(node)

    def visit_Subscript(self, node: ast.Subscript) -> None:
        if self._loop_depth and _edges_attribute(node.value):
            self.report(node, (
                ".edges[...] inside a loop looks edges up one Python tuple "
                "at a time: index the Network.edge_endpoints arrays (or "
                "iterate np.flatnonzero(...) over them) instead"))
        self.generic_visit(node)


class EdgeListRebuildRule(VisitorRule):
    """R006: per-round code reads the cached edge layout, never rebuilds it."""

    rule_id = "R006"
    name = "edge-list-rebuild"
    description = ("np.fromiter over .edges, or .edges[...] inside a loop, "
                   "outside network/")
    visitor_class = _EdgeListRebuildVisitor

    def applies_to(self, module: ModuleContext) -> bool:
        return not module.is_test and not module.in_directory("network")


# --------------------------------------------------------------------- #
# R007 networkx-on-run-path
# --------------------------------------------------------------------- #


def _is_networkx(module_name: Optional[str]) -> bool:
    """Whether an absolute import names ``networkx`` or one of its submodules."""
    return module_name is not None and module_name.split(".")[0] == "networkx"


class _NetworkxImportVisitor(RuleVisitor):
    """Flag every ``import networkx`` / ``from networkx... import``."""

    def _flag(self, node: ast.stmt) -> None:
        self.report(node, (
            "networkx imported outside network/graph.py and "
            "network/topologies.py: run-path code reads "
            "Network's int64 arrays (edge_endpoints, csr, directed_order) and "
            "Network.graph builds a networkx view on demand; mark a deliberate "
            "use with '# repro: allow[R007] <reason>'"))

    def visit_Import(self, node: ast.Import) -> None:
        if any(_is_networkx(alias.name) for alias in node.names):
            self._flag(node)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.level == 0 and _is_networkx(node.module):
            self._flag(node)
        self.generic_visit(node)


#: the modules that may import networkx: the adapter and view, and the
#: generators of the families that are not built from arrays
_NETWORKX_MODULES = frozenset({"graph.py", "topologies.py"})


class NetworkxOnRunPathRule(VisitorRule):
    """R007: networkx stays in the network adapter and the generators unless a line says why."""

    rule_id = "R007"
    name = "networkx-on-run-path"
    description = ("import networkx outside network/graph.py and network/topologies.py "
                   "without a marked reason")
    visitor_class = _NetworkxImportVisitor

    def applies_to(self, module: ModuleContext) -> bool:
        return not module.is_test and not (
            module.in_directory("network") and module.filename in _NETWORKX_MODULES)


ALL_RULES: Tuple[VisitorRule, ...] = (
    NondeterministicRngRule(),
    WallClockInLogicRule(),
    UnorderedIterationRule(),
    ProcessBoundaryPurityRule(),
    KernelPhaseCoverageRule(),
    EdgeListRebuildRule(),
    NetworkxOnRunPathRule(),
)

RULES_BY_ID: Dict[str, VisitorRule] = {rule.rule_id: rule for rule in ALL_RULES}
