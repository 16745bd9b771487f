"""The six project-specific reproducibility rules (REP001–REP006).

Each rule protects one machine-checkable invariant this reproduction
depends on:

========  ==============================================================
REP001    No global-state ``np.random.*`` — randomness must flow through
          an injected ``numpy.random.Generator`` so kill-and-resume and
          the sampler registry stay bitwise deterministic.
REP002    No wall-clock reads outside ``utils/clock`` — time must come
          from the injectable ``Clock`` so timing is fake-clock testable
          and never leaks into results.
REP003    No raw ``open(..., "w")`` / ``np.save*`` outside
          ``utils/atomicio`` — a crash mid-write must never leave a
          truncated artifact under its final name.
REP004    ``np.exp`` on unbounded input needs an overflow guard
          (``clip`` / ``-np.abs`` / sign-split masking) — silent ``inf``
          propagation breaks divergence guards downstream.
REP005    An attribute mutated under ``with self._lock`` must never be
          mutated outside it (outside ``__init__``) — torn reads in the
          serving/obs hot path are heisenbugs.
REP006    No mutable default arguments, no bare/blanket exception
          swallowing — both hide state across calls and failures.
========  ==============================================================

Rules are registered with :func:`register` and instantiated through
:func:`active_rules`; adding a rule is: subclass :class:`Rule`, set the
class attributes, implement :meth:`Rule.check`, decorate.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator, Type

from repro.analysis.lint.astfacts import NP_WRITERS, lock_attr_names, raw_write
from repro.analysis.lint.config import LintConfig
from repro.analysis.lint.engine import Finding, ModuleContext

RULE_REGISTRY: dict[str, Type["Rule"]] = {}


def register(rule_class: Type["Rule"]) -> Type["Rule"]:
    """Class decorator adding a rule to :data:`RULE_REGISTRY`."""
    if not rule_class.id:
        raise ValueError(f"{rule_class.__name__} has no rule id")
    if rule_class.id in RULE_REGISTRY:
        raise ValueError(f"duplicate rule id {rule_class.id}")
    RULE_REGISTRY[rule_class.id] = rule_class
    return rule_class


class Rule:
    """One named invariant checked over a parsed module.

    Rules with ``requires_project = True`` (the graph-backed rules in
    :mod:`repro.analysis.graph.rules`) are skipped in the per-module
    pass; the engine calls their ``check_project`` once with the
    assembled :class:`~repro.analysis.graph.project.ProjectGraph`.
    """

    id: str = ""
    name: str = ""
    rationale: str = ""
    requires_project: bool = False

    def check(self, context: ModuleContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, context: ModuleContext, node: ast.AST, message: str) -> Finding:
        return context.finding(self.id, node, message)


def all_rules() -> list[Rule]:
    """Fresh instances of every registered rule, sorted by id."""
    # The graph-backed rules register on first import; deferred so the
    # single-module core never pays for (or cycles with) the graph layer.
    import repro.analysis.graph.rules  # noqa: F401

    return [RULE_REGISTRY[rule_id]() for rule_id in sorted(RULE_REGISTRY)]


def active_rules(config: LintConfig) -> list[Rule]:
    """The registered rules enabled by ``config.select``."""
    return [rule for rule in all_rules() if config.is_selected(rule.id)]


def _walk_calls(tree: ast.AST) -> Iterator[ast.Call]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            yield node


# ---------------------------------------------------------------------------
# REP001 — global-state numpy randomness
# ---------------------------------------------------------------------------

#: numpy.random attributes that do NOT touch the global RandomState.
_SAFE_NP_RANDOM = frozenset(
    {
        "default_rng",
        "Generator",
        "SeedSequence",
        "BitGenerator",
        "PCG64",
        "PCG64DXSM",
        "MT19937",
        "Philox",
        "SFC64",
    }
)


@register
class GlobalRandomRule(Rule):
    id = "REP001"
    name = "no-global-numpy-random"
    rationale = (
        "Global numpy randomness (np.random.seed/rand/choice/...) is hidden "
        "process state: it breaks bitwise kill-and-resume, sampler-registry "
        "determinism, and the Revisiting-BPR replicability protocol. Use an "
        "injected numpy.random.Generator (utils/rng.py) instead."
    )

    def check(self, context: ModuleContext) -> Iterator[Finding]:
        for call in _walk_calls(context.tree):
            dotted = context.dotted_name(call.func)
            if dotted is None or not dotted.startswith("numpy.random."):
                continue
            tail = dotted.split(".")[-1]
            if tail in _SAFE_NP_RANDOM:
                continue
            yield self.finding(
                context,
                call,
                f"call to global-state `{dotted}`; inject a "
                "`numpy.random.Generator` (see utils/rng.py) instead",
            )


# ---------------------------------------------------------------------------
# REP002 — wall-clock reads
# ---------------------------------------------------------------------------

_WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.process_time",
        "time.process_time_ns",
        "time.clock_gettime",
        "datetime.datetime.now",
        "datetime.datetime.today",
        "datetime.datetime.utcnow",
        "datetime.date.today",
    }
)


@register
class WallClockRule(Rule):
    id = "REP002"
    name = "no-wall-clock-reads"
    rationale = (
        "Reading the wall clock directly makes timing untestable and can "
        "leak nondeterminism into results. All time flows through the "
        "injectable Clock in utils/clock.py (SystemClock in production, "
        "FakeClock in tests)."
    )

    def check(self, context: ModuleContext) -> Iterator[Finding]:
        for call in _walk_calls(context.tree):
            dotted = context.dotted_name(call.func)
            if dotted in _WALL_CLOCK_CALLS:
                yield self.finding(
                    context,
                    call,
                    f"wall-clock read `{dotted}()`; route timing through "
                    "`repro.utils.clock` (Clock/SystemClock/Timer) instead",
                )


# ---------------------------------------------------------------------------
# REP003 — non-atomic writes
# ---------------------------------------------------------------------------

@register
class AtomicWriteRule(Rule):
    id = "REP003"
    name = "atomic-writes-only"
    rationale = (
        "A raw open(..., 'w') or np.save leaves a truncated file under the "
        "final name if the process dies mid-write — exactly the torn "
        "checkpoint the resilience layer exists to prevent. Write through "
        "utils/atomicio (atomic_write / write_npz_atomic / write_json_atomic)."
    )

    def check(self, context: ModuleContext) -> Iterator[Finding]:
        for call in _walk_calls(context.tree):
            dotted = context.dotted_name(call.func)
            what = raw_write(call, dotted)
            if what is None:
                continue
            remedy = "write_npz_atomic" if dotted in NP_WRITERS else "atomic_write"
            yield self.finding(
                context,
                call,
                f"non-atomic {what}; use `repro.utils.atomicio.{remedy}` (tmp + os.replace)",
            )


# ---------------------------------------------------------------------------
# REP004 — unguarded np.exp
# ---------------------------------------------------------------------------

_BOUNDING_CALLS = frozenset({"clip", "minimum", "maximum", "abs", "absolute", "fabs", "log1p"})


def _has_overflow_guard(arg: ast.expr) -> bool:
    """Whether an ``np.exp`` argument is visibly bounded.

    Accepted idioms (all used in ``mf/functional.py`` /
    ``neural/autograd.py``):

    * a bounding call in the argument subtree — ``np.clip`` /
      ``np.minimum`` / ``np.maximum`` / ``np.abs`` (typically as
      ``np.exp(-np.abs(x))``);
    * a subscripted operand — the split-sign idiom selects one sign
      (``np.exp(x[~positive])``), bounding the exponent at 0;
    * a constant (or negated constant) argument.
    """
    for node in ast.walk(arg):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            if name in _BOUNDING_CALLS:
                return True
        if isinstance(node, ast.Subscript):
            return True
    if isinstance(arg, ast.Constant):
        return True
    if isinstance(arg, ast.UnaryOp) and isinstance(arg.operand, ast.Constant):
        return True
    return False


@register
class UnguardedExpRule(Rule):
    id = "REP004"
    name = "guarded-exp"
    rationale = (
        "np.exp overflows to inf with a RuntimeWarning at |x| > ~709; the "
        "resulting inf/nan propagates silently until the divergence guard "
        "trips epochs later. Bound the exponent with clip, -np.abs, or the "
        "split-sign masking idiom before exponentiating."
    )

    def check(self, context: ModuleContext) -> Iterator[Finding]:
        for call in _walk_calls(context.tree):
            dotted = context.dotted_name(call.func)
            if dotted != "numpy.exp" or not call.args:
                continue
            if not _has_overflow_guard(call.args[0]):
                yield self.finding(
                    context,
                    call,
                    "`np.exp` on an unbounded argument; guard with `np.clip`, "
                    "`-np.abs(...)`, or split-sign masking (see mf/functional.py)",
                )


# ---------------------------------------------------------------------------
# REP005 — lock discipline
# ---------------------------------------------------------------------------

@dataclass
class _Mutation:
    attr: str
    node: ast.AST
    method: str
    in_lock: bool


@dataclass
class _SelfCall:
    callee: str
    caller: str
    in_lock: bool


class _ClassLockScan(ast.NodeVisitor):
    """Collect per-class attribute mutations and intra-class calls,
    each tagged with whether it is lexically inside ``with self.<lock>``."""

    def __init__(self, lock_attrs: frozenset[str]):
        self.lock_attrs = lock_attrs
        self.mutations: list[_Mutation] = []
        self.calls: list[_SelfCall] = []
        self._method = ""
        self._lock_depth = 0

    # -- helpers --------------------------------------------------------
    def _is_self_attr(self, node: ast.expr, attrs: frozenset[str] | None = None) -> str | None:
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            if attrs is None or node.attr in attrs:
                return node.attr
        return None

    def _record_target(self, target: ast.expr, node: ast.AST) -> None:
        for element in ast.walk(target):
            attr = self._is_self_attr(element)  # type: ignore[arg-type]
            if attr is not None and attr not in self.lock_attrs:
                self.mutations.append(
                    _Mutation(attr, node, self._method, in_lock=self._lock_depth > 0)
                )

    # -- visitors -------------------------------------------------------
    def scan_method(self, method: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        self._method = method.name
        self._lock_depth = 0
        for statement in method.body:
            self.visit(statement)

    def visit_With(self, node: ast.With) -> None:
        holds_lock = any(
            self._is_self_attr(item.context_expr, self.lock_attrs) is not None
            for item in node.items
        )
        if holds_lock:
            self._lock_depth += 1
        self.generic_visit(node)
        if holds_lock:
            self._lock_depth -= 1

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._record_target(target, node)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._record_target(node.target, node)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._record_target(node.target, node)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        attr = self._is_self_attr(node.func)
        if attr is not None:
            self.calls.append(_SelfCall(attr, self._method, in_lock=self._lock_depth > 0))
        self.generic_visit(node)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        # Nested defs inherit the enclosing lock context; fine to recurse.
        self.generic_visit(node)

    visit_AsyncFunctionDef = visit_FunctionDef


def _lock_held_methods(calls: list[_SelfCall]) -> set[str]:
    """Methods whose every intra-class call site holds the lock.

    Greatest-fixpoint iteration: start by assuming every called method
    is lock-held, then strike any with a call site that is neither
    lexically in-lock nor made from a (still-)lock-held method.  Handles
    helper chains (``_record -> _open -> _transition``) and mutual
    recursion without a topological order.  ``__init__`` is never
    lock-held, so helpers it calls are conservatively unlocked.
    """
    candidates = {call.callee for call in calls} - {"__init__"}
    held = set(candidates)
    changed = True
    while changed:
        changed = False
        for method in sorted(held):
            sites = [call for call in calls if call.callee == method]
            if not all(site.in_lock or site.caller in held for site in sites):
                held.discard(method)
                changed = True
    return held


def _sometimes_locked_methods(calls: list[_SelfCall]) -> set[str]:
    """Methods reachable from at least one in-lock call site.

    Least-fixpoint dual of :func:`_lock_held_methods`: a helper that is
    *sometimes* entered with the lock held mutates its attributes under
    the lock on that path, so those attributes count as lock-guarded —
    even when another, unlocked path into the same helper is the
    violation being reported.
    """
    reached = {call.callee for call in calls if call.in_lock}
    changed = True
    while changed:
        changed = False
        for call in calls:
            if call.caller in reached and call.callee not in reached:
                reached.add(call.callee)
                changed = True
    reached.discard("__init__")
    return reached


@register
class LockDisciplineRule(Rule):
    id = "REP005"
    name = "lock-discipline"
    rationale = (
        "An attribute that is sometimes mutated under `with self._lock` and "
        "sometimes without it gives readers torn state under concurrency — "
        "the serving executor records results from worker threads while the "
        "request loop reads. Either every post-__init__ mutation holds the "
        "lock (directly, or via a helper only ever called with it held), or "
        "the attribute should not pretend to be lock-guarded."
    )

    def check(self, context: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            lock_attrs = frozenset(lock_attr_names(node, context.aliases))
            if not lock_attrs:
                continue
            scan = _ClassLockScan(lock_attrs)
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    scan.scan_method(item)
            held_methods = _lock_held_methods(scan.calls)
            sometimes_locked = _sometimes_locked_methods(scan.calls)

            def always_locked(mutation: _Mutation) -> bool:
                return mutation.in_lock or mutation.method in held_methods

            def ever_locked(mutation: _Mutation) -> bool:
                return mutation.in_lock or mutation.method in sometimes_locked

            guarded = {m.attr for m in scan.mutations if ever_locked(m)}
            for mutation in scan.mutations:
                if mutation.method == "__init__" or mutation.attr not in guarded:
                    continue
                if not always_locked(mutation):
                    yield self.finding(
                        context,
                        mutation.node,
                        f"`self.{mutation.attr}` is mutated without "
                        f"`self.{sorted(lock_attrs)[0]}` here but under it "
                        f"elsewhere in `{node.name}`; hold the lock for every "
                        "post-__init__ mutation",
                    )


# ---------------------------------------------------------------------------
# REP006 — mutable defaults & swallowed exceptions
# ---------------------------------------------------------------------------


def _is_mutable_default(node: ast.expr) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in {"list", "dict", "set", "bytearray"}
    return False


def _swallows(handler: ast.ExceptHandler) -> bool:
    """A handler that catches everything and does nothing."""
    broad = handler.type is None or (
        isinstance(handler.type, ast.Name) and handler.type.id in {"Exception", "BaseException"}
    )
    if not broad:
        return False
    if handler.type is None:
        return True  # bare `except:` is a finding regardless of body
    if len(handler.body) != 1:
        return False
    only = handler.body[0]
    if isinstance(only, ast.Pass):
        return True
    return (
        isinstance(only, ast.Expr)
        and isinstance(only.value, ast.Constant)
        and only.value.value is Ellipsis
    )


@register
class HygieneRule(Rule):
    id = "REP006"
    name = "no-mutable-defaults-or-swallowed-errors"
    rationale = (
        "A mutable default argument is shared state across calls (one "
        "caller's history leaks into the next); a bare `except:` or "
        "`except Exception: pass` hides the failures the resilience layer "
        "is supposed to surface, journal, and retry."
    )

    def check(self, context: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(context.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defaults = list(node.args.defaults) + [
                    d for d in node.args.kw_defaults if d is not None
                ]
                for default in defaults:
                    if _is_mutable_default(default):
                        yield self.finding(
                            context,
                            default,
                            f"mutable default argument in `{node.name}()`; "
                            "default to None and create inside the function",
                        )
            elif isinstance(node, ast.ExceptHandler) and _swallows(node):
                what = "bare `except:`" if node.type is None else "`except Exception: pass`"
                yield self.finding(
                    context,
                    node,
                    f"{what} swallows failures; catch the specific exception "
                    "or re-raise after handling",
                )
