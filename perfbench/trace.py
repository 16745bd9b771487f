"""Layer tracing for the benchmark, installed from outside the package.

:class:`Tracer` patches timing wrappers around the public functions of
each ``repro`` layer (``tracer.wrap(owner, "attr", "layer")``) and
restores the originals on :meth:`Tracer.uninstall`, so nothing under
``src/`` changes and an untraced run executes the unpatched code.

Self time is computed with a per-thread span stack: a span's duration
minus the time its child spans cover is charged to its layer.  Two
cases cross the plain stack:

* the serving executor runs the tier function on another thread while
  the caller blocks, so :meth:`Tracer.wrap_executor` links the worker's
  span to the caller's span explicitly (the caller's self time is then
  exactly the time it waited for the executor);
* a coalesced batch serves several requests at once, so a root span can
  carry a *weight* (the batch size) that multiplies every self time
  recorded beneath it, giving request-weighted sums that add up against
  per-request client latencies.

Coroutines are timed with :meth:`Tracer.wrap_async`, which records wall
durations only: an awaiting coroutine interleaves with others on the
loop thread, so it must never sit on the span stack.
"""

from __future__ import annotations

import contextvars
import functools
import threading
import time
from collections import defaultdict
from typing import Any, Callable

#: The per-request tally of the coroutine currently handling a request
#: (set by the edge handler wrapper; sync spans on the loop thread add
#: their durations to it).
REQUEST_TALLY: contextvars.ContextVar[dict | None] = contextvars.ContextVar(
    "perfbench_request_tally", default=None
)

_INHERITED = object()


class _Frame:
    __slots__ = ("layer", "start", "child", "weight", "parent")

    def __init__(self, layer: str, start: float, weight: float, parent: "_Frame | None"):
        self.layer = layer
        self.start = start
        self.child = 0.0
        self.weight = weight
        self.parent = parent


class Tracer:
    """Collects per-layer self time, inclusive time, call counts and counters."""

    def __init__(self) -> None:
        self.enabled = False
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[Any, str, Any]] = []
        self.reset()

    # -- bookkeeping -----------------------------------------------------
    def reset(self) -> None:
        """Drop everything recorded so far (patches stay installed)."""
        with self._lock:
            self.self_s: dict[str, float] = defaultdict(float)
            self.total_s: dict[str, float] = defaultdict(float)
            self.calls: dict[str, int] = defaultdict(int)
            self.counters: dict[str, float] = defaultdict(float)
            self.samples: dict[str, list[float]] = defaultdict(list)

    def count(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counters[name] += value

    def sample(self, name: str, value: float) -> None:
        with self._lock:
            self.samples[name].append(value)

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "self_s": dict(self.self_s),
                "total_s": dict(self.total_s),
                "calls": dict(self.calls),
                "counters": dict(self.counters),
                "samples": {key: list(values) for key, values in self.samples.items()},
            }

    # -- span stack ------------------------------------------------------
    def _stack(self) -> list[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _push(self, layer: str, *, weight: float | None = None,
              parent: _Frame | None = None) -> _Frame:
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        if weight is None:
            weight = parent.weight if parent is not None else 1.0
        frame = _Frame(layer, time.perf_counter(), weight, parent)
        stack.append(frame)
        return frame

    def _pop(self, frame: _Frame) -> float:
        duration = time.perf_counter() - frame.start
        stack = self._stack()
        stack.pop()
        with self._lock:
            self.self_s[frame.layer] += (duration - frame.child) * frame.weight
            self.total_s[frame.layer] += duration * frame.weight
            self.calls[frame.layer] += 1
            if frame.parent is not None:
                frame.parent.child += duration
        return duration

    # -- patching --------------------------------------------------------
    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        # Only an attribute the owner defines itself is restored; an
        # inherited one is deleted again so lookup falls back to the base.
        original = vars(owner).get(attr, _INHERITED)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        """Restore every patched attribute (last patched first)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def wrap(
        self,
        owner: Any,
        attr: str,
        layer: str | Callable[[tuple], str],
        *,
        weight: Callable[[tuple], float] | None = None,
        on_exit: Callable[[tuple, Any, float], None] | None = None,
    ) -> None:
        """Time ``owner.attr`` as a span of ``layer``.

        ``layer`` may be a function of the call's positional arguments
        (e.g. to split a sampler's time by sampler type).  ``weight``
        makes the span a weighted root; ``on_exit(args, result,
        duration)`` runs after the span closes (counters, samples).
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            name = layer(args) if callable(layer) else layer
            frame = tracer._push(name, weight=weight(args) if weight else None)
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                duration = tracer._pop(frame)
                tally = REQUEST_TALLY.get()
                if tally is not None:
                    tally[name] = tally.get(name, 0.0) + duration
                if on_exit is not None:
                    on_exit(args, result, duration)

        self._patch(owner, attr, wrapper)

    def wrap_executor(self, owner: Any, attr: str, layer: str, fn_layer: str) -> None:
        """Time ``owner.attr(fn, budget)`` where ``fn`` runs on a worker thread.

        The worker span (``fn_layer``) is linked to the calling span, so
        the calling span's self time is the wait for the executor.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(executor, fn, *args, **kwargs):
            if not tracer.enabled:
                return original(executor, fn, *args, **kwargs)
            caller = tracer._push(layer)

            def linked():
                frame = tracer._push(fn_layer, weight=caller.weight, parent=caller)
                try:
                    return fn()
                finally:
                    tracer._pop(frame)

            try:
                return original(executor, linked, *args, **kwargs)
            finally:
                tracer._pop(caller)

        self._patch(owner, attr, wrapper)

    def wrap_async(self, owner: Any, attr: str, key: str, *,
                   tally: bool = False) -> None:
        """Record wall durations of a coroutine method under ``key``.

        With ``tally`` the wrapper opens a fresh :data:`REQUEST_TALLY`
        for the call and appends it to ``samples[key]`` with the
        duration under ``"__duration__"``; without, the duration is
        added to the enclosing request's tally, if any.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        async def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return await original(*args, **kwargs)
            own: dict | None = None
            if tally:
                own = {}
                REQUEST_TALLY.set(own)
            start = time.perf_counter()
            try:
                return await original(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                enclosing = REQUEST_TALLY.get() if own is None else None
                if enclosing is not None:
                    enclosing[key] = enclosing.get(key, 0.0) + duration
                with tracer._lock:
                    tracer.total_s[key] += duration
                    tracer.calls[key] += 1
                    if own is not None:
                        own["__duration__"] = duration
                        tracer.samples[key].append(own)

        self._patch(owner, attr, wrapper)


def install_serving(tracer: Tracer, *, weight_by_batch: bool) -> None:
    """Wrap the serving path: cascade, tiers, executor, breakers, kernels, store.

    With ``weight_by_batch`` every self time under ``recommend_batch`` is
    multiplied by the batch size, so sums are per request rather than
    per batch (the HTTP edge coalesces several requests per call).
    """
    from repro.metrics import scoring
    from repro.serving.breaker import CircuitBreaker
    from repro.serving.deadline import ThreadedExecutor
    from repro.serving.service import RecommendationService
    from repro.serving.tiers import PersonalizedTier
    from repro.store.shards import ShardedFactorStore

    tracer.wrap(
        RecommendationService, "recommend_batch", "serving.recommend_batch",
        weight=(lambda args: float(len(args[1]))) if weight_by_batch else None,
    )
    tracer.wrap(RecommendationService, "recommend", "serving.recommend")
    tracer.wrap(PersonalizedTier, "serve_batch", "serving.tier")
    tracer.wrap_executor(ThreadedExecutor, "call", "serving.executor", "serving.tier_call")
    for name in ("allow", "record_success", "record_failure"):
        tracer.wrap(CircuitBreaker, name, "serving.breaker")
    tracer.wrap(scoring, "linear_scores", "metrics.linear_scores")
    tracer.wrap(scoring, "topk_from_matrix", "metrics.topk")
    tracer.wrap(ShardedFactorStore, "user_rows", "store.user_rows")


#: Span names whose self time is the serving layer's own work
#: (cascade bookkeeping and tier code, excluding kernels and breakers).
SERVING_SELF = ("serving.recommend_batch", "serving.recommend", "serving.tier",
                "serving.tier_call")


def serving_layers(self_s: dict) -> dict[str, float]:
    """Group serving-path self times into the layers that reconcile."""
    return {
        "serving": sum(self_s.get(name, 0.0) for name in SERVING_SELF),
        "serving.breaker": self_s.get("serving.breaker", 0.0),
        "serving.executor": self_s.get("serving.executor", 0.0),
        "metrics": self_s.get("metrics.linear_scores", 0.0) + self_s.get("metrics.topk", 0.0),
        "store": self_s.get("store.user_rows", 0.0),
    }
