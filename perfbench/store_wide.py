"""Workload ``store-wide``: serving a wide catalog from the sharded store.

A float32 sharded mmap store of 200k users x 32768 items x 32 factors
(clustered item factors, as IVF retrieval assumes) backs a
``StoreBackedModel`` served through ``RecommendationService.build(...,
fit_knn=False)`` on the default dense path.  One caller issues
``recommend_batch`` calls of 32 Zipf-popular users at k = 10, paced at
a fixed rate.  The wide catalog moves the work into the scoring and
top-k kernels; there is no HTTP edge.

Timing starts only after one full circuit-breaker window of traffic:
each record call sums the breaker's whole rolling window, so latency
keeps rising until the window is full, and the steady state is what a
long-running deployment sees.  Because that cost grows with the number
of records in the window, the caller is paced rather than back to back:
a closed loop would fill the window with as many batches as the host
happened to allow, and a slower host would then measure cheaper
batches.
"""

from __future__ import annotations

import json
import shutil
import time
from pathlib import Path

import numpy as np

from perfbench.common import WORK, BenchmarkError, reconcile, summarize
from perfbench.loadgen import zipf_probabilities

N_USERS = 200_000
N_ITEMS = 32_768
N_FACTORS = 32
N_CLUSTERS = 64
POSITIVES = 10
BATCH = 32
K = 10
ZIPF_S = 1.1
SETUP_REPEATS = 3
#: Measured batches whose rankings are recomputed by the numpy reference.
REFERENCE_BATCHES = 8
#: Every this many batches, the served batch is replayed through the IVF
#: shortlist-and-rerank path (in warm-up too, so the service's rate and
#: breaker window are the same while measuring).
REPLAY_EVERY = 5
#: Batches per second the caller offers (640 users/s).  A batch takes
#: about 23 ms of CPU, so the caller keeps this pace with two busy
#: neighbours on a 2-vCPU host.
RATE = 20.0

CONFIG = {
    "n_users": N_USERS, "n_items": N_ITEMS, "n_factors": N_FACTORS,
    "item_clusters": N_CLUSTERS, "dtype": "float32", "positives_per_user": POSITIVES,
    "batch": BATCH, "k": K, "zipf_s": ZIPF_S, "loop": f"one caller paced at {RATE:g} batches/s",
    "service": "RecommendationService.build(model, train, fit_knn=False) defaults",
    "setup_repeats": SETUP_REPEATS, "reference_batches": REFERENCE_BATCHES,
    "replay_every": REPLAY_EVERY, "ivf": "IVFConfig() defaults",
}


def _item_side(rng: np.random.Generator):
    centers = rng.normal(size=(N_CLUSTERS, N_FACTORS)) * 3.0
    assignment = rng.integers(0, N_CLUSTERS, size=N_ITEMS)
    factors = centers[assignment] + rng.normal(size=(N_ITEMS, N_FACTORS)) * 0.2
    return factors, rng.normal(size=N_ITEMS) * 0.1, centers


def _build(directory: Path, seed: int) -> dict:
    """Generate and write the store, open it, and assemble the service."""
    from repro.data.interactions import InteractionMatrix
    from repro.serving.service import RecommendationService
    from repro.store import FactorStoreWriter, ShardedFactorStore, StoreBackedModel

    start, start_cpu = time.perf_counter(), time.process_time()
    rng = np.random.default_rng(seed)
    item_factors, item_bias, centers = _item_side(rng)
    writer = FactorStoreWriter(directory, N_FACTORS, dtype="float32")
    written = 0
    while written < N_USERS:
        rows = min(writer.shard_size, N_USERS - written)
        assignment = rng.integers(0, N_CLUSTERS, size=rows)
        writer.add_users(centers[assignment] * 0.5 + rng.normal(size=(rows, N_FACTORS)))
        written += rows
    writer.set_items(item_factors, item_bias)
    writer.finalize()
    popularity = np.cumsum(zipf_probabilities(N_ITEMS, ZIPF_S, rng))
    items = np.minimum(np.searchsorted(popularity, rng.random(N_USERS * POSITIVES)),
                       N_ITEMS - 1)
    pairs = np.stack([np.repeat(np.arange(N_USERS), POSITIVES), items], axis=1)
    train = InteractionMatrix.from_pairs(pairs, N_USERS, N_ITEMS)
    opened = time.perf_counter()
    store = ShardedFactorStore.open(directory)
    open_s = time.perf_counter() - opened
    if store.quarantined_:
        raise BenchmarkError(f"freshly written store quarantined shards: {store.quarantined_}")
    model = StoreBackedModel(store, train)
    service = RecommendationService.build(model, train, fit_knn=False)
    return {"service": service, "store": store, "train": train,
            "setup_s": time.process_time() - start_cpu,
            "setup_wall_s": time.perf_counter() - start, "open_s": open_s}


class _Users:
    """Deterministic stream of Zipf-popular user batches."""

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed + 1)
        self._cdf = np.cumsum(zipf_probabilities(N_USERS, ZIPF_S, rng))
        self._rng = rng

    def next(self) -> np.ndarray:
        draws = np.searchsorted(self._cdf, self._rng.random(BATCH))
        return np.minimum(draws, N_USERS - 1).astype(np.int64)


def _paced_loop(service, users: _Users, seconds: float, keep: bool, replay=None,
                tracer=None):
    """Batches due every ``1 / RATE`` seconds, for ``seconds``.

    A batch that falls behind its due time is sent at once, so the
    offered rate holds on average while the host keeps up.

    Every ``REPLAY_EVERY``-th batch is also handed to ``replay`` after
    its service call, outside the timed region, so replay samples spread
    over the whole window.  With a tracer, every other batch is traced
    (traced and untraced batches then see the same breaker window) and
    the returned flags say which ones were.  Besides wall latencies it
    returns each call's process CPU time (the caller and the executor
    worker that runs the tier).
    """
    latencies: list[float] = []
    cpu: list[float] = []
    traced: list[bool] = []
    batches: list[tuple[np.ndarray, list]] = []
    started = time.perf_counter()
    while time.perf_counter() - started < seconds:
        delay = started + len(latencies) / RATE - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        batch = users.next()
        if tracer is not None:
            tracer.enabled = len(latencies) % 2 == 1
        start, start_cpu = time.perf_counter(), time.process_time()
        responses = service.recommend_batch(batch, k=K)
        latencies.append(time.perf_counter() - start)
        cpu.append(time.process_time() - start_cpu)
        if tracer is not None:
            traced.append(tracer.enabled)
            tracer.enabled = False
        if keep:
            batches.append((batch, responses))
        if replay is not None and len(latencies) % REPLAY_EVERY == 0:
            replay(batch, responses)
    return latencies, cpu, batches, traced


def _validate(batches, train, errors: list[str]) -> int:
    """Every response: personalized, k unique in-range items, no train positives."""
    failed = 0
    for users, responses in batches:
        for user, response in zip(users, responses):
            items = np.asarray(response.items, dtype=np.int64)
            problem = None
            if response.served_by != "personalized":
                problem = f"served_by {response.served_by}"
            elif len(items) != K or len(np.unique(items)) != K:
                problem = f"{len(items)} items, {len(np.unique(items))} unique"
            elif items.min() < 0 or items.max() >= N_ITEMS:
                problem = "item id out of range"
            elif np.isin(items, train.positives(int(user))).any():
                problem = "recommended a train positive"
            if problem is not None:
                failed += 1
                if len(errors) < 5:
                    errors.append(f"user {int(user)}: {problem}")
    return failed


def _reference_check(directory: Path, batches, train, errors: list[str]) -> None:
    """Dense rankings must equal a numpy reference from the store's own files.

    Scores use the serving kernel's reduction (``einsum``, no BLAS
    reordering) so they compare bitwise; the check covers the shard
    gather, exclusion, top-k and the tie-break (score descending, then
    item id ascending).
    """
    manifest = json.loads((directory / "manifest.json").read_text())
    shards = [np.load(directory / entry["file"], mmap_mode="r") for entry in manifest["shards"]]
    item_factors = np.load(directory / manifest["item_factors_file"])
    item_bias = np.load(directory / manifest["item_bias_file"])
    shard_size = manifest["shard_size"]
    step = max(len(batches) // REFERENCE_BATCHES, 1)
    for users, responses in batches[::step][:REFERENCE_BATCHES]:
        rows = np.stack([shards[u // shard_size][u % shard_size] for u in users])
        scores = np.einsum("bd,id->bi", rows, item_factors, optimize=False) + item_bias
        scores = scores.astype(np.float64)
        for row, user in enumerate(users):
            scores[row, train.positives(int(user))] = -np.inf
            order = np.lexsort((np.arange(N_ITEMS), -scores[row]))[:K]
            if not np.array_equal(order, np.asarray(responses[row].items)):
                errors.append(f"user {int(user)}: ranking differs from the numpy reference")
                return


class _Replay:
    """Replays served batches through IVF shortlist-and-rerank (and, when
    ``dense`` is set, the exact dense kernel) on the store's own rows."""

    def __init__(self, store, train, *, dense: bool):
        from repro.retrieval import IVFIndex

        started = time.perf_counter()
        self.index = IVFIndex.build(store.item_factors)
        self.build_s = time.perf_counter() - started
        self.store, self.train, self.dense = store, train, dense
        self.ivf_ms: list[float] = []
        self.dense_ms: list[float] = []
        self.hits = self.rows = self.shortlisted = 0

    def reset(self) -> None:
        self.ivf_ms, self.dense_ms = [], []
        self.hits = self.rows = self.shortlisted = 0

    def __call__(self, users, responses) -> None:
        from repro.metrics import scoring

        store = self.store
        exclude = [self.train.positives(int(user)) for user in users]
        start = time.perf_counter()
        rows = store.user_rows(users)
        ranked = scoring.topk_with_retrieval(
            rows, store.item_factors, store.item_bias, K, retriever=self.index,
            exclude=exclude)
        self.ivf_ms.append((time.perf_counter() - start) * 1000.0)
        if self.dense:
            start = time.perf_counter()
            rows = store.user_rows(users)
            scoring.topk_with_retrieval(rows, store.item_factors, store.item_bias, K,
                                        exclude=exclude)
            self.dense_ms.append((time.perf_counter() - start) * 1000.0)
        self.shortlisted += sum(len(c) for c in self.index.shortlist(rows))
        for row, response in enumerate(responses):
            self.hits += len(np.intersect1d(ranked[row], response.items))
        self.rows += len(users)

    @property
    def recall_at_10(self) -> float:
        return self.hits / float(self.rows * K)

    @property
    def shortlist_ratio(self) -> float:
        return self.shortlisted / float(self.rows * N_ITEMS)


def run(seed: int, seconds: float, trace: bool) -> dict:
    root = WORK / f"store-wide-{seed}"
    shutil.rmtree(root, ignore_errors=True)
    built = None
    # setup_s is CPU time, like the other gated times of this workload.
    setups, setup_walls, opens = [], [], []
    try:
        for repeat in range(SETUP_REPEATS):
            if built is not None:
                built["service"].close()
                built["store"].close()
            built = _build(root / f"setup{repeat}", seed)
            setups.append(built["setup_s"])
            setup_walls.append(built["setup_wall_s"])
            opens.append(built["open_s"])
        result = _measure(built, root / f"setup{SETUP_REPEATS - 1}", seed, seconds, trace,
                          setups, opens)
        result["detail"]["setup_wall_s"] = setup_walls
        return result
    finally:
        if built is not None:
            built["service"].close()
            built["store"].close()
        shutil.rmtree(root, ignore_errors=True)


def _measure(built, directory, seed, seconds, trace, setups, opens) -> dict:
    service, store, train = built["service"], built["store"], built["train"]
    users = _Users(seed)
    replay = _Replay(store, train, dense=trace)
    window_s = service.config.breaker.window_seconds
    warmup = _paced_loop(service, users, window_s, keep=False, replay=replay)[0]
    replay.reset()
    errors: list[str] = []
    if trace:
        return _traced(service, train, users, replay, seconds, setups, opens, errors)

    started = time.perf_counter()
    latencies, cpu, batches, _ = _paced_loop(service, users, seconds, keep=True,
                                             replay=replay)
    wall = time.perf_counter() - started
    failed = _validate(batches, train, errors)
    _reference_check(directory, batches, train, errors)
    batch_ms = summarize([value * 1000.0 for value in latencies])
    batch_cpu_ms = summarize([value * 1000.0 for value in cpu])
    ivf_ms = summarize(replay.ivf_ms)
    # Users per second of the service itself: replay time is not counted.
    rps = len(latencies) * BATCH / sum(latencies)
    users_per_cpu_s = len(cpu) * BATCH / sum(cpu)
    named = {
        "store_p50_ms": (batch_ms["p50"], "ms"),
        f"store_p{batch_ms['tail_q']:g}_ms": (batch_ms["tail"], "ms"),
        "store_requests_per_s": (rps, "1/s"),
        "store_cpu_p50_ms": (batch_cpu_ms["p50"], "ms"),
        "store_requests_per_cpu_s": (users_per_cpu_s, "1/s"),
        "ivf_batch_p50_ms": (ivf_ms["p50"], "ms"),
        "ivf_recall_at_10": (replay.recall_at_10, "ratio"),
    }
    return {
        "errors": errors,
        "attempted": len(latencies) * BATCH,
        "failed": failed,
        "setup": setups,
        "e2e": {
            "op_p50_ms": batch_cpu_ms["p50"],
            "throughput_per_s": users_per_cpu_s,
            "quality": replay.recall_at_10,
        },
        "named": named,
        "detail": {
            "op": f"one recommend_batch of {BATCH} users at k={K}, process CPU time",
            "op_summary": batch_cpu_ms, "op_wall_summary": batch_ms,
            "ivf": f"IVF shortlist-and-rerank of every {REPLAY_EVERY}th served batch",
            "ivf_summary": ivf_ms,
            "throughput": "users served per CPU second of recommend_batch calls",
            "quality": "IVF recall@10 against the served dense rankings",
            "window_s": wall, "warmup_batches": len(warmup), "warmup_s": window_s,
            "offered_batches_per_s": RATE, "achieved_batches_per_s": len(latencies) / wall,
            "open_verify_s": opens, "ivf_build_s": replay.build_s,
            "shortlist_ratio": replay.shortlist_ratio,
            "tier_stats": {name: s.served for name, s in service.stats.items()},
        },
    }


def _traced(service, train, users, replay, seconds, setups, opens, errors) -> dict:
    from perfbench.trace import Tracer, install_serving, serving_layers

    served_before = {name: s.served for name, s in service.stats.items()}
    tracer = Tracer()
    install_serving(tracer, weight_by_batch=False)
    try:
        latencies, _, batches, flags = _paced_loop(service, users, seconds, keep=True,
                                                   replay=replay, tracer=tracer)
    finally:
        tracer.uninstall()
    failed = _validate(batches, train, errors)
    snap = tracer.snapshot()
    self_s = snap["self_s"]
    traced = [value for value, flag in zip(latencies, flags) if flag]
    untraced = [value for value, flag in zip(latencies, flags) if not flag]
    n = len(traced)
    layers = serving_layers(self_s)
    recon = reconcile(sum(traced), layers, layers)
    served = {name: s.served - served_before.get(name, 0) for name, s in service.stats.items()}
    total = sum(served.values()) or 1
    per_layer = {
        "metrics.linear_scores_s": self_s.get("metrics.linear_scores", 0.0) / n,
        "metrics.topk_s": self_s.get("metrics.topk", 0.0) / n,
        "store.user_rows_s": self_s.get("store.user_rows", 0.0) / n,
        "store.open_verify_s": float(np.median(opens)),
        "serving.recommend_batch_s": layers["serving"] / n,
        "serving.breaker_s": layers["serving.breaker"] / n,
        "serving.breaker_calls": snap["calls"].get("serving.breaker", 0) / n,
        "serving.executor_wait_ms": 1000.0 * layers["serving.executor"] / n,
        "retrieval.ivf_batch_ms": summarize(replay.ivf_ms)["p50"],
        "retrieval.dense_batch_ms": summarize(replay.dense_ms)["p50"],
        "retrieval.recall_at_10": replay.recall_at_10,
        "retrieval.shortlist_ratio": replay.shortlist_ratio,
        "trace.overhead_pct": 100.0 * (np.mean(traced) - np.mean(untraced))
                              / np.mean(untraced),
    }
    for name, count in served.items():
        per_layer[f"serving.tier_share.{name}"] = count / total
    return {
        "errors": errors,
        "attempted": len(latencies) * BATCH,
        "failed": failed,
        "setup": setups,
        "per_layer": per_layer,
        "reconcile": recon,
        "detail": {
            "per": "recommend_batch call (seconds per batch)",
            "overhead": "mean latency of traced vs untraced batches, alternating in "
                        "one window (installed-but-idle wrappers cost the untraced "
                        "batches one extra call frame each)",
            "batches": {"traced": n, "untraced": len(untraced)},
            "retrieval": f"IVF and dense kernel on every {REPLAY_EVERY}th batch, "
                         "outside the timed service call",
            "ivf_build_s": replay.build_s,
        },
    }
