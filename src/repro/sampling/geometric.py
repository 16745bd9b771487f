"""Geometric rank sampling and factor-ranking caches.

Both AoBPR and the paper's DSS sample items by *rank* in a list sorted
by a single latent factor, with a geometric distribution concentrating
probability at the head of the list ("most of the real-world data
follow long-tail distributions, the geometric sampler is adopted",
Section 5.1).  Sorting every step would dominate the cost, so — per the
paper — the ranking lists are rebuilt only every ``log(m)``-ish steps.
"""

from __future__ import annotations

import numpy as np

from repro.mf.params import FactorParams
from repro.utils.exceptions import ConfigError
from repro.utils.validation import check_in_range


def truncated_geometric(
    rng: np.random.Generator,
    size: int,
    n: int | np.ndarray,
    tail: float,
) -> np.ndarray:
    """Sample ranks in ``[0, n)`` from a truncated geometric distribution.

    ``P(r) ∝ (1 - p)^r`` with success probability ``p = 1 / (tail * n)``,
    so ``tail`` is (approximately) the expected rank as a fraction of the
    list length.  ``n`` may be a scalar or a per-sample array of list
    lengths.  Sampling uses the exact inverse CDF of the truncated law,
    so no rejection or wrap-around bias.
    """
    check_in_range(tail, "tail", 0.0, 1.0, inclusive=False)
    n = np.asarray(n, dtype=np.int64)
    if np.any(n < 1):
        raise ConfigError("all list lengths must be >= 1")
    p = np.minimum(1.0 / (tail * np.maximum(n, 2)), 0.999999)
    q = 1.0 - p
    log_q = np.log(q)
    u = rng.random(size)
    total_mass = 1.0 - q ** n.astype(np.float64)
    ranks = np.floor(np.log1p(-u * total_mass) / log_q).astype(np.int64)
    return np.clip(ranks, 0, n - 1)


class _ScheduledCache:
    """Ranking lists rebuilt from scratch every ``refresh_interval`` steps.

    The cache is rebuilt lazily once :meth:`maybe_refresh` has been
    called ``refresh_interval`` times since the last rebuild (default
    ``ceil(log(m))``) — the paper resets the lists every ``log(m)``
    iterations so the sampler stays within a constant factor of uniform
    sampling's cost.  Subclasses implement ``_rebuild``, which fills
    ``_orders`` and counts itself in ``rebuilds_``.
    """

    def __init__(self, params: FactorParams, refresh_interval: int | None = None):
        if refresh_interval is not None and refresh_interval < 1:
            raise ConfigError(f"refresh_interval must be >= 1, got {refresh_interval}")
        self._params = params
        if refresh_interval is None:
            refresh_interval = max(int(np.ceil(np.log(max(params.n_items, 2)))), 1)
        self.refresh_interval = refresh_interval
        self.rebuilds_ = 0
        self._orders: np.ndarray | None = None
        self._calls_since_refresh = 0

    def maybe_refresh(self) -> None:
        """Count one sampler step; rebuild if the interval elapsed."""
        if self._orders is None or self._calls_since_refresh >= self.refresh_interval:
            self._rebuild()
            self._calls_since_refresh = 0
        self._calls_since_refresh += 1

    def _current_orders(self) -> np.ndarray:
        if self._orders is None:
            self._rebuild()
        return self._orders


class FactorRankingCache(_ScheduledCache):
    """Items sorted by each latent factor, refreshed periodically.

    ``order(q)`` returns item ids sorted by ``V[:, q]`` descending.
    """

    @property
    def n_factors(self) -> int:
        return self._params.n_factors

    def _rebuild(self) -> None:
        from repro.metrics.scoring import ranking_orders

        # (d, m): row q holds item ids sorted by V[:, q] descending,
        # via the engine's stable row-wise ranking kernel (ties broken
        # by item id, the same contract the evaluator uses).
        self._orders = ranking_orders(self._params.item_factors.T)
        self.rebuilds_ += 1

    def order(self, factor: int, *, descending: bool = True) -> np.ndarray:
        """Item ids ranked by the given factor (view; do not mutate)."""
        row = self._current_orders()[factor]
        return row if descending else row[::-1]

    def items_at(
        self,
        factors: np.ndarray,
        ranks: np.ndarray,
        reverse: np.ndarray,
    ) -> np.ndarray:
        """Vectorized lookup: item at ``ranks[t]`` in factor ``factors[t]``'s list.

        ``reverse[t]`` flips to the ascending list (the paper's
        ``sgn(U_uq) < 0`` rule: "reverse the ranking list and then do
        the same thing").
        """
        n_items = self._params.n_items
        idx = np.where(reverse, n_items - 1 - ranks, ranks)
        return self._current_orders()[factors, idx]

    def item_values(self, factor: int) -> np.ndarray:
        """Current factor column ``V[:, factor]`` (live view)."""
        return self._params.item_factors[:, factor]


class UserPositiveRankingCache(_ScheduledCache):
    """Each user's observed items sorted by each latent factor.

    Backs DSS's *positive* draw: for factor ``q``, user ``u``'s positives
    are kept in ascending ``V[:, q]`` order (exact ties by item id) in a
    flat array aligned with the training matrix's ``indptr``, so looking
    up "the item at position ``t`` of user ``u``'s factor-``q`` ranking"
    is one fancy index — no per-tuple sorting.  Rebuilt on the same
    ``log(m)`` schedule as :class:`FactorRankingCache`.
    """

    def __init__(self, train, params: FactorParams, refresh_interval: int | None = None):
        super().__init__(params, refresh_interval)
        self._train = train
        # user * m for every stored interaction: adding an item's factor
        # rank (< m) gives one integer key per (user, item) that sorts by
        # user first, then by rank.
        self._segment_base = np.repeat(
            np.arange(train.n_users, dtype=np.int64) * train.n_items, train.user_counts()
        )

    def _rebuild(self) -> None:
        train = self._train
        item_factors = self._params.item_factors
        d, m = self._params.n_factors, train.n_items
        # rank[q, item]: the item's position in ascending V[:, q] order.
        # The stable sort breaks exact ties by item id, which is the
        # order a stable float sort of each user's (id-sorted) row gives.
        order = np.argsort(item_factors.T, axis=1, kind="stable")
        rank = np.empty_like(order)
        rank[np.arange(d)[:, None], order] = np.arange(m, dtype=np.int64)
        # Refilled in place: positives_at returns copies, so no view of
        # the buffer escapes, and one d x nnz buffer serves every rebuild.
        if self._orders is None:
            self._orders = np.empty((d, train.n_interactions), dtype=np.int64)
        for factor in range(d):
            # Keys are unique, so any sort kind yields the same order.
            keys = self._segment_base + rank[factor, train.indices]
            self._orders[factor] = train.indices[np.argsort(keys)]
        self.rebuilds_ += 1

    def positives_at(
        self,
        users: np.ndarray,
        factors: np.ndarray,
        positions: np.ndarray,
    ) -> np.ndarray:
        """Item at ``positions[t]`` (ascending factor order) of each user."""
        starts = self._train.indptr[users]
        return self._current_orders()[factors, starts + positions]
