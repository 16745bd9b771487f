"""The benchmark's open-loop HTTP load generator.

Arrivals are a seeded Poisson process over Zipf-popular users; a single
dispatcher releases each request at its due time into a queue drained
by at most ``connections`` keep-alive clients.  Every request is timed
from when it was *due*, so a stall that delays later sends is charged
to them, and the generator reports how late it sent each request.
(``repro.edge.loadgen.run_load`` times from the send instead, which
hides exactly those stalls.)
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass

import numpy as np

READ = "read"
READ_GET = "read_get"
WRITE = "write"


@dataclass(frozen=True)
class Arrival:
    """One scheduled request: due offset (s), kind, user and write payload."""

    due_s: float
    kind: str
    user: int
    item: int = -1
    key: str = ""


@dataclass
class Outcome:
    arrival: Arrival
    due: float
    sent: float
    done: float
    status: int
    body: bytes
    error: str = ""
    served_by: str = ""

    @property
    def from_due_ms(self) -> float:
        return (self.done - self.due) * 1000.0

    @property
    def from_send_ms(self) -> float:
        return (self.done - self.sent) * 1000.0

    @property
    def late_ms(self) -> float:
        return (self.sent - self.due) * 1000.0


def zipf_probabilities(n: int, s: float, rng: np.random.Generator) -> np.ndarray:
    """``p ∝ rank^-s`` with popularity ranks assigned by a seeded permutation."""
    weights = np.arange(1, n + 1, dtype=np.float64) ** (-float(s))
    probabilities = np.empty(n, dtype=np.float64)
    probabilities[rng.permutation(n)] = weights / weights.sum()
    return probabilities


def make_schedule(
    seed: int,
    *,
    rate: float,
    count: int,
    n_users: int,
    n_items: int,
    write_share: float = 0.1,
    get_every: int = 10,
    zipf_s: float = 1.1,
    key_prefix: str = "fb",
) -> list[Arrival]:
    """``count`` arrivals at ``rate``/s, deterministic in ``seed``.

    Exactly ``round(write_share * count)`` arrivals, at seeded positions,
    are feedback writes with unique keys (a fixed count keeps the
    reported write percentile the same from run to run); every
    ``get_every``-th read uses the GET form of the endpoint.
    """
    rng = np.random.default_rng(seed)
    users = rng.choice(n_users, size=count, p=zipf_probabilities(n_users, zipf_s, rng))
    gaps = rng.exponential(1.0 / rate, size=count)
    writes = np.zeros(count, dtype=bool)
    writes[rng.permutation(count)[: round(write_share * count)]] = True
    items = rng.integers(0, n_items, size=count)
    schedule: list[Arrival] = []
    due = 0.0
    reads = 0
    for index in range(count):
        due += float(gaps[index])
        if writes[index]:
            schedule.append(Arrival(due, WRITE, int(users[index]), int(items[index]),
                                    f"{key_prefix}-{seed}-{index}"))
            continue
        reads += 1
        kind = READ_GET if reads % get_every == 0 else READ
        schedule.append(Arrival(due, kind, int(users[index])))
    return schedule


async def _send(client, arrival: Arrival, k: int):
    if arrival.kind == READ:
        return await client.post("/v1/recommend", {"user": arrival.user, "k": k})
    if arrival.kind == READ_GET:
        return await client.get(f"/v1/recommend?user={arrival.user}&k={k}")
    return await client.post(
        "/v1/feedback",
        {"user": arrival.user, "items": [arrival.item], "key": arrival.key, "ts": 0.0},
    )


async def run_open_loop(host: str, port: int, schedule: list[Arrival], *,
                        connections: int, k: int) -> list[Outcome]:
    """Release ``schedule`` on time over ``connections`` keep-alive clients."""
    from repro.edge.client import AsyncHttpClient, ClientError

    queue: asyncio.Queue = asyncio.Queue()
    outcomes: list[Outcome] = []
    clients = [AsyncHttpClient(host, port, timeout_s=30.0) for _ in range(connections)]

    async def worker(client) -> None:
        while True:
            item = await queue.get()
            if item is None:
                return
            arrival, due = item
            sent = time.perf_counter()
            try:
                reply = await _send(client, arrival, k)
            except ClientError as error:
                outcomes.append(Outcome(arrival, due, sent, time.perf_counter(), 0, b"",
                                        str(error)))
                continue
            outcomes.append(Outcome(arrival, due, sent, time.perf_counter(),
                                    reply.status, reply.body))

    tasks = [asyncio.ensure_future(worker(client)) for client in clients]
    start = time.perf_counter() + 0.005
    try:
        for arrival in schedule:
            due = start + arrival.due_s
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            queue.put_nowait((arrival, due))
        for _ in tasks:
            queue.put_nowait(None)
        await asyncio.gather(*tasks)
    finally:
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        for client in clients:
            await client.close()
    return outcomes


def backlog_grew(outcomes: list[Outcome], *, slack_ms: float = 10.0) -> bool:
    """Whether sends fell further behind schedule over the run.

    Compares the mean lateness of the last quarter of arrivals with the
    first quarter; a generator keeping up stays within ``slack_ms``.
    """
    ordered = sorted(outcomes, key=lambda outcome: outcome.due)
    quarter = max(len(ordered) // 4, 1)
    first = np.mean([outcome.late_ms for outcome in ordered[:quarter]])
    last = np.mean([outcome.late_ms for outcome in ordered[-quarter:]])
    return bool(last - first > slack_ms)
