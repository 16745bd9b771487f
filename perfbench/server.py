"""The ``http-mixed`` server process: model, service, WAL and HTTP edge.

Started by ``perfbench/http_mixed.py`` as its own process so the load
generator never competes with it for the interpreter lock::

    python3 perfbench/server.py --seed 1 --wal-dir .perfbench_work/wal --trace 0

It generates ML100K-sim, fits CLAPF-MAP, serves it with
``RecommendationService.build`` behind ``EdgeServer`` (WAL enabled,
every other setting at its default), and prints one JSON line
``{"event": "ready", "port": ...}``.  It then answers JSON-line
commands on stdin, one reply line each:

* ``{"cmd": "mark"}`` — CPU seconds, coalesced batches and tier counts so far;
* ``{"cmd": "trace", "on": true|false}`` — start / stop recording layer
  spans (``--trace 1`` only); stopping replies with the recorded spans;
* ``{"cmd": "stop"}`` — drain the edge, close the WAL, reply with the
  peak RSS, and exit.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
sys.path.insert(0, str(ROOT / "src"))

PROFILE = "ML100K"
SCALE = 1.0


def build(seed: int, wal_dir: Path):
    from repro import make_profile_dataset, train_test_split
    from repro.core.clapf import clapf_map
    from repro.edge.http import EdgeServer
    from repro.serving.service import RecommendationService
    from repro.streaming.wal import WriteAheadLog

    dataset = make_profile_dataset(PROFILE, scale=SCALE, seed=seed)
    split = train_test_split(dataset, seed=seed)
    model = clapf_map(seed=seed).fit(split.train)
    service = RecommendationService.build(model, split.train)
    wal = WriteAheadLog(wal_dir)
    return EdgeServer(service, wal=wal), service, wal


def install_edge(tracer) -> None:
    """Wrap the edge's parse/encode/handler/coalescer and the WAL append."""
    from repro.edge import http
    from repro.edge.coalesce import MicroBatcher
    from repro.edge.schema import (
        FeedbackRequestV1, FeedbackResponseV1, RecommendRequestV1, RecommendResponseV1,
    )
    from repro.streaming.wal import WriteAheadLog

    tracer.wrap(http.HttpRequest, "json", "edge.parse")
    tracer.wrap(http, "_query_to_payload", "edge.parse")
    for schema in (RecommendRequestV1, FeedbackRequestV1):
        tracer.wrap(schema, "from_json_dict", "edge.parse")
    for schema in (RecommendResponseV1, FeedbackResponseV1):
        tracer.wrap(schema, "to_json_dict", "edge.encode")
    tracer.wrap(http.HttpResponse, "encode", "edge.encode_wire")
    tracer.wrap_async(http.EdgeServer, "_dispatch", "edge.handler", tally=True)
    tracer.wrap_async(http.EdgeServer, "_handle_feedback", "edge.feedback_handler")
    tracer.wrap_async(MicroBatcher, "submit", "edge.submit")
    tracer.wrap(WriteAheadLog, "append", "streaming.wal_append",
                on_exit=lambda _a, _r, d: tracer.sample("streaming.wal_append", d))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--wal-dir", type=Path, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    from perfbench.common import peak_rss_mb
    from repro.edge.http import EdgeServerThread

    tracer = None
    if args.trace:
        from perfbench.trace import Tracer, install_serving

        # Installed before the edge exists: the coalescer captures the
        # bound ``recommend_batch`` at construction.
        tracer = Tracer()
        install_serving(tracer, weight_by_batch=True)
        install_edge(tracer)
    server, service, wal = build(args.seed, args.wal_dir)
    hosted = EdgeServerThread(server)
    host, port = hosted.__enter__()
    train = service.train
    # cpu_s: this process's CPU time from its start to ready (interpreter,
    # imports, data, fit, service and edge), the workload's set-up cost.
    print(json.dumps({"event": "ready", "host": host, "port": port,
                      "n_users": train.n_users, "n_items": train.n_items,
                      "cpu_s": time.process_time()}), flush=True)

    def mark() -> dict:
        return {
            "cpu_s": time.process_time(),
            "batches": server._batcher.batches_dispatched_,
            "served": {name: stats.served for name, stats in service.stats.items()},
        }

    try:
        for line in sys.stdin:
            command = json.loads(line)
            reply: dict = {"ok": True}
            if command["cmd"] == "mark":
                reply.update(mark())
            elif command["cmd"] == "trace" and tracer is not None:
                if command["on"]:
                    tracer.reset()
                    tracer.enabled = True
                else:
                    tracer.enabled = False
                    reply["spans"] = tracer.snapshot()
                reply.update(mark())
            elif command["cmd"] == "stop":
                break
            else:
                reply = {"ok": False, "error": f"unknown command {command!r}"}
            print(json.dumps(reply), flush=True)
    finally:
        hosted.__exit__(None, None, None)
        service.close()
        wal.close()
        if tracer is not None:
            tracer.uninstall()
    print(json.dumps({"ok": True, "peak_rss_mb": peak_rss_mb()}), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
