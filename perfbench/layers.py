"""The traced run: the per-layer split of a workload's request stream.

Three passes over the same rounds:

1. **socket** - untraced, against the real server process(es), for the
   socket and fleet figures (``server.*`` from the server's own request
   counter, ``fleet.*`` from ``/proc`` and per-shard counts);
2. **in-process, untraced** - the same client calls with the socket
   replaced by the in-process chain ``FrameWriter.encode_request`` ->
   ``wire.decode_request`` -> ``handle_request`` ->
   ``FrameWriter.encode_response`` -> ``wire.decode_response``;
3. **in-process, traced** - pass 2 again on a second fresh copy of the
   starting state, with each layer's public functions wrapped in spans.
   Passes 2 and 3 alternate round by round.

Spans live in memory as ``[name, start, end, parent, request, items,
raised]`` and are written to ``.bench_trace/<workload>-<seed>.jsonl`` at
the end.  A span's self time is its duration minus its children's.
Nothing here patches ``src/``: the wrappers are installed on the classes
in this process only, and removed afterwards.  The number of rounds is
fixed by ``--seconds``, so every count below repeats exactly for a seed.
"""

from __future__ import annotations

import gc
import json
import shutil
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Dict, List

from repro import wire
from repro.client import ServiceClient
from repro.core.predictors.base import Predictor
from repro.core.streaming import StreamingBank
from repro.obs.metrics import Histogram
from repro.obs.quality import AccuracyTracker
from repro.service.server import handle_request
from repro.service.service import PredictionCache, PredictionService
from repro.store import LinkStore

import gen
import harness

#: Rounds replayed per second of ``--seconds``: about a third of the run
#: goes to each pass.
ROUNDS_PER_S = {"select": 1.2, "fleet": 0.6}


class Tracer:
    """In-memory spans plus the wrappers that record them."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.request = 0
        self._stack: List[int] = []
        self._undo: List[tuple] = []

    @contextmanager
    def span(self, name: str, items: int = 0):
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                  self.request, items, False]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        try:
            yield
        except BaseException:
            record[6] = True
            raise
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, owner: type, attr: str, name: str, items=None) -> None:
        original = owner.__dict__[attr]
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(name, items(args) if items else 0):
                return original(*args, **kwargs)

        traced.__wrapped__ = original
        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    def unwrap_all(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def install(self) -> None:
        """Wrap each layer's public functions (see README.md's map)."""
        self.wrap(PredictionService, "predict", "service.predict")
        self.wrap(PredictionService, "predict_batch", "service.predict_batch")
        self.wrap(PredictionService, "rank_replicas", "service.rank")
        self.wrap(PredictionService, "observe_batch", "service.observe_batch")
        for attr in ("get", "put", "get_many", "put_many"):
            self.wrap(PredictionCache, attr, "service.cache")
        self.wrap(StreamingBank, "answer", "streaming.answer")
        self.wrap(StreamingBank, "extend", "streaming.extend",
                  items=lambda args: len(args[1]))
        for cls in _predictor_classes():
            if "predict" in cls.__dict__:
                self.wrap(cls, "predict", "predictors.predict")
        self.wrap(AccuracyTracker, "drain", "quality.drain")
        self.wrap(AccuracyTracker, "flush", "quality.drain")
        self.wrap(Histogram, "observe", "metrics.observe")
        self.wrap(LinkStore, "append_rows", "store.append")
        self.wrap(LinkStore, "group_commit", "store.group_commit")

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total and self seconds, items, raised."""
        children = [0.0] * len(self.spans)
        for name, start, end, parent, *_ in self.spans:
            if parent >= 0:
                children[parent] += end - start
        out: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total": 0.0, "self": 0.0, "items": 0,
                     "raised": 0, "top_calls": 0, "top_total": 0.0})
        for i, (name, start, end, parent, _, items, raised) in enumerate(self.spans):
            entry = out[name]
            entry["calls"] += 1
            entry["total"] += end - start
            entry["self"] += end - start - children[i]
            entry["items"] += items
            entry["raised"] += raised
            if parent < 0 or self.spans[parent][0] != name:
                entry["top_calls"] += 1
                entry["top_total"] += end - start
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("name", "start", "end", "parent", "request", "items", "raised")
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(dict(zip(keys, record))) + "\n")


def _predictor_classes():
    import repro.core.predictors.registry  # noqa: F401 (imports every family)
    from repro.core.predictors import size_model  # noqa: F401

    seen, todo = [], [Predictor]
    while todo:
        cls = todo.pop()
        for sub in cls.__subclasses__():
            if sub not in seen:
                seen.append(sub)
                todo.append(sub)
    return seen


class InProcessClient(ServiceClient):
    """The public client with its socket replaced by the in-process chain.

    Responses are copied out of the encode buffer (``bytes(...)``), as a
    socket send would, so the chain never holds a view across encodes.
    """

    def __init__(self, service: PredictionService, tracer=None):
        super().__init__("in-process", binary=True)
        self.service = service
        self.tracer = tracer
        self._server_writer = wire.FrameWriter()
        self.request_bytes = 0
        self.response_bytes = 0

    def connect(self) -> "InProcessClient":
        self._sock = "in-process"
        return self

    def close(self) -> None:
        self._sock = None

    def _span(self, name: str):
        return self.tracer.span(name) if self.tracer else nullcontext()

    def _roundtrip(self, req):
        if self.tracer:
            self.tracer.request += 1
        with self._span("client.encode"):
            frame = bytes(self._writer.encode_request(req))
        with self._span("wire.decode"):
            sreq = wire.decode_request(frame[3], frame[wire.HEADER.size:])
        with self._span("server.dispatch"):
            resp = handle_request(self.service, sreq)
        with self._span("wire.encode"):
            out = bytes(self._server_writer.encode_response(frame[3], resp))
        with self._span("client.decode"):
            result = wire.decode_response(out[3], out[wire.HEADER.size:])
        self.request_bytes += len(frame)
        self.response_bytes += len(out)
        return result


def _build(bench: harness.Bench, where: Path) -> PredictionService:
    """A fresh in-process copy of the workload's starting state, built
    the way ``repro serve`` / a fleet worker builds theirs."""
    where.mkdir(parents=True)
    store = LinkStore(where / "state") if bench.workload == "fleet" else None
    service = PredictionService(store=store)
    if bench.workload == "fleet":
        bench.load(InProcessClient(service))
        return service
    for name in gen.SHIPPED:
        service.ingest_ulm(bench.root / "data" / f"{name}.ulm", cache=False)
    for path in sorted(bench.logs.glob("*.ulm")):
        service.ingest_ulm(path, cache=False)
    return service


def _replay(client: ServiceClient, rounds) -> List[float]:
    """Send the rounds through ``client``; the seconds each op took."""
    out = []
    gc.freeze()
    for ops in rounds:
        for op in ops:
            t0 = time.perf_counter()
            harness.call(client, op)
            out.append(time.perf_counter() - t0)
    return out


def _socket_pass(bench: harness.Bench, rounds) -> dict:
    """Untraced rounds against the real server; per-op latency, the
    server's request counter, CPU and per-shard item counts."""
    server = bench.server
    fleet = bench.workload == "fleet"
    counter = "fleet_requests" if fleet else "server_requests"

    def requests() -> float:
        with ServiceClient(server.address, binary=True) as client:
            return client.call("metrics")["metrics"][counter]["value"]

    def shard_items() -> List[float]:
        out = []
        for sock in bench.worker_sockets:
            with ServiceClient(sock, binary=True) as client:
                status = client.status()
            out.append(status["predicts"] + status["ingested"])
        return out

    req0 = requests()
    shards0 = shard_items() if fleet else []
    cpu0 = server.cpu_seconds()
    record = harness.Record()
    gc.freeze()
    for ops in rounds:
        bench.session(ops, record)
    cpu1 = server.cpu_seconds()
    shards1 = shard_items() if fleet else []
    sent = sum(len(ops) for ops in rounds)
    return {
        "record": record,
        "latencies": record.elapsed,
        "kept": [not failed for failed in record.failures],
        # The first metrics query itself is counted between the two reads.
        "retried": requests() - req0 - sent - 1,
        "cpu": [b - a for a, b in zip(cpu0, cpu1)],
        "shards": [b - a for a, b in zip(shards0, shards1)],
    }


def run(root: Path, workload: str, seed: int, seconds: float) -> dict:
    bench = harness.Bench(root, workload, seed)
    scratch = bench.work / "inproc"
    try:
        bench.setup()
        stream = bench.new_stream()
        rounds = [stream.next_round()
                  for _ in range(max(2, round(seconds * ROUNDS_PER_S[workload])))]
        sock = _socket_pass(bench, rounds)
        correct = bench.correct(sock["record"])
        bench.teardown()

        plain_service = _build(bench, scratch / "plain")
        tracer = Tracer()
        # Wrapped during the build: link state binds its store's append
        # when the link is created.  The build's own spans are dropped.
        tracer.install()
        try:
            service = _build(bench, scratch / "traced")
        finally:
            tracer.unwrap_all()
        store = service.store
        status0 = service.status()
        bytes0 = store.bytes_on_disk(max_age=0) if store else 0
        tracer.spans.clear()
        plain_client = InProcessClient(plain_service)
        client = InProcessClient(service, tracer)
        # Round by round, untraced then traced, so a drift in the host's
        # speed falls on both passes alike.
        plain, traced = [], []
        for ops in rounds:
            plain += _replay(plain_client, [ops])
            tracer.install()
            try:
                traced += _replay(client, [ops])
            finally:
                tracer.unwrap_all()
        if plain_service.store:
            plain_service.store.close()
        # Socket cost per request: the median over the requests that did
        # not fail of (socket latency - in-process latency), paired by
        # request.
        socket_us = statistics.median(
            (s - p) * 1e6 for s, p, k in zip(sock["latencies"], plain,
                                             sock["kept"]) if k)
        status1 = service.status()
        bytes1 = store.bytes_on_disk(max_age=0) if store else 0
        if store:
            store.close()
        tracer.write(root / ".bench_trace" / f"{workload}-{seed}.jsonl")

        metrics = _per_layer(rounds, tracer.summary(), client, sock,
                             sum(plain), socket_us, sum(traced),
                             status0, status1, bytes1 - bytes0)
        return {
            "correct": correct,
            "attempted": len(sock["kept"]),
            "failed": sum(not k for k in sock["kept"]),
            "metrics": metrics,
        }
    finally:
        bench.close()
        shutil.rmtree(scratch, ignore_errors=True)


def _per_layer(rounds, spans, client, sock, untraced, socket_us, traced,
               status0, status1, wal_bytes) -> Dict[str, float]:
    ops = [op for ops_ in rounds for op in ops_]
    requests = len(ops)
    items = sum(op.items for op in ops)
    by_op: Dict[str, List[gen.Op]] = defaultdict(list)
    for op in ops:
        by_op[op.op].append(op)
    observed = sum(op.items for op in by_op["observe_batch"])
    batches = len(by_op["observe_batch"])

    def self_us(name: str) -> float:
        return spans[name]["self"] * 1e6 if name in spans else 0.0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    cache0, cache1 = status0["cache"], status1["cache"]
    hits = cache1["hits"] - cache0["hits"]
    lookups = hits + cache1["misses"] - cache0["misses"]
    answer = spans.get("streaming.answer", {"calls": 0, "raised": 0})
    extend = spans.get("streaming.extend", {"items": 0})
    recompute = spans.get("predictors.predict", {"top_calls": 0, "top_total": 0.0})
    observe = spans.get("metrics.observe", {"calls": 0})
    store0, store1 = status0.get("store", {}), status1.get("store", {})
    fleet_items = sum(sock["shards"])
    # Socket latency of the untraced pass; only the fleet's rounds write.
    figures = sock["record"].metrics()
    return {
        **{name: figures.get(name, 0.0) for name in (
            "observe_batch_items_per_s", "observe_batch_p50_ms",
            "observe_batch_p90_ms")},
        "client.encode_us_per_item": self_us("client.encode") / items,
        "client.decode_us_per_item": self_us("client.decode") / items,
        "wire.decode_us_per_item": self_us("wire.decode") / items,
        "wire.encode_us_per_item": self_us("wire.encode") / items,
        "wire.request_bytes_per_item": client.request_bytes / items,
        "wire.response_bytes_per_item": client.response_bytes / items,
        "server.dispatch_us_per_request": self_us("server.dispatch") / requests,
        "server.socket_us_per_request": socket_us,
        "server.retried_requests": sock["retried"],
        "service.predict_batch_us_per_item": ratio(
            self_us("service.predict_batch"),
            sum(op.items for op in by_op["predict_batch"])),
        "service.rank_us_per_request": ratio(self_us("service.rank"),
                                             len(by_op["rank"])),
        "service.observe_batch_us_per_item": ratio(
            self_us("service.observe_batch"), observed),
        "service.cache_hit_ratio": ratio(hits, lookups),
        "service.cache_us_per_item": self_us("service.cache") / items,
        "streaming.answer_us_per_item": ratio(self_us("streaming.answer"),
                                              answer["calls"]),
        "streaming.fallback_ratio": ratio(answer["raised"], answer["calls"]),
        "streaming.extend_us_per_item": ratio(self_us("streaming.extend"),
                                              extend["items"]),
        "predictors.recompute_us_per_call": ratio(recompute["top_total"] * 1e6,
                                                  recompute["top_calls"]),
        "predictors.recomputes": recompute["top_calls"],
        "quality.drain_us_per_item": self_us("quality.drain") / items,
        "quality.scored": (status1["accuracy"]["scored"]
                           - status0["accuracy"]["scored"]),
        "metrics.observe_us_per_call": ratio(self_us("metrics.observe"),
                                             observe["calls"]),
        "metrics.observes_per_request": observe["calls"] / requests,
        "store.append_us_per_item": ratio(self_us("store.append"), observed),
        "store.group_commit_us_per_batch": ratio(
            self_us("store.group_commit"), batches),
        "store.wal_bytes_per_item": ratio(wal_bytes, observed),
        "store.group_commits_per_batch": ratio(
            store1.get("group_commits", 0) - store0.get("group_commits", 0),
            batches),
        "fleet.front_cpu_us_per_item": (ratio(sock["cpu"][0], items) * 1e6
                                        if fleet_items else 0.0),
        "fleet.worker_cpu_us_per_item": (ratio(sum(sock["cpu"][1:]), items) * 1e6
                                         if fleet_items else 0.0),
        "fleet.shard_items_max_over_mean": (
            max(sock["shards"]) / (fleet_items / len(sock["shards"]))
            if fleet_items else 0.0),
        "trace.overhead_ratio": traced / untraced,
    }
