"""Set up a workload's servers, drive its rounds, and check every answer.

One :class:`Bench` per run.  It writes its inputs under
``.bench_run/<workload>-<seed>-<pid>/`` in the checkout, launches the real
``repro serve`` / ``repro fleet`` processes from ``src/``, and talks to
them only through :class:`repro.client.ServiceClient` on the binary
dialect, one connection per round.
"""

from __future__ import annotations

import gc
import os
import shutil
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.client import ServiceClient, ServiceError

import gen
import reference
from procs import Server, host_steal_seconds

#: Generated links besides the four shipped logs.  With ~75 cache keys a
#: link (30 specs, four size classes for the C- half) the population has
#: several times more keys than the server's 2048-entry prediction LRU.
GENERATED = 64
#: Observations per observe_batch when the fleet's population is loaded.
LOAD_BATCH = 1000
#: predict_batch items checked against the reference, per sweep.
SAMPLE_ITEMS = 12
#: Pooled front-to-worker connections per shard.  With one, nothing opens
#: a connection after set-up, so the FrameWriter fault cannot strike the
#: measured rounds at a moment set by heartbeat timing (README.md).
FLEET_POOL = 1


class CountingClient(ServiceClient):
    """The public client, counting its connects.

    A connect during a request on an open connection is the client's
    silent reconnect-and-retry: the server dropped the connection after
    executing the request, and the request ran a second time.
    """

    connects = 0

    def _connect_once(self) -> None:
        super()._connect_once()
        self.connects += 1


class CheckFailed(AssertionError):
    """An answer disagreed with the reference or a property."""


def call(client: ServiceClient, op: gen.Op):
    f = op.fields
    if op.op == "predict":
        return client.predict(f["link"], f["size"], f["spec"], f["now"])
    if op.op == "rank":
        return client.rank(f["candidates"], f["size"], f["spec"], f["now"])
    if op.op == "predict_batch":
        return client.predict_batch(f["items"])
    return client.observe_batch(f["items"])


def answered(op: gen.Op, result) -> bool:
    """Whether every item of a batch answered ``ok``."""
    if op.op in ("predict_batch", "observe_batch"):
        return all(entry.get("ok") for entry in result)
    return True


class Bench:
    def __init__(self, root: Path, workload: str, seed: int):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.work = root / ".bench_run" / f"{workload}-{seed}-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.server: Optional[Server] = None
        self._setups = 0
        self.ref = reference.Histories()
        self.population: List[gen.Link] = [
            gen.read_ulm(root / "data" / f"{name}.ulm", name)
            for name in gen.SHIPPED
        ] + gen.population(GENERATED)
        for link in self.population:
            self.ref.load(link.name, link.times, link.values, link.sizes)
        self.links = [link.name for link in self.population]
        if workload != "fleet":
            self.logs = self.work / "logs"
            self.logs.mkdir()
            for link in self.population[len(gen.SHIPPED):]:
                gen.write_ulm(link, self.logs / f"{link.name}.ulm")
        self.setup_unavailable = 0  # fleet: warm-up items answered unavailable
        self.worker_sockets: List[str] = []

    def new_stream(self) -> gen.Stream:
        return gen.Stream(
            self.workload, list(self.links),
            {link.name: float(link.times[-1]) for link in self.population},
            self.seed,
        )

    # ------------------------------------------------------------------
    # set-up
    # ------------------------------------------------------------------
    def setup(self) -> float:
        """Launch the workload's server(s) on a fresh directory and load
        the starting state; returns launch-to-first-answer seconds (on
        the fleet, less the benchmark's own warm-up sweep)."""
        self.teardown()
        self._setups += 1
        run = self.work / f"setup{self._setups}"
        run.mkdir()
        rel = run.relative_to(self.root)
        if self.workload == "fleet":
            self.server = Server(
                ["fleet", "--workers", "2", "--state-dir", str(rel / "state"),
                 "--listen", "127.0.0.1:0", "--pool-size", str(FLEET_POOL)],
                self.root, run / "server.log")
            self.server.wait_fleet()
            with ServiceClient(self.server.address, binary=True) as client:
                shards = client.status()["fleet"]["shards"]
                self.server.worker_pids = [shard["pid"] for shard in shards]
                self.worker_sockets = [shard["socket"] for shard in shards]
                warm = self._warm_fleet(client)
                self.load(client)
                client.predict(self.links[0], gen.SIZES[0], "AVG")
            # The warm-up is the benchmark's, not the program's set-up.
            return time.perf_counter() - self.server.started - warm
        else:
            logs = run / "logs"
            logs.mkdir()
            for name in gen.SHIPPED:
                shutil.copyfile(self.root / "data" / f"{name}.ulm",
                                logs / f"{name}.ulm")
            for path in self.logs.iterdir():
                shutil.copyfile(path, logs / path.name)
            argv = ["serve", *sorted(str(rel / "logs" / p.name)
                                     for p in logs.iterdir()),
                    "--socket", str(rel / "s.sock")]
            self.server = Server(argv, self.root, run / "server.log")
            # The server ingests every log before it binds, so the first
            # answered ping already sees the whole starting state.
            self.server.wait_unix(str(rel / "s.sock"))
        return time.perf_counter() - self.server.started

    def _warm_fleet(self, client: ServiceClient) -> float:
        """Grow each front-to-worker connection's encode buffer.

        A worker connection dies on the first response larger than the
        one it was opened with (the FrameWriter fault, README.md); which
        pooled connection a heartbeat opened is a matter of timing, so
        on the fleet that fault cannot be counted exactly per round.
        Set-up sends one sweep of 1200 items per shard, larger than any
        later response, until both shards answer it in full; with one
        pooled connection per shard nothing opens a new one afterwards.
        Returns the seconds it took.
        """
        t0 = time.perf_counter()
        from repro.fleet.hashing import ShardRing

        ring = ShardRing(2)
        per_shard = {}
        for name in gen.generated_names(GENERATED):
            per_shard.setdefault(ring.shard_of(name), name)
        items = [{"link": link, "size": int(gen.SIZES[0]), "spec": "C-AVG25hr",
                  "now": 0.0}
                 for link in per_shard.values() for _ in range(1200)]
        for _ in range(50):
            results = client.predict_batch(items)
            missing = sum(not r.get("ok") for r in results)
            self.setup_unavailable += missing
            if not missing:
                return time.perf_counter() - t0
            time.sleep(0.01)
        raise RuntimeError("fleet workers never answered the warm-up sweep")

    def load(self, client: ServiceClient) -> None:
        """The population through the front, in time order per link."""
        items = []
        for link in self.population:
            for end, bw, size in zip(link.times, link.values, link.sizes):
                end, bw, size = float(end), float(bw), int(size)
                items.append({"link": link.name, "size": size,
                              "start": end - size / bw, "end": end,
                              "bandwidth": bw})
        for lo in range(0, len(items), LOAD_BATCH):
            acks = client.observe_batch(items[lo:lo + LOAD_BATCH])
            if not all(ack.get("ok") for ack in acks):
                raise RuntimeError("the fleet refused part of the population")

    def teardown(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None

    def close(self) -> None:
        self.teardown()
        shutil.rmtree(self.work, ignore_errors=True)

    # ------------------------------------------------------------------
    # the measured loop
    # ------------------------------------------------------------------
    def drive(self, seconds: float, stream: gen.Stream) -> "Record":
        """Whole rounds, one fresh connection each, until ``seconds``."""
        record = Record()
        deadline = time.perf_counter() + seconds
        cpu0 = sum(self.server.cpu_seconds())
        steal0 = host_steal_seconds()
        while True:
            self.session(stream.next_round(), record)
            # What the run keeps for its checks grows with every round;
            # frozen, it costs the collector nothing, so the client's own
            # garbage collection stays the same size from round to round.
            gc.freeze()
            if time.perf_counter() >= deadline:
                break
        record.cpu_seconds = sum(self.server.cpu_seconds()) - cpu0
        record.steal_seconds = host_steal_seconds() - steal0
        record.rss_mb = self.server.rss_mb()
        return record

    def session(self, ops: List[gen.Op], record: "Record") -> None:
        client = CountingClient(self.server.address, binary=True)
        try:
            client.connect()
            for op in ops:
                before = client.connects
                t0 = time.perf_counter()
                try:
                    result = call(client, op)
                except (ServiceError, OSError) as exc:
                    result, error = None, exc
                else:
                    error = None
                elapsed = time.perf_counter() - t0
                retried = client.connects != before
                record.add(op, result, elapsed,
                           failed=error is not None or retried
                           or not answered(op, result),
                           retried=retried)
        finally:
            client.close()

    # ------------------------------------------------------------------
    # checks
    # ------------------------------------------------------------------
    def correct(self, record: "Record") -> bool:
        """Run every check; a failure is reported on stderr."""
        try:
            self._check_writes(record)
            self._check_answers(record)
            self._check_properties(record)
            self._check_lengths()
        except CheckFailed as exc:
            print(f"perfbench: check failed: {exc}", file=sys.stderr)
            return False
        return True

    def _check_writes(self, record: "Record") -> None:
        """Acked versions are contiguous per link; a batch the server
        applied twice shows as acks one batch-share further on."""
        for op, acks in record.writes:
            if acks is None:
                raise CheckFailed("an observe_batch got no answer")
            per_link: Dict[str, List[Tuple[dict, dict]]] = {}
            for item, ack in zip(op.fields["items"], acks):
                per_link.setdefault(item["link"], []).append((item, ack))
            twice = False
            for link, pairs in per_link.items():
                base = self.ref.length(link)
                first = pairs[0][1]["version"]
                if first == base + len(pairs) + 1:
                    twice = True
                    for item, _ in pairs:  # the first, unacked application
                        self.ref.apply(link, item["end"], item["bandwidth"],
                                       item["size"])
                elif first != base + 1:
                    raise CheckFailed(
                        f"{link}: first ack version {first}, expected "
                        f"{base + 1} (or {base + len(pairs) + 1} if applied twice)")
                for k, (item, ack) in enumerate(pairs):
                    if ack["version"] != first + k:
                        raise CheckFailed(f"{link}: acked versions not contiguous")
                    self.ref.apply(link, item["end"], item["bandwidth"],
                                   item["size"])
            record.double_applied += twice

    def _expect(self, link: str, spec: str, size: int, now: float,
                version: int) -> Optional[float]:
        times, values, sizes = self.ref.at(link, version)
        return reference.predict(spec, times, values, sizes, size, now)

    def _check_prediction(self, query: dict, answer: dict) -> None:
        if answer["history_length"] != answer["version"]:
            raise CheckFailed(f"history_length != version in {answer}")
        if query["spec"] == "SIZE":
            return  # outside Figure 4; covered by the batch/predict property
        want = self._expect(query["link"], query["spec"], query["size"],
                            query["now"], answer["version"])
        if not reference.same(answer["value"], want):
            raise CheckFailed(f"{query} answered {answer['value']!r}, "
                              f"reference {want!r}")

    def _check_answers(self, record: "Record") -> None:
        for query, answer in record.predictions:
            self._check_prediction(query, answer)
        for query, ranking in record.rankings:
            values = [entry["predicted_bandwidth"] for entry in ranking]
            known = [v for v in values if v is not None]
            if values[:len(known)] != known or known != sorted(known, reverse=True):
                raise CheckFailed(f"rank order {values}")
            for entry in ranking:
                want = self._expect(entry["site"], query["spec"], query["size"],
                                    query["now"], entry["history_length"])
                if not reference.same(entry["predicted_bandwidth"], want):
                    raise CheckFailed(f"rank {entry} vs reference {want!r}")

    def _check_properties(self, record: "Record") -> None:
        """rank values equal predict; predict_batch equals item-by-item
        predict — both asked again of the final state."""
        with ServiceClient(self.server.address, binary=True) as client:
            for query in [q for q, _ in record.rankings[-3:]]:
                ranking = client.rank(query["candidates"], query["size"],
                                      query["spec"], query["now"])
                for entry in ranking:
                    p = client.predict(entry["site"], query["size"],
                                       query["spec"], query["now"])
                    if p["value"] != entry["predicted_bandwidth"]:
                        raise CheckFailed(f"rank {entry} != predict {p}")
            items = record.last_sweep["items"]
            results = client.predict_batch(items)
            for item, result in list(zip(items, results))[::20]:
                p = client.predict(item["link"], item["size"], item["spec"],
                                   item["now"])
                if (p["value"], p["version"]) != (result["value"],
                                                  result["version"]):
                    raise CheckFailed(f"batch {result} != predict {p}")
                self._check_prediction(item, p)

    def _check_lengths(self) -> None:
        """Each link's final history length is what was sent to it (plus
        any batch applied twice)."""
        with ServiceClient(self.server.address, binary=True) as client:
            for name in self.ref.names():
                got = client.predict(name, 1, "LV", 0.0)["history_length"]
                if got != self.ref.length(name):
                    raise CheckFailed(f"{name}: server holds {got} records, "
                                      f"expected {self.ref.length(name)}")


class Record:
    """What one run measured and the answers kept for checking."""

    def __init__(self) -> None:
        self.kinds: List[str] = []
        self.sizes: List[int] = []
        self.attempted = 0
        self.failed = 0
        self.failures: List[bool] = []
        self.elapsed: List[float] = []
        self.retried = 0
        self.double_applied = 0
        self.items_attempted = 0
        self.predictions: List[Tuple[dict, dict]] = []
        self.rankings: List[Tuple[dict, list]] = []
        self.writes: List[Tuple[gen.Op, Optional[list]]] = []
        self.last_sweep: Optional[dict] = None
        self.cpu_seconds = 0.0
        self.steal_seconds = 0.0
        self.rss_mb = 0.0

    def add(self, op: gen.Op, result, elapsed: float, failed: bool,
            retried: bool) -> None:
        self.attempted += 1
        self.items_attempted += op.items
        self.failures.append(failed)
        self.elapsed.append(elapsed)
        self.kinds.append(op.op)
        self.sizes.append(op.items)
        self.retried += retried
        if op.op == "observe_batch":
            # Writes are replayed into the reference whatever happened.
            self.writes.append((op, result))
        if failed:
            self.failed += 1
            return
        if op.op == "predict":
            self.predictions.append((op.fields, result))
        elif op.op == "rank":
            self.rankings.append((op.fields, result))
        elif op.op == "predict_batch":
            self.last_sweep = op.fields
            items = op.fields["items"]
            for i in range(0, len(items), len(items) // SAMPLE_ITEMS):
                self.predictions.append((items[i], result[i]))

    def metrics(self) -> Dict[str, float]:
        """The figures of the requests that did not fail: the end-to-end
        metrics and, where the round writes, the observe_batch ones."""
        lat: Dict[str, List[float]] = {}
        items: Dict[str, int] = {}
        for kind, size, elapsed, failed in zip(
                self.kinds, self.sizes, self.elapsed, self.failures):
            if not failed:
                lat.setdefault(kind, []).append(elapsed)
                items[kind] = items.get(kind, 0) + size

        def pct(op: str, q: float, scale: float) -> float:
            return float(np.percentile(lat[op], q)) * scale

        def rate(op: str) -> float:
            return items[op] / sum(lat[op])

        out = {
            "predict_batch_items_per_s": rate("predict_batch"),
            "predict_batch_p50_ms": pct("predict_batch", 50, 1e3),
            "predict_batch_p90_ms": pct("predict_batch", 90, 1e3),
            "rank_p50_us": pct("rank", 50, 1e6),
            "server_cpu_us_per_item": self.cpu_seconds / self.items_attempted * 1e6,
            "server_rss_mb": self.rss_mb,
        }
        if "observe_batch" in lat:
            out.update({
                "observe_batch_items_per_s": rate("observe_batch"),
                "observe_batch_p50_ms": pct("observe_batch", 50, 1e3),
                "observe_batch_p90_ms": pct("observe_batch", 90, 1e3),
            })
        return out
