"""Seeded inputs: the link population and the request rounds of each workload.

Everything here is a pure function of ``--seed`` (and of the fixed
:data:`POPULATION_SEED`); the program under test only ever sees what these
functions return.  A *round* is one client
session: the benchmark connects, sends the round's requests in order and
disconnects.  Rounds are the unit a run attempts whole, so the share of
operations that fail (see README.md, "The FrameWriter fault") is the same
in every run.

Response sizes do not depend on the seed: link names all have 11
characters (like the shipped logs' stems) and every batch of a workload
has the same item count, so whether a response outgrows a connection's
encode buffer is decided by the round's shape alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

import numpy as np

MB = 1_000_000
HOUR = 3600.0

#: The four shipped campaign logs; the link name is the file stem.
SHIPPED = ("aug-LBL-ANL", "aug-ISI-ANL", "dec-LBL-ANL", "dec-ISI-ANL")

#: Figure 4's fifteen context-insensitive predictors, and their classified
#: variants: the 30-predictor battery the broker sweeps.
PAPER15 = ("AVG", "LV", "AVG5", "AVG15", "AVG25", "MED", "MED5", "MED15",
           "MED25", "AVG5hr", "AVG15hr", "AVG25hr", "AR", "AR5d", "AR10d")
BATTERY = PAPER15 + tuple("C-" + name for name in PAPER15)

#: The predictor a broker is configured with (``repro serve``'s default):
#: single predicts and ranks ask for it; sweeps cover the whole battery.
BROKER_SPEC = "C-AVG15"

#: Transfer sizes, covering the paper's four size classes
#: (0-50, 50-250, 250-750 and over 750 MB).
SIZES = np.array([1, 10, 25, 100, 200, 500, 1000], dtype=np.int64) * MB
SIZE_P = np.array([0.2, 0.2, 0.1, 0.2, 0.1, 0.1, 0.1])

#: Candidates per rank request (a replica set).
REPLICAS = 8
#: Share of predict_batch items that ask for SIZE, the size-scaling model
#: outside the streaming bank (answered by a snapshot recompute).
SIZE_SHARE = 0.02
#: Prediction anchors: this many seconds after the link's last transfer.
#: A small set, so temporal-window answers can repeat and hit the cache.
NOW_OFFSETS = (600.0, 3600.0, 4 * HOUR)
#: Zipf exponent of link popularity.
ZIPF_S = 1.1


@dataclass
class Link:
    """One link's history as three end-time-sorted columns."""

    name: str
    times: np.ndarray
    values: np.ndarray
    sizes: np.ndarray


@dataclass
class Op:
    """One request of a round: the op name and its JSON-protocol fields."""

    op: str
    fields: Dict
    items: int  # how many items the request carries (1 for predict)


@dataclass
class Shape:
    """A workload's round: ``groups`` repeats of one group of requests."""

    groups: int
    predicts: int       # per group, sent in a row
    ranks: int          # per group
    sweep_items: int    # items of the group's predict_batch
    observe_items: int  # items of the group's observe_batch ...
    observe_links: int  # ... spread evenly over this many links


#: The first small request after a batch runs slower (the servers free
#: the batch's objects, caches refill); eight predicts in a row put their
#: median past that settling.  Each shape fixes its item counts, so a
#: response's size - and with it whether it outgrows the connection's
#: encode buffer - is the same in every round of every seed: an 800-item
#: sweep answers in 41-53 KB, an observe ack takes 22 bytes an item.
SHAPES = {
    # The broker: reads only.  The store, the bank fold and the quality
    # drain do no work; the starting state stays the same all run.
    "select": Shape(groups=4, predicts=8, ranks=2, sweep_items=800,
                    observe_items=0, observe_links=0),
    # The front hop: select's reads with instrumentation batches mixed in.
    "fleet": Shape(groups=4, predicts=8, ranks=2, sweep_items=800,
                   observe_items=250, observe_links=25),
}


def generated_names(count: int) -> List[str]:
    return [f"gen-{i:03d}-ANL" for i in range(count)]


def make_history(rng: np.random.Generator, name: str, t0: float) -> Link:
    """A history shaped like the paper's campaign logs.

    350-450 transfers, sizes across the four classes, arrivals in bursts
    with long idle gaps, and bandwidth that grows with file size (the
    per-transfer start-up cost weighs less on big files) around a
    link-specific capacity that drifts over days.
    """
    n = int(rng.integers(350, 451))
    long_gap = rng.random(n) < 0.2
    gaps = np.where(long_gap, rng.exponential(6 * HOUR, n),
                    rng.exponential(40 * 60.0, n)) + 30.0
    times = t0 + np.cumsum(gaps)
    sizes = rng.choice(SIZES, size=n, p=SIZE_P)
    capacity = rng.uniform(4, 30) * MB
    drift = 1.0 + 0.3 * np.sin(2 * np.pi * times / (3.5 * 86400.0)
                               + rng.uniform(0, 2 * np.pi))
    values = (capacity * drift * sizes / (sizes + 15.0 * MB)
              * rng.lognormal(0.0, 0.35, n))
    return Link(name, times, values, sizes)


#: The generated population is data, like the shipped logs: the same 64
#: histories in every run, so ``--seed`` varies the request stream and not
#: the size of the state it runs against.
POPULATION_SEED = 2002


def population(count: int) -> List[Link]:
    """``count`` generated links (the shipped logs are added separately)."""
    rng = np.random.default_rng([POPULATION_SEED, 1])
    return [make_history(rng, name, 1.01e9 + rng.uniform(0, 86400.0))
            for name in generated_names(count)]


def write_ulm(link: Link, path: Path) -> None:
    """Write a history as a ULM log the way GridFTP's logger lays it out."""
    lines = []
    for end, bw, size in zip(link.times, link.values, link.sizes):
        end, bw, size = float(end), float(bw), int(size)
        start = end - size / bw
        lines.append(
            f"DATE={end!r} HOST=bench.example.org PROG=gridftp LVL=INFO "
            f"GFTP.SRC=10.0.0.1 GFTP.FILE=/data/f{size} GFTP.NBYTES={size} "
            f"GFTP.VOLUME=/data GFTP.START={start!r} GFTP.END={end!r} "
            f"GFTP.BW={bw!r} GFTP.OP=read GFTP.STREAMS=8 GFTP.BUFFER=1000000"
        )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_ulm(path: Path, name: str) -> Link:
    """The (end time, bandwidth, size) columns of a ULM log, end-time sorted."""
    rows = []
    for line in path.read_text(encoding="utf-8").splitlines():
        fields = dict(part.split("=", 1) for part in line.split() if "=" in part)
        rows.append((float(fields["GFTP.END"]), float(fields["GFTP.BW"]),
                     int(fields["GFTP.NBYTES"])))
    rows.sort(key=lambda row: row[0])
    times, values, sizes = (np.array(col) for col in zip(*rows))
    return Link(name, times.astype(np.float64), values.astype(np.float64),
                sizes.astype(np.int64))


@dataclass
class Stream:
    """Generates a workload's rounds; tracks each link's last end time so
    observations arrive in order and anchors sit just after the data."""

    workload: str
    links: List[str]
    last_time: Dict[str, float]
    seed: int
    _rng: np.random.Generator = field(init=False)
    _zipf: np.ndarray = field(init=False)
    _order: List[str] = field(init=False)

    def __post_init__(self) -> None:
        self.shape = SHAPES[self.workload]
        self._rng = np.random.default_rng([self.seed, 2])
        # Which links are popular is part of the population, not of the
        # seed: link costs differ (history length, hit rate), and a hot
        # set drawn per seed moved a run's throughput by 15 %.
        popularity = np.random.default_rng([POPULATION_SEED, 3])
        self._order = [str(x) for x in popularity.permutation(self.links)]
        weights = 1.0 / np.arange(1, len(self.links) + 1) ** ZIPF_S
        self._zipf = weights / weights.sum()

    # -- draws ------------------------------------------------------------
    def _popular(self, k: int = 1, replace: bool = True) -> List[str]:
        idx = self._rng.choice(len(self._order), size=k, replace=replace,
                               p=self._zipf)
        return [self._order[i] for i in idx]

    def _size(self) -> int:
        return int(self._rng.choice(SIZES, p=SIZE_P))

    def _now(self, link: str) -> float:
        return self.last_time[link] + NOW_OFFSETS[
            int(self._rng.integers(len(NOW_OFFSETS)))]

    # -- requests ---------------------------------------------------------
    def predict(self) -> Op:
        link = self._popular()[0]
        return Op("predict", {"link": link, "size": self._size(),
                              "spec": BROKER_SPEC, "now": self._now(link)}, 1)

    def rank(self) -> Op:
        picks = self._popular(REPLICAS, replace=False)
        now = max(self.last_time[link] for link in picks) + NOW_OFFSETS[0]
        return Op("rank", {"candidates": picks, "size": self._size(),
                           "spec": BROKER_SPEC, "now": now}, len(picks))

    def sweep(self) -> Op:
        rng, count = self._rng, self.shape.sweep_items
        links = self._popular(count)
        sizes = rng.choice(SIZES, size=count, p=SIZE_P)
        specs = rng.integers(len(BATTERY), size=count)
        use_size = rng.random(count) < SIZE_SHARE
        offsets = rng.integers(len(NOW_OFFSETS), size=count)
        items = [
            {"link": link, "size": int(size),
             "spec": "SIZE" if plain else BATTERY[spec],
             "now": self.last_time[link] + NOW_OFFSETS[off]}
            for link, size, spec, plain, off
            in zip(links, sizes, specs, use_size, offsets)
        ]
        return Op("predict_batch", {"items": items}, count)

    def observe_batch(self) -> Op:
        """New in-order transfers on a uniform draw of links."""
        shape = self.shape
        chosen = [self.links[i] for i in self._rng.choice(
            len(self.links), size=shape.observe_links, replace=False)]
        per = shape.observe_items // shape.observe_links
        items = []
        for link in chosen:
            t = self.last_time[link]
            gaps = self._rng.exponential(40 * 60.0, per) + 30.0
            sizes = self._rng.choice(SIZES, size=per, p=SIZE_P)
            bws = (self._rng.uniform(4, 30) * MB * sizes / (sizes + 15.0 * MB)
                   * self._rng.lognormal(0.0, 0.35, per))
            for gap, size, bw in zip(gaps, sizes, bws):
                t += float(gap)
                size, bw = int(size), float(bw)
                items.append({"link": link, "size": size,
                              "start": t - size / bw, "end": t,
                              "bandwidth": bw})
            self.last_time[link] = t
        return Op("observe_batch", {"items": items}, len(items))

    def next_round(self) -> List[Op]:
        """One session's requests, in the order they are sent.

        The session opens with small answers, so its first sweep is the
        first response to outgrow the connection's encode buffer.
        """
        shape = self.shape
        ops: List[Op] = []
        for _ in range(shape.groups):
            obs = self.observe_batch() if shape.observe_items else None
            ops += [self.predict() for _ in range(shape.predicts)]
            ops += [self.rank() for _ in range(shape.ranks)]
            ops.append(self.sweep())
            if obs is not None:
                ops.append(obs)
        return ops
