"""The four served workloads: sessions, request streams, and the oracle.

A workload fixes its catalog: the product count and :data:`CATALOG_SEED`
are passed to ``serve`` as ``--products/--seed``, since the server has
no upload path.  The catalog is pinned because the engine's cost per
request depends strongly on which catalog it gets: across ten catalog
seeds the in-process cost of one fleet-wide ask ranged from 25 to 46 ms
on the same host, far wider than any regression bound.  Everything else
is generated here from ``--seed``: which specs each tenant session
records and every query draw.  The server sees only the resulting HTTP
requests.

A request carries the key its expected response is computed from: the
session's history at that moment plus the spec.  :class:`Oracle`
recomputes every expectation with an in-process ``Webhouse`` /
``ShardedWebhouse`` whose perf caches are off, so a memo bug in the
served program cannot hide behind the same memo in the checker.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple
from urllib.parse import quote

#: The fleet's recorded specs (the eight ``bench_e13_cluster.py`` uses).
SPECS = (
    "q1",
    "q2",
    "q3",
    "q4",
    "catalog/product/price[<100]",
    "catalog/product/price[<300]",
    "catalog/product/price[<500]",
    "catalog/product/name",
)

#: ``serve --shards`` for every workload.
SHARDS = 4

#: ``serve --seed``: the catalog every workload serves (the serve default).
CATALOG_SEED = 7

#: Distinct threshold draws per connection on ``read_cold`` before the
#: stream cycles: a reuse distance of 1024 requests, twice the 512-entry
#: ``query_incomplete`` memo, so a cycled draw still misses; the cap
#: bounds the oracle's work.
COLD_POOL = 1024

#: The session ``serve`` pre-records Query 1 into (``demo_cluster``).
DEMO = "demo"


@dataclass(frozen=True)
class Workload:
    name: str
    products: int
    sessions: int
    specs_per_session: int
    #: percentile level of ``ask_tail_ms``: one that leaves at least ten
    #: samples beyond it in a 10 s window even on a host half as fast as
    #: the 2-CPU one it was chosen on
    tail: float
    #: connections that seed the sessions.  On 128 products a Refine
    #: (10-80 ms) holds the interpreter lock long enough to delay a
    #: concurrent fetch by whole 4 ms timer steps, so read_cold's seeding
    #: fetch median swung 56-92 ms between seeds; on 32 products Refine
    #: takes ~3 ms and two connections halve the set-up time
    seeders: int
    #: connections that drive the warmup and the window, at most the
    #: host's two CPUs.  Where a request costs the server tens of ms of
    #: CPU (read_cold, fleet), two connections keep it busy while each
    #: waits out its stall, and the figures followed this host's speed
    #: drift in full (fleet rps spread 17-30% over ten runs, read_cold
    #: ask_p50_ms 13%).  With one, the server idles through each stall
    #: and the same drift moves the figures about half as much
    connections: int


#: Why each exists is in BENCHMARK.json and README.md.
WORKLOADS: Dict[str, Workload] = {
    wl.name: wl
    for wl in (
        Workload("read_hot", 32, 32, 2, 0.95, 2, 2),
        Workload("read_cold", 128, 16, 3, 0.90, 1, 1),
        Workload("ingest", 32, 32, 2, 0.90, 2, 2),
        # a small catalog keeps a fleet ask near 28 ms of server CPU;
        # 32 sessions keep three seeding fetches in four memo hits, so
        # the fetch median does not sit between cheap and full fetches
        Workload("fleet", 16, 32, 2, 0.90, 2, 1),
    )
}


@dataclass(frozen=True)
class Request:
    """One HTTP request plus the key of its expected response.

    ``kind`` is ``ask`` (keyed local read), ``fleet`` (session-less
    read), ``fetch`` (``mode=fetch`` ingest) or ``probe``.  ``history``
    is the session's recorded specs *before* this request (for ``fleet``
    the sorted histories of every session), which with ``spec``
    determines the expected response.
    """

    kind: str
    path: str
    spec: str = ""
    key: str = ""
    history: Tuple = ()


def _path(spec: str, key: str = "", fetch: bool = False) -> str:
    path = f"/ask?q={quote(spec, safe='')}"
    if key:
        path += f"&session={key}"
    if fetch:
        path += "&mode=fetch"
    return path


def ask(key: str, history: Tuple[str, ...], spec: str) -> Request:
    return Request("ask", _path(spec, key), spec, key, history)


def fetch(key: str, history: Tuple[str, ...], spec: str) -> Request:
    return Request("fetch", _path(spec, key, fetch=True), spec, key, history)


class Plan:
    """The seeded request plan of one workload run."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.seed = seed
        rng = random.Random(f"{workload.name}/{seed}/sessions")
        # every workload records the same multiset of histories (runs of
        # consecutive specs, each run equally often); the seed decides
        # which tenant gets which.  A session's cost depends strongly on
        # its spec combination, so a seed-drawn mix would move the metrics
        histories = [
            tuple(SPECS[(i + j) % len(SPECS)] for j in range(workload.specs_per_session))
            for i in range(workload.sessions)
        ]
        rng.shuffle(histories)
        self.tenants: Dict[str, Tuple[str, ...]] = {
            f"t{index:03d}": history for index, history in enumerate(histories)
        }

    def fleet_histories(self) -> Tuple[Tuple[str, Tuple[str, ...]], ...]:
        """Every session of a seeded server, the ``demo`` one included."""
        return tuple(sorted({**self.tenants, DEMO: ("q1",)}.items()))

    def seeding(self) -> List[List[Request]]:
        """Per seeding connection, the fetches that record every tenant's
        specs.  Tenants are dealt round-robin, so each tenant's fetches
        stay in order on one connection."""
        streams: List[List[Request]] = [[] for _ in range(self.workload.seeders)]
        for index, (key, specs) in enumerate(self.tenants.items()):
            for j, spec in enumerate(specs):
                streams[index % len(streams)].append(fetch(key, specs[:j], spec))
        return streams

    def streams(self, connections: int) -> List[Iterator[Request]]:
        """Per-connection request streams for warmup, window and ladder."""
        name = self.workload.name
        rngs = [
            random.Random(f"{name}/{self.seed}/conn{c}") for c in range(connections)
        ]
        if name == "read_cold":
            return [itertools.cycle(self._cold_pool(rng)) for rng in rngs]
        if name == "fleet":
            # the connections start half a cycle apart, so the warmup
            # touches every spec within a few requests
            histories = self.fleet_histories()
            start = rngs[0].randrange(len(SPECS))
            return [
                (
                    Request("fleet", _path(spec), spec, "", histories)
                    for spec in itertools.islice(
                        itertools.cycle(SPECS),
                        start + c * len(SPECS) // connections,
                        None,
                    )
                )
                for c in range(connections)
            ]
        if name == "ingest":
            return [self._onboarding(rngs[0])] + [
                self._hot(rng, c, connections - 1) for c, rng in enumerate(rngs[1:])
            ]
        return [self._hot(rng, c, connections) for c, rng in enumerate(rngs)]

    # Streams are built from shuffled blocks that each hold every choice
    # once, so any stretch of a window sees the workload's mix; iid draws
    # leave ~5% sampling error in a run's mean cost on read_cold, whose
    # per-request cost has a standard deviation of ~70% of its mean.

    def _hot(self, rng: random.Random, part: int, parts: int) -> Iterator[Request]:
        pairs = [(key, spec) for key, specs in sorted(self.tenants.items()) for spec in specs]
        # the first block is this connection's share of the pairs, so
        # together the connections' warmups ask every pair once
        first = pairs[part::parts]
        rng.shuffle(first)
        for key, spec in first:
            yield ask(key, self.tenants[key], spec)
        while True:
            rng.shuffle(pairs)
            for key, spec in pairs:
                yield ask(key, self.tenants[key], spec)

    def _cold_pool(self, rng: random.Random) -> List[Request]:
        # a block pairs each (tenant, form) with one threshold, drawn from
        # its own stratum of [10, 1000) and jittered within it
        combos = [(key, bar) for key in sorted(self.tenants) for bar in ("", "~")]
        strata = len(combos)
        pool: List[Request] = []
        while len(pool) < COLD_POOL:
            thresholds = [10 + int((i + rng.random()) * 990 / strata) for i in range(strata)]
            rng.shuffle(thresholds)
            block = list(zip(combos, thresholds))
            rng.shuffle(block)
            for (key, bar), limit in block:
                pool.append(ask(key, self.tenants[key], f"catalog/product/{bar}price[<{limit}]"))
        return pool

    def _onboarding(self, rng: random.Random) -> Iterator[Request]:
        # each fresh session records two distinct specs and is never used
        # again: re-recording a pair grows knowledge faster with every
        # repeat (x1.25 up to x2.2), so a stationary write stream needs
        # bounded per-session histories
        pairs = list(itertools.permutations(SPECS, 2))
        index = 0
        while True:
            rng.shuffle(pairs)
            for first, second in pairs:
                key = f"new{index:05d}"
                index += 1
                yield fetch(key, (), first)
                yield fetch(key, (first,), second)


class Oracle:
    """Expected responses, computed in-process with the caches off.

    Imports ``repro`` lazily: the harness puts the checkout's ``src`` on
    the path only after checking that it exists.
    """

    def __init__(self, products: int):
        from repro.cluster.ring import Router
        from repro.core.parsing import parse_query_spec
        from repro.mediator.source import InMemorySource
        from repro.workloads.catalog import (
            catalog_type,
            generate_catalog,
            query1,
            query2,
            query3,
            query4,
        )

        named = {"q1": query1, "q2": query2, "q3": query3, "q4": query4}
        self._parse = lambda spec: parse_query_spec(spec, named=named)
        self._tree_type = catalog_type()
        self.source = InMemorySource(
            generate_catalog(products, seed=CATALOG_SEED), self._tree_type
        )
        self._router = Router(SHARDS)
        self._engines: Dict[Tuple[str, ...], object] = {}
        self._memo: Dict[Tuple, Dict[str, object]] = {}
        #: one fleet per run: every fleet request sees the same sessions
        self._cluster = None

    def _engine(self, history: Tuple[str, ...]):
        engine = self._engines.get(history)
        if engine is None:
            from repro.mediator.webhouse import Webhouse
            from repro.workloads.catalog import CATALOG_ALPHABET

            engine = Webhouse(CATALOG_ALPHABET, tree_type=self._tree_type)
            for spec in history:
                engine.ask(self.source, self._parse(spec))
            engine.prepare()
            self._engines[history] = engine
        return engine

    def expected(self, request: Request) -> Dict[str, object]:
        """The response fields ``request`` must come back with."""
        import repro.perf as perf

        memo_key = (request.kind, request.history, request.spec)
        if memo_key not in self._memo:
            with perf.uncached():
                self._memo[memo_key] = self._compute(request)
        found = dict(self._memo[memo_key])
        if request.kind in ("ask", "fetch"):
            found["shard"] = self._router.route(request.key)
        return found

    def _compute(self, request: Request) -> Dict[str, object]:
        if request.kind == "fetch":
            query = self._parse(request.spec)
            after = self._engine(request.history + (request.spec,))
            return {
                "answer_nodes": len(self.source.ask(query)),
                "knowledge_size": after.size(),
                "queries_recorded": len(after.history),
            }
        if request.kind == "ask":
            engine = self._engine(request.history)
            sure, more = engine.answer_with_caveats(self._parse(request.spec))
            return {
                "sure_nodes": len(sure),
                "may_have_more": more,
                "knowledge_size": engine.size(),
                "queries_recorded": len(engine.history),
            }
        if request.kind == "fleet":
            return self._fleet(request.history, request.spec)
        raise ValueError(f"no oracle for {request.kind!r}")

    def _fleet(self, histories, spec: str) -> Dict[str, object]:
        if self._cluster is None:
            from repro.cluster import ShardedWebhouse
            from repro.workloads.catalog import CATALOG_ALPHABET

            self._cluster = ShardedWebhouse(
                CATALOG_ALPHABET, tree_type=self._tree_type, shards=SHARDS
            )
            for key, specs in histories:
                for recorded in specs:
                    self._cluster.ask(key, self.source, self._parse(recorded))
        sure, more = self._cluster.ask_all(self._parse(spec))
        return {
            "sure_nodes": len(sure),
            "may_have_more": more,
            "sessions": len(self._cluster),
            "knowledge_size": self._cluster.size(),
        }

    def close(self) -> None:
        """Stop the fleet oracle's executor threads, if one was built."""
        if self._cluster is not None:
            self._cluster.close()
            self._cluster = None


def mismatch(got: Optional[Dict[str, object]], want: Dict[str, object]) -> str:
    """Empty when ``got`` carries every expected field; else the diff."""
    if got is None:
        return "response body is not a JSON object"
    wrong = [
        f"{field}={got.get(field)!r} (want {value!r})"
        for field, value in want.items()
        if got.get(field) != value
    ]
    return ", ".join(wrong)
