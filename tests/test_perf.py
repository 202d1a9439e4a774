"""Unit tests for ``repro.perf``: LRU memo tables, the intern pool, the
global switch, and the batched ``Webhouse.record_many`` fast path."""

from __future__ import annotations

import json

import pytest

import repro.obs as obs
import repro.perf as perf
from repro.core.conditions import Cond
from repro.mediator.webhouse import Webhouse
from repro.perf.memo import MISS, LRUCache
from repro.perf.state import STATE, TABLE_CAPACITIES
from repro.workloads.catalog import (
    CATALOG_ALPHABET,
    catalog_type,
    demo_catalog,
    query1,
    query2,
)


class TestLRUCache:
    def test_miss_then_hit(self):
        cache = LRUCache("t", capacity=4)
        assert cache.get("k") is MISS
        cache.put("k", 42)
        assert cache.get("k") == 42
        assert cache.hits == 1 and cache.misses == 1

    def test_caches_none_distinctly_from_miss(self):
        cache = LRUCache("t", capacity=4)
        cache.put("k", None)
        assert cache.get("k") is None

    def test_eviction_is_lru(self):
        cache = LRUCache("t", capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh "a": now "b" is least recent
        cache.put("c", 3)
        assert "b" not in cache
        assert cache.get("a") == 1 and cache.get("c") == 3
        assert cache.evictions == 1

    def test_put_refreshes_recency(self):
        cache = LRUCache("t", capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)  # rewrite refreshes
        cache.put("c", 3)
        assert "b" not in cache and cache.get("a") == 10

    def test_get_or_put_returns_first_instance(self):
        cache = LRUCache("t", capacity=4)
        first = ("x",)
        second = ("x",)  # equal, not identical
        assert cache.get_or_put("k", first) is first
        assert cache.get_or_put("k", second) is first

    def test_stats_and_reset(self):
        cache = LRUCache("t", capacity=2)
        cache.get("missing")
        cache.put("a", 1)
        cache.get("a")
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["size"] == 1 and stats["capacity"] == 2
        assert cache.hit_rate == pytest.approx(0.5)
        cache.reset_stats()
        assert cache.hits == cache.misses == 0
        cache.clear()
        assert len(cache) == 0

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            LRUCache("t", capacity=0)


class TestGlobalSwitch:
    def test_default_off(self):
        assert not perf.caches_enabled()

    def test_context_managers_restore(self):
        with perf.cached():
            assert perf.caches_enabled()
            with perf.uncached():
                assert not perf.caches_enabled()
            assert perf.caches_enabled()
        assert not perf.caches_enabled()

    def test_all_configured_tables_exist(self):
        for name in TABLE_CAPACITIES:
            assert STATE.caches[name].capacity == TABLE_CAPACITIES[name]

    def test_cache_stats_shape(self):
        perf.clear_caches()
        stats = perf.cache_stats()
        assert set(stats) == {"enabled", "tables", "intern"}
        assert set(stats["tables"]) == set(TABLE_CAPACITIES)
        assert set(stats["intern"]) == {"cond", "atom", "disjunction"}
        json.dumps(stats)  # exporter-ready

    def test_clear_caches_empties_tables(self):
        with perf.cached():
            STATE.caches["matching"].put("probe", 1)
        perf.clear_caches()
        assert len(STATE.caches["matching"]) == 0

    def test_hit_counters_live_in_the_tables(self):
        """The tables' own books are the only cache counters: lookups
        show in cache_stats() and add nothing to the obs registry."""
        perf.clear_caches()
        table = STATE.caches["matching"]
        table.reset_stats()
        with obs.capture(), perf.cached():
            table.get("nope")
            table.put("probe", 1)
            table.get("probe")
            counters = obs.snapshot()["metrics"]["counters"]
        stats = perf.cache_stats()["tables"]["matching"]
        perf.clear_caches()
        assert (stats["hits"], stats["misses"]) == (1, 1)
        assert not any(name.startswith("cache.") for name in counters)


class TestWebhouseRecordMany:
    def _history(self):
        doc = demo_catalog()
        q1, q2 = query1(), query2()
        return [(q1, q1.evaluate(doc)), (q2, q2.evaluate(doc))]

    def test_equivalent_to_sequential_record(self):
        from repro.incomplete.certainty import incomplete_equivalent

        history = self._history()
        one = Webhouse(CATALOG_ALPHABET)
        for query, answer in history:
            one.record(query, answer)
        many = Webhouse(CATALOG_ALPHABET)
        many.record_many(history)
        assert incomplete_equivalent(one.knowledge, many.knowledge)
        assert one.history == many.history

    def test_duplicates_merged_before_refine(self):
        history = self._history()
        wh = Webhouse(CATALOG_ALPHABET)
        obs.reset()
        with obs.capture():
            wh.record_many(history + [history[0]])  # one duplicate pair
        # history keeps the raw input stream, duplicates included
        assert len(wh.history) == 3
        assert obs.metrics.value("webhouse.records") == 3
        assert obs.metrics.value("webhouse.batches") == 1
        obs.reset()

    def test_empty_batch_is_a_noop(self):
        wh = Webhouse(CATALOG_ALPHABET)
        wh.record_many([])
        assert wh.history == ()

    def test_batch_then_answer_locally(self):
        wh = Webhouse(CATALOG_ALPHABET)
        wh.record_many(self._history())
        assert wh.can_answer(query1())
        assert not wh.answer_locally(query1()).is_empty()

    def test_batch_under_caching_matches_uncached(self):
        from repro.incomplete.certainty import incomplete_equivalent

        history = self._history()
        perf.clear_caches()
        with perf.uncached():
            plain = Webhouse(CATALOG_ALPHABET)
            plain.record_many(history)
        with perf.cached():
            cached = Webhouse(CATALOG_ALPHABET)
            cached.record_many(history)
        perf.clear_caches()
        assert incomplete_equivalent(plain.knowledge, cached.knowledge)


class TestCliCachesFlag:
    def test_stats_caches_payload(self, capsys):
        from repro.__main__ import main

        assert main(["repro", "stats", "--caches", "3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        caches = doc["caches"]
        assert caches["enabled"] is True
        assert "matching" in caches["tables"]
        total = sum(
            t["hits"] + t["misses"] for t in caches["tables"].values()
        )
        assert total > 0

    def test_stats_without_flag_has_no_cache_section(self, capsys):
        from repro.__main__ import main

        assert main(["repro", "stats", "3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "caches" not in doc


class TestMemoryBound:
    def test_served_reads_plateau(self):
        """Memory is bounded by the tables' constants, not by traffic:
        under ``serve``'s configuration, fresh-threshold keyed reads
        stop growing the heap once the bounded tables fill (about 10
        blocks per request here, against over 60 while q(T) results and
        whole types were kept)."""
        import gc
        import sys

        from repro.ops import OpsServer, demo_cluster, drive_request

        cluster, source = demo_cluster(1, products=8)
        server = OpsServer(cluster, source=source)

        def reads(thresholds):
            for t in thresholds:
                path = f"/ask?q=catalog/product/price[%3C{t}]&session=demo"
                assert drive_request(server, path)[0] == 200

        kept, obs.STATE.max_traces = obs.STATE.max_traces, 0
        obs.enable(obs.NullSink())
        perf.clear_caches()
        try:
            with perf.cached():
                reads(range(800))
                gc.collect()
                before = sys.getallocatedblocks()
                reads(range(800, 1200))
                gc.collect()
                grown = sys.getallocatedblocks() - before
        finally:
            obs.disable()
            obs.reset()
            obs.STATE.max_traces = kept
            perf.clear_caches()
            cluster.close()
        assert grown / 400 < 30, f"{grown / 400:.1f} blocks per request"

    def test_onboarded_sessions_share_their_knowledge(self):
        """A session whose history another already derived publishes that
        value, answers and all, and keeps none of its own: under
        ``serve``'s configuration, onboarding sessions that each fetch
        one of 12 two-step histories keeps about 33 blocks per session
        (35 on Python 3.10), against 88 (118) while each session built
        and kept its own value."""
        import gc
        import itertools
        import sys

        from repro.ops import OpsServer, demo_cluster, drive_request

        cluster, source = demo_cluster(1, products=8)
        server = OpsServer(cluster, source=source)
        histories = list(itertools.permutations(("q1", "q2", "q3", "q4"), 2))
        keys = itertools.count()

        def onboard(sessions):
            for _ in range(sessions):
                index = next(keys)
                for spec in histories[index % len(histories)]:
                    path = f"/ask?q={spec}&session=new{index:05d}&mode=fetch"
                    assert drive_request(server, path)[0] == 200

        kept, obs.STATE.max_traces = obs.STATE.max_traces, 0
        obs.enable(obs.NullSink())
        perf.clear_caches()
        try:
            with perf.cached():
                onboard(100)
                gc.collect()
                before = sys.getallocatedblocks()
                onboard(200)
                gc.collect()
                grown = sys.getallocatedblocks() - before
        finally:
            obs.disable()
            obs.reset()
            obs.STATE.max_traces = kept
            perf.clear_caches()
            cluster.close()
        assert grown / 200 < 50, f"{grown / 200:.1f} blocks per session"
