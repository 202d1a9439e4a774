"""Command-line entry point.

::

    python -m repro demo                      # the paper's catalog scenario
    python -m repro blowup [n]                # Example 3.2 size table
    python -m repro xml FILE                  # parse & pretty-print a document
    python -m repro stats [--trace FILE] [--profile] [--caches] [--slo] [n]
                                              # run the catalog workload under
                                              # observability; dump metrics and
                                              # the span trace tree as JSON (and
                                              # raw events as JSONL to FILE);
                                              # --profile adds the aggregated
                                              # span profile to the document;
                                              # --caches runs with the perf
                                              # caches enabled and adds their
                                              # hit/miss statistics; --slo
                                              # evaluates the workload's trace
                                              # roots against the serve-mode
                                              # SLO objectives
    python -m repro profile [--json] [--top K] [n]
                                              # same workload, rendered as a
                                              # flame-style span profile with
                                              # the top-K hot call paths
    python -m repro explain refine|ask [--json] [n]
                                              # structured EXPLAIN of one
                                              # Refine step (Theorem 3.4) or
                                              # one q(T) evaluation (Thm 3.14)
    python -m repro export [--prometheus [FILE]] [--chrome FILE] [n]
                                              # run the workload and export
                                              # metrics in Prometheus text
                                              # format and/or the trace as
                                              # Chrome trace_event JSON
    python -m repro slo [--objective SPEC]... [--requests N] [--errors N]
                        [--slow-ms MS] [--degrade-on-burn] [n]
                                              # drive the in-process ops
                                              # pipeline (asks + injected 5xx)
                                              # and print the SLO burn-rate
                                              # state, trace keep books and
                                              # latency quantiles (/slo JSON);
                                              # --objective overrides the
                                              # defaults, e.g. availability:99
                                              # or latency:95:100ms:lossy
    python -m repro session SUBCOMMAND ...    # durable mediator sessions that
                                              # survive across invocations:
                                              #   create NAME [--products N] [--seed N]
                                              #   list | info NAME | delete NAME
                                              #   ask NAME QUERY | answer NAME QUERY
                                              #   compact NAME
                                              # all accept --root DIR (default
                                              # $REPRO_SESSION_ROOT or
                                              # ./.repro-sessions); QUERY is one
                                              # of q1..q4 or a path like
                                              # 'catalog/product/price[<300]'
    python -m repro serve [--host H] [--port P] [--session NAME]
                          [--root DIR] [--products N] [--seed N]
                          [--shards N] [--backend thread]
                          [--request-log FILE]
                          [--flight-ring N] [--slow-ms MS] [--head-rate R]
                          [--degrade-on-burn] [--once]
                                              # live ops plane (docs/OPS.md)
                                              # over a webhouse pool of
                                              # --shards N (default 1):
                                              # /healthz /statusz /metrics
                                              # /profile /sessions /ask?q=...
                                              # /slo /debug/flightrecorder
                                              # /debug/requests /debug/error;
                                              # --once probes every endpoint
                                              # and exits nonzero on failure;
                                              # /ask takes session=KEY
                                              # (routed) or none (fleet-wide
                                              # union, docs/CLUSTER.md);
                                              # without --session the pool is
                                              # in memory, session "demo"
                                              # holding Query 1; --session
                                              # NAME opens the durable pool
                                              # under --root, NAME included;
                                              # --backend takes only thread
                                              # (docs/PERFORMANCE.md);
                                              # --flight-ring sizes the trace
                                              # ring, --slow-ms the slow-trace
                                              # / latency-SLO threshold,
                                              # --head-rate the healthy-trace
                                              # keep rate (all three set the
                                              # flight recorder), and
                                              # --degrade-on-burn lets a
                                              # burning latency SLO apply its
                                              # paper remedy to every session;
                                              # --fault-plan SPEC arms a
                                              # deterministic fault plan
                                              # (docs/ROBUSTNESS.md), also
                                              # swappable live at
                                              # /debug/faults
    python -m repro chaos [--seed N] [--seeds A:B] [--soak SECONDS]
                          [--ops K] [--plan SPEC] [--root DIR] [--json]
                                              # seeded fault-injection chaos
                                              # cycles (docs/ROBUSTNESS.md):
                                              # record/crash/recover under a
                                              # deterministic fault plan,
                                              # asserting every recovery is
                                              # Theorem 3.5-equivalent to a
                                              # fault-free replay; exits
                                              # nonzero (and prints a one-line
                                              # repro) on any violation;
                                              # --soak runs seeds until the
                                              # time budget expires
"""

from __future__ import annotations

import os
import sys
from pathlib import Path


def _demo() -> int:
    from .mediator.source import InMemorySource
    from .mediator.webhouse import Webhouse
    from .workloads.catalog import (
        CATALOG_ALPHABET,
        catalog_type,
        demo_catalog,
        query1,
        query2,
        query3,
        query4,
    )

    tree_type = catalog_type()
    document = demo_catalog()
    source = InMemorySource(document, tree_type)
    webhouse = Webhouse(CATALOG_ALPHABET, tree_type=tree_type)
    print("asking Query 1 (cheap electronics) and Query 2 (pictured cameras)...")
    webhouse.ask(source, query1())
    webhouse.ask(source, query2())
    print(f"knowledge size: {webhouse.size()}")
    print(f"Query 3 answerable locally: {webhouse.can_answer(query3())}")
    sure, more = webhouse.answer_with_caveats(query4())
    names = sorted(
        sure.value(n) for n in sure.node_ids() if sure.label(n) == "name"
    )
    print(f"cameras known for sure: {names}; may be more: {more}")
    answer, plan = webhouse.complete_and_answer(source, query4())
    names = sorted(
        answer.value(n) for n in answer.node_ids() if answer.label(n) == "name"
    )
    print(f"after completion ({len(plan)} local queries): {names}")
    return 0


def _blowup(n: int) -> int:
    from .refine.conjunctive import refine_plus_sequence
    from .refine.refine import refine_sequence
    from .workloads.blowup import BLOWUP_ALPHABET, pair_queries

    print(f"{'n':>3}  {'plain':>8}  {'conjunctive':>11}")
    for i in range(1, n + 1):
        history = pair_queries(i)
        plain = refine_sequence(BLOWUP_ALPHABET, history).size()
        conj = refine_plus_sequence(BLOWUP_ALPHABET, history).size()
        print(f"{i:>3}  {plain:>8}  {conj:>11}")
    return 0


def _scripted_session(products: int):
    """The scripted catalog webhouse session every diagnostics command
    runs: acquisition, local answering, prefix checks, completion.

    Must run under an enabled obs capture; returns the webhouse (its
    stats and the global obs state carry the results).
    """
    from .mediator.source import InMemorySource
    from .mediator.webhouse import Webhouse
    from .core.tree import DataTree, node
    from .workloads.catalog import (
        CATALOG_ALPHABET,
        catalog_type,
        generate_catalog,
        query1,
        query2,
        query3,
        query4,
    )

    tree_type = catalog_type()
    document = generate_catalog(products, seed=products)
    source = InMemorySource(document, tree_type)
    webhouse = Webhouse(CATALOG_ALPHABET, tree_type=tree_type)
    webhouse.ask(source, query1())
    webhouse.ask(source, query2())
    webhouse.can_answer(query3())
    webhouse.possible_answers(query4())
    # a structured prefix check, so the matching counters light up
    probe = DataTree.build(
        node(
            "cat0",
            "catalog",
            0,
            [node("ghost", "product", 0, [node("gp", "price", 999)])],
        )
    )
    webhouse.is_possible_prefix(probe)
    webhouse.is_certain_prefix(probe)
    webhouse.complete_and_answer(source, query4())
    return webhouse


def _take_flag(args: list[str], flag: str) -> bool:
    if flag in args:
        args.remove(flag)
        return True
    return False


def _take_value(args: list[str], flag: str) -> "str | None":
    """Pop ``flag VALUE``; raises ValueError when the value is missing."""
    if flag not in args:
        return None
    position = args.index(flag)
    if position + 1 >= len(args):
        raise ValueError(f"{flag} needs a value")
    value = args[position + 1]
    del args[position : position + 2]
    return value


def _positional_products(args: list[str], usage: str) -> int:
    if any(a.startswith("-") for a in args) or len(args) > 1:
        raise ValueError(usage)
    if args and not (args[0].isdigit() and int(args[0]) > 0):
        raise ValueError(usage)
    return int(args[0]) if args else 10


def _stats(args: list[str]) -> int:
    """Run the catalog workload under observability, dump JSON.

    The output document has three top-level keys: ``webhouse`` (the
    warehouse's own :meth:`Webhouse.stats`), ``metrics`` (global
    counters/histograms, including the per-record knowledge-size series)
    and ``trace`` (the span trees).  With ``--trace FILE`` the raw event
    stream is additionally written to FILE as JSON lines; with
    ``--profile`` the aggregated span profile is added under
    ``profile``.  With ``--caches`` the workload runs with the
    :mod:`repro.perf` caches enabled and their hit/miss statistics are
    added under ``caches``.  With ``--slo`` every finished trace root is
    replayed into an :class:`~repro.obs.slo.SloEngine` against the
    serve-mode default objectives and the burn-rate snapshot is added
    under ``slo``.
    """
    import json
    from contextlib import nullcontext

    from . import obs
    from . import perf

    usage = "usage: python -m repro stats [--trace FILE] [--profile] [--caches] [--slo] [n]"
    args = list(args)
    try:
        with_profile = _take_flag(args, "--profile")
        with_caches = _take_flag(args, "--caches")
        with_slo = _take_flag(args, "--slo")
        trace_file = _take_value(args, "--trace")
        products = _positional_products(args, usage)
    except ValueError:
        print(usage, file=sys.stderr)
        return 2

    ring = obs.RingBufferSink()
    jsonl = obs.JsonLinesSink(trace_file) if trace_file is not None else None
    sink = obs.TeeSink(ring, jsonl) if jsonl is not None else ring

    obs.reset()
    if with_caches:
        perf.clear_caches()
    with obs.capture(sink), (perf.cached() if with_caches else nullcontext()):
        webhouse = _scripted_session(products)
        payload = {
            "workload": {"name": "catalog", "products": products},
            "webhouse": webhouse.stats(),
        }
        if with_caches:
            payload["caches"] = perf.cache_stats()
    payload.update(obs.snapshot())
    if with_profile:
        payload["profile"] = obs.profile_traces(obs.traces()).to_dict()
    if with_slo:
        from .obs.slo import SloEngine, default_objectives

        engine = SloEngine(default_objectives())
        for root in obs.traces():
            if root.end is not None:
                engine.record(200, max(0.0, root.end - root.start))
        payload["slo"] = engine.snapshot()
    if jsonl is not None:
        jsonl.close()
    print(json.dumps(payload, indent=2, sort_keys=True, default=str))
    return 0


def _profile_cmd(args: list[str]) -> int:
    """Aggregated span profile of the scripted workload."""
    import json

    from . import obs

    usage = "usage: python -m repro profile [--json] [--top K] [n]"
    args = list(args)
    try:
        as_json = _take_flag(args, "--json")
        top_text = _take_value(args, "--top")
        top = int(top_text) if top_text is not None else 10
        products = _positional_products(args, usage)
    except ValueError:
        print(usage, file=sys.stderr)
        return 2

    obs.reset()
    with obs.capture():
        _scripted_session(products)
        prof = obs.profile()
    if as_json:
        print(json.dumps(prof.to_dict(), indent=2, sort_keys=True, default=str))
        return 0
    print(f"# span profile — catalog workload, {products} products")
    print(prof.render())
    print(f"\n# top {top} hot paths (by self time)")
    for path, calls, total, self_s in prof.hot_paths(top):
        print(f"  {self_s:>9.6f}s self  {total:>9.6f}s total  x{calls:<4} {' > '.join(path)}")
    return 0


def _explain_cmd(args: list[str]) -> int:
    """EXPLAIN one Refine step or one q(T) evaluation."""
    from . import obs
    from .refine.refine import refine_sequence
    from .workloads.catalog import (
        CATALOG_ALPHABET,
        catalog_type,
        generate_catalog,
        query1,
        query2,
        query4,
    )

    usage = "usage: python -m repro explain {refine|ask} [--json] [n]"
    args = list(args)
    try:
        as_json = _take_flag(args, "--json")
        if not args or args[0] not in ("refine", "ask"):
            raise ValueError(usage)
        operation = args.pop(0)
        products = _positional_products(args, usage)
    except ValueError:
        print(usage, file=sys.stderr)
        return 2

    document = generate_catalog(products, seed=products)
    history = [(query1(), query1().evaluate(document))]
    if operation == "refine":
        # the refine step needs a refinable (not type-intersected) operand
        knowledge = refine_sequence(CATALOG_ALPHABET, history)
        explanation, _ = obs.explain_refine(
            knowledge, query2(), query2().evaluate(document), CATALOG_ALPHABET
        )
    else:
        knowledge = refine_sequence(
            CATALOG_ALPHABET, history, tree_type=catalog_type()
        )
        explanation, _ = obs.explain_ask(knowledge, query4())
    print(explanation.to_json() if as_json else explanation.render())
    return 0


def _export_cmd(args: list[str]) -> int:
    """Run the scripted workload, export Prometheus text / Chrome trace.

    ``--prometheus`` without a FILE writes the text exposition to
    stdout; with a FILE it writes there.  The exposition renders the
    process book and the perf caches' books.  ``--chrome FILE`` writes
    the trace-event JSON.  With neither flag, defaults to
    ``--prometheus``.
    """
    from pathlib import Path as _Path

    from . import obs, perf

    usage = "usage: python -m repro export [--prometheus [FILE]] [--chrome FILE] [n]"
    args = list(args)
    try:
        chrome_file = _take_value(args, "--chrome")
        prometheus = _take_flag(args, "--prometheus")
        prometheus_file = None
        # optional FILE operand directly after --prometheus
        if prometheus and args and not args[0].isdigit():
            prometheus_file = args.pop(0)
        products = _positional_products(args, usage)
    except ValueError:
        print(usage, file=sys.stderr)
        return 2
    if not prometheus and chrome_file is None:
        prometheus = True

    obs.reset()
    with obs.capture():
        _scripted_session(products)
        roots = obs.traces()
        text = obs.prometheus_text(obs.metrics, perf.cache_metrics())
    if prometheus:
        obs.validate_prometheus_text(text)
        if prometheus_file is not None:
            _Path(prometheus_file).write_text(text, encoding="utf-8")
            print(f"wrote prometheus text exposition to {prometheus_file}", file=sys.stderr)
        else:
            print(text, end="")
    if chrome_file is not None:
        count = obs.write_chrome_trace(chrome_file, roots)
        print(f"wrote {count} trace events to {chrome_file}", file=sys.stderr)
    return 0


def _slo_cmd(args: list[str]) -> int:
    """Drive the in-process ops pipeline; print the ``/slo`` document.

    Builds a one-shard demo pool and an unbound :class:`OpsServer`,
    pushes ``--requests`` sessionless asks (cycling q1..q4) plus
    ``--errors`` injected 5xx through the same dispatch /
    finish_request pipeline the HTTP handler runs, then prints the
    ``/slo`` JSON.  With the default burn thresholds ``--errors 25`` is
    enough to trip the availability objective's burn alert.
    ``--objective`` (repeatable) replaces the default objectives with
    parsed specs.
    """
    from . import obs
    from .obs.slo import DEFAULT_SLOW_S, Objective, SloEngine
    from .ops import FlightRecorder, OpsServer, demo_cluster, drive_request

    usage = (
        "usage: python -m repro slo [--objective SPEC]... [--requests N] "
        "[--errors N] [--slow-ms MS] [--degrade-on-burn] [n]"
    )
    args = list(args)
    try:
        degrade = _take_flag(args, "--degrade-on-burn")
        specs: list[str] = []
        while True:
            spec = _take_value(args, "--objective")
            if spec is None:
                break
            specs.append(spec)
        requests = int(_take_value(args, "--requests") or "40")
        errors = int(_take_value(args, "--errors") or "0")
        slow_ms = float(_take_value(args, "--slow-ms") or DEFAULT_SLOW_S * 1000)
        if requests < 0 or errors < 0 or slow_ms <= 0:
            raise ValueError(usage)
        products = _positional_products(args, usage)
        objectives = [Objective.parse(spec) for spec in specs]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(usage, file=sys.stderr)
        return 2

    obs.enable(obs.NullSink())
    cluster, source = demo_cluster(1, products)
    server = OpsServer(
        cluster,
        source=source,
        recorder=FlightRecorder(slow_s=slow_ms / 1000.0),
        degrade_on_burn=degrade,
        slo=SloEngine(objectives) if objectives else None,
    )
    queries = ("q1", "q2", "q3", "q4")
    for index in range(requests):
        drive_request(server, f"/ask?q={queries[index % len(queries)]}")
    for _ in range(errors):
        drive_request(server, "/debug/error")
    status, body = drive_request(server, "/slo")
    print(body, end="")
    return 0 if status == 200 else 1


def _session_cmd(args: list[str]) -> int:
    """Durable sessions over the catalog workload (see docs/PERSISTENCE.md).

    The session's meta remembers the synthetic source (``--products``,
    ``--seed``), so every later invocation regenerates the same document
    and the journaled knowledge stays consistent with it.
    """
    import json

    from .core.parsing import parse_query_spec
    from .mediator.webhouse import Webhouse
    from .store import SessionStore, StoreError
    from .workloads.catalog import (
        CATALOG_ALPHABET,
        catalog_type,
        hinted_source,
        named_queries,
    )

    usage = (
        "usage: python -m repro session "
        "{create|list|ask|answer|compact|info|delete} [NAME] [QUERY] "
        "[--root DIR] [--products N] [--seed N]"
    )
    args = list(args)
    try:
        root = _take_value(args, "--root") or os.environ.get(
            "REPRO_SESSION_ROOT", ".repro-sessions"
        )
        products = int(_take_value(args, "--products") or "10")
        seed = int(_take_value(args, "--seed") or "0")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(usage, file=sys.stderr)
        return 2
    if not args:
        print(usage, file=sys.stderr)
        return 2
    subcommand, positional = args[0], args[1:]
    store = SessionStore(root)

    try:
        if subcommand == "create":
            if len(positional) != 1:
                raise ValueError("create needs exactly one session NAME")
            session = store.create(
                positional[0],
                CATALOG_ALPHABET,
                tree_type=catalog_type(),
                extra={"workload": {"name": "catalog", "products": products, "seed": seed}},
            )
            session.close()
            print(
                json.dumps(
                    {"created": positional[0], "root": store.root,
                     "products": products, "seed": seed}
                )
            )
            return 0
        if subcommand == "list":
            names = store.list_sessions()
            print(json.dumps({"root": store.root, "sessions": names}))
            return 0
        if subcommand == "delete":
            if len(positional) != 1:
                raise ValueError("delete needs exactly one session NAME")
            store.delete(positional[0])
            print(json.dumps({"deleted": positional[0]}))
            return 0
        if subcommand in ("ask", "answer", "compact", "info"):
            if not positional:
                raise ValueError(f"{subcommand} needs a session NAME")
            name = positional[0]
            webhouse = Webhouse.resume(store, name)
            try:
                if subcommand == "ask":
                    if len(positional) != 2:
                        raise ValueError("ask needs NAME and QUERY")
                    query = parse_query_spec(positional[1], named=named_queries())
                    answer = webhouse.ask(
                        hinted_source(webhouse.source_hint(), products, seed), query
                    )
                    print(
                        json.dumps(
                            {
                                "session": name,
                                "answer_nodes": len(answer),
                                "knowledge_size": webhouse.size(),
                                "queries_recorded": len(webhouse.history),
                            }
                        )
                    )
                elif subcommand == "answer":
                    if len(positional) != 2:
                        raise ValueError("answer needs NAME and QUERY")
                    query = parse_query_spec(positional[1], named=named_queries())
                    sure, may_have_more = webhouse.answer_with_caveats(query)
                    print(
                        json.dumps(
                            {
                                "session": name,
                                "answerable": not may_have_more,
                                "sure_nodes": len(sure),
                                "may_have_more": may_have_more,
                                "queries_recorded": len(webhouse.history),
                            }
                        )
                    )
                elif subcommand == "compact":
                    webhouse.checkpoint()
                    print(json.dumps({"session": name, **webhouse.session.info()}))
                else:  # info
                    print(
                        json.dumps(
                            {**webhouse.session.info(), **webhouse.stats()},
                            sort_keys=True,
                        )
                    )
            finally:
                webhouse.detach()
            return 0
        print(f"unknown session subcommand {subcommand!r}", file=sys.stderr)
        print(usage, file=sys.stderr)
        return 2
    except (StoreError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _serve_cmd(args: list[str]) -> int:
    """The live ops plane: serve a webhouse pool over HTTP (docs/OPS.md).

    The server fronts a pool of ``--shards`` shards (default 1,
    docs/CLUSTER.md): ``/ask`` routes ``session=KEY`` through the
    consistent-hash ring and answers fleet-wide without one.  Without
    ``--session`` the pool is in memory, even when ``--root`` is given,
    with Query 1 recorded into session ``demo`` (``--products`` and
    ``--seed`` shape the catalog).  ``--session NAME`` opens the durable
    pool under ``--root`` instead: every session there is resumed on its
    routed shard and held (writer locks taken for the server's
    lifetime) and NAME must be one of them.  Each session fetches from
    the catalog its own workload hint names; new sessions observe NAME's
    catalog and are stamped with its hint, so later invocations
    regenerate the same document.  Every shard runs in this
    process (docs/PERFORMANCE.md records why).  ``--once`` starts the
    server, probes every endpoint from inside the process (reads only),
    prints the report and exits nonzero on any failure, no sleep/poll
    loop needed.
    """
    import json

    from . import obs
    from . import perf
    from .cluster import ShardedWebhouse
    from .obs.slo import DEFAULT_SLOW_S
    from .ops import FlightRecorder, OpsServer, RequestLog, demo_cluster, self_check
    from .store import SessionStore, StoreError
    from .workloads.catalog import CATALOG_ALPHABET, catalog_type, hinted_source

    usage = (
        "usage: python -m repro serve [--host H] [--port P] [--session NAME] "
        "[--root DIR] [--products N] [--seed N] [--shards N] "
        "[--backend thread] "
        "[--request-log FILE] [--flight-ring N] [--slow-ms MS] "
        "[--head-rate R] [--degrade-on-burn] [--fault-plan SPEC] [--once]"
    )
    args = list(args)
    try:
        once = _take_flag(args, "--once")
        degrade_on_burn = _take_flag(args, "--degrade-on-burn")
        host = _take_value(args, "--host") or "127.0.0.1"
        port = int(_take_value(args, "--port") or "0")
        session_name = _take_value(args, "--session")
        root = _take_value(args, "--root") or os.environ.get(
            "REPRO_SESSION_ROOT", ".repro-sessions"
        )
        products = int(_take_value(args, "--products") or "8")
        seed = _take_value(args, "--seed")
        shards = int(_take_value(args, "--shards") or "1")
        backend = _take_value(args, "--backend") or "thread"
        log_path = _take_value(args, "--request-log")
        slow_ms = float(_take_value(args, "--slow-ms") or DEFAULT_SLOW_S * 1000)
        recorder = FlightRecorder(
            capacity=int(_take_value(args, "--flight-ring") or "64"),
            head_rate=float(_take_value(args, "--head-rate") or "1.0"),
            slow_s=slow_ms / 1000.0,
        )
        fault_spec = _take_value(args, "--fault-plan")
        if args:
            raise ValueError(usage)
        if shards < 1:
            raise ValueError("--shards needs a positive count")
        if backend != "thread":
            raise ValueError(
                f"--backend {backend!r} is not available: only 'thread' "
                "remains (see docs/PERFORMANCE.md)"
            )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(usage, file=sys.stderr)
        return 2

    fault_plan = None
    if fault_spec is not None:
        from .faults.plan import FaultError, FaultPlan

        try:
            fault_plan = FaultPlan.parse(fault_spec)
        except FaultError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    obs.enable(obs.NullSink())
    perf.enable_caches()
    store = SessionStore(root)
    if session_name is None:
        cluster, source = demo_cluster(
            shards, products, seed=None if seed is None else int(seed)
        )
    else:
        try:
            hint = store.peek(session_name)["workload"] or {}
            workload = {
                "name": "catalog",
                "products": int(hint.get("products", 10)),
                "seed": int(hint.get("seed", 0)),
            }
            cluster = ShardedWebhouse(
                CATALOG_ALPHABET,
                tree_type=catalog_type(),
                shards=shards,
                store=store,
                session_extra={"workload": workload},
            )
        except StoreError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        source = hinted_source(workload)
    server = OpsServer(
        cluster,
        source=source,
        store=store,
        session_name=session_name,
        host=host,
        port=port,
        recorder=recorder,
        request_log=RequestLog(path=log_path),
        degrade_on_burn=degrade_on_burn,
        fault_plan=fault_plan,
    )
    try:
        if once:
            server.start()
            ok, report = self_check(server.url)
            print(
                json.dumps(
                    {"url": server.url, "ok": ok, "probes": report},
                    indent=2,
                    sort_keys=True,
                )
            )
            server.stop()
            return 0 if ok else 1
        server._bind()
        print(
            f"repro ops plane listening on {server.url} ({shards}-shard pool)",
            file=sys.stderr,
        )
        print(
            f"  endpoints: /healthz /statusz /metrics /profile /sessions "
            f"/ask?q=q1 /slo /debug/flightrecorder /debug/requests /debug/faults",
            file=sys.stderr,
        )
        server.serve_forever()
        return 0
    finally:
        cluster.close()


def _chaos_cmd(args: list[str]) -> int:
    """Seeded chaos cycles (docs/ROBUSTNESS.md): crash-recover under a
    deterministic fault plan, checking Theorem 3.5 equivalence after
    every recovery.  Exits 1 and prints each failing cycle's one-line
    repro command on any violation — paste it to replay the exact
    schedule.  ``--soak SECONDS`` keeps consuming seeds until the time
    budget runs out (the CI chaos-smoke job runs a 30s soak).
    """
    import json
    import tempfile
    import time as _time

    from .faults.chaos import run_chaos_cycle
    from .faults.plan import FaultError, FaultPlan

    usage = (
        "usage: python -m repro chaos [--seed N] [--seeds A:B] "
        "[--soak SECONDS] [--ops K] [--plan SPEC] [--root DIR] [--json]"
    )
    args = list(args)
    try:
        as_json = _take_flag(args, "--json")
        seed = _take_value(args, "--seed")
        seeds = _take_value(args, "--seeds")
        soak = _take_value(args, "--soak")
        ops = int(_take_value(args, "--ops") or "8")
        plan_spec = _take_value(args, "--plan")
        root = _take_value(args, "--root")
        if args:
            raise ValueError(usage)
        if sum(x is not None for x in (seed, seeds, soak)) > 1:
            raise ValueError("--seed, --seeds and --soak are mutually exclusive")
        if seeds is not None and ":" not in seeds:
            raise ValueError("--seeds wants a range like 0:50")
        if plan_spec is not None:
            FaultPlan.parse(plan_spec)  # validate early, reuse per cycle below
    except (ValueError, FaultError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(usage, file=sys.stderr)
        return 2

    def cycle(seed_value: int, directory: str):
        plan = None if plan_spec is None else FaultPlan.parse(plan_spec)
        return run_chaos_cycle(seed_value, directory, ops=ops, plan=plan)

    results = []
    with tempfile.TemporaryDirectory() as tmp:
        directory = root if root is not None else tmp
        if seed is not None:
            results.append(cycle(int(seed), directory))
        elif seeds is not None:
            low, high = (int(part) for part in seeds.split(":", 1))
            for value in range(low, high):
                results.append(cycle(value, directory))
        elif soak is not None:
            budget = float(soak)
            started = _time.monotonic()
            value = 0
            while _time.monotonic() - started < budget:
                results.append(cycle(value, directory))
                value += 1
        else:
            results.extend(cycle(value, directory) for value in range(10))

    failures = [result for result in results if not result.ok]
    summary = {
        "cycles": len(results),
        "records": sum(r.records for r in results),
        "crashes": sum(r.crashes for r in results),
        "recoveries": sum(r.recoveries for r in results),
        "faults_fired": sum(r.faults_fired for r in results),
        "equivalence_checks": sum(r.checks for r in results),
        "violations": sum(len(r.violations) for r in results),
        "failures": [r.to_json() for r in failures],
        "ok": not failures,
    }
    if as_json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        print(
            f"chaos: {summary['cycles']} cycles, {summary['records']} records, "
            f"{summary['crashes']} crashes, {summary['faults_fired']} faults "
            f"fired, {summary['equivalence_checks']} equivalence checks, "
            f"{summary['violations']} violations"
        )
        for result in failures:
            print(f"FAIL seed={result.seed}: {result.violations[0]}")
            print(f"  repro: {result.repro()}")
    return 0 if not failures else 1


def _xml(path: str) -> int:
    from .core.xml_io import tree_from_xml

    tree = tree_from_xml(Path(path).read_text())
    print(tree.pretty())
    return 0


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] in ("-h", "--help"):
        print(__doc__)
        return 0 if len(argv) >= 2 else 2
    command = argv[1]
    if command == "demo":
        return _demo()
    if command == "blowup":
        n = int(argv[2]) if len(argv) > 2 else 8
        return _blowup(n)
    if command == "stats":
        return _stats(argv[2:])
    if command == "profile":
        return _profile_cmd(argv[2:])
    if command == "explain":
        return _explain_cmd(argv[2:])
    if command == "export":
        return _export_cmd(argv[2:])
    if command == "slo":
        return _slo_cmd(argv[2:])
    if command == "session":
        return _session_cmd(argv[2:])
    if command == "serve":
        return _serve_cmd(argv[2:])
    if command == "chaos":
        return _chaos_cmd(argv[2:])
    if command == "xml":
        if len(argv) < 3:
            print("usage: python -m repro xml FILE", file=sys.stderr)
            return 2
        return _xml(argv[2])
    print(f"unknown command {command!r}", file=sys.stderr)
    print(__doc__)
    return 2


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
