"""The admin/ops HTTP server: a live surface over a running webhouse pool.

Zero dependencies — stdlib :mod:`http.server` with a threading mixin —
exposing the observability stack while requests are in flight:

==========================  ====================================================
``/healthz``                liveness probe (``ok``)
``/statusz``                per-shard pool rollup + server books, JSON
``/metrics``                Prometheus text: process book + this scrape's books
``/profile``                span profile of the flight recorder's held traces
``/sessions``               durable-store listing (read-only peek, no locks)
``/ask?q=SPEC``             answer a path query, per session or fleet-wide
``/slo``                    SLO burn-rate state + trace keep books, JSON
``/debug/flightrecorder``   held traces as Chrome trace-event JSON
``/debug/requests``         recent structured request-log records, JSON
``/debug/error``            fault injection: fail with ``?status=`` (default 500)
``/debug/faults``           inspect or live-swap the installed fault plan
==========================  ====================================================

Every request runs under a :class:`~repro.ops.trace.request_trace`: a
fresh ``trace_id`` is bound to the handler thread's context, stamped on
every engine span the request triggers (the shard tasks of a fleet-wide
``/ask`` included), returned in the ``X-Repro-Trace-Id`` response
header and written to the structured request log.  The finished request
is offered to the :class:`~repro.ops.flight.FlightRecorder`, the one
trace book: it decides whether to keep the trace (errored/shed/slow
always, healthy ones at the head rate), counts that decision, holds the
whole tree (errored traces longest), and names the trace-id exemplars
``/metrics`` links to from the traces it holds.  ``contextvars``
isolation means concurrent requests can never adopt each other's spans.

Latency has one book: the ``ops.request`` root span observes the
``latency.seconds`` family with ``path=<matched route>`` (:data:`UNMATCHED`
for any other path), read back by ``/metrics`` and ``/slo`` while span
collection is on, as ``serve`` and ``slo`` keep it.  The SLO burn-rate
windows and the recorder's keep books run regardless of the obs flag.
With ``degrade_on_burn`` a burning latency SLO applies its paper remedy
to every hosted session (:meth:`ShardedWebhouse.apply_remedy` —
conjunctive / linear / lossy).

The server fronts one :class:`~repro.cluster.sharded.ShardedWebhouse`.
The paper's mediator keeps one incomplete tree per interaction (§3.4),
so a server hosting one session is a pool holding one session, served
the same way.  ``/ask?q=SPEC&session=KEY`` is routed through the
consistent-hash ring; ``/ask`` *without* a session answers fleet-wide
(scatter-gather certain-answer union); ``/statusz`` carries the
per-shard rollup and ``/metrics`` the ``repro_shard_*`` series, read
into a registry of the scrape's own, so a server exposes only its own
pool's shards.  The server holds no engine lock of its own: every engine access passes the
pool's per-shard admission gate, circuit breaker and readers-writer
lock, and an overloaded shard surfaces as HTTP 503 with a
``Retry-After`` hint (:class:`~repro.cluster.admission.ShardOverloaded`).
The read endpoints over the obs state (profile, flight recorder) never
touch the engines.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from .. import perf
from ..cluster import ShardedWebhouse, ShardOverloaded
from ..cluster.sharded import cluster_latency
from ..core.parsing import parse_query_spec
from ..faults.inject import (
    FaultInjected,
    armed as _faults_armed,
    check_site as _check_site,
    fault_scope,
)
from ..faults.plan import FaultError, FaultPlan
from ..faults.policies import CircuitOpen, DeadlineExceeded
from ..mediator.source import InMemorySource
from ..obs.export import prometheus_text
from ..obs.profile import profile_traces
from ..obs.registry import Metrics, merged_summary
from ..obs.slo import SloAlert, SloEngine, default_objectives
from ..obs.spans import LATENCY, add_attrs
from ..obs.state import STATE as _OBS
from ..workloads.catalog import hinted_source, named_queries
from .flight import FlightRecorder
from .reqlog import RequestLog
from .trace import request_trace

#: JSON content type used by every structured endpoint.
_JSON = "application/json"
_PROM = "text/plain; version=0.0.4; charset=utf-8"
_TEXT = "text/plain; charset=utf-8"

#: The ``path`` label of every request no route matches.
UNMATCHED = "unmatched"


class OpsError(Exception):
    """A request that cannot be served; carries the HTTP status."""

    def __init__(
        self, status: int, message: str, headers: Optional[Dict[str, str]] = None
    ):
        super().__init__(message)
        self.status = status
        #: Extra response headers (e.g. ``Retry-After`` on a 503).
        self.headers: Dict[str, str] = dict(headers or {})


def demo_cluster(
    shards: int = 4,
    products: int = 8,
    seed: Optional[int] = None,
    tenants: int = 0,
) -> Tuple[ShardedWebhouse, InMemorySource]:
    """An in-memory sharded catalog pool + source for serving.

    Pre-records Query 1 into session ``"demo"`` (the session the
    self-check probes), plus ``tenants`` extra sessions named
    ``tenant-N`` so several shards hold knowledge from the first
    scrape.  All sessions observe the same generated document — the
    Section 1 scenario — so fleet-wide ``/ask`` unions compose.
    """
    from ..workloads.catalog import (
        CATALOG_ALPHABET,
        catalog_type,
        generate_catalog,
        query1,
    )

    tree_type = catalog_type()
    document = generate_catalog(products, seed=7 if seed is None else seed)
    source = InMemorySource(document, tree_type)
    cluster = ShardedWebhouse(CATALOG_ALPHABET, tree_type=tree_type, shards=shards)
    cluster.ask("demo", source, query1())
    for tenant in range(tenants):
        cluster.ask(f"tenant-{tenant}", source, query1())
    return cluster, source


class _OpsHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True
    # socketserver's default listen backlog is 5; a burst of concurrent
    # clients (each urllib request opens a fresh connection) overflows
    # it, the kernel drops the SYN, and the client stalls a full
    # retransmit timeout (~1s) — visible as second-long outliers under
    # load.  Size the backlog for bursts instead.
    request_queue_size = 128
    ops: "OpsServer"


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-ops/1.0"
    protocol_version = "HTTP/1.1"

    # the default handler logs every request to stderr; the ops plane
    # has its own structured request log
    def log_message(self, format: str, *args: object) -> None:
        pass

    def do_GET(self) -> None:
        self._handle()

    def do_HEAD(self) -> None:
        self._handle(send_body=False)

    def _handle(self, send_body: bool = True) -> None:
        def respond(status, body, ctype, headers, handle) -> None:
            payload = body.encode("utf-8")
            try:
                self.send_response(status)
                self.send_header("Content-Type", ctype)
                self.send_header("Content-Length", str(len(payload)))
                self.send_header("X-Repro-Trace-Id", handle.trace_id)
                for name, value in headers.items():
                    self.send_header(name, value)
                self.end_headers()
                if send_body:
                    self.wfile.write(payload)
            except (BrokenPipeError, ConnectionResetError):
                handle.annotate(error="ClientDisconnected")

        _serve(self.server.ops, self.command, self.path, respond)  # type: ignore[attr-defined]


def _serve(
    ops: "OpsServer", method: str, target: str, respond: Optional[Callable] = None
) -> Tuple[int, str]:
    """One request's trace, dispatch and error mapping: the body of both
    the HTTP handler and :func:`drive_request`.

    Any exception out of dispatch becomes an error response (an
    :class:`OpsError` its own status and headers, anything else a 500).
    ``respond(status, body, content_type, headers, handle)`` writes the
    response inside the trace; ``finish_request`` (flight recorder,
    request log, SLO engine) runs after it.  Returns
    ``(status, body)``.
    """
    parsed = urlsplit(target)
    started = time.perf_counter()
    extras: Dict[str, object] = {}
    headers: Dict[str, str] = {}
    labels = {"path": ops.route(parsed.path)}
    with request_trace("ops.request", labels=labels, method=method, path=parsed.path) as handle:
        try:
            status, body, ctype = ops.dispatch(parsed.path, parse_qs(parsed.query), extras)
        except Exception as exc:
            status = 500
            if isinstance(exc, OpsError):
                status = exc.status
                headers.update(exc.headers)
            body = json.dumps({"error": str(exc), "status": status}) + "\n"
            ctype = _JSON
            handle.annotate(error=type(exc).__name__, error_message=str(exc))
        handle.annotate(status=status)
        if respond is not None:
            respond(status, body, ctype, headers, handle)
    ops.finish_request(
        method, parsed.path, status, time.perf_counter() - started, handle, extras
    )
    return status, body


class OpsServer:
    """The live ops plane around one
    :class:`~repro.cluster.sharded.ShardedWebhouse` (by default a
    one-shard :func:`demo_cluster`).

    ``start()`` binds and serves from a daemon thread (``port=0`` picks
    a free port); ``serve_forever()`` blocks instead.  All endpoint
    handlers run on the server's handler threads.  The server holds no
    engine lock: the pool's per-shard locks and admission gates guard
    every engine access.
    """

    def __init__(
        self,
        cluster: Optional[ShardedWebhouse] = None,
        source: Optional[InMemorySource] = None,
        store=None,
        session_name: Optional[str] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        recorder: Optional[FlightRecorder] = None,
        request_log: Optional[RequestLog] = None,
        slo: Optional[SloEngine] = None,
        degrade_on_burn: bool = False,
        fault_plan: Optional[FaultPlan] = None,
    ):
        if cluster is None:
            cluster, source = demo_cluster(shards=1)
        self.cluster = cluster
        self.source = source
        self.store = store
        self.session_name = session_name
        self.recorder = recorder if recorder is not None else FlightRecorder()
        self.request_log = request_log if request_log is not None else RequestLog()
        self.slo = (
            slo
            if slo is not None
            else SloEngine(default_objectives(self.recorder.slow_s))
        )
        self.degrade_on_burn = bool(degrade_on_burn)
        #: the installed fault plan; armed per dispatched request (the
        #: handler pool's threads see it through :func:`fault_scope`).
        #: Swap or clear it live via ``/debug/faults``.
        self.fault_plan = fault_plan
        #: remedies actually applied by a burning latency SLO, in order
        self.remedies_applied: list = []
        if self.degrade_on_burn:
            self.slo.set_degrade(self._degrade_for_burn)
        self._host = host
        self._port = port
        self._httpd: Optional[_OpsHTTPServer] = None
        self._thread: Optional[threading.Thread] = None
        self._started_at: Optional[float] = None
        self._routes = {
            "/healthz": self._handle_healthz,
            "/statusz": self._handle_statusz,
            "/metrics": self._handle_metrics,
            "/profile": self._handle_profile,
            "/sessions": self._handle_sessions,
            "/ask": self._handle_ask,
            "/slo": self._handle_slo,
            "/debug/flightrecorder": self._handle_flightrecorder,
            "/debug/requests": self._handle_requests,
            "/debug/error": self._handle_debug_error,
            "/debug/faults": self._handle_debug_faults,
        }

    # -- lifecycle --------------------------------------------------------------

    def _bind(self) -> None:
        if self._httpd is None:
            self._httpd = _OpsHTTPServer((self._host, self._port), _Handler)
            self._httpd.ops = self
            self._started_at = time.time()

    def start(self) -> "OpsServer":
        """Bind and serve from a daemon thread; returns self."""
        self._bind()
        assert self._httpd is not None
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="repro-ops-server",
            daemon=True,
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Bind and serve on the calling thread (Ctrl-C to stop)."""
        self._bind()
        assert self._httpd is not None
        try:
            self._httpd.serve_forever(poll_interval=0.2)
        except KeyboardInterrupt:  # pragma: no cover - interactive
            pass
        finally:
            self.stop()

    def stop(self) -> None:
        httpd, self._httpd = self._httpd, None
        if httpd is not None:
            httpd.shutdown()
            httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None
        self.request_log.close()

    @property
    def address(self) -> Tuple[str, int]:
        if self._httpd is None:
            raise RuntimeError("server is not bound; call start()")
        host, port = self._httpd.server_address[:2]
        return str(host), int(port)

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    @property
    def uptime_s(self) -> float:
        return 0.0 if self._started_at is None else time.time() - self._started_at

    # -- request plumbing -------------------------------------------------------

    def route(self, path: str) -> str:
        """The route ``path`` dispatches to, or :data:`UNMATCHED` — the
        bounded ``path`` label of the request's latency and exemplars
        (the recorder reads it off the held root's labels)."""
        route = path.rstrip("/") or "/"
        return route if route in self._routes else UNMATCHED

    def dispatch(
        self, path: str, params: Dict[str, list], extras: Dict[str, object]
    ) -> Tuple[int, str, str]:
        """Route one request; returns ``(status, body, content_type)``.

        The installed fault plan (if any) is armed for the duration of
        the request, so injection sites anywhere below — the store, the
        cluster, or the ``ops.request`` site consulted right here — see
        it on this handler thread.  Injected failures surface as real
        HTTP statuses (5xx feeding the SLO burn engine), never as
        unhandled exceptions.
        """
        handler = self._routes.get(path.rstrip("/") or "/")
        if handler is None:
            raise OpsError(404, f"no such endpoint {path!r}")
        try:
            with fault_scope(self.fault_plan):
                if _faults_armed():
                    fault = _check_site("ops.request")
                    if fault is not None and fault.effect == "status":
                        raise OpsError(
                            fault.status, f"injected fault ({fault.rule.spec()})"
                        )
                return handler(params, extras)
        except ShardOverloaded as exc:
            # one hot shard degrades loudly; the rest of the fleet is fine
            raise OpsError(503, str(exc), headers={"Retry-After": "1"})
        except CircuitOpen as exc:
            raise OpsError(
                503, str(exc), headers={"Retry-After": f"{exc.cooldown_s:g}"}
            )
        except DeadlineExceeded as exc:
            raise OpsError(504, str(exc))
        except FaultInjected as exc:
            raise OpsError(500, str(exc))

    def finish_request(
        self,
        method: str,
        path: str,
        status: int,
        duration_s: float,
        handle,
        extras: Dict[str, object],
    ) -> None:
        """Post-response bookkeeping: flight recorder, request log, SLO
        engine, request counters.

        The recorder decides and books whether the trace is kept
        (errored/shed/slow always, healthy traffic at the head rate) and
        holds it; the request log and the SLO burn windows are fed
        unconditionally.  The request's latency is already booked: its
        root span closed before this runs.
        """
        self.recorder.offer(handle, status, duration_s)
        self.request_log.log(method, path, status, duration_s, handle.trace_id, **extras)
        self.slo.record(status, duration_s)
        if _OBS.enabled:
            _OBS.metrics.inc("ops.http.requests")
            _OBS.metrics.inc(f"ops.http.status.{status // 100}xx")

    def _degrade_for_burn(self, alert: SloAlert) -> None:
        """The SLO degrade hook: apply the alert's paper remedy.

        Wired only when ``degrade_on_burn`` is set.  The remedy reaches
        every session on every shard, each under its shard's write lock
        (:meth:`ShardedWebhouse.apply_remedy`).
        """
        remedy = alert.remedy
        if remedy is None:
            return
        self.cluster.apply_remedy(remedy)
        self.remedies_applied.append(remedy)
        if _OBS.enabled:
            _OBS.metrics.inc(f"ops.slo.degrade.{remedy}")

    # -- endpoints --------------------------------------------------------------

    def _handle_healthz(self, params, extras) -> Tuple[int, str, str]:
        return 200, "ok\n", _TEXT

    def _handle_statusz(self, params, extras) -> Tuple[int, str, str]:
        document = {
            "service": "repro-ops",
            "pid": __import__("os").getpid(),
            "uptime_s": round(self.uptime_s, 3),
            "session_name": self.session_name,
            "observability_enabled": _OBS.enabled,
            "caches": self._cache_summary(),
            "flight_recorder": self.recorder.stats(),
            "requests_logged": self.request_log.logged,
            "slo_burning": self.slo.burning(),
            "cluster": dict(self.cluster.stats_all(), latency=cluster_latency()),
            "shards": self.cluster.shards,
        }
        return 200, json.dumps(document, sort_keys=True, default=str) + "\n", _JSON

    def _cache_summary(self) -> Dict[str, object]:
        stats = perf.cache_stats()
        return {
            "enabled": stats["enabled"],
            "hits": sum(t["hits"] for t in stats["tables"].values()),
            "misses": sum(t["misses"] for t in stats["tables"].values()),
            "evictions": sum(t["evictions"] for t in stats["tables"].values()),
        }

    def _handle_metrics(self, params, extras) -> Tuple[int, str, str]:
        return 200, prometheus_text(_OBS.metrics, self._scrape_metrics()), _PROM

    def _scrape_metrics(self) -> Metrics:
        """This scrape's point-in-time books, in a fresh registry that
        ``/metrics`` renders beside the process book of events: the perf
        caches, uptime, the pool rollup, the recorder's keep counts and
        exemplars, and the SLO books.  None of it outlives the scrape."""
        scrape = perf.cache_metrics()
        scrape.set_gauge("ops.uptime_seconds", round(self.uptime_s, 3))
        rollup = self.cluster.stats_all()
        for name in ("shards", "sessions", "knowledge_size"):
            scrape.set_gauge(f"cluster.{name}", rollup[name])
        for stats in rollup["per_shard"]:
            prefix = f"shard.{stats['shard']}"
            for name in ("sessions", "knowledge_size", "queries_recorded"):
                scrape.set_gauge(f"{prefix}.{name}", stats[name])
            for name in ("in_flight", "admitted", "shed"):
                scrape.set_gauge(f"{prefix}.{name}", stats["admission"][name])
        books = self.recorder.stats()
        scrape.inc("trace_sampler.kept", books["kept"])
        scrape.inc("trace_sampler.dropped", books["dropped"])
        for row in self.recorder.exemplars():
            value = row.pop("value")
            scrape.set_gauge(
                "http.exemplar_seconds", value, **{k: str(v) for k, v in row.items()}
            )
        scrape.inc("slo.alerts", len(self.slo.alerts))
        burning = set(self.slo.burning())
        for objective in self.slo.objectives:
            scrape.set_gauge(
                "slo.burning", int(objective.name in burning), objective=objective.name
            )
        return scrape

    def _handle_profile(self, params, extras) -> Tuple[int, str, str]:
        """The span profile of the traces ``/debug/flightrecorder`` shows."""
        profile = profile_traces(self.recorder.roots())
        return 200, json.dumps(profile.to_dict(), sort_keys=True, default=str) + "\n", _JSON

    def _handle_sessions(self, params, extras) -> Tuple[int, str, str]:
        store = self.store
        document = {
            "root": None if store is None else store.root,
            "hosted": self.session_name,
            "sessions": [] if store is None else [
                store.peek(name) for name in store.list_sessions()
            ],
            "cluster_sessions": self.cluster.sessions(),
        }
        return 200, json.dumps(document, sort_keys=True, default=str) + "\n", _JSON

    def _handle_ask(self, params, extras) -> Tuple[int, str, str]:
        """Answer one query: routed by session key, or fleet-wide.

        ``session=KEY`` answers (or, with ``mode=fetch``, ingests) for
        exactly one session, routed through the consistent-hash ring.
        Without a session, ``mode=local`` unions the certain answers of
        every session in the fleet; fleet-wide fetch is refused — there
        is no single session whose knowledge the answer would refine.
        """
        specs = params.get("q")
        if not specs or not specs[0]:
            raise OpsError(400, "missing query parameter q (q1..q4 or a slash path)")
        spec = specs[0]
        mode = (params.get("mode") or ["local"])[0]
        if mode not in ("local", "fetch"):
            raise OpsError(400, f"unknown mode {mode!r} (local|fetch)")
        try:
            query = parse_query_spec(spec, named=named_queries())
        except ValueError as exc:
            raise OpsError(400, f"bad query {spec!r}: {exc}")
        document: Dict[str, object] = {"query": spec, "mode": mode}
        keys = params.get("session")
        if keys and keys[0]:
            key = keys[0]
            try:
                shard = self.cluster.shard_of(key)
            except ValueError as exc:
                raise OpsError(400, str(exc))
            if mode == "fetch":
                info = self.cluster.ask_info(key, self._fetch_source(key), query)
                document["answer_nodes"] = len(info["answer"])
            else:
                info = self.cluster.answer_info(key, query)
                document["sure_nodes"] = len(info["sure"])
                document["may_have_more"] = info["may_have_more"]
            document.update(
                session=key,
                shard=shard,
                knowledge_size=info["knowledge_size"],
                queries_recorded=info["queries_recorded"],
            )
        elif mode == "fetch":
            raise OpsError(400, "mode=fetch needs a session=KEY")
        else:
            info = self.cluster.ask_all_info(query)
            document.update(
                scope="fleet",
                sessions=info["sessions_answered"],
                shards=self.cluster.shards,
                sure_nodes=len(info["sure"]),
                may_have_more=info["may_have_more"],
                knowledge_size=info["knowledge_size"],
                degraded=info["degraded"],
                failed_shards=info["failed_shards"],
            )
            if info["degraded"]:
                # which shards, and why: on the trace root and in the log
                degraded = {"degraded": True, "failed_shards": info["failed_shards"]}
                add_attrs(**degraded)
                extras.update(degraded)
        extras["knowledge_size"] = document["knowledge_size"]
        extras["query"] = spec
        return 200, json.dumps(document, sort_keys=True) + "\n", _JSON

    def _fetch_source(self, key: str) -> InMemorySource:
        """The document a keyed fetch for ``key`` asks.

        A durable session remembers the catalog it was created over
        (:meth:`Webhouse.source_hint`), and its history must stay over
        that one document, so it is fetched from the catalog its hint
        names.  A session without a hint (in memory, or not created
        yet) observes the served source.
        """
        if self.source is None:
            raise OpsError(409, "no source attached; mode=fetch unavailable")
        if self.cluster.store is not None:
            engine = self.cluster.engine(key)
            hint = {} if engine is None else engine.source_hint()
            if hint:
                return hinted_source(hint)
        return self.source

    def _handle_slo(self, params, extras) -> Tuple[int, str, str]:
        """Burn-rate state, trace keep books, and latency quantiles, JSON.

        ``latency`` holds the ``ops.request`` layer per route plus
        ``all``, their merge; ``cluster_latency`` one entry per cluster
        op.  Both read the ``latency.seconds`` family.
        """
        requests = [
            h for h in _OBS.metrics.family(LATENCY, layer="ops.request") if "path" in h.labels
        ]
        latency = {h.labels["path"]: h.sketch.summary() for h in requests}
        latency["all"] = merged_summary(requests)
        document = {
            "slo": self.slo.snapshot(),
            "sampler": self.recorder.stats(),
            "degrade_on_burn": self.degrade_on_burn,
            "remedies_applied": list(self.remedies_applied),
            "latency": latency,
            "cluster_latency": cluster_latency(),
        }
        return 200, json.dumps(document, sort_keys=True, default=str) + "\n", _JSON

    def _handle_debug_error(self, params, extras) -> Tuple[int, str, str]:
        """Fault injection: fail deliberately so burn alerts are testable.

        ``?status=`` picks the failure code (5xx only; default 500).
        The CI slo-smoke job bursts this endpoint and asserts the
        availability objective trips a burn-rate alert end-to-end.
        """
        raw = (params.get("status") or ["500"])[0]
        try:
            status = int(raw)
        except ValueError:
            raise OpsError(400, f"bad status {raw!r}")
        if not 500 <= status <= 599:
            raise OpsError(400, f"status must be 5xx, got {status}")
        raise OpsError(status, "induced failure (debug/error fault injection)")

    def _handle_debug_faults(self, params, extras) -> Tuple[int, str, str]:
        """Inspect or live-swap the server's fault plan.

        * plain GET — report the installed plan and its per-rule books;
        * ``?plan=SPEC`` — parse and install a new plan (400 on a bad
          spec; the grammar is in docs/ROBUSTNESS.md);
        * ``?reset=1`` — rewind the installed plan's trigger state;
        * ``?disarm=1`` — remove the plan entirely.

        The mutation applies to requests dispatched after this one —
        including this response's own bookkeeping, which runs with the
        *previous* plan still armed.
        """
        if params.get("disarm"):
            self.fault_plan = None
        spec = (params.get("plan") or [None])[0]
        if spec:
            try:
                self.fault_plan = FaultPlan.parse(spec)
            except FaultError as exc:
                raise OpsError(400, f"bad fault plan: {exc}")
        if params.get("reset") and self.fault_plan is not None:
            self.fault_plan.reset()
        plan = self.fault_plan
        document = {
            "armed": plan is not None,
            "plan": None if plan is None else plan.spec(),
            "rules": [] if plan is None else plan.stats(),
            "fires": 0 if plan is None else plan.fires(),
        }
        return 200, json.dumps(document, sort_keys=True, default=str) + "\n", _JSON

    def _handle_flightrecorder(self, params, extras) -> Tuple[int, str, str]:
        document = self.recorder.chrome_trace()
        return 200, json.dumps(document, sort_keys=True, default=str) + "\n", _JSON

    def _handle_requests(self, params, extras) -> Tuple[int, str, str]:
        limits = params.get("limit") or ["100"]
        try:
            limit = max(1, int(limits[0]))
        except ValueError:
            raise OpsError(400, f"bad limit {limits[0]!r}")
        document = {"requests": self.request_log.recent(limit)}
        return 200, json.dumps(document, sort_keys=True, default=str) + "\n", _JSON


def drive_request(server: OpsServer, path: str) -> Tuple[int, str]:
    """Run one ``GET`` through the full in-process pipeline, no socket.

    Exactly what the HTTP handler does minus the framing — the same
    :func:`_serve` body: trace, dispatch, error mapping, then
    ``finish_request``.  The CLI ``slo`` command and the telemetry
    benchmarks use it to drive the always-on pipeline
    deterministically.  Returns ``(status, body)``.
    """
    return _serve(server, "GET", path)


# -- self-check ------------------------------------------------------------------

#: Endpoints ``self_check`` probes, with their validator kind.  Every
#: probe reads, so a self-check never writes into a durable root: the
#: routed ask names the ``demo`` session :func:`demo_cluster` records,
#: and a pool without it answers from zero knowledge.
_PROBES = (
    ("/healthz", "text"),
    ("/statusz", "json"),
    ("/metrics", "prometheus"),
    ("/profile", "json"),
    ("/sessions", "json"),
    ("/ask?q=q1", "json"),
    ("/ask?q=q1&session=demo", "json"),
    ("/ask?q=q2", "json"),
    ("/slo", "json"),
    ("/debug/flightrecorder", "chrome"),
    ("/debug/requests", "json"),
    ("/debug/faults", "json"),
)


def self_check(base_url: str, timeout: float = 5.0):
    """Probe every endpoint of a live server and validate the payloads.

    Returns ``(ok, report)`` where ``report`` is one row per probe:
    ``{"endpoint", "status", "ok", "trace_id", "detail"}``.  Used by
    ``python -m repro serve --once`` so CI smoke tests need no
    sleep/poll loop — the server process checks itself and exits
    nonzero on any failure.
    """
    import urllib.request

    from ..obs.export import validate_chrome_trace, validate_prometheus_text

    report = []
    all_ok = True
    for endpoint, kind in _PROBES:
        row = {"endpoint": endpoint, "status": 0, "ok": False, "trace_id": None, "detail": ""}
        try:
            with urllib.request.urlopen(base_url + endpoint, timeout=timeout) as resp:
                body = resp.read().decode("utf-8")
                row["status"] = resp.status
                row["trace_id"] = resp.headers.get("X-Repro-Trace-Id")
            if row["status"] != 200:
                raise ValueError(f"status {row['status']}")
            if not row["trace_id"]:
                raise ValueError("missing X-Repro-Trace-Id header")
            if kind == "json":
                json.loads(body)
            elif kind == "prometheus":
                samples = validate_prometheus_text(body)
                if not any(name.startswith("repro_cache_") for name in samples):
                    raise ValueError("no repro_cache_* series in /metrics")
            elif kind == "chrome":
                row["detail"] = f"{validate_chrome_trace(json.loads(body))} events"
            elif kind == "text" and "ok" not in body:
                raise ValueError(f"unexpected body {body!r}")
            row["ok"] = True
        except Exception as exc:
            row["detail"] = f"{type(exc).__name__}: {exc}"
            all_ok = False
        report.append(row)
    return all_ok, report


__all__ = [
    "OpsError",
    "OpsServer",
    "UNMATCHED",
    "demo_cluster",
    "drive_request",
    "self_check",
]
