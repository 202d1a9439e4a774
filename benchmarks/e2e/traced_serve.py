"""Run ``python -m repro serve`` with bench-owned spans at layer boundaries.

Usage (the harness runs it for ``--trace 1``; ``PYTHONPATH`` must hold
the repository's ``src``)::

    python benchmarks/e2e/traced_serve.py --spans FILE serve --shards 4 ...

Before handing over to ``repro.__main__.main``, this wraps the entry
point of each layer where its caller looks it up (a class attribute or
the importing module's global), so no file under ``src/`` changes.  A
wrapper records ``(id, parent id, layer, start, end, trace id)``; the
parent is the innermost wrapper active in the same context, and the
shard tasks of a fan-out inherit the span that submitted them.  Spans
stay in memory and are written to ``FILE`` as JSON when the server exits
on SIGINT.
"""

from __future__ import annotations

import contextvars
import importlib
import itertools
import json
import sys
import time

#: (module, attribute path, layer name).  Several entry points may share
#: a layer name (the two RWLock sides, the three matching procedures).
PATCHES = (
    ("repro.ops.server", "_Handler._handle", "http.handle"),
    ("repro.ops.server", "OpsServer.dispatch", "ops.dispatch"),
    ("repro.ops.server", "OpsServer.finish_request", "ops.finish"),
    ("repro.ops.server", "parse_query_spec", "core.parse"),
    ("repro.cluster.sharded", "ShardedWebhouse.answer_info", "cluster.route"),
    ("repro.cluster.sharded", "ShardedWebhouse.ask_info", "cluster.route"),
    ("repro.cluster.sharded", "ShardedWebhouse.ask_all_info", "cluster.fanout"),
    ("repro.cluster.sharded", "overlay", "cluster.merge"),
    ("repro.cluster.locks", "RWLock.acquire_read", "cluster.lock_wait"),
    ("repro.cluster.locks", "RWLock.acquire_write", "cluster.lock_wait"),
    ("repro.mediator.webhouse", "Webhouse.answer_with_caveats", "mediator.answer"),
    ("repro.mediator.webhouse", "fully_answerable", "answering.fully_answerable"),
    ("repro.answering.answerable", "query_incomplete", "answering.q_of_T"),
    ("repro.answering.answerable", "certain_prefix", "incomplete.certain_prefix"),
    (
        "repro.incomplete.conditional",
        "ConditionalTreeType.productive_symbols",
        "incomplete.emptiness",
    ),
    ("repro.core.matching", "max_bipartite_matching", "core.matching"),
    ("repro.incomplete.conditional", "feasible_assignment", "core.matching"),
    ("repro.incomplete.certainty", "feasible_assignment", "core.matching"),
    ("repro.mediator.source", "InMemorySource.ask", "mediator.source"),
    ("repro.mediator.webhouse", "refine", "refine.refine"),
    ("repro.mediator.webhouse", "intersect_with_tree_type", "refine.type_intersect"),
    ("repro.mediator.webhouse", "Webhouse.prepare", "mediator.prepare"),
)

#: Layer of a shard task run by the fan-out executor.
TASK = "cluster.task"

_ids = itertools.count(1)
_current: "contextvars.ContextVar[int]" = contextvars.ContextVar("bench_span", default=0)
_spans: list = []


def _wrap(fn, layer: str, trace_id):
    def wrapper(*args, **kwargs):
        parent = _current.get()
        sid = next(_ids)
        token = _current.set(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            _current.reset(token)
            _spans.append((sid, parent, layer, start, end, trace_id()))

    wrapper.__wrapped__ = fn
    return wrapper


def install() -> None:
    """Wrap every entry point in :data:`PATCHES` and the executor's tasks."""
    from repro.cluster.executor import Executor
    from repro.obs.spans import current_trace_id

    for module_name, path, layer in PATCHES:
        owner = importlib.import_module(module_name)
        *outer, attribute = path.split(".")
        for name in outer:
            owner = getattr(owner, name)
        setattr(owner, attribute, _wrap(getattr(owner, attribute), layer, current_trace_id))

    submit = Executor.submit

    def traced_submit(self, shard, fn, *args, **kwargs):
        # pool threads do not inherit the context: carry the parent over
        parent = _current.get()
        task = _wrap(fn, TASK, current_trace_id)

        def run(*task_args, **task_kwargs):
            token = _current.set(parent)
            try:
                return task(*task_args, **task_kwargs)
            finally:
                _current.reset(token)

        return submit(self, shard, run, *args, **kwargs)

    Executor.submit = traced_submit


def main(argv: list) -> int:
    if len(argv) < 3 or argv[0] != "--spans":
        print(__doc__, file=sys.stderr)
        return 2
    spans_path, serve_argv = argv[1], argv[2:]
    from repro.__main__ import main as repro_main

    install()
    code = repro_main(["repro", *serve_argv])
    with open(spans_path, "w", encoding="utf-8") as handle:
        json.dump({"spans": _spans}, handle)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
