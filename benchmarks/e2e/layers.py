"""Per-request layer attribution from the traced server's spans.

Spans are grouped into requests by following parent links up to the
``http.handle`` root.  A layer's **self time** is the part of its
span's interval that no child span covers.  When children overlap
(a fan-out's shard tasks run on four threads that share one
interpreter lock), each instant is split evenly among the innermost
spans active at it, so the self times of one request always add up to
its root span's duration.  **Inclusive time** of a layer is the self
time of every span at or under one of its spans, counted once even
where the layer nests in itself.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Tuple

ROOT = "http.handle"

#: span tuple fields, as traced_serve.py writes them
SID, PARENT, LAYER, START, END, TRACE = range(6)


def load(paths: Sequence[Path]) -> List[Sequence]:
    """The spans of several server processes, ids kept apart per process."""
    spans: List[Sequence] = []
    for index, path in enumerate(paths):
        offset = index << 40  # ids restart in every process
        for sid, parent, *rest in json.loads(Path(path).read_text(encoding="utf-8"))["spans"]:
            spans.append((sid + offset, parent + offset if parent else 0, *rest))
    return spans


def self_times(spans: Sequence[Sequence]) -> Dict[int, float]:
    """Concurrency-split self time (seconds) of every span of one request."""
    events: List[Tuple[float, int, int]] = []
    for span in spans:
        events.append((span[START], 1, span[SID]))
        events.append((span[END], 0, span[SID]))
    events.sort()
    parent = {span[SID]: span[PARENT] for span in spans}
    active_children: Dict[int, int] = defaultdict(int)
    active: set = set()
    innermost: set = set()
    own: Dict[int, float] = {span[SID]: 0.0 for span in spans}
    previous = events[0][0] if events else 0.0
    for time, is_start, sid in events:
        if innermost and time > previous:
            share = (time - previous) / len(innermost)
            for inner in innermost:
                own[inner] += share
        previous = time
        up = parent[sid]
        if is_start:
            active.add(sid)
            innermost.add(sid)
            if up in active:
                active_children[up] += 1
                innermost.discard(up)
        else:
            active.discard(sid)
            innermost.discard(sid)
            if up in active:
                active_children[up] -= 1
                if active_children[up] == 0:
                    innermost.add(up)
    return own


class TracedRequest:
    """The spans of one served request, attributed to layers."""

    __slots__ = ("trace_id", "duration", "self_s", "inclusive_s", "calls", "tasks")

    def __init__(self, spans: Sequence[Sequence]):
        root = next(span for span in spans if span[LAYER] == ROOT)
        self.duration = root[END] - root[START]
        self.trace_id = next((span[TRACE] for span in spans if span[TRACE]), None)
        by_id = {span[SID]: span for span in spans}
        own = self_times(spans)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.inclusive_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: wall durations of the fan-out's shard tasks
        self.tasks = [s[END] - s[START] for s in spans if s[LAYER] == "cluster.task"]
        chains: Dict[int, frozenset] = {}

        def chain(sid: int) -> frozenset:
            # the layers at or above a span; iterative to survive deep nests
            path = []
            while sid in by_id and sid not in chains:
                path.append(sid)
                sid = by_id[sid][PARENT]
            above = chains.get(sid, frozenset())
            for node in reversed(path):
                above = above | {by_id[node][LAYER]}
                chains[node] = above
            return above

        for span in spans:
            layer, seconds = span[LAYER], own[span[SID]]
            self.self_s[layer] += seconds
            self.calls[layer] += 1
            for name in chain(span[SID]):
                self.inclusive_s[name] += seconds


def requests(spans: Iterable[Sequence]) -> Dict[str, TracedRequest]:
    """Group spans under their ``http.handle`` root; keyed by trace id."""
    spans = list(spans)
    by_id = {span[SID]: span for span in spans}
    root_of: Dict[int, int] = {}

    def find_root(sid: int) -> int:
        path = []
        while sid in by_id and sid not in root_of and by_id[sid][PARENT]:
            path.append(sid)
            sid = by_id[sid][PARENT]
        top = root_of.get(sid, sid)
        for node in path:
            root_of[node] = top
        return top

    groups: Dict[int, List[Sequence]] = defaultdict(list)
    for span in spans:
        top = find_root(span[SID])
        if top in by_id and by_id[top][LAYER] == ROOT:
            groups[top].append(span)
    traced: Dict[str, TracedRequest] = {}
    for members in groups.values():
        request = TracedRequest(members)
        if request.trace_id:
            traced[request.trace_id] = request
    return traced
