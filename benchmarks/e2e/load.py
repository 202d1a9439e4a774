"""The served process and the load that drives it.

:class:`Server` spawns ``python -m repro serve`` (or the traced
bootstrap) in its own process group and reads its CPU time and peak
RSS from ``/proc``.  :class:`Client` is one persistent ``http.client``
connection.  :func:`run_streams` drives one thread per connection;
with :func:`closed_loop` streams each sends its next request only when
the last one returned.  :func:`ladder_step` is an open loop that sends
on a fixed schedule and times each request from when it was due, so a
stall shows up as the wait it imposes on every request queued behind it.
"""

from __future__ import annotations

import http.client
import os
import re
import signal
import subprocess
import threading
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence

from stats import percentile
from workloads import Request

#: Per-request socket timeout; a timed-out request counts as failed.
TIMEOUT_S = 30.0

#: How far behind schedule an open-loop step may end and still pass.
LATENESS_S = 0.1

_LISTENING = re.compile(r"listening on http://([0-9.]+):(\d+)")


class Record:
    """One request as the client saw it."""

    __slots__ = ("request", "phase", "start", "end", "due", "status", "trace_id", "body")

    def __init__(self, request: Request, phase: str, due: Optional[float] = None):
        self.request = request
        self.phase = phase
        self.due = due
        self.start = self.end = 0.0
        self.status = 0
        self.trace_id: Optional[str] = None
        self.body = b""

    @property
    def latency(self) -> float:
        """Seconds from send (or, in the open loop, from due) to reply."""
        return self.end - (self.start if self.due is None else self.due)


class Client:
    """One persistent HTTP/1.1 connection to the server."""

    def __init__(self, host: str, port: int):
        self._conn = http.client.HTTPConnection(host, port, timeout=TIMEOUT_S)

    def send(self, record: Record) -> Record:
        record.start = time.perf_counter()
        try:
            self._conn.request("GET", record.request.path)
            response = self._conn.getresponse()
            record.body = response.read()
            record.status = response.status
            record.trace_id = response.getheader("X-Repro-Trace-Id")
        except (OSError, http.client.HTTPException):
            # the next request reconnects; this one counts as failed
            self._conn.close()
            record.status = 0
        record.end = time.perf_counter()
        return record

    def close(self) -> None:
        self._conn.close()


def _proc_children(pid: int) -> List[int]:
    found = []
    for task in Path(f"/proc/{pid}/task").glob("*/children"):
        try:
            found.extend(int(child) for child in task.read_text().split())
        except OSError:
            continue
    return found


def _tree(pid: int) -> List[int]:
    pids, frontier = [], [pid]
    while frontier:
        current = frontier.pop()
        pids.append(current)
        frontier.extend(_proc_children(current))
    return pids


class Server:
    """One ``serve`` process, stopped with SIGINT like an operator would."""

    def __init__(self, checkout: Path, argv: Sequence[str], env: Dict[str, str]):
        self._checkout = checkout
        self._argv = list(argv)
        self._env = env
        self._proc: Optional[subprocess.Popen] = None
        self._drain: Optional[threading.Thread] = None
        self.host = ""
        self.port = 0

    def start(self, timeout_s: float = 60.0) -> "Server":
        """Spawn and return once the server prints its listening line."""
        self._proc = subprocess.Popen(
            self._argv,
            cwd=self._checkout,
            env=self._env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        ready = threading.Event()
        lines: List[str] = []

        def drain() -> None:
            # keep reading so a chatty server can never block on a full pipe
            for line in self._proc.stderr:
                if not ready.is_set():
                    lines.append(line)
                    match = _LISTENING.search(line)
                    if match:
                        self.host, self.port = match.group(1), int(match.group(2))
                        ready.set()

        self._drain = threading.Thread(target=drain, daemon=True)
        self._drain.start()
        deadline = time.monotonic() + timeout_s
        while not ready.wait(0.005):
            if self._proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError("server did not start: " + "".join(lines)[-2000:])
        return self

    def client(self) -> Client:
        return Client(self.host, self.port)

    def cpu_seconds(self) -> float:
        """CPU time of every live thread of the server and its workers.

        Read from ``schedstat`` (nanoseconds) rather than the 10 ms
        ``utime``/``stime`` ticks; the threads that serve the persistent
        connections live for the whole window, so none is missed.
        """
        total_ns = 0
        for pid in _tree(self._proc.pid):
            for stat in Path(f"/proc/{pid}/task").glob("*/schedstat"):
                try:
                    total_ns += int(stat.read_text().split()[0])
                except (OSError, ValueError, IndexError):
                    continue
        return total_ns / 1e9

    def peak_rss_mb(self) -> float:
        """``VmHWM`` summed over the server and its worker processes."""
        total_kb = 0
        for pid in _tree(self._proc.pid):
            try:
                status = Path(f"/proc/{pid}/status").read_text()
            except OSError:
                continue
            match = re.search(r"^VmHWM:\s+(\d+) kB", status, re.MULTILINE)
            if match:
                total_kb += int(match.group(1))
        return total_kb / 1024.0

    def stop(self, timeout_s: float = 30.0) -> int:
        """SIGINT, wait; SIGKILL the whole group if it does not exit."""
        proc = self._proc
        if proc is None:
            return 0
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout_s)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # orphaned workers, if any
        except ProcessLookupError:
            pass
        if self._drain is not None:
            self._drain.join(5)
        proc.stderr.close()
        self._proc = None
        return proc.returncode


def run_streams(clients: Sequence[Client], streams: Sequence[Iterator[Record]]) -> None:
    """Drive one record stream per connection, each on its own thread."""

    def drive(client: Client, stream: Iterator[Record]) -> None:
        for record in stream:
            client.send(record)

    threads = [
        threading.Thread(target=drive, args=pair) for pair in zip(clients, streams)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def sequence(requests: Sequence[Request], phase: str, out: List[Record]) -> Iterator[Record]:
    """A fixed list of requests, sent back to back."""
    for request in requests:
        record = Record(request, phase)
        out.append(record)
        yield record


def closed_loop(
    requests: Iterator[Request], phase: str, end: float, out: List[Record]
) -> Iterator[Record]:
    """Send back to back until ``end``.

    The clock is read before a request is drawn, so a stream that spans
    phases (an onboarding session's two fetches) never loses one.
    """
    while time.perf_counter() < end:
        record = Record(next(requests), phase)
        out.append(record)
        yield record


def ladder_step(
    clients: Sequence[Client],
    requests: Iterator[Request],
    rate: float,
    step_s: float,
    slo_s: float,
    out: List[Record],
) -> Dict[str, object]:
    """One open-loop step: ``rate`` requests/s for ``step_s`` seconds.

    Requests are due at fixed intervals; a connection takes the next due
    request as soon as it is free, so when the server falls behind the
    backlog shows as lateness and in every latency timed from due.  The
    step stops early once more than a tenth of its planned requests have
    missed ``slo_s``, since its p90 can then no longer meet it.
    """
    planned = max(1, int(rate * step_s))
    lock = threading.Lock()
    state = {"next": 0, "late": 0, "over": 0, "abort": False}
    records: List[Record] = []
    origin = time.perf_counter() + 0.01

    def worker(client: Client) -> None:
        while True:
            with lock:
                index = state["next"]
                if index >= planned or state["abort"]:
                    return
                state["next"] += 1
                request = next(requests)
            due = origin + index / rate
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            record = Record(request, "ladder", due=due)
            client.send(record)
            with lock:
                records.append(record)
                if index == planned - 1:
                    state["late"] = record.start - due
                if record.status != 200 or record.latency > slo_s:
                    state["over"] += 1
                    if state["over"] > planned // 10:
                        state["abort"] = True

    threads = [threading.Thread(target=worker, args=(c,)) for c in clients]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    out.extend(records)
    latencies = sorted(r.latency for r in records)
    p90 = percentile(latencies, 0.9) if latencies else float("inf")
    errors = sum(1 for r in records if r.status != 200)
    passed = (
        not state["abort"]
        and len(records) == planned
        and p90 <= slo_s
        and errors == 0
        and state["late"] < LATENESS_S
    )
    return {
        "rate": rate,
        "sent": len(records),
        "p90_ms": round(p90 * 1000, 3),
        "late_ms": round(state["late"] * 1000, 3),
        "errors": errors,
        "pass": passed,
    }
