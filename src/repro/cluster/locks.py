"""A readers-writer lock; each shard's writes serialize on its write side.

Reads take no lock: an engine publishes its knowledge as one immutable
value after its journal append, and a read answers from whichever value
it took (docs/CLUSTER.md).  The read side stays only because
``benchmarks/e2e/traced_serve.py`` patches ``RWLock.acquire_read`` by
name.

Writer-preferring: a waiting writer blocks new readers.  Not reentrant.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator


class RWLock:
    """Writer-preferring readers-writer lock (not reentrant)."""

    __slots__ = ("_cond", "_readers", "_writer", "_writers_waiting")

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer = False
        self._writers_waiting = 0

    # -- read side --------------------------------------------------------------

    def acquire_read(self) -> None:
        with self._cond:
            while self._writer or self._writers_waiting:
                self._cond.wait()
            self._readers += 1

    def release_read(self) -> None:
        with self._cond:
            self._readers -= 1
            if self._readers == 0:
                self._cond.notify_all()

    @contextmanager
    def read_locked(self) -> Iterator[None]:
        self.acquire_read()
        try:
            yield
        finally:
            self.release_read()

    # -- write side -------------------------------------------------------------

    def acquire_write(self) -> None:
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer or self._readers:
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writer = True

    def release_write(self) -> None:
        with self._cond:
            self._writer = False
            self._cond.notify_all()

    @contextmanager
    def write_locked(self) -> Iterator[None]:
        self.acquire_write()
        try:
            yield
        finally:
            self.release_write()

    # -- introspection ----------------------------------------------------------

    @property
    def readers(self) -> int:
        return self._readers

    @property
    def write_held(self) -> bool:
        return self._writer

    def __repr__(self) -> str:
        return f"RWLock(readers={self._readers}, writer={self._writer})"


__all__ = ["RWLock"]
