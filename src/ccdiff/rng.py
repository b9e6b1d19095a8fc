"""Counter-based random streams for reproducible Monte Carlo experiments.

Every stream is identified by a 64-bit seed plus a tuple of integer stream
ids.  Identical (seed, stream ids, draw order) always reproduces the same
Gaussian draws; distinct stream ids give statistically independent streams.
Philox is counter based, so the mapping is stable across platforms.

``RngStream.refill`` lets a loop overlap the next block's fill with its own
arithmetic: numpy's fills release the interpreter lock, so one worker thread
does them on a second core.  A refill never changes which values a stream
yields.
"""

from __future__ import annotations

import os
import threading

import numpy as np

from .errors import ValidationError

# Stream roles used by the samplers / harness.  Coupled-trajectory
# experiments rely on the consistency stream being separate so that both
# members of a pair can share the per-step consistency anchors.
STREAM_FORWARD = 0
STREAM_REVERSE = 1
STREAM_CONSISTENCY = 2
STREAM_CORRECTOR = 3

# The one thread that runs every refill, started on first use, and the fills
# handed to it that had not finished at the last hand-over.
_worker = None
_queued = []
_worker_lock = threading.Lock()


def _fill_into(fill, buf: np.ndarray) -> None:
    # Returns nothing, so a finished fill's future does not keep ``buf`` alive.
    fill(out=buf)


def _submit_fill(fill, buf: np.ndarray):
    global _worker, _queued
    with _worker_lock:
        if _worker is None:
            # Imported here, so a process that never refills does not load it.
            from concurrent.futures import ThreadPoolExecutor
            _worker = ThreadPoolExecutor(1, thread_name_prefix="ccdiff-refill")
        future = _worker.submit(_fill_into, fill, buf)
        _queued = [f for f in _queued if not f.done()] + [future]
        return future


def _finish_fills_before_fork() -> None:
    # A fill still running at the fork would leave its generator locked, and
    # its future unfinished, in the child for good.  Newest first, fills not
    # yet started are cancelled (their owners fill the blocks themselves), so
    # the worker starts none after the running one.  (Queuing a no-op to wait
    # on would deadlock: concurrent.futures' own before-fork hook holds the
    # lock ``submit`` takes.)  The lock is held until the fork is done, so no
    # other thread queues a fill after the wait.
    _worker_lock.acquire()
    for future in reversed(_queued):
        if not future.cancel():
            future.exception()      # waits; a failed fill raises in normal()


def _release_after_fork_in_parent() -> None:
    _worker_lock.release()


def _forget_worker_in_child() -> None:
    # The child has no worker thread: an inherited executor would queue its
    # first fill forever.  The next refill starts a new one.
    global _worker, _queued, _worker_lock
    _worker, _queued, _worker_lock = None, [], threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(before=_finish_fills_before_fork,
                        after_in_parent=_release_after_fork_in_parent,
                        after_in_child=_forget_worker_in_child)


class RngStream:
    """A named, reproducible Gaussian noise stream."""

    def __init__(self, seed: int, stream: tuple[int, ...] = ()):
        self.stream = tuple(int(s) for s in stream)
        if not isinstance(seed, (int, np.integer)) or min((seed,) + self.stream) < 0:
            raise ValidationError("seed and stream ids must be nonnegative integers, "
                                  f"got {seed!r} and {self.stream}")
        self.seed = int(seed)
        ss = np.random.SeedSequence(self.seed, spawn_key=self.stream)
        self._gen = np.random.Generator(np.random.Philox(ss))
        self._fill = None    # (future, buffer, state before the fill) of a refill

    def substream(self, *ids: int) -> "RngStream":
        """Derive an independent stream; same ids always give the same stream."""
        return RngStream(self.seed, self.stream + ids)

    def refill(self, buf: np.ndarray) -> None:
        """Queue a fill of ``buf`` with this stream's next standard normals on
        the worker thread, for the next ``normal(buf.shape)`` to return.

        If the worker has not started the fill by then, that draw cancels it
        and fills ``buf`` on the calling thread instead of waiting; a fork
        cancels it the same way, or waits for it if started.  A refill is
        only a hint: any other next request cancels the fill, or waits for
        it and rewinds the stream, so every call yields what it would have
        without the refill.  ``buf`` must be a writeable C-contiguous float64
        array that the caller no longer reads.
        """
        if (buf.dtype != np.float64 or not buf.flags.c_contiguous
                or not buf.flags.writeable):
            raise ValidationError("refill needs a writeable C-contiguous float64 array")
        self._settle()
        state = self._gen.bit_generator.state
        self._fill = (_submit_fill(self._gen.standard_normal, buf), buf, state)

    def _settle(self) -> None:
        """Cancel or wait for a pending refill, leaving the stream as if it
        had not been made."""
        if self._fill is not None:
            future, _, state = self._fill
            self._fill = None
            if not future.cancel():     # a cancelled fill never moved the generator
                future.result()
                self._gen.bit_generator.state = state

    def normal(self, shape=()) -> np.ndarray:
        """Standard normal draws of the requested shape (float64)."""
        if self._fill is not None:
            future, buf, _ = self._fill
            if (tuple(shape) if np.iterable(shape) else (shape,)) == buf.shape:
                self._fill = None
                if future.cancel():
                    self._gen.standard_normal(out=buf)
                else:
                    future.result()
                return buf
            self._settle()
        return self._gen.standard_normal(shape)

    def uniform(self, low=0.0, high=1.0, shape=()) -> np.ndarray:
        self._settle()
        return self._gen.uniform(low, high, shape)

    def generator(self) -> np.random.Generator:
        """Expose the underlying generator (for choice/permutation use)."""
        self._settle()
        return self._gen

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RngStream(seed={self.seed}, stream={self.stream})"
