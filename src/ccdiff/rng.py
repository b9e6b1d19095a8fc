"""Counter-based random streams for reproducible Monte Carlo experiments.

Every stream is identified by a 64-bit seed plus a tuple of integer stream
ids.  Identical (seed, stream ids, draw order) always reproduces the same
Gaussian draws; distinct stream ids give statistically independent streams.
Philox is counter based, so the mapping is stable across platforms.

``RngStream.refill`` lets a loop overlap the next block's fill with its own
arithmetic: numpy's fills release the interpreter lock, so one worker thread
does them on a second core, until a fork stops it.  A refill never changes
which values a stream yields.
"""

from __future__ import annotations

import functools
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

# One thread runs every refill: the next refill starts it, and a fork stops it.
_worker = None
_worker_lock = threading.Lock()


def _fill_into(fill, buf: np.ndarray) -> None:
    # Returns nothing, so a finished fill's future does not keep ``buf`` alive.
    fill(out=buf)


def _submit_fill(fill, buf: np.ndarray):
    global _worker
    with _worker_lock:
        if _worker is None:
            _worker = _executor_class()(1, thread_name_prefix="ccdiff-refill")
        return _worker.submit(_fill_into, fill, buf)


@functools.cache
def _executor_class():
    # Imported on first use, so a process that never refills does not load it.
    # Hooks registered after concurrent.futures' own run before it at a fork,
    # so a refill holding ``_worker_lock`` can finish the submit it is in.
    from concurrent.futures import ThreadPoolExecutor
    if hasattr(os, "register_at_fork"):
        os.register_at_fork(before=_stop_worker_before_fork,
                            after_in_parent=_worker_lock.release,
                            after_in_child=_worker_lock.release)
    return ThreadPoolExecutor


def _stop_worker_before_fork() -> None:
    # A fill running at the fork would leave its generator locked in the
    # child.  Shutdown waits for it, cancels unstarted fills (their owners
    # fill the blocks) and joins the thread; the held lock stops new fills.
    global _worker
    _worker_lock.acquire()
    if _worker is not None:
        _worker.shutdown(cancel_futures=True)
        _worker = None


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
        and fills ``buf`` on the calling thread instead of waiting.  A fork
        stops the worker after it finishes a running fill, cancelling the
        rest the same way.  A refill is only a hint: any other next request
        cancels the fill, or waits for it and rewinds the stream, so every
        call yields what it would have without it.  ``buf`` must be a
        writeable C-contiguous float64 array that the caller no longer reads.
        """
        if (buf.dtype != np.float64 or not buf.flags.c_contiguous
                or not buf.flags.writeable):
            raise ValidationError("refill needs a writeable C-contiguous float64 array")
        self._settle()
        state = self._gen.bit_generator.state
        self._fill = (_submit_fill(self._gen.standard_normal, buf), buf, state)

    def _settle(self) -> None:
        """Cancel or wait for a pending refill, as if it had not been made."""
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
