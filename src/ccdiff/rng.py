"""Counter-based random streams for reproducible Monte Carlo experiments.

Every stream is identified by a 64-bit seed plus a tuple of integer stream
ids.  Identical (seed, stream ids, draw order) always reproduces the same
Gaussian draws; distinct stream ids give statistically independent streams.
Philox is counter based, so the mapping is stable across platforms.

A loop can have its next draws filled while it computes: numpy's fills
release the interpreter lock, so one worker thread does them on a second
core, until a fork stops it.  ``plan_draws`` hands the worker a loop's
whole sequence of draws, across streams, in jobs of consecutive draws;
``RngStream.refill`` hands it one draw into a buffer the caller gives back.
Neither changes which values a stream yields.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from queue import SimpleQueue

import numpy as np

from .errors import ValidationError

# Stream roles used by the samplers / harness.  Coupled-trajectory
# experiments rely on the consistency stream being separate so that both
# members of a pair can share the per-step consistency anchors.
STREAM_FORWARD = 0
STREAM_REVERSE = 1
STREAM_CONSISTENCY = 2
STREAM_CORRECTOR = 3

# One thread runs every fill: the next job starts it, and a fork stops it.
_worker = None
_worker_lock = threading.Lock()


def _submit(*job):
    global _worker
    with _worker_lock:
        if _worker is None:
            _worker = _executor_class()(1, thread_name_prefix="ccdiff-refill")
        return _worker.submit(*job)


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
    # child.  Shutdown waits for the running job, cancels unstarted ones
    # (their owners fill the draws) and joins the thread; the held lock stops
    # new jobs.
    global _worker
    _worker_lock.acquire()
    if _worker is not None:
        _worker.shutdown(cancel_futures=True)
        _worker = None


def _fill(draws, filled) -> None:
    """Fill each (stream, out) of ``draws`` in order on the worker, putting
    True on ``filled`` after each and False when the job ends, so a waiter
    that reads False finds a failed fill's error in the job's future
    instead of waiting for ever."""
    try:
        for stream, out in draws:
            stream._gen.standard_normal(out=out)
            filled.put(True)
    finally:
        filled.put(False)


class _Plan:
    """Draws of one or more streams, in the order they will be requested,
    filled ahead on the worker thread.

    ``draws`` holds (stream, out) pairs; the first ``start`` are filled at
    once, and ``ends[k]`` ends job k, which begins where the one before
    ends.  A job that has not started when its next draw is requested is
    cancelled: that draw is filled on the calling thread and the rest of the
    job queued again.  Job k + 1 is queued once job k has started or ended,
    so at most two are in flight, and it may write over the draws of job
    k - 1, which the caller has spent by then.
    """

    def __init__(self, draws, ends, start):
        self.draws, self.ends, self.start = draws, ends, start
        self.next = 0                      # the next draw to hand out
        self.job = 0                       # the job that holds it
        self.runs = {}                     # job -> (future, filled) of its queued run
        self.streams = list({id(s): s for s, _ in draws}.values())
        for s in self.streams:
            s._settle()
        self.states = [s._gen.bit_generator.state for s in self.streams]
        for s, out in draws[:start]:
            s._gen.standard_normal(out=out)
        if ends:
            self.runs[0] = self._queue(start, ends[0])
        for s in self.streams:
            s._plan = self

    def _queue(self, lo, hi):
        filled = SimpleQueue()
        return _submit(_fill, self.draws[lo:hi], filled), filled

    def take(self, stream, shape):
        """The next draw if it is ``stream``'s and has ``shape``; otherwise
        settle the plan and return None."""
        j = self.next
        s, out = self.draws[j]
        if s is not stream or out.shape != shape:
            self.settle()
            return None
        self.next = j + 1
        if j >= self.start:
            self._wait(j)
        if self.next == len(self.draws):
            self._detach()
        return out

    def _wait(self, j) -> None:
        k, end = self.job, self.ends[self.job]
        future, filled = self.runs[k]
        # A run that has published a draw has started; one that has not
        # started and is cancelled never moved a generator.
        started = not (filled.empty() and future.cancel())
        if not started:
            stream, out = self.draws[j]
            stream._gen.standard_normal(out=out)
            if j + 1 < end:
                self.runs[k] = self._queue(j + 1, end)
        elif not filled.get():
            future.result()                 # raises the fill's error
        if (started or j + 1 == end) and k + 1 < len(self.ends) and k + 1 not in self.runs:
            self.runs[k + 1] = self._queue(end, self.ends[k + 1])
        if j + 1 == end:
            del self.runs[k]
            self.job = k + 1

    def settle(self) -> None:
        """End the plan as if it had not been made: cancel or wait for the
        jobs in flight and rewind each stream to just after the draws it
        handed out."""
        for future, _ in self.runs.values():
            if not future.cancel():
                future.result()
        self.runs.clear()
        if self.next < len(self.draws):
            # Replay the draws handed out from each stream's state at the start.
            for s, state in zip(self.streams, self.states):
                s._gen.bit_generator.state = state
            for s, out in self.draws[:self.next]:
                s._gen.standard_normal(out.shape)
            self.next = len(self.draws)     # so a second settle rewinds nothing
        self._detach()

    def _detach(self) -> None:
        for s in self.streams:
            if s._plan is self:
                s._plan = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.settle()


def plan_draws(draws, job_values: int) -> _Plan:
    """Fill ``draws``, (stream, shape) pairs in the order a loop will ask
    for them with ``normal``, ahead of the loop on the worker thread.

    The first draw is filled at once, as nothing would overlap it.  The rest
    go to the worker as jobs of consecutive draws of at least ``job_values``
    values (the last job may hold fewer), written into two buffers that the
    jobs take in turn.  A job publishes each draw as it lands, so ``normal``
    waits for one draw at most.  The loop must be done with a draw by its
    next request, and must use the streams from one thread.  Any other
    request on a planned stream settles the plan: the jobs in flight are
    cancelled or waited for and every stream is rewound, as ``refill``
    promises.  Used as a context manager, the plan settles on exit.
    """
    draws = [(s, tuple(shape)) for s, shape in draws]
    jobs, job, size = [], [], 0
    for s, shape in draws[1:]:
        job.append((s, shape))
        size += math.prod(shape)
        if size >= job_values:
            jobs.append((job, size))
            job, size = [], 0
    if job:
        jobs.append((job, size))
    longest = max((size for _, size in jobs), default=0)
    buffers = [np.empty(longest) for _ in jobs[:2]]
    out, ends = [(draws[0][0], np.empty(draws[0][1]))], []
    for k, (job, _) in enumerate(jobs):
        flat, offset = buffers[k % 2], 0
        for s, shape in job:
            n = math.prod(shape)
            out.append((s, flat[offset:offset + n].reshape(shape)))
            offset += n
        ends.append(len(out))
    return _Plan(out, ends, start=1)


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
        self._plan = None    # the _Plan that fills this stream's next draws

    def substream(self, *ids: int) -> "RngStream":
        """Derive an independent stream; same ids always give the same stream."""
        return RngStream(self.seed, self.stream + ids)

    def refill(self, buf: np.ndarray) -> None:
        """Queue a fill of ``buf`` with this stream's next standard normals on
        the worker thread, for the next ``normal(buf.shape)`` to return: a
        plan of one draw.

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
        _Plan([(self, buf)], [1], start=0)

    def _settle(self) -> None:
        """Cancel or wait for pending fills, as if they had not been queued."""
        if self._plan is not None:
            self._plan.settle()

    def normal(self, shape=()) -> np.ndarray:
        """Standard normal draws of the requested shape (float64)."""
        if self._plan is not None:
            out = self._plan.take(self, tuple(shape) if np.iterable(shape) else (shape,))
            if out is not None:
                return out
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
