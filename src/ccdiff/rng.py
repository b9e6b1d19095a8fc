"""Counter-based random streams for reproducible Monte Carlo experiments.

Every stream is identified by a 64-bit seed plus a tuple of integer stream
ids.  Identical (seed, stream ids, draw order) always reproduces the same
Gaussian draws; distinct stream ids give statistically independent streams.
Philox is counter based, so the mapping is stable across platforms.

A loop can have its next draws filled while it computes: numpy's fills
release the interpreter lock, so one worker thread does them on a second
core, until a fork stops it.  ``plan_draws`` hands the worker draws of one
or more streams, in the order the loop will ask for them, as jobs of
consecutive draws of at least ``REFILL_MIN_VALUES`` values, each draw an
array of its own; ``prefetch``, a plan of one draw, fills a stream's next
block if it is that large.  No plan changes which values a stream yields.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from queue import SimpleQueue

import numpy as np

from .errors import ValidationError

# One thread runs every fill: the next job starts it, and a fork stops it.
_worker = None
_worker_lock = threading.Lock()


def _submit(*job):
    global _worker
    with _worker_lock:
        if _worker is None:
            _worker = _executor_class()(1, thread_name_prefix="ccdiff-fill")
        return _worker.submit(*job)


@functools.cache
def _executor_class():
    # Imported on first use, so a process that never fills ahead does not load it.
    # Hooks registered after concurrent.futures' own run before it at a fork,
    # so a plan holding ``_worker_lock`` can finish the submit it is in.
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
    """Draw each (stream, shape) of ``draws`` in order on the worker, putting
    each array on ``filled`` as it lands and None when the job ends, so a
    waiter that reads None finds a failed fill's error in the job's future
    instead of waiting for ever."""
    try:
        for stream, shape in draws:
            filled.put(stream._gen.standard_normal(shape))
    finally:
        filled.put(None)


class _Plan:
    """Draws of one or more streams, in the order they will be requested,
    filled ahead on the worker thread.

    ``draws`` holds (stream, shape) pairs, and ``ends[k]`` ends job k, which
    begins where the one before ends.  A job that has not started when its
    next draw is requested is cancelled: that draw is made on the calling
    thread and the rest of the job queued again.  Job k + 1 is queued once
    job k has started or ended, so at most two are in flight.
    """

    def __init__(self, draws, ends):
        self.draws, self.ends = draws, ends
        self.next = 0                      # the next draw to hand out
        self.job = 0                       # the job that holds it
        self.runs = {}                     # job -> (future, filled) of its queued run
        self.streams = list({id(s): s for s, _ in draws}.values())
        for s in self.streams:
            s._settle()
        self.states = [s._gen.bit_generator.state for s in self.streams]
        if ends:
            self.runs[0] = self._queue(0, ends[0])
        for s in self.streams:
            s._plan = self

    def _queue(self, lo, hi):
        filled = SimpleQueue()
        return _submit(_fill, self.draws[lo:hi], filled), filled

    def take(self, stream, shape):
        """The next draw if it is ``stream``'s and has ``shape``; otherwise
        settle the plan and return None."""
        j = self.next
        if self.draws[j] != (stream, shape):
            self.settle()
            return None
        self.next = j + 1
        out = self._wait(j)
        if self.next == len(self.draws):
            self._detach()
        return out

    def _wait(self, j) -> np.ndarray:
        k, end = self.job, self.ends[self.job]
        future, filled = self.runs[k]
        # A run cancelled before it started never moved a generator.
        started = not future.cancel()
        if started:
            out = filled.get()
            if out is None:
                # The fill failed: end the plan before draw j, then raise its error.
                self.next = j
                self.settle()
                future.result()
        else:
            stream, shape = self.draws[j]
            out = stream._gen.standard_normal(shape)
            if j + 1 < end:
                self.runs[k] = self._queue(j + 1, end)
        if (started or j + 1 == end) and k + 1 < len(self.ends) and k + 1 not in self.runs:
            self.runs[k + 1] = self._queue(end, self.ends[k + 1])
        if j + 1 == end:
            del self.runs[k]
            self.job = k + 1
        return out

    def settle(self) -> None:
        """End the plan as if it had not been made: cancel or wait for the
        jobs in flight, dropping a failed one's error, and rewind each stream
        to just after the draws it handed out."""
        for future, _ in self.runs.values():
            if not future.cancel():
                future.exception()
        self.runs.clear()
        if self.next < len(self.draws):
            # Replay the draws handed out from each stream's state at the start.
            for s, state in zip(self.streams, self.states):
                s._gen.bit_generator.state = state
            for s, shape in self.draws[:self.next]:
                s._gen.standard_normal(shape)
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


# The fewest values the worker thread fills in one hand-off; below it the
# hand-off costs more than the overlap saves.  With every draw filled on its
# own, recon-mri (4096 values per draw) lost a third of its throughput (0/10
# pairs); coupled-pair cells ran faster so at 2^16 values per draw (27 of 32
# pairs) but not at 2^15 (15 of 32), as BENCH_6.json records.  A path of
# smaller draws is planned in jobs of at least this many values: a 64x64
# reconstruction took 3.94 ms with jobs of 2^16 values against 4.19 and 4.16
# ms with 2^14 and 2^15 and 4.36 ms with 2^17 (fastest of 6 interleaved rounds
# of 10 x 30 on a 2-core host), and recon-mri's gain is in BENCH_23.json.
REFILL_MIN_VALUES = 1 << 16


def plan_draws(draws) -> _Plan:
    """Fill ``draws``, (stream, shape) pairs in the order a loop will ask
    for them with ``normal``, ahead of the loop on the worker thread.

    The worker draws them as jobs of consecutive draws of at least
    ``REFILL_MIN_VALUES`` values (the last may hold fewer) and hands over
    each draw, an array of its own, as it lands.  The loop must use the
    streams from one thread.  Any other request on a planned stream settles
    the plan, so each call yields what it would have without it.  Used as a
    context manager, the plan settles on exit.
    """
    draws = [(s, tuple(shape)) for s, shape in draws]
    ends, size = [], 0              # where each job ends, and the open job's values
    for j, (_, shape) in enumerate(draws, 1):
        size += math.prod(shape)
        if size >= REFILL_MIN_VALUES or j == len(draws):
            ends.append(j)
            size = 0
    return _Plan(draws, ends)


def prefetch(stream: RngStream, shape) -> None:
    """Have the worker fill ``stream``'s next draw of ``shape``, a plan of
    one draw, if the block is large enough to pay."""
    if math.prod(shape) >= REFILL_MIN_VALUES:
        plan_draws([(stream, shape)])


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
