import tracemalloc

import pytest

from ccdiff import rng


@pytest.fixture
def peak_states():
    """``peak_states(fn, state)``: run ``fn()`` and return the peak memory it
    allocated on top of what was live before, in units of ``state.nbytes``.

    numpy reports its array buffers to tracemalloc, so temporaries count.
    It counts every thread's, and the fill worker allocates each draw it
    fills, so the jobs queued so far finish first.
    """
    def measure(fn, state):
        if rng._worker is not None:
            rng._submit(lambda: None).result(timeout=60)
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            fn()
            return (tracemalloc.get_traced_memory()[1] - base) / state.nbytes
        finally:
            if started:
                tracemalloc.stop()
    return measure
