import tracemalloc

import pytest


@pytest.fixture
def peak_states():
    """``peak_states(fn, state)``: run ``fn()`` and return the peak memory it
    allocated on top of what was live before, in units of ``state.nbytes``.

    numpy reports its array buffers to tracemalloc, so temporaries count.
    """
    def measure(fn, state):
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
