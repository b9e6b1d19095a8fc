import os
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from ccdiff import ValidationError
from ccdiff import rng
from ccdiff.rng import RngStream

SHAPES = [(3,), (2, 4), (40,)]


def test_refill_is_only_a_hint():
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    shapes = st.sampled_from(SHAPES)
    calls = st.lists(st.one_of(
        st.tuples(st.just("refill"), shapes),
        st.tuples(st.just("refill_last"), shapes),
        st.tuples(st.just("normal"), shapes),
        st.tuples(st.just("uniform"), shapes),
        st.tuples(st.just("generator"), shapes),
    ), max_size=25)

    @hyp.settings(max_examples=300, deadline=None, database=None)
    @hyp.given(calls, st.integers(0, 2**32 - 1))
    def check(calls, seed):
        hinted, plain = RngStream(seed, (5,)), RngStream(seed, (5,))
        last = None
        for name, shape in calls:
            if name == "refill":
                hinted.refill(np.empty(shape))
                continue
            if name == "refill_last":
                # reverse_path hands back the array the last draw returned.
                if last is not None:
                    hinted.refill(last)
                    last = None
                continue
            if name == "normal":
                got, want = hinted.normal(shape), plain.normal(shape)
                last = got
            elif name == "uniform":
                got, want = hinted.uniform(-1.0, 2.0, shape), plain.uniform(-1.0, 2.0, shape)
            else:
                got = hinted.generator().standard_normal(shape)
                want = plain.generator().standard_normal(shape)
            # Compared at once: a later refill may write into ``got``.
            assert np.array_equal(got, want)
        assert np.array_equal(hinted.normal((7,)), plain.normal((7,)))

    check()


def test_refill_accepts_int_and_list_shapes():
    s, ref = RngStream(3), RngStream(3)
    s.refill(np.empty(6))
    assert np.array_equal(s.normal(6), ref.normal(6))
    s.refill(np.empty((2, 3)))
    assert np.array_equal(s.normal([2, 3]), ref.normal((2, 3)))


def test_refill_refuses_a_buffer_it_cannot_fill():
    s = RngStream(4)
    for buf in (np.empty(8, dtype=np.float32), np.empty((4, 4))[:, ::2],
                np.broadcast_to(0.0, (4,))):
        with pytest.raises(ValidationError):
            s.refill(buf)
    assert np.array_equal(s.normal((5,)), RngStream(4).normal((5,)))


def test_refills_from_many_threads_keep_every_stream_exact():
    # More threads than cores, each with its own stream, all sharing the one
    # fill worker, with frequent thread switches.
    n_threads, rounds, shape = 6, 40, (64, 64)
    errors = []

    def run(k):
        try:
            s, ref = RngStream(100, (k,)), RngStream(100, (k,))
            z = s.normal(shape)
            for _ in range(rounds):
                if not np.array_equal(z, ref.normal(shape)):
                    errors.append(k)
                    return
                s.refill(z)
                z = s.normal(shape)
        except Exception as exc:  # reported below, not lost with the thread
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(k,)) for k in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert errors == []


def test_importing_the_package_loads_no_executor():
    # The worker's executor is imported, and started, by the first refill.
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    code = "import sys, ccdiff; assert 'concurrent.futures.thread' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60,
                   env={**os.environ, "PYTHONPATH": src})


def test_no_fill_starts_between_the_fork_hooks():
    # The before-fork hook waits for every fill and holds the worker lock
    # until the fork is done, so a refill from another thread cannot leave
    # the child a fill its missing worker never finishes.
    s = RngStream(11)
    s.refill(np.empty((512, 512)))
    other = RngStream(12)
    rng._finish_fills_before_fork()
    try:
        assert s._fill[0].done()
        t = threading.Thread(target=other.refill, args=(np.empty(8),))
        t.start()
        t.join(timeout=0.2)
        assert t.is_alive() and other._fill is None
    finally:
        rng._release_after_fork_in_parent()
    t.join(timeout=60)
    assert not t.is_alive()
    assert np.array_equal(other.normal(8), RngStream(12).normal(8))
    assert np.array_equal(s.normal((512, 512)), RngStream(11).normal((512, 512)))


def test_fork_hook_waits_for_a_refill_being_submitted(monkeypatch):
    s = RngStream(13)
    s.refill(np.empty(8))               # starts the worker
    s.normal(8)
    in_submit, go = threading.Event(), threading.Event()
    submit = rng._worker.submit

    def held_submit(*args):
        in_submit.set()
        go.wait(timeout=60)
        return submit(*args)

    monkeypatch.setattr(rng._worker, "submit", held_submit)
    refiller = threading.Thread(target=s.refill, args=(np.empty((512, 512)),))
    refiller.start()
    assert in_submit.wait(timeout=60)
    hook = threading.Thread(target=rng._finish_fills_before_fork)
    hook.start()
    hook.join(timeout=0.2)
    waited = hook.is_alive()
    go.set()
    refiller.join(timeout=60)
    hook.join(timeout=60)
    try:
        assert waited and not hook.is_alive() and not refiller.is_alive()
        assert s._fill[0].done()
    finally:
        rng._release_after_fork_in_parent()
    ref = RngStream(13)
    ref.normal(8)
    assert np.array_equal(s.normal((512, 512)), ref.normal((512, 512)))


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.filterwarnings("ignore::DeprecationWarning")
def test_refill_and_draw_work_in_a_forked_child():
    shape = (256, 256)
    ref = RngStream(9)
    want = [ref.normal(shape) for _ in range(4)]
    s = RngStream(9)
    z = s.normal(shape)
    s.refill(z)
    assert np.array_equal(s.normal(shape), want[1])
    s.refill(np.empty(shape))       # still filling when the process forks
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            z = s.normal(shape)
            ok = np.array_equal(z, want[2])
            s.refill(z)
            ok = ok and np.array_equal(s.normal(shape), want[3])
            code = 0 if ok else 2
        finally:
            os._exit(code)
    deadline = time.monotonic() + 60
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done or time.monotonic() > deadline:
            break
        time.sleep(0.01)
    if not done:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        pytest.fail("the forked child hung on its first draw")
    assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0
    assert np.array_equal(s.normal(shape), want[2])
