import os
import signal
import subprocess
import sys
import textwrap
import threading
import time

import numpy as np
import pytest

from ccdiff import rng
from ccdiff.rng import RngStream, plan_draws

SHAPES = [(3,), (2, 4), (40,)]


def _queued(s):
    """The future of the job that fills ``s``'s next draw."""
    return s._plan.runs[s._plan.job][0]


def _fill_ahead(s, shape):
    """Queue a plan of one draw: ``s``'s next block of ``shape``."""
    plan_draws([(s, shape)])


def test_a_one_draw_plan_is_only_a_hint():
    # Two streams, each used on a thread of its own, in an interleaved order.
    # "busy" queues a large fill of a third stream, which keeps the worker
    # busy: a draw then finds its own fill unstarted and fills it itself, or
    # finds it running and waits for it.
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    from concurrent.futures import ThreadPoolExecutor

    # Each example draws in two shapes, so a draw often matches its fill;
    # the large one is slow enough to be found running.
    shapes = st.lists(st.sampled_from(SHAPES + [(256, 256)]), min_size=2, max_size=2)
    calls = st.lists(st.tuples(st.integers(0, 1), st.sampled_from(
        ["fill", "fill_last", "normal", "uniform", "generator", "busy"]),
        st.integers(0, 1)), max_size=25)

    def call(k, name, shape, hinted, plain, last):
        if name == "fill":
            _fill_ahead(hinted, shape)
        elif name == "fill_last":
            # reverse_path prefetches a block of the last draw's shape.
            if last[k] is not None:
                _fill_ahead(hinted, last[k].shape)
                last[k] = None
        else:
            if name == "normal":
                got, want = hinted.normal(shape), plain.normal(shape)
                last[k] = got
            elif name == "uniform":
                got, want = hinted.uniform(-1.0, 2.0, shape), plain.uniform(-1.0, 2.0, shape)
            else:
                got = hinted.generator().standard_normal(shape)
                want = plain.generator().standard_normal(shape)
            # Compared at once, as the loop spends a draw before its next.
            assert np.array_equal(got, want)

    def last_draw(hinted, plain):
        assert np.array_equal(hinted.normal((7,)), plain.normal((7,)))

    @hyp.settings(max_examples=300, deadline=None, database=None)
    @hyp.given(calls, shapes, st.integers(0, 2**32 - 1), st.booleans())
    def check(calls, shapes, seed, swap):
        hinted = [RngStream(seed, (5,)), RngStream(seed, (6,))]
        plain = [RngStream(seed, (5,)), RngStream(seed, (6,))]
        last = [None, None]
        busy = RngStream(seed, (7,))
        for k, name, j in calls:
            shape = shapes[j]
            if name == "busy":
                _fill_ahead(busy, (512, 512))
                continue
            threads[k].submit(call, k, name, shape, hinted[k], plain[k],
                              last).result(timeout=60)
        # The last draws run at once, in either order.
        order = (1, 0) if swap else (0, 1)
        ends = [threads[k].submit(last_draw, hinted[k], plain[k]) for k in order]
        for end in ends:
            end.result(timeout=60)

    threads = [ThreadPoolExecutor(1), ThreadPoolExecutor(1)]
    try:
        check()
    finally:
        for pool in threads:
            pool.shutdown()


def test_a_plan_is_only_a_hint(monkeypatch):
    # A plan over three streams is followed for a while and then left by a
    # request off the plan, or by settling it: every stream then yields what
    # it would have without the plan.  "busy" keeps the worker on a large
    # fill, so a job is often found unstarted and its draw filled in place.
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    shapes = SHAPES + [(64, 64)]
    plans = st.lists(st.tuples(st.integers(0, 2), st.integers(0, len(shapes) - 1)),
                     min_size=1, max_size=30)
    leaves = st.sampled_from(["settle", "normal", "uniform", "generator", "fill"])

    @hyp.settings(max_examples=200, deadline=None, database=None)
    @hyp.given(plans, st.data(), leaves, st.sampled_from([1, 8, 100, 5000, 10**6]),
               st.booleans(), st.integers(0, 2**32 - 1))
    def check(plan, data, leave, job_values, busy, seed):
        planned = [RngStream(seed, (k,)) for k in range(3)]
        plain = [RngStream(seed, (k,)) for k in range(3)]
        if busy:
            _fill_ahead(RngStream(seed, (9,)), (512, 512))
        followed = data.draw(st.integers(0, len(plan)))
        monkeypatch.setattr(rng, "REFILL_MIN_VALUES", job_values)
        with plan_draws([(planned[k], shapes[j]) for k, j in plan]):
            for k, j in plan[:followed]:
                # Each draw is its own array; it is compared as it is handed out.
                assert np.array_equal(planned[k].normal(shapes[j]),
                                      plain[k].normal(shapes[j]))
            k = data.draw(st.integers(0, 2))
            if leave == "normal":
                assert np.array_equal(planned[k].normal((5,)), plain[k].normal((5,)))
            elif leave == "uniform":
                assert np.array_equal(planned[k].uniform(0.0, 1.0, (3,)),
                                      plain[k].uniform(0.0, 1.0, (3,)))
            elif leave == "generator":
                assert np.array_equal(planned[k].generator().standard_normal(4),
                                      plain[k].generator().standard_normal(4))
            elif leave == "fill":
                _fill_ahead(planned[k], (6,))
        for s, ref in zip(planned, plain):
            assert np.array_equal(s.normal((7,)), ref.normal((7,)))
            assert s._plan is None

    check()


def test_every_kept_draw_of_a_plan_keeps_its_values():
    # 48 draws of 64x64 are three jobs of 16 draws.  Each draw is an array of
    # its own, so no later job writes into a draw the caller still holds.
    s, plain = RngStream(27), RngStream(27)
    with plan_draws([(s, (64, 64))] * 48):
        kept = [s.normal((64, 64)) for _ in range(48)]
    assert [np.array_equal(z, plain.normal((64, 64))) for z in kept] == [True] * 48


def test_plans_from_many_threads_keep_every_stream_exact(monkeypatch):
    # More threads than cores, each planning the draws of its own two
    # streams, all sharing the one fill worker, with frequent thread switches.
    n_threads, rounds, shape = 6, 10, (32, 32)
    monkeypatch.setattr(rng, "REFILL_MIN_VALUES", 5000)   # jobs of 5 draws
    errors = []

    def run(k):
        try:
            a, b = RngStream(200, (k, 0)), RngStream(200, (k, 1))
            ref_a, ref_b = RngStream(200, (k, 0)), RngStream(200, (k, 1))
            for _ in range(rounds):
                with plan_draws([(a, shape), (b, shape)] * 40):
                    for _ in range(40):
                        if not (np.array_equal(a.normal(shape), ref_a.normal(shape))
                                and np.array_equal(b.normal(shape), ref_b.normal(shape))):
                            errors.append(k)
                            return
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


def test_a_planned_draw_is_taken_by_int_and_list_shapes():
    s, ref = RngStream(3), RngStream(3)
    _fill_ahead(s, (6,))
    assert np.array_equal(s.normal(6), ref.normal(6))
    _fill_ahead(s, [2, 3])
    assert np.array_equal(s.normal([2, 3]), ref.normal((2, 3)))


def test_one_draw_plans_from_many_threads_keep_every_stream_exact():
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
                _fill_ahead(s, shape)
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
    # The worker's executor is imported, and started, by the first plan.
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    code = "import sys, ccdiff; assert 'concurrent.futures.thread' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60,
                   env={**os.environ, "PYTHONPATH": src})


def test_no_fill_starts_between_the_fork_hooks():
    # The before-fork hook waits for every fill and holds the worker lock
    # until the fork is done, so a plan from another thread cannot leave
    # the child a fill its missing worker never finishes.
    s = RngStream(11)
    _fill_ahead(s, (512, 512))
    other = RngStream(12)
    rng._stop_worker_before_fork()
    try:
        assert _queued(s).done()
        t = threading.Thread(target=_fill_ahead, args=(other, (8,)))
        t.start()
        t.join(timeout=0.2)
        assert t.is_alive() and other._plan is None
    finally:
        rng._worker_lock.release()
    t.join(timeout=60)
    assert not t.is_alive()
    assert np.array_equal(other.normal(8), RngStream(12).normal(8))
    assert np.array_equal(s.normal((512, 512)), RngStream(11).normal((512, 512)))


def test_fork_hook_waits_for_a_plan_being_submitted(monkeypatch):
    s = RngStream(13)
    _fill_ahead(s, (8,))                # starts the worker
    s.normal(8)
    in_submit, go = threading.Event(), threading.Event()
    submit = rng._worker.submit

    def held_submit(*args):
        in_submit.set()
        go.wait(timeout=60)
        return submit(*args)

    monkeypatch.setattr(rng._worker, "submit", held_submit)
    planner = threading.Thread(target=_fill_ahead, args=(s, (512, 512)))
    planner.start()
    assert in_submit.wait(timeout=60)
    hook = threading.Thread(target=rng._stop_worker_before_fork)
    hook.start()
    hook.join(timeout=0.2)
    waited = hook.is_alive()
    go.set()
    planner.join(timeout=60)
    hook.join(timeout=60)
    try:
        assert waited and not hook.is_alive() and not planner.is_alive()
        assert _queued(s).done()
    finally:
        rng._worker_lock.release()
    ref = RngStream(13)
    ref.normal(8)
    assert np.array_equal(s.normal((512, 512)), ref.normal((512, 512)))


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.filterwarnings("ignore::DeprecationWarning")
def test_plans_and_draws_work_in_a_forked_child():
    shape = (256, 256)
    ref = RngStream(9)
    want = [ref.normal(shape) for _ in range(4)]
    s = RngStream(9)
    s.normal(shape)
    _fill_ahead(s, shape)
    assert np.array_equal(s.normal(shape), want[1])
    _fill_ahead(s, shape)           # still filling when the process forks
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            ok = np.array_equal(s.normal(shape), want[2])
            _fill_ahead(s, shape)
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


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.filterwarnings("ignore::DeprecationWarning")
def test_fork_stops_the_worker_and_the_parent_starts_a_new_one():
    shape = (256, 256)
    s, ref = RngStream(30), RngStream(30)
    _fill_ahead(s, shape)
    pid = os.fork()
    if pid == 0:
        os._exit(0)
    os.waitpid(pid, 0)
    assert not [t for t in threading.enumerate() if t.name.startswith("ccdiff-fill")]
    assert np.array_equal(s.normal(shape), ref.normal(shape))
    _fill_ahead(s, shape)
    assert np.array_equal(s.normal(shape), ref.normal(shape))


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_fork_while_a_plan_is_in_submit_does_not_deadlock():
    # concurrent.futures' before-fork hook holds the lock ``submit`` takes, so
    # the rng hook, which waits for the submitting thread's ``_worker_lock``,
    # must run first.  Run in a fresh process: a deadlock hangs the forker.
    code = textwrap.dedent("""
        import os, threading, warnings
        import numpy as np
        from ccdiff import rng
        from ccdiff.rng import RngStream, plan_draws

        warnings.simplefilter("ignore", DeprecationWarning)
        s = RngStream(13)
        plan_draws([(s, (8,))])             # starts the worker
        s.normal(8)
        in_submit, go = threading.Event(), threading.Event()
        submit = rng._worker.submit

        def held_submit(*args):
            in_submit.set()
            go.wait(timeout=60)
            return submit(*args)

        rng._worker.submit = held_submit
        planner = threading.Thread(target=plan_draws, args=([(s, (512, 512))],))
        planner.start()
        assert in_submit.wait(timeout=60)
        threading.Timer(0.3, go.set).start()
        pid = os.fork()
        if pid == 0:
            os._exit(0)
        os.waitpid(pid, 0)
        planner.join(timeout=60)
        ref = RngStream(13)
        ref.normal(8)
        assert np.array_equal(s.normal((512, 512)), ref.normal((512, 512)))
    """)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60,
                   env={**os.environ, "PYTHONPATH": src})


class _HeldGenerator:
    """A generator whose fills signal ``started`` and then wait for ``go``."""

    def __init__(self, gen, started, go):
        self._gen, self.bit_generator = gen, gen.bit_generator
        self.started, self.go = started, go

    def standard_normal(self, *args, **kw):
        self.started.set()
        self.go.wait(timeout=60)
        return self._gen.standard_normal(*args, **kw)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.filterwarnings("ignore::DeprecationWarning")
def test_fork_waits_for_a_running_fill_and_cancels_a_queued_one():
    # The worker is in the middle of a's fill and b's waits behind it when
    # the process forks; each stream's owner then draws in parent and child.
    shape = (64, 64)
    warm = RngStream(20)
    _fill_ahead(warm, (8,))             # starts the worker
    warm.normal(8)
    a, b = RngStream(21), RngStream(22)
    started, go = threading.Event(), threading.Event()
    a._gen = _HeldGenerator(a._gen, started, go)
    _fill_ahead(a, shape)
    assert started.wait(timeout=60)             # the worker took a's fill
    _fill_ahead(b, shape)
    threading.Timer(0.3, go.set).start()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            ok = np.array_equal(a.normal(shape), RngStream(21).normal(shape))
            ok = ok and np.array_equal(b.normal(shape), RngStream(22).normal(shape))
            code = 0 if ok else 2
        finally:
            os._exit(code)
    # The before-fork hook returned only once a's fill was done.
    waited = go.is_set()
    deadline = time.monotonic() + 60
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done or time.monotonic() > deadline:
            break
        time.sleep(0.01)
    if not done:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        pytest.fail("the forked child hung on a fill its worker never finished")
    assert waited and os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0
    assert _queued(b).cancelled()
    assert np.array_equal(a.normal(shape), RngStream(21).normal(shape))
    assert np.array_equal(b.normal(shape), RngStream(22).normal(shape))


class _FailingGenerator(_HeldGenerator):
    """A held generator whose first fill raises once ``go`` is set; later
    fills are the generator's own."""

    failed = False

    def __getattr__(self, name):
        return getattr(self._gen, name)

    def standard_normal(self, *args, **kw):
        if self.failed:
            return self._gen.standard_normal(*args, **kw)
        self.started.set()
        self.go.wait(timeout=60)
        self.failed = True
        raise RuntimeError("fill failed")


def test_a_fill_that_fails_on_the_worker_raises_in_the_draw_waiting_for_it():
    s = RngStream(23)
    started, go = threading.Event(), threading.Event()
    s._gen = _FailingGenerator(s._gen, started, go)
    _fill_ahead(s, (8,))
    assert started.wait(timeout=60)             # the worker runs the fill
    raised = []

    def draw():
        try:
            s.normal((8,))
        except RuntimeError as exc:
            raised.append(str(exc))

    waiter = threading.Thread(target=draw, daemon=True)
    waiter.start()
    waiter.join(timeout=0.2)
    waiting = waiter.is_alive()
    go.set()
    # The job ends by saying so, even when its fill raised: a waiter that
    # only waited for a published draw would hang here.
    waiter.join(timeout=10)
    assert waiting and not waiter.is_alive()
    assert raised == ["fill failed"]
    # The failed plan ends as if it had not been made: the stream yields its
    # first draw next, and later draws, plans and uniforms work.
    ref = RngStream(23)
    assert np.array_equal(s.normal((8,)), ref.normal((8,)))
    assert np.array_equal(s.uniform(shape=(3,)), ref.uniform(shape=(3,)))
    _fill_ahead(s, (8,))
    assert np.array_equal(s.normal((8,)), ref.normal((8,)))
