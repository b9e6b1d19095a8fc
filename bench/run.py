"""ccdiff benchmark: time to a certified answer, end to end and per layer.

Run from the root of a source checkout:

    python3 bench/run.py --workload mc-grid --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py): mc-grid, recon-mri, bound-query.  The library
is imported from ``src/`` next to this directory; the run fails with exit
code 2, printing no result, when that source tree is missing.

A run repeats rounds over the same fixed list of inputs (``pass_calls`` of
them) until ``--seconds`` have passed and at least ``min_rounds`` rounds ran.
The host is shared and its speed drifts by tens of percent over seconds, so
each input is timed by its fastest round, which is far steadier from run to
run than any single round.

``--trace 0`` reports the end-to-end metrics:

    work_per_s     work units per second of library time: coupled pair-steps
                   on mc-grid (= mc_pair_steps_per_s), reconstructions on
                   recon-mri, queries on bound-query (= bound_queries_per_s)
    call_ms_p50    median wall time of one call: one cell, one reconstruction
    call_ms_p90    (= recon_ms_p50/p90 on recon-mri) or one query
    setup_s        median over set-ups repeated throughout the run
    peak_rss_mb    peak resident set of the process

``--trace 1`` reports per-layer metrics per call from spans recorded around
the public calls of each layer (tracing.py), and asserts the exact call
counts each workload predicts.  Traced rounds alternate with untraced ones;
``trace.overhead_pct`` compares their fastest-round times.

The first round's outputs are checked; every later call must reproduce its
first-round output bit for bit (SHA-256), traced or not.  A failed check or
an exception counts as a failed call.  The last line of standard output is
the JSON result; the line before it records the environment, the
workload-specific metric names, the sample count and the output digest.  The
exit code is 1 when any check failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Set-up is repeated in a batch of at least SETUP_BATCH_S seconds before
# every round, at least SETUP_REPEATS times in all, and the median reported.
# Spreading the repeats over the run keeps one disturbed moment of the shared
# host from setting the figure.
SETUP_REPEATS = 11
SETUP_BATCH_S = 0.02
MAX_REPORTED_ERRORS = 20


def _die(msg: str):
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(2)


def load_library():
    if not (SRC / "ccdiff" / "__init__.py").is_file():
        _die(f"no ccdiff source tree at {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import ccdiff
    if Path(ccdiff.__file__).resolve().parent != (SRC / "ccdiff").resolve():
        _die(f"imported ccdiff from {ccdiff.__file__}, not from {SRC}")
    from ccdiff import (analysis, consistency, harness, rng, samplers, schedules,
                        score)
    return SimpleNamespace(analysis=analysis, consistency=consistency,
                           harness=harness, rng=rng, samplers=samplers,
                           schedules=schedules, score=score)


def _cache_sizes() -> dict:
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(base.glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind in ("Unified", "Data"):
                sizes[f"L{level}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return sizes


def environment(lib) -> dict:
    import numpy
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    src_lines = sum(1 for path in sorted(SRC.rglob("*.py"))
                    for line in path.read_text().splitlines() if line.strip())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "caches": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "fft_backend": lib.consistency._fft_backend.__name__,
        "fft_workers": lib.consistency._FFT_WORKERS.get("workers"),
        "src_nonblank_lines": src_lines,
    }


class Rounds:
    """Closed-loop rounds over a workload's ``pass_calls`` inputs.

    The first round's outputs are checked and their SHA-256 digests kept;
    every later call must reproduce its first-round digest bit for bit.  A
    failed check or an exception counts as one failed call.
    """

    def __init__(self, wl):
        self.wl = wl
        self.rounds = 0
        self.attempted = 0
        self.failed = 0
        self.work = 0
        self.digests = [b""] * wl.pass_calls
        self._reported = 0

    def fail(self, messages):
        self.failed += 1
        for msg in messages:
            if self._reported < MAX_REPORTED_ERRORS:
                print(f"CHECK FAILED: {msg}", file=sys.stderr)
            self._reported += 1

    def run(self, tracer=None) -> list:
        """One round; returns the wall time of each call."""
        wl, first = self.wl, self.rounds == 0
        times = []
        for k in range(wl.pass_calls):
            inp = wl.inputs(k)
            before = tracer.snapshot() if tracer is not None else None
            t0 = perf_counter()
            try:
                out = wl.call(inp)
            except Exception:
                times.append(perf_counter() - t0)
                self.attempted += 1
                self.fail([f"call {k} raised:\n{traceback.format_exc()}"])
                continue
            times.append(perf_counter() - t0)
            self.attempted += 1
            if tracer is not None:
                tracer.paused = True
            h = hashlib.sha256()
            wl.digest(h, out)
            if first:
                self.digests[k] = h.digest()
                self.work += wl.work(inp, out)
                errs = wl.check(inp, out)
            elif h.digest() != self.digests[k]:
                errs = [f"call {k}: output differs from the first round's"]
            else:
                errs = []
            if tracer is not None:
                errs += count_errors(wl, inp, out, before, tracer.counts)
                tracer.paused = False
            if errs:
                self.fail(errs)
        self.rounds += 1
        return times

    def digest(self) -> str:
        return hashlib.sha256(b"".join(self.digests)).hexdigest()


def count_errors(wl, inp, out, before, after) -> list:
    errs = []
    for name, want in wl.expected_counts(inp, out).items():
        got = after[name] - before[name]
        if got != want:
            errs.append(f"call {inp['k']}: {got} calls of {name}, expected {want}")
    return errs


def p90(values):
    return statistics.quantiles(values, n=10)[8]


NAMED = {"mc-grid": {"mc_pair_steps_per_s": "work_per_s",
                     "cell_ms_p50": "call_ms_p50", "cell_ms_p90": "call_ms_p90"},
         "recon-mri": {"recon_per_s": "work_per_s",
                       "recon_ms_p50": "call_ms_p50", "recon_ms_p90": "call_ms_p90"},
         "bound-query": {"bound_queries_per_s": "work_per_s",
                         "query_ms_p50": "call_ms_p50", "query_ms_p90": "call_ms_p90"}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(NAMED))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    lib = load_library()
    from workloads import WORKLOADS
    import tracing

    refs = json.loads((HERE / "reference.json").read_text())
    reference = refs.get(args.workload, {}).get(str(args.seed))
    wl = WORKLOADS[args.workload](lib, args.seed, reference)
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "env": environment(lib), "reference_checked": reference is not None}

    setup_times = []

    def setup_batch():
        t_batch = perf_counter()
        while perf_counter() - t_batch < SETUP_BATCH_S:
            t0 = perf_counter()
            wl.setup()
            setup_times.append(perf_counter() - t0)

    if args.trace:
        wl.setup()
    else:
        setup_batch()
    for k in range(wl.warmup):
        wl.call(wl.inputs(k))

    rounds = Rounds(wl)
    timed = []
    if args.trace:
        # The first round is untraced and checked; traced and untraced rounds
        # then alternate, each call compared bit for bit with the first round.
        untraced = [rounds.run()]
        tracer = tracing.Tracer()
        round_self = []          # self time per span name in each traced round
        t_start = perf_counter()
        while not timed or perf_counter() - t_start < args.seconds:
            before = Counter(tracer.self_time)
            tracing.install(tracer, lib)
            try:
                timed.append(rounds.run(tracer))
            finally:
                tracer.uninstall()
            round_self.append(tracer.self_time - before)
            untraced.append(rounds.run())
        # Like the end-to-end times, each layer's self time is its fastest round.
        fastest = {name: min(r[name] for r in round_self) for name in tracer.self_time}
        metrics = tracing.layer_metrics(tracer, len(timed), wl.pass_calls, fastest)
        traced_s = sum(map(min, zip(*timed)))
        untraced_s = sum(map(min, zip(*untraced)))
        metrics["trace.overhead_pct"] = {"value": 100.0 * (traced_s / untraced_s - 1.0),
                                         "unit": "%"}
        metrics["trace.calls"] = {"value": sum(map(len, timed)), "unit": "count"}
    else:
        t_start = perf_counter()
        while True:
            timed.append(rounds.run())
            if (len(timed) >= wl.min_rounds and len(setup_times) >= SETUP_REPEATS
                    and perf_counter() - t_start >= args.seconds):
                break
            setup_batch()
        # Each input's fastest round: the host is shared, and the fastest of
        # several rounds is far steadier from run to run than any one round.
        best_ms = [1e3 * min(ts) for ts in zip(*timed)]
        metrics = {
            "work_per_s": {"value": rounds.work / (sum(best_ms) / 1e3), "unit": "1/s"},
            "call_ms_p50": {"value": statistics.median(best_ms), "unit": "ms"},
            "call_ms_p90": {"value": p90(best_ms), "unit": "ms"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "unit": "MB"},
        }
        info["named_metrics"] = {alias: metrics[key]
                                 for alias, key in NAMED[args.workload].items()}
    for msg in wl.finish(info):
        rounds.fail([msg])

    info.update(work_unit=wl.work_unit, samples=wl.pass_calls, rounds=rounds.rounds,
                digest=rounds.digest(), failed_frac=rounds.failed / rounds.attempted)
    print(json.dumps(info))
    print(json.dumps({"correct": rounds.failed == 0, "attempted": rounds.attempted,
                      "failed": rounds.failed, "metrics": metrics}))
    return 0 if rounds.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
