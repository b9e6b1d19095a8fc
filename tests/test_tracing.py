"""The benchmark's tracer still finds every name it patches in the library.

``bench/tracing.py`` patches library functions and methods by name; a
library edit that drops or moves one of them makes ``install`` fail.  This
test installs it on the modules as ``bench/run.py`` loads them, runs one
small shortcut sample, and checks that uninstalling restores everything.
"""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from ccdiff import (CcdfConfig, IdentityOp, SamplerKind, analysis, consistency,
                    harness, make_ve_schedule, rng, samplers, schedules, score)

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_counts_and_restores_every_patched_name():
    tracing = _load_tracing()
    lib = SimpleNamespace(analysis=analysis, consistency=consistency, harness=harness,
                          rng=rng, samplers=samplers, schedules=schedules, score=score)
    tr = tracing.Tracer()
    try:
        tracing.install(tr, lib)
        patched = list(tr._saved)
        x_ref = np.linspace(0.0, 1.0, 16)
        cfg = CcdfConfig(t0=0.01, N=1000, kind=SamplerKind.SMLD)
        samplers.ccdf_sample(np.zeros(16), IdentityOp((16,), x_ref), cfg,
                             make_ve_schedule(0.01, 378.0, 1000),
                             score.ConditionalScoreOracle(x_ref), rng.RngStream(1))
    finally:
        tr.uninstall()
    # One score call per reverse step and one per corrector step.
    assert tr.counts["score"] == 2 * cfg.n_prime == 20
    assert tr.counts["samplers.ccdf_sample"] == 1
    assert {name for _, name, _ in patched} >= {"score", "normal", "ccdf_sample"}
    for owner, attr, original in patched:
        assert vars(owner)[attr] is original, (owner, attr)
