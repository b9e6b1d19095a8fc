"""Span tracing around the public calls of each ccdiff layer.

The tracer replaces library functions and methods with timing wrappers while
a traced round runs and restores the originals afterwards; the library files
are never modified.  A function imported by name into several
modules (``forward_coeffs`` lives in schedules, score, samplers, consistency
and harness) is replaced in every module that holds it, so calls between
layers are seen as well as calls from the benchmark.

Spans are aggregated in memory per name: call count and self time (the span
minus the time covered by its child spans).  Counts are also
kept per (name, parent name), which separates, for example, the Gaussian
draws an operator offset makes from the sampler's own reverse-noise draws.
"""

from __future__ import annotations

import functools
from collections import Counter
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self):
        self.counts = Counter()      # name -> calls, and "name<parent" -> calls
        self.self_time = Counter()   # name -> seconds not covered by child spans
        self.nbytes = Counter()      # name -> bytes of the ndarray results
        self.paused = False
        self._stack = []             # open spans: [name, seconds of child spans]
        self._saved = []             # (owner, attribute, original) to restore

    def wrap(self, name, fn, count_bytes=False):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            stack = self._stack
            parent = stack[-1][0] if stack else ""
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                self.counts[name] += 1
                self.counts[name + "<" + parent] += 1
                self.self_time[name] += dt - frame[1]
            if count_bytes and isinstance(out, np.ndarray):
                self.nbytes[name] += out.nbytes
            return out
        return traced

    def patch_method(self, cls, attr, name, count_bytes=False):
        original = cls.__dict__[attr]
        self._saved.append((cls, attr, original))
        setattr(cls, attr, self.wrap(name, original, count_bytes))

    def patch_function(self, modules, fn, name):
        """Replace ``fn`` in every module of ``modules`` that holds it."""
        wrapper = self.wrap(name, fn)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def snapshot(self) -> Counter:
        return Counter(self.counts)


def install(tr: Tracer, lib) -> None:
    """Trace the public calls of every measured layer of the library.

    ``lib`` is a namespace holding the modules rng, schedules, score,
    samplers, consistency, analysis and harness.  ``tr.uninstall()`` undoes
    it; the counters accumulate across installs.
    """
    modules = [lib.rng, lib.schedules, lib.score, lib.samplers,
               lib.consistency, lib.analysis, lib.harness]

    tr.patch_method(lib.rng.RngStream, "normal", "rng.normal", count_bytes=True)
    for cls in (lib.score.ConditionalScoreOracle, lib.score.GaussianScoreOracle,
                lib.score.ZeroScoreOracle):
        tr.patch_method(cls, "score", "score")
    for op_name, cls in (("identity", lib.consistency.IdentityOp),
                         ("inpaint", lib.consistency.InpaintOp),
                         ("sr", lib.consistency.SrOp),
                         ("mri", lib.consistency.MriOp)):
        tr.patch_method(cls, "apply_linear", f"consistency.{op_name}.apply_linear")
        tr.patch_method(cls, "offset", f"consistency.{op_name}.offset")

    functions = [
        (lib.schedules.forward_coeffs, "schedules.forward_coeffs"),
        (lib.samplers.reverse_step_ddpm, "samplers.ddpm_step"),
        (lib.samplers.reverse_step_smld, "samplers.smld_step"),
        (lib.samplers.reverse_step_ddim, "samplers.ddim_step"),
        (lib.samplers.langevin_corrector, "samplers.corrector"),
        (lib.samplers.forward_diffuse, "samplers.forward_diffuse"),
        (lib.samplers.ccdf_sample, "samplers.ccdf_sample"),
        (lib.consistency._fft2, "consistency.fft"),
        (lib.consistency._ifft2, "consistency.fft"),
        (lib.harness.run_error_curve, "harness.run_error_curve"),
        (lib.harness._sq_norms, "harness.sq_norms"),
        (lib.analysis.contraction_report, "analysis.contraction_report"),
        (lib.analysis.minimal_shortcut, "analysis.minimal_shortcut"),
        (lib.analysis.bound_traces, "analysis.bound_traces"),
        (lib.analysis.contraction_rate, "analysis.contraction_rate"),
        (lib.analysis.noise_constant_per_step, "analysis.noise_constant_per_step"),
    ]
    for fn, name in functions:
        tr.patch_function(modules, fn, name)


_STEP_SPANS = ("samplers.ddpm_step", "samplers.smld_step", "samplers.ddim_step")
_OPS = ("identity", "inpaint", "sr", "mri")


def layer_metrics(tr: Tracer, rounds: int, round_calls: int, self_time: dict) -> dict:
    """Per-layer metrics per workload call: self seconds, calls and drawn MB.

    Counts and bytes are the same in every round; ``self_time`` holds one
    round's self seconds per span name.
    """
    s = Counter(self_time)
    c = Counter({k: v / rounds for k, v in tr.counts.items()})
    nbytes = tr.nbytes["rng.normal"] / rounds

    def per_call(v):
        return v / round_calls

    out = {
        "rng.normal_calls": (c["rng.normal"], "count/call"),
        "rng.normal_s": (s["rng.normal"], "s/call"),
        "rng.normal_mb": (nbytes / 1e6, "MB/call"),
        "score.calls": (c["score"], "count/call"),
        "score.s": (s["score"], "s/call"),
        "samplers.ddpm_step_s": (s["samplers.ddpm_step"], "s/call"),
        "samplers.smld_step_s": (s["samplers.smld_step"], "s/call"),
        "samplers.ddim_step_s": (s["samplers.ddim_step"], "s/call"),
        "samplers.step_calls": (sum(c[n] for n in _STEP_SPANS), "count/call"),
        "samplers.corrector_s": (s["samplers.corrector"], "s/call"),
        "samplers.corrector_calls": (c["samplers.corrector"], "count/call"),
        "samplers.forward_diffuse_s": (s["samplers.forward_diffuse"], "s/call"),
        "samplers.ccdf_sample_self_s": (s["samplers.ccdf_sample"], "s/call"),
    }
    for op in _OPS:
        out[f"consistency.{op}.apply_linear_s"] = (
            s[f"consistency.{op}.apply_linear"], "s/call")
    for op in _OPS[1:]:
        out[f"consistency.{op}.offset_s"] = (s[f"consistency.{op}.offset"], "s/call")
    out["consistency.apply_linear_calls"] = (
        sum(c[f"consistency.{op}.apply_linear"] for op in _OPS), "count/call")
    out["consistency.fft_calls"] = (c["consistency.fft"], "count/call")
    out["consistency.fft_s"] = (s["consistency.fft"], "s/call")
    out["harness.sq_norms_s"] = (s["harness.sq_norms"], "s/call")
    out["harness.run_error_curve_self_s"] = (s["harness.run_error_curve"], "s/call")
    out["harness.cells"] = (c["harness.run_error_curve"], "count/call")
    for fn in ("bound_traces", "contraction_rate", "noise_constant_per_step",
               "minimal_shortcut"):
        out[f"analysis.{fn}_s"] = (s[f"analysis.{fn}"], "s/call")
        out[f"analysis.{fn}_calls"] = (c[f"analysis.{fn}"], "count/call")
    out["analysis.contraction_report_self_s"] = (
        s["analysis.contraction_report"], "s/call")
    out["schedules.forward_coeffs_calls"] = (c["schedules.forward_coeffs"], "count/call")
    out["schedules.forward_coeffs_s"] = (s["schedules.forward_coeffs"], "s/call")
    return {k: {"value": per_call(v), "unit": u} for k, (v, u) in out.items()}
