"""The three benchmark workloads.

Each workload is a closed loop: one caller, each call starting after the
previous one returns.  A workload builds its inputs from the benchmark seed
in ``setup`` and ``inputs``; the library receives only those inputs.  A run
repeats rounds of the same ``pass_calls`` inputs.  The first round's outputs
are checked by ``check``, and ``expected_counts`` predicts the exact number
of calls into each traced layer that one call makes.

mc-grid      coupled-pair Monte Carlo over the 48-cell certificate grid
             (3 kinds x 4 operators x 4 t0), trials large enough that one
             (M, 16, 16) float64 state exceeds a 2 MiB per-core L2.  Hot path:
             Philox fills, batched FFTs, reverse-step arithmetic, norms.
recon-mri    back-to-back single 64x64 MRI reconstructions, 20 predictor and
             20 corrector steps each.  Batch size one: per-call overhead and
             small-FFT latency dominate.
bound-query  closed-form contraction reports and minimal-shortcut searches on
             N=1000 schedules.  Only analysis and schedules run; rng, score and
             consistency are untouched.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

# One (M, 16, 16) float64 state is M * 2 KiB: 1152 trials give 2.25 MiB,
# more than the 2 MiB per-core L2 of the reference machine.
MC_TRIALS = 1152
MC_T0S = (0.04, 0.1, 0.2, 0.4)
MC_OPS = ("identity", "inpaint", "sr", "mri")
# Slack of the acceptance gate's error-bound grid check: DDIM errors at step 0
# are roundoff (~1e-31) against a recursive bound of exactly 0.
MC_ABS_SLACK = 1e-9
# A reference MSE must agree within this many combined standard errors.
REF_SE = 5.0

RECON_SHAPE = (64, 64)
RECON_REF_CALLS = 20          # mean PSNR of the first calls is compared to the reference
RESIDUAL_MAX = 1e-10

QUERY_N = 1000
QUERY_PIXELS = 256
QUERY_TAU = 0.5


def _child_seed(seed: int, *tags: int) -> int:
    """A 63-bit integer derived from the benchmark seed and a tag path."""
    return int(np.random.SeedSequence([seed, *tags]).generate_state(1, np.uint64)[0]
               >> np.uint64(1))


class Workload:
    """Defaults shared by the workloads; one call does one unit of work."""

    def __init__(self, lib, seed: int, reference: dict | None):
        self.lib = lib
        self.seed = seed
        self.reference = reference

    def work(self, inp, out) -> int:
        return 1

    def finish(self, results: dict) -> list:
        """Run-level checks after the first round; returns failure messages."""
        return []


class McGrid(Workload):
    name = "mc-grid"
    pass_calls = 3 * len(MC_OPS) * len(MC_T0S)
    min_rounds = 4
    warmup = 1
    work_unit = "coupled pair-steps (M*N' summed over cells)"

    def __init__(self, lib, seed: int, reference: dict | None):
        super().__init__(lib, seed, reference)
        self.order = np.random.default_rng(_child_seed(seed, 5)).permutation(
            self.pass_calls)

    def setup(self):
        lib, seed = self.lib, self.seed
        S = lib.schedules
        K = S.SamplerKind
        gt = lib.harness.make_phantom("ellipses", (16, 16), seed=_child_seed(seed, 1) % 2**31)
        self.gt = gt
        self.oracle = lib.score.ConditionalScoreOracle(gt)
        vp = S.make_vp_schedule(1e-4, 0.02, 50)
        ve = S.make_ve_schedule(0.01, 378, 50)
        n = gt.size
        perm = np.random.default_rng(_child_seed(seed, 2)).permutation(n)
        inpaint_mask = np.zeros(n, dtype=bool)
        inpaint_mask[perm[: n // 2]] = True
        inpaint_mask = inpaint_mask.reshape(gt.shape)
        mri_mask = lib.consistency.gaussian1d_mask(gt.shape, 4.0, 0.1,
                                                   seed=_child_seed(seed, 3))
        C = lib.consistency
        mri_op = C.mri_projection(mri_mask, C.mri_measure(gt, mri_mask))
        self.schedules, self.ops, self.inits = {}, {}, {}
        for kind in (K.DDPM, K.SMLD, K.DDIM):
            sch = ve if kind is K.SMLD else vp
            self.schedules[kind] = sch
            ops = {"identity": C.IdentityOp(gt.shape, gt),
                   "inpaint": C.inpaint_projection(inpaint_mask, gt, sch, kind),
                   "sr": C.sr_projection(4, gt, sch, kind),
                   "mri": mri_op}
            for op_name, op in ops.items():
                self.ops[kind, op_name] = op
                self.inits[kind, op_name] = lib.harness.resolve_init(
                    "eps0:10.0", gt, op, seed=_child_seed(seed, 4))
        self.cells = list(itertools.product((K.DDPM, K.SMLD, K.DDIM), MC_OPS, MC_T0S))

    def inputs(self, k: int):
        c = int(self.order[k])
        kind, op_name, t0 = self.cells[c]
        return {"k": k, "kind": kind, "op": op_name, "t0": t0,
                "mc_seed": _child_seed(self.seed, 6, c)}

    def label(self, inp) -> str:
        return f"{inp['kind'].value}/{inp['op']}/{inp['t0']}"

    def call(self, inp):
        H = self.lib.harness
        key = (inp["kind"], inp["op"])
        cfg = H.ExperimentConfig(
            schedule=self.schedules[inp["kind"]], kind=inp["kind"], t0=inp["t0"],
            trials=MC_TRIALS, ground_truth=self.gt, init=self.inits[key],
            op=self.ops[key], oracle=self.oracle, seed=inp["mc_seed"])
        return H.run_error_curve(cfg)

    def work(self, inp, out) -> int:
        return MC_TRIALS * out.n_prime

    def check(self, inp, st) -> list:
        errs = []
        lab = self.label(inp)
        if not np.all(st.mse <= st.bound_recursive + 4.0 * st.stderr + MC_ABS_SLACK):
            worst = int(np.argmax(st.mse - st.bound_recursive - 4.0 * st.stderr))
            errs.append(f"{lab}: mse {st.mse[worst]:.6g} above recursive bound "
                        f"{st.bound_recursive[worst]:.6g} + 4 SE at step {st.steps[worst]}")
        if not np.all(st.bound_recursive <= st.bound_simple * (1.0 + 1e-12)):
            errs.append(f"{lab}: recursive bound above simple bound")
        ref = (self.reference or {}).get(lab)
        if ref is not None:
            # Every step, not only the final one: DDIM errors at step 0 are
            # roundoff, so only the earlier steps can expose a biased harness.
            ref_mse, ref_se = np.array(ref["mse"]), np.array(ref["stderr"])
            tol = REF_SE * np.hypot(st.stderr, ref_se) + 1e-12
            bad = np.flatnonzero(np.abs(st.mse - ref_mse) > tol)
            if bad.size:
                j = int(bad[0])
                errs.append(f"{lab}: mse {float(st.mse[j])!r} at step {st.steps[j]} "
                            f"differs from reference {float(ref_mse[j])!r} by more "
                            f"than {tol[j]:.3g}")
        return errs

    def expected_counts(self, inp, st) -> dict:
        kind, op, n_prime = inp["kind"].value, inp["op"], st.n_prime
        anchored = op in ("inpaint", "sr")
        offset_span = f"consistency.{op}.offset"
        return {
            "harness.run_error_curve": 1,
            "score": 2 * n_prime,
            f"samplers.{kind}_step": 2 * n_prime,
            f"consistency.{op}.apply_linear": 2 * n_prime,
            offset_span: n_prime,
            "rng.normal": 2 + (0 if kind == "ddim" else 2 * n_prime)
                          + (n_prime if anchored else 0),
            "rng.normal<" + offset_span: n_prime if anchored else 0,
            "consistency.fft": 4 * n_prime if op == "mri" else 0,
            "harness.sq_norms": n_prime + 1,
            "analysis.contraction_rate": 1,
            "analysis.noise_constant_per_step": 1,
            "analysis.bound_traces": 1,
        }

    def digest(self, h, st):
        for arr in (st.mse, st.stderr, st.bound_recursive, st.bound_simple):
            h.update(np.ascontiguousarray(arr).tobytes())

    def reference_values(self, outputs) -> dict:
        return {self.label(inp): {"mse": st.mse.tolist(), "stderr": st.stderr.tolist()}
                for inp, st in outputs}


class ReconMri(Workload):
    name = "recon-mri"
    pass_calls = 110                         # >= 10 reconstructions beyond the p90
    min_rounds = 3
    warmup = 5
    work_unit = "reconstructions"

    def __init__(self, lib, seed: int, reference: dict | None):
        super().__init__(lib, seed, reference)
        self.psnrs = []

    def setup(self):
        lib, seed = self.lib, self.seed
        C, S = lib.consistency, lib.schedules
        phantom = lib.harness.make_phantom("ellipses", RECON_SHAPE,
                                           seed=_child_seed(seed, 11) % 2**31)
        mask = C.gaussian1d_mask(RECON_SHAPE, 4.0, 0.08, seed=_child_seed(seed, 12))
        sigma_min = 0.01
        self.schedule = S.make_ve_schedule(sigma_min, 378.0, 1000)
        self.op = C.mri_projection(mask, C.mri_measure(phantom, mask))
        C.certify_nonexpansive(self.op)
        # The run_mri_demo configuration: Gaussian prior fitted to the phantom
        # with var = sigma_min^2 and the squared-step corrector.
        self.oracle = lib.score.GaussianScoreOracle(mu=phantom, var=sigma_min ** 2)
        self.cfg = lib.samplers.CcdfConfig(t0=0.02, N=1000, kind=S.SamplerKind.SMLD,
                                           corrector_r=0.16, corrector_squared_step=True)
        self.zero_filled = self.op.vanilla_init()
        self.phantom = phantom
        self.zero_filled_psnr = lib.harness.psnr(self.zero_filled, phantom)
        self.rng_seed = _child_seed(seed, 13)

    def inputs(self, k: int):
        return {"k": k, "rng": self.lib.rng.RngStream(self.rng_seed, (k,))}

    def call(self, inp):
        return self.lib.samplers.ccdf_sample(self.zero_filled, self.op, self.cfg,
                                             self.schedule, self.oracle, inp["rng"])

    def check(self, inp, x) -> list:
        self.psnrs.append(self.lib.harness.psnr(x, self.phantom))
        res = self.op.residual(x)
        if not res <= RESIDUAL_MAX:
            return [f"reconstruction {inp['k']}: residual {res:.3g} > {RESIDUAL_MAX}"]
        return []

    def expected_counts(self, inp, out) -> dict:
        n_prime = self.cfg.n_prime
        return {
            "samplers.ccdf_sample": 1,
            "samplers.forward_diffuse": 1,
            "samplers.smld_step": n_prime,
            "samplers.corrector": n_prime,
            "score": 2 * n_prime,
            "consistency.mri.apply_linear": 2 * n_prime,
            "consistency.mri.offset": 2 * n_prime,
            "rng.normal": 2 * n_prime + 1,
            "consistency.fft": 4 * n_prime,
        }

    def digest(self, h, x):
        h.update(np.ascontiguousarray(x).tobytes())

    def finish(self, results: dict) -> list:
        errs = []
        mean = float(np.mean(self.psnrs))
        results["mean_psnr_db"] = mean
        results["zero_filled_psnr_db"] = self.zero_filled_psnr
        if not mean > self.zero_filled_psnr:
            errs.append(f"mean PSNR {mean:.4f} dB is not above zero-filled "
                        f"{self.zero_filled_psnr:.4f} dB")
        ref = self.reference
        if ref is not None and len(self.psnrs) >= RECON_REF_CALLS:
            head = float(np.mean(self.psnrs[:RECON_REF_CALLS]))
            tol = REF_SE * ref["psnr_std_db"] * math.sqrt(2.0 / RECON_REF_CALLS) + 1e-9
            if abs(head - ref["mean_psnr_db"]) > tol:
                errs.append(f"mean PSNR of the first {RECON_REF_CALLS} reconstructions "
                            f"{head!r} differs from reference {ref['mean_psnr_db']!r} "
                            f"by more than {tol:.3g} dB")
        return errs

    def reference_values(self, outputs) -> dict:
        p = [self.lib.harness.psnr(x, self.phantom) for _, x in outputs[:RECON_REF_CALLS]]
        return {"mean_psnr_db": float(np.mean(p)), "psnr_std_db": float(np.std(p, ddof=1))}


class BoundQuery(Workload):
    name = "bound-query"
    pass_calls = 1200
    min_rounds = 3
    warmup = 200
    work_unit = "queries (contraction_report + minimal_shortcut)"

    def __init__(self, lib, seed: int, reference: dict | None):
        super().__init__(lib, seed, reference)
        # Latin-hypercube points: each kind a third of the queries, and t0,
        # log10 eps0 and mu stratified over their ranges, so the cost of a
        # round does not depend on the seed.
        g = np.random.default_rng(_child_seed(seed, 21))
        P = self.pass_calls

        def strata():
            return (g.permutation(P) + g.random(P)) / P

        self.params = (g.permutation(np.arange(P) % 3),
                       1.0 - strata(),                        # t0 in (0, 1]
                       10.0 ** (-1.0 + 4.0 * strata()),       # eps0 in [0.1, 1000)
                       0.05 + 0.95 * strata())                # mu in [0.05, 1)

    def setup(self):
        S = self.lib.schedules
        K = S.SamplerKind
        vp = S.make_vp_schedule(1e-4, 0.02, QUERY_N)
        self.kinds = (K.DDPM, K.SMLD, K.DDIM)
        self.schedules = {K.DDPM: vp, K.DDIM: vp.with_kind(K.DDIM),
                          K.SMLD: S.make_ve_schedule(0.01, 378.0, QUERY_N)}

    def inputs(self, k: int):
        kind_i, t0, eps0, mu = self.params
        kind = self.kinds[int(kind_i[k])]
        return {"k": k, "kind": kind, "schedule": self.schedules[kind],
                "t0": float(t0[k]), "eps0": float(eps0[k]), "mu": float(mu[k])}

    def call(self, q):
        A = self.lib.analysis
        n_prime = self.lib.schedules.step_index_of_time(q["t0"], QUERY_N)
        report = A.contraction_report(q["schedule"], q["kind"], n_prime,
                                      QUERY_PIXELS, QUERY_TAU, q["eps0"])
        shortcut = A.minimal_shortcut(q["eps0"], q["mu"], q["schedule"], q["kind"],
                                      QUERY_TAU, QUERY_PIXELS)
        return report, shortcut

    def _satisfies(self, q, res, n_prime: int) -> bool:
        """Whether n_prime meets the inequalities recorded in ``res.checks``."""
        ch, kind, sch = res.checks, q["kind"].value, q["schedule"]
        if kind == "ddpm":
            v = n_prime * float(sch.beta[n_prime])
            return ch["lower_threshold"] <= v <= ch["upper_threshold"]
        if kind == "smld":
            r = (n_prime - 1.0) / (sch.N - 1.0)
            return (ch["sigma_min_sq"] < ch["sigma_min_cap"]
                    and ch["sigma_max_sq"] > ch["sigma_max_floor"]
                    and ch["ratio_lower"] <= r <= ch["ratio_upper"])
        return (ch["sigma0_sq"] <= ch["sigma0_cap"]
                and sch.ddim_sigma[n_prime] ** 2 >= ch["sigma_floor_sq"])

    def check(self, q, out) -> list:
        report, res = out
        errs = []
        lab = f"query {q['k']} ({q['kind'].value}, t0={q['t0']:.6g}, eps0={q['eps0']:.6g})"
        if not report.bound_recursive <= report.bound_simple * (1.0 + 1e-12):
            errs.append(f"{lab}: recursive bound {report.bound_recursive!r} above "
                        f"simple bound {report.bound_simple!r}")
        if res.feasible:
            if not self._satisfies(q, res, res.n_prime):
                errs.append(f"{lab}: shortcut N'={res.n_prime} violates its checks")
            elif res.n_prime > 1 and self._satisfies(q, res, res.n_prime - 1):
                errs.append(f"{lab}: shortcut N'={res.n_prime} is not minimal")
        elif not res.reason:
            errs.append(f"{lab}: infeasible shortcut without a reason")
        return errs

    def expected_counts(self, inp, out) -> dict:
        return {
            "analysis.contraction_report": 1,
            "analysis.minimal_shortcut": 1,
            "analysis.contraction_rate": 1,
            "analysis.bound_traces": 1,
            # contraction_report calls it directly, through noise_constant and
            # through noise_constant_candidates.
            "analysis.noise_constant_per_step": 3,
            "rng.normal": 0,
            "score": 0,
            "consistency.fft": 0,
        }

    def digest(self, h, out):
        report, res = out
        h.update(repr((report.bound_simple, report.bound_recursive, report.lam,
                       report.C, report.forward_error, res.feasible,
                       res.n_prime)).encode())


WORKLOADS = {w.name: w for w in (McGrid, ReconMri, BoundQuery)}
