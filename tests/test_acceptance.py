"""Acceptance gate: one test per criterion, each printing a pass line with
its runtime against the stated budget.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import csv
import io
import time
from contextlib import redirect_stdout

import numpy as np
import pytest

from ccdiff import (CcdfConfig, ConditionalScoreOracle, ExperimentConfig,
                    GaussianScoreOracle, IdentityOp, InpaintOp, SamplerKind,
                    SrOp, ccdf_sample, certify_nonexpansive, contraction_rate,
                    forward_coeffs, forward_error, gaussian1d_mask,
                    make_phantom, make_ve_schedule, make_vp_schedule,
                    minimal_shortcut, mri_measure, mri_projection,
                    noise_constant_per_step, resolve_init, reverse_step_ddim,
                    reverse_step_ddpm, reverse_step_smld, run_error_curve,
                    run_mri_demo, run_t0_sweep)
from ccdiff.cli import main as cli_main
from ccdiff.imgio import save_image
from ccdiff.rng import RngStream

VP1000 = make_vp_schedule(1e-4, 0.02, 1000)
VE1000 = make_ve_schedule(0.01, 378, 1000)


def _report(num, desc, t_start, budget):
    elapsed = time.perf_counter() - t_start
    print(f"\nACCEPTANCE {num}: PASS ({elapsed:.2f}s < {budget}s) - {desc}")
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget"


def test_criterion_01_schedule_fidelity():
    t0 = time.perf_counter()
    vp = make_vp_schedule(1e-4, 0.02, 1000)
    assert vp.beta[1] == 1e-4 and vp.beta[1000] == 0.02
    assert np.all(np.diff(vp.alpha_bar) < 0)
    ve = make_ve_schedule(0.01, 378, 1000)
    assert ve.sigma[1] == pytest.approx(0.01, rel=1e-15)
    assert ve.sigma[1000] == pytest.approx(378.0, rel=1e-12)
    assert np.all(np.diff(ve.sigma) > 0)
    assert np.all(np.diff(vp.ddim_sigma) > 0)
    _report(1, "schedule endpoints exact, monotone alpha_bar/sigma", t0, 1.0)


def test_criterion_02_contraction_rate_correctness():
    t0 = time.perf_counter()
    gen = RngStream(2, (0xA2,)).generator()
    for kind in (SamplerKind.DDPM, SamplerKind.SMLD, SamplerKind.DDIM):
        for _ in range(100):
            N = int(gen.integers(4, 600))
            if kind is SamplerKind.SMLD:
                smin = float(gen.uniform(1e-3, 0.5))
                sch = make_ve_schedule(smin, float(gen.uniform(smin * 3, 400)), N)
            else:
                bmin = float(gen.uniform(1e-5, 5e-3))
                sch = make_vp_schedule(bmin, float(gen.uniform(bmin * 2, 0.4)), N)
            i = int(gen.integers(1, N + 1))
            _, lam = contraction_rate(sch, kind, N)
            ref = gen.standard_normal(24)
            oracle = ConditionalScoreOracle(ref)
            x = gen.standard_normal(24)
            xt = x + gen.standard_normal(24)
            z = gen.standard_normal(24)
            if kind is SamplerKind.DDPM:
                a = reverse_step_ddpm(x, i, sch, oracle, z)
                b = reverse_step_ddpm(xt, i, sch, oracle, z)
                ratio = np.linalg.norm(a - b) / np.linalg.norm(x - xt)
            elif kind is SamplerKind.SMLD:
                a = reverse_step_smld(x, i, sch, oracle, z)
                b = reverse_step_smld(xt, i, sch, oracle, z)
                ratio = np.linalg.norm(a - b) / np.linalg.norm(x - xt)
            else:
                a = reverse_step_ddim(x, i, sch, oracle)
                b = reverse_step_ddim(xt, i, sch, oracle)
                num = np.linalg.norm(a - b) / np.sqrt(sch.alpha_bar[i - 1])
                den = np.linalg.norm(x - xt) / np.sqrt(sch.alpha_bar[i])
                ratio = num / den
            assert abs(ratio - lam[i - 1]) <= 1e-9 * lam[i - 1] + 1e-12
    _report(2, "coupled-pair ratios equal closed-form lambda_i (1e-9, 300 samples)",
            t0, 10.0)


def test_criterion_03_forward_error_monte_carlo():
    t0 = time.perf_counter()
    gen = RngStream(3, (0xA3,)).generator()
    kinds = (SamplerKind.DDPM, SamplerKind.SMLD, SamplerKind.DDIM)
    M = 10_000
    for cfg_idx in range(20):
        kind = kinds[cfg_idx % 3]
        sch = VE1000 if kind is SamplerKind.SMLD else VP1000
        n = int(gen.integers(16, 1025))
        n_prime = int(gen.integers(1, 1001))
        eps0 = float(gen.uniform(0.1, 50.0))
        g = gen.standard_normal(n)
        d = gen.standard_normal(n)
        x0 = g + d * np.sqrt(eps0) / np.linalg.norm(d)
        c = forward_coeffs(sch, n_prime)
        X = c.a * x0 + c.b * gen.standard_normal((M, n))
        G = c.a * g + c.b * gen.standard_normal((M, n))
        diff = X - G
        if kind is SamplerKind.DDIM:
            diff = diff / np.sqrt(sch.alpha_bar[n_prime])
        sq = np.sum(diff ** 2, axis=1)
        se = sq.std(ddof=1) / np.sqrt(M)
        expected = forward_error(eps0, sch, kind, n_prime, n)
        assert abs(sq.mean() - expected) <= 4 * se
    _report(3, "err_N' = a^2 eps0 + 2 b^2 n within 4 SE (20 configs, 1e4 pairs)",
            t0, 60.0)


def _cell_ops(gt):
    shape = gt.shape
    n = gt.size
    ops = {"identity": IdentityOp(shape, gt)}
    gen = RngStream(44, (0xA4,)).generator()
    mask = np.zeros(n, dtype=bool)
    mask[gen.permutation(n)[: n // 2]] = True  # exactly m/n = 0.5
    ops["inpaint"] = InpaintOp(mask.reshape(shape), gt)
    mri_mask = gaussian1d_mask(shape, 4.0, 0.1, seed=7)
    ops["mri"] = mri_projection(mri_mask, mri_measure(gt, mri_mask))
    return ops


def test_criterion_04_error_bound_grid():
    t0 = time.perf_counter()
    gt = make_phantom("ellipses", (16, 16), seed=4)
    vp = make_vp_schedule(1e-4, 0.02, 50)
    ve = make_ve_schedule(0.01, 378, 50)
    oracle = ConditionalScoreOracle(gt)
    checked = 0
    for kind in (SamplerKind.DDPM, SamplerKind.SMLD, SamplerKind.DDIM):
        sch = ve if kind is SamplerKind.SMLD else vp
        for op_name, op in _cell_ops(gt).items():
            init = resolve_init("eps0:10.0", gt, op, seed=5)
            for t in (0.04, 0.1, 0.2, 0.4):
                cfg = ExperimentConfig(
                    schedule=sch, kind=kind, t0=t, trials=10_000,
                    ground_truth=gt, init=init, op=op, oracle=oracle, seed=6)
                stats = run_error_curve(cfg)
                slack = 4 * stats.stderr + 1e-9
                assert np.all(stats.mse <= stats.bound_recursive + slack), \
                    f"{kind.value}/{op_name}/t0={t}"
                assert np.all(stats.bound_recursive
                              <= stats.bound_simple + 1e-12)
                checked += 1
    assert checked == 36
    _report(4, "empirical <= recursive <= simple at every step "
               "(3 kinds x 4 t0 x 3 ops, 1e4 trials, 4 SE)", t0, 300.0)


def _coupled_final_error(schedule, kind, n_prime, gt, init, op, seed,
                         trials=1500):
    cfg = ExperimentConfig(schedule=schedule, kind=kind,
                           t0=n_prime / schedule.N, trials=trials,
                           ground_truth=gt, init=init, op=op,
                           oracle=ConditionalScoreOracle(gt), seed=seed)
    stats = run_error_curve(cfg)
    assert stats.n_prime == n_prime
    return stats.final_mse, stats.final_stderr


def test_criterion_05_minimal_shortcut():
    t0 = time.perf_counter()
    n = 64

    # DDIM on the VE grid: closed-form inversion matches the scan.
    res = minimal_shortcut(12.8, 1.0, VE1000, SamplerKind.DDIM, 1.0, n)
    closed = int(np.ceil(1 + 999 * np.log(np.sqrt(12.8 / 128) / 0.01)
                         / np.log(37800.0)))
    assert res.feasible and res.n_prime == closed == 329
    assert VE1000.sigma[329] ** 2 >= 12.8 / (2 * n) > VE1000.sigma[328] ** 2

    # Monotone nondecreasing in eps0 over a 10-point ladder.
    for kind in (SamplerKind.DDIM, SamplerKind.SMLD):
        prev = 0
        for eps0 in np.geomspace(0.5, 200.0, 10):
            r = minimal_shortcut(float(eps0), 1.0, VE1000, kind, 1.0, n)
            assert r.feasible and r.n_prime >= prev
            prev = r.n_prime

    # Scan verification of the defining inequalities, all kinds.
    tau_ddpm = 1.0 / 64.0
    r_ddpm = minimal_shortcut(48.0, 1.0, VP1000, SamplerKind.DDPM, tau_ddpm, n)
    v = r_ddpm.n_prime * VP1000.beta[r_ddpm.n_prime]
    assert v >= 2 * np.log(4 * n / 48.0) and v <= 48.0 / (4 * n * tau_ddpm)
    r_smld = minimal_shortcut(12.8, 1.0, VE1000, SamplerKind.SMLD, 1.0, n)
    ratio = (r_smld.n_prime - 1) / (VE1000.N - 1)
    log_r = np.log(VE1000.sigma[1000] ** 2 / VE1000.sigma[1] ** 2)
    assert ratio >= np.log(2.0) / log_r
    assert ratio <= np.log(12.8 / (4 * n * VE1000.sigma[1] ** 2)) / log_r
    # infeasible window is reported, not guessed
    bad = minimal_shortcut(0.5, 1.0, VP1000, SamplerKind.DDPM, 1.0, n)
    assert not bad.feasible and bad.reason

    # Running the shortcut achieves the mu eps0 target (4-SE slack).
    gt = RngStream(50, (0x6774,)).uniform(0.0, 1.0, (n,))
    mask = np.ones(n, dtype=bool)
    mask[-1] = False  # tau = 1/64 for the DDPM window
    for mu in (0.5, 1.0):
        eps0 = 48.0
        op = InpaintOp(mask, gt)
        r = minimal_shortcut(eps0, mu, VP1000, SamplerKind.DDPM, tau_ddpm, n)
        assert r.feasible
        init = resolve_init(f"eps0:{eps0}", gt, op, seed=51)
        err, se = _coupled_final_error(VP1000, SamplerKind.DDPM, r.n_prime,
                                       gt, init, op, seed=52)
        assert err <= mu * eps0 + 4 * se

        eps0 = 12.8
        op = IdentityOp((n,), gt)
        init = resolve_init(f"eps0:{eps0}", gt, op, seed=53)
        r = minimal_shortcut(eps0, mu, VE1000, SamplerKind.SMLD, 1.0, n)
        assert r.feasible
        err, se = _coupled_final_error(VE1000, SamplerKind.SMLD, r.n_prime,
                                       gt, init, op, seed=54)
        assert err <= mu * eps0 + 4 * se

        r = minimal_shortcut(eps0, mu, VP1000, SamplerKind.DDIM, 1.0, n)
        assert r.feasible
        err, se = _coupled_final_error(VP1000, SamplerKind.DDIM, r.n_prime,
                                       gt, init, op, seed=55)
        assert err <= mu * eps0 + 4 * se
    _report(5, "minimal shortcut: scan-exact, monotone in eps0, 329 closed form, "
               "mu eps0 target achieved", t0, 120.0)


def test_criterion_06_ddim_reparameterization():
    t0 = time.perf_counter()
    rng = RngStream(6)
    ref = rng.substream(0).normal((32,))
    oracle = ConditionalScoreOracle(ref)
    for trial in range(1000):
        i = 1 + int(rng.substream(trial).uniform(0, 1000))
        x = rng.substream(10_000 + trial).normal((32,))
        out = reverse_step_ddim(x, i, VP1000, oracle)
        z_hat = -oracle.score(x, i, VP1000) * np.sqrt(1 - VP1000.alpha_bar[i])
        xbar = x / np.sqrt(VP1000.alpha_bar[i])
        alt = (xbar + (VP1000.ddim_sigma[i - 1] - VP1000.ddim_sigma[i]) * z_hat) \
            * np.sqrt(VP1000.alpha_bar[i - 1])
        scale = max(float(np.max(np.abs(out))), 1e-300)
        assert np.max(np.abs(out - alt)) / scale <= 1e-12
    # C = 0 path: bit-identical end to end
    op = IdentityOp(ref.shape, ref)
    cfg = CcdfConfig(t0=0.2, N=1000, kind=SamplerKind.DDIM)
    a = ccdf_sample(ref + 0.5, op, cfg, VP1000, oracle, RngStream(61))
    b = ccdf_sample(ref + 0.5, op, cfg, VP1000, oracle, RngStream(61))
    assert np.array_equal(a, b)
    _report(6, "direct vs reparameterized update to 1e-12 (1000 states); "
               "deterministic path bit-identical", t0, 30.0)


def test_criterion_07_operator_certificates():
    t0 = time.perf_counter()
    gt = make_phantom("blocks", (32, 32), seed=7)
    vp = make_vp_schedule(1e-4, 0.02, 100)
    gen = RngStream(70, (1,)).generator()
    mask = np.zeros(32 * 32, dtype=bool)
    mask[gen.permutation(32 * 32)[:400]] = True
    mri_mask = gaussian1d_mask((32, 32), 4.0, 0.1, seed=71)
    ops = {
        "sr": SrOp(4, gt),
        "inpaint": InpaintOp(mask.reshape(32, 32), gt),
        "mri": mri_projection(mri_mask, mri_measure(gt, mri_mask)),
    }
    assert ops["sr"].tau == 1 - 1 / 16
    assert ops["inpaint"].tau == (1024 - 400) / 1024
    m = int(mri_mask.sum())
    assert ops["mri"].tau == (1024 - m) / 1024
    for name, op in ops.items():
        sigma = certify_nonexpansive(op, trials=64, rng=RngStream(72))
        assert sigma <= 1 + 1e-6
        for _ in range(5):
            x = gen.standard_normal((32, 32))
            y = gen.standard_normal((32, 32))
            ax = op.apply_linear(x)
            assert np.max(np.abs(op.apply_linear(ax) - ax)) <= 1e-12
            assert abs(float(np.vdot(ax, y) - np.vdot(x, op.apply_linear(y)))) \
                <= 1e-12 * max(1.0, abs(float(np.vdot(ax, y))))
    # MRI consistency residual after every shortcut run
    ve = make_ve_schedule(0.01, 378, 100)
    op = ops["mri"]
    oracle = ConditionalScoreOracle(gt)
    for kind, sch in ((SamplerKind.SMLD, ve), (SamplerKind.DDPM, vp),
                      (SamplerKind.DDIM, vp)):
        for seed in (0, 1):
            cfg = CcdfConfig(t0=0.2, N=100, kind=kind)
            out = ccdf_sample(op.vanilla_init(), op, cfg, sch, oracle,
                              RngStream(73 + seed))
            assert op.residual(out) <= 1e-10
    _report(7, "A^2=A, A^T=A (1e-12), sigma_max <= 1+1e-6, exact tau, "
               "MRI residual <= 1e-10 after every run", t0, 60.0)


def test_criterion_08_jacobian_finite_differences():
    t0 = time.perf_counter()
    rng = RngStream(8)
    ref = rng.substream(0).normal((6,))
    var = rng.substream(1).uniform(0.05, 1.5, (6,))
    oracles = (ConditionalScoreOracle(ref), GaussianScoreOracle(mu=ref, var=var))
    h = 1e-5
    for trial in range(50):
        x = rng.substream(100 + trial).normal((6,))
        i = 1 + int(rng.substream(500 + trial).uniform(0, 1000))
        c = forward_coeffs(VP1000, i)
        for oracle in oracles:
            exact = oracle.jacobian_diag(x, i, VP1000)
            if isinstance(oracle, ConditionalScoreOracle):
                assert np.allclose(exact, -1.0 / c.b ** 2, rtol=1e-14)
            for k in range(6):
                e = np.zeros(6)
                e[k] = h
                fd = (oracle.score(x + e, i, VP1000)[k]
                      - oracle.score(x - e, i, VP1000)[k]) / (2 * h)
                assert fd == pytest.approx(exact[k], rel=1e-6)
    _report(8, "finite-difference Jacobians match closed forms "
               "(50 random (x, i), both oracles, 1e-6)", t0, 60.0)


def test_criterion_09_error_curve_shapes_and_init_ordering(tmp_path):
    t0 = time.perf_counter()
    # (a) full-path baseline emitted by the simulate CLI
    out_csv = tmp_path / "full_path.csv"
    code = cli_main(["simulate", "--kind", "ddpm", "--n-steps", "100",
                     "--t0", "1.0", "--trials", "64", "--n", "32",
                     "--init", "eps0:9.0", "--seed", "90",
                     "--out", str(out_csv)])
    assert code == 0
    with out_csv.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["step"] == "100" and rows[-1]["step"] == "0"

    sch = make_vp_schedule(1e-4, 0.02, 100)

    # (b) vanilla init: rise then contract
    gt = make_phantom("ellipses", (16, 16), seed=91)
    gen = RngStream(92, (3,)).generator()
    mask = gen.uniform(size=(16, 16)) < 0.5
    mask.flat[0] = True
    op = InpaintOp(mask, gt)
    oracle = GaussianScoreOracle(mu=gt, var=0.02)
    vanilla = resolve_init("vanilla", gt, op, seed=92)
    cfg = ExperimentConfig(schedule=sch, kind=SamplerKind.DDPM, t0=0.4,
                           trials=1000, ground_truth=gt, init=vanilla, op=op,
                           oracle=oracle, seed=93)
    stats = run_error_curve(cfg)
    assert stats.mse[0] > stats.eps0          # forward diffusion raises the error
    assert stats.final_mse < 0.5 * stats.mse[0]  # then the reverse path contracts

    # (c) smaller-eps0 init reaches a common target at a smaller t0
    grid = (0.05, 0.1, 0.2, 0.4, 0.7, 1.0)
    hole_dir = np.where(mask, 0.0, RngStream(94, (2,)).normal((16, 16)))
    better = gt + hole_dir * (1.0 / np.linalg.norm(hole_dir))
    finals = {}
    for name, init in (("vanilla", vanilla), ("better", better)):
        sweep = run_t0_sweep(
            ExperimentConfig(schedule=sch, kind=SamplerKind.DDPM, t0=0.1,
                             trials=400, ground_truth=gt, init=init, op=op,
                             oracle=oracle, seed=95), grid)
        finals[name] = np.array([s.final_mse for s in sweep.stats])
    target = 1.1 * finals["vanilla"].min()
    min_t0 = {k: min(t for t, f in zip(grid, v) if f <= target)
              for k, v in finals.items()}
    assert min_t0["better"] < min_t0["vanilla"]

    # ordering of final errors matches eps0 ordering in >= 95% of 20 seeds
    consistent = 0
    for rep in range(20):
        gt_r = make_phantom("ellipses", (16, 16), seed=100 + rep)
        gen = RngStream(200 + rep, (3,)).generator()
        mask_r = gen.uniform(size=(16, 16)) < 0.5
        mask_r.flat[0] = True
        op_r = InpaintOp(mask_r, gt_r)
        oracle_r = GaussianScoreOracle(mu=gt_r, var=0.02)
        rnd = np.where(mask_r, gt_r,
                       RngStream(300 + rep, (1,)).uniform(0, 1, (16, 16)))
        hole = np.where(mask_r, 0.0, RngStream(300 + rep, (2,)).normal((16, 16)))
        inits = {
            "random": rnd,
            "vanilla": op_r.vanilla_init(),
            "better": gt_r + hole / np.linalg.norm(hole),
        }
        eps0s = {k: float(np.sum((v - gt_r) ** 2)) for k, v in inits.items()}
        fin = {}
        for name, init in inits.items():
            cfg_r = ExperimentConfig(schedule=sch, kind=SamplerKind.DDPM,
                                     t0=0.1, trials=400, ground_truth=gt_r,
                                     init=init, op=op_r, oracle=oracle_r,
                                     seed=400 + rep)
            fin[name] = run_error_curve(cfg_r).final_mse
        consistent += sorted(eps0s, key=eps0s.get) == sorted(fin, key=fin.get)
    assert consistent >= 19  # >= 95% of 20 repetitions
    _report(9, "full-path curve emitted; rise-then-contract; smaller eps0 "
               f"permits smaller t0; ordering {consistent}/20", t0, 240.0)


def test_criterion_10_twenty_step_mri_cli(tmp_path):
    t0 = time.perf_counter()
    phantom_path = tmp_path / "phantom.raw"
    save_image(phantom_path, make_phantom("ellipses", (64, 64), seed=10))
    cfg_path = tmp_path / "op.cfg"
    cfg_path.write_text(f"measurement={phantom_path}\n"
                        "accel-factor=4\nacs-fraction=0.08\nseed=10\n")
    buf = io.StringIO()
    t_run = time.perf_counter()
    with redirect_stdout(buf):
        code = cli_main(["ccdf", "--kind", "smld", "--n-steps", "1000",
                         "--t0", "0.02", "--seed", "13", "--op", "mri",
                         "--op-config", str(cfg_path), "--init", "vanilla",
                         "--out", str(tmp_path / "recon.raw")])
    run_seconds = time.perf_counter() - t_run
    assert code == 0
    pairs = dict(line.split(",", 1) for line in buf.getvalue().strip().splitlines())
    assert pairs["reverse_steps"] == "20"
    assert int(pairs["score_evaluations"]) == 40  # predictor + corrector
    assert float(pairs["consistency_residual"]) <= 1e-10
    assert run_seconds < 5.0
    # library-level demo agrees on the step count
    demo_mask = gaussian1d_mask((64, 64), 4.0, 0.08, seed=10)
    res = run_mri_demo(make_phantom("ellipses", (64, 64), seed=10), demo_mask,
                       t0=0.02, trials=1, N=1000, seed=13)
    assert res.n_prime == 20
    _report(10, f"CLI 20-step 64x64 MRI demo in {run_seconds:.2f}s (< 5s), "
                "residual <= 1e-10", t0, 30.0)
