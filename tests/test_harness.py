import hashlib
import io
import threading
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from ccdiff import (CcdfConfig, ConditionalScoreOracle, ExperimentConfig,
                    GaussianScoreOracle, IdentityOp, InpaintOp, SamplerKind,
                    SrOp, ValidationError, ccdf_sample, forward_coeffs,
                    make_phantom, make_ve_schedule, make_vp_schedule, psnr,
                    resolve_init, run_error_curve, run_mri_demo, run_t0_sweep)
from ccdiff import harness, samplers
from ccdiff.consistency import MriOp, gaussian1d_mask, mri_measure
from ccdiff.imgio import write_csv
from ccdiff.rng import RngStream, plan_draws
from ccdiff.samplers import REFILL_MIN_VALUES

VP100 = make_vp_schedule(1e-4, 0.02, 100)
VE100 = make_ve_schedule(0.01, 378, 100)
VP50 = make_vp_schedule(1e-4, 0.02, 50)
VE50 = make_ve_schedule(0.01, 378, 50)


def _identity_cfg(kind, schedule, t0, trials, seed, init_mode="eps0:4.0",
                  n=64, **kw):
    gt = RngStream(seed, (0x6774,)).uniform(0.0, 1.0, (n,))
    op = IdentityOp(gt.shape, gt)
    init = resolve_init(init_mode, gt, op, seed=seed)
    return ExperimentConfig(schedule=schedule, kind=kind, t0=t0, trials=trials,
                            ground_truth=gt, init=init, op=op,
                            oracle=ConditionalScoreOracle(gt), seed=seed, **kw)


# ----------------------------- error curves ---------------------------------


def test_ddim_zero_eps0_curve_stays_under_geometric_envelope():
    cfg = _identity_cfg(SamplerKind.DDIM, VP100, t0=0.5, trials=2000, seed=1,
                        init_mode="truth")
    stats = run_error_curve(cfg)
    assert stats.eps0 == 0.0
    lam = stats.bound_recursive  # recursive trace; also check explicit envelope
    n_prime = stats.n_prime
    sigma = VP100.ddim_sigma[n_prime]
    fwd = 2 * sigma ** 2 * stats.n
    lam_max = max(VP100.ddim_sigma[i - 1] / VP100.ddim_sigma[i]
                  for i in range(1, n_prime + 1))
    envelope = fwd * lam_max ** (2 * (n_prime - stats.steps))
    assert np.all(stats.mse <= envelope + 4 * stats.stderr + 1e-12)


def test_empirical_error_stays_under_recursive_bound_per_step():
    cfg = _identity_cfg(SamplerKind.DDPM, VP100, t0=0.2, trials=10_000, seed=2,
                        init_mode="eps0:10.0")
    stats = run_error_curve(cfg)
    assert np.all(stats.mse <= stats.bound_recursive + 4 * stats.stderr + 1e-12)
    assert np.all(stats.bound_recursive <= stats.bound_simple + 1e-12)
    # rise then contract: the forward jump exceeds eps0, the final error is far
    # below the post-forward error
    assert stats.mse[0] > stats.eps0
    assert stats.final_mse < 0.1 * stats.mse[0]


@pytest.mark.parametrize("t0", [0.1, 0.4, 1.0])
@pytest.mark.parametrize("kind", list(SamplerKind), ids=lambda k: k.value)
def test_recursive_bound_is_the_exact_error_of_the_identity_op(kind, t0):
    # With the conditional score, A = I and no corrector, lambda_i, 2n g_i^2
    # and tau = 1 are exact, so bound_recursive is the expected squared error
    # itself: a harness biased low fails here, not only one above the bound.
    # The 1e-9 covers DDIM's roundoff at step 0.
    sch = VE50 if kind is SamplerKind.SMLD else VP50
    stats = run_error_curve(_identity_cfg(kind, sch, t0=t0, trials=4000, seed=3,
                                          init_mode="eps0:10"))
    assert np.all(np.abs(stats.mse - stats.bound_recursive)
                  <= 5 * stats.stderr + 1e-9)


def test_shared_noise_mode_realizes_lambda_exactly():
    cfg = _identity_cfg(SamplerKind.DDPM, VP100, t0=0.3, trials=8, seed=3,
                        init_mode="eps0:9.0", shared_reverse_noise=True)
    stats = run_error_curve(cfg)
    from ccdiff import contraction_rate
    _, lam = contraction_rate(VP100, SamplerKind.DDPM, stats.n_prime)
    # with shared noise the empirical mse contracts by exactly lambda_i^2
    for k in range(1, stats.steps.size):
        i = stats.n_prime - k + 1
        expected = stats.mse[k - 1] * lam[i - 1] ** 2
        assert stats.mse[k] == pytest.approx(expected, rel=1e-9, abs=1e-30)


def test_trajectory_csv_rows_reproducible_bit_for_bit():
    cfg = _identity_cfg(SamplerKind.SMLD, VE100, t0=0.1, trials=64, seed=4)
    a, b = run_error_curve(cfg), run_error_curve(cfg)
    buf_a, buf_b = io.StringIO(), io.StringIO()
    write_csv(buf_a, a.rows())
    write_csv(buf_b, b.rows())
    assert buf_a.getvalue() == buf_b.getvalue()


def test_curve_records_every_step_down_to_zero():
    cfg = _identity_cfg(SamplerKind.DDPM, VP100, t0=0.07, trials=16, seed=5)
    stats = run_error_curve(cfg)
    assert stats.n_prime == 7
    assert list(stats.steps) == list(range(7, -1, -1))
    assert stats.mse.shape == stats.stderr.shape == (8,)


def test_experiment_config_validation():
    gt = np.zeros(8)
    op = IdentityOp(gt.shape, gt)
    with pytest.raises(ValidationError):
        ExperimentConfig(schedule=VP100, kind=SamplerKind.DDPM, t0=0.5, trials=1,
                         ground_truth=gt, init=gt, op=op,
                         oracle=ConditionalScoreOracle(gt), seed=0)
    with pytest.raises(ValidationError):
        ExperimentConfig(schedule=VP100, kind=SamplerKind.DDPM, t0=0.5, trials=4,
                         ground_truth=gt, init=np.zeros(9), op=op,
                         oracle=ConditionalScoreOracle(gt), seed=0)


@pytest.mark.parametrize("kind, schedule, family", [
    (SamplerKind.DDIM, VE100, "VP"),
    (SamplerKind.SMLD, VP100, "VE"),
], ids=["ddim-on-ve", "smld-on-vp"])
def test_error_curve_refuses_a_kind_the_schedule_cannot_run(monkeypatch, kind,
                                                             schedule, family):
    # Refused at construction, before any draw: DDIM on VE used to raise
    # TypeError from the error record's scale, SMLD on VP to fail only after
    # both forward draws.
    draws, normal = [], RngStream.normal
    monkeypatch.setattr(RngStream, "normal",
                        lambda self, shape: draws.append(shape) or normal(self, shape))
    with pytest.raises(ValidationError, match=f"requires a {family} schedule"):
        run_error_curve(_identity_cfg(kind, schedule, t0=0.2, trials=4, seed=6,
                                      init_mode="truth"))
    assert draws == []


def test_error_curve_rejects_non_finite_init():
    cfg = _identity_cfg(SamplerKind.DDPM, VP100, t0=0.2, trials=4, seed=6)
    init = cfg.init.copy()
    init[0] = np.nan
    with pytest.raises(ValidationError):
        run_error_curve(replace(cfg, init=init))


def test_error_curve_names_the_step_that_turned_non_finite():
    class InfAtStep4(ConditionalScoreOracle):
        def score(self, x, i, schedule):
            s = super().score(x, i, schedule)
            return s + np.inf if i == 4 else s

    cfg = _identity_cfg(SamplerKind.DDPM, VP100, t0=0.07, trials=4, seed=6)
    with np.errstate(invalid="ignore"), \
            pytest.raises(ValidationError, match="after step 4$"):
        run_error_curve(replace(cfg, oracle=InfAtStep4(cfg.ground_truth)))


def test_recording_a_step_allocates_one_state(monkeypatch, peak_states):
    # Wrap the loop's on_step hook, the per-step error record, and measure
    # it at a (1152, 16, 16) state, larger than a 2 MiB L2.
    peaks = []
    loop = harness.reverse_path

    def measured_path(*args):
        *args, record = args

        def hook(i, states):
            peaks.append(peak_states(lambda: record(i, states), states[0]))
        return loop(*args, hook)

    monkeypatch.setattr(harness, "reverse_path", measured_path)
    gt = make_phantom("ellipses", (16, 16), seed=22)
    op = IdentityOp(gt.shape, gt)
    for kind in (SamplerKind.DDPM, SamplerKind.DDIM):   # plain and scaled errors
        run_error_curve(ExperimentConfig(
            schedule=VP100, kind=kind, t0=0.03, trials=1152, ground_truth=gt,
            init=resolve_init("eps0:4.0", gt, op, seed=22), op=op,
            oracle=ConditionalScoreOracle(gt), seed=22))
    assert len(peaks) == 6
    assert max(peaks) <= 1 + 1 / 16


def test_experiment_config_refuses_an_oracle_mean_that_does_not_fit(monkeypatch):
    cfg = _identity_cfg(SamplerKind.DDPM, VP100, t0=0.06, trials=4, seed=31, n=16)
    threads, _ = _watch_draws(monkeypatch)
    for mu in (np.zeros(8), np.zeros((3, 16))):
        with pytest.raises(ValidationError, match="does not fit the operator's shape"):
            run_error_curve(replace(cfg, oracle=ConditionalScoreOracle(mu)))
    assert threads == []


# ------------------------- noise refills in the loop ------------------------


def _refill_cell(kind, op_name="identity", trials=1024, **kw):
    # 1024 trials x 64 values is exactly REFILL_MIN_VALUES per draw.
    sch = VE100 if kind is SamplerKind.SMLD else VP100
    cfg = _identity_cfg(kind, sch, t0=0.06, trials=trials, seed=31, **kw)
    if op_name == "inpaint":
        mask = np.arange(64) % 2 == 0
        cfg = replace(cfg, op=InpaintOp(mask, cfg.ground_truth))
    return cfg


def _watch_draws(monkeypatch):
    """Record the thread of every ``normal`` call and count refills per stream."""
    threads, refills = [], Counter()
    normal, refill = RngStream.normal, RngStream.refill

    def watched_normal(self, shape=()):
        threads.append(threading.get_ident())
        return normal(self, shape)

    def watched_refill(self, buf):
        refills[self.stream] += 1
        return refill(self, buf)

    monkeypatch.setattr(RngStream, "normal", watched_normal)
    monkeypatch.setattr(RngStream, "refill", watched_refill)
    return threads, refills


@pytest.mark.parametrize("kind", [SamplerKind.DDPM, SamplerKind.SMLD])
@pytest.mark.parametrize("op_name", ["identity", "inpaint"])
def test_error_curve_draws_on_the_calling_thread_and_refills_its_reverse_streams(
        monkeypatch, kind, op_name):
    assert 1024 * 64 == REFILL_MIN_VALUES
    cfg = _refill_cell(kind, op_name)
    threads, refills = _watch_draws(monkeypatch)
    n_prime = run_error_curve(cfg).n_prime
    anchored = op_name == "inpaint"
    # The count bench/workloads.py predicts: two forward draws, one reverse
    # draw per trajectory and step, one anchor draw per step when anchored.
    assert len(threads) == 2 + 2 * n_prime + n_prime * anchored
    assert set(threads) == {threading.get_ident()}
    # Substream 11 is the reference's forward draw, 12 and 13 the pair's
    # reverse noise (first blocks included) and 14 the anchor.
    want = {(11,): 1, (12,): n_prime, (13,): n_prime}
    if anchored:
        want[(14,)] = n_prime - 1
    assert refills == want


def test_error_curve_refills_corrector_streams_too(monkeypatch):
    cfg = _refill_cell(SamplerKind.SMLD, corrector_r=0.16)
    threads, refills = _watch_draws(monkeypatch)
    n_prime = run_error_curve(cfg).n_prime
    assert len(threads) == 2 + 4 * n_prime
    assert set(threads) == {threading.get_ident()}
    # The first corrector blocks are prefetched with the first reverse blocks.
    assert refills == {(11,): 1, (12,): n_prime, (13,): n_prime,
                       (15,): n_prime, (16,): n_prime}


@pytest.mark.parametrize("case", ["below-threshold", "ccdf-64x64"])
def test_small_blocks_are_planned_not_refilled(monkeypatch, case):
    # Below the cutoff no draw is handed back, the forward draw included:
    # the path's draws are planned once, in the order the loop makes them.
    _, refills = _watch_draws(monkeypatch)
    plans = []

    def watched_plan(draws, job_values):
        plans.append([s.stream for s, _ in draws])
        return plan_draws(draws, job_values)

    monkeypatch.setattr(samplers, "plan_draws", watched_plan)
    if case == "below-threshold":
        n_prime = run_error_curve(_refill_cell(SamplerKind.DDPM, trials=1023)).n_prime
        want = [(12,), (13,)] * n_prime
    else:
        ref = make_phantom("ellipses", (64, 64), seed=3)
        op = IdentityOp(ref.shape, ref)
        cfg = CcdfConfig(t0=0.05, N=100, kind=SamplerKind.SMLD, corrector_r=0.16)
        ccdf_sample(ref, op, cfg, VE100, ConditionalScoreOracle(ref), RngStream(8))
        want = [(1,), (3,)] * cfg.n_prime
    assert refills == {}
    assert plans == [want]


def test_ddim_refills_only_its_forward_draw(monkeypatch):
    # DDIM's reverse steps draw nothing, so no reverse stream is refilled.
    _, refills = _watch_draws(monkeypatch)
    run_error_curve(_refill_cell(SamplerKind.DDIM))
    assert refills == {(11,): 1}


def test_shared_reverse_noise_refills_each_trajectory_stream(monkeypatch):
    # Shared mode hands both trajectories their own stream with ids (12,),
    # and each stream refills its own spent draw.
    _, refills = _watch_draws(monkeypatch)
    n_prime = run_error_curve(
        _refill_cell(SamplerKind.DDPM, shared_reverse_noise=True)).n_prime
    assert refills == {(11,): 1, (12,): 2 * n_prime}


def test_mri_loops_never_refill_the_operator_s_offset(monkeypatch):
    # MriOp's offset is its own zero-filled image, not an anchor draw: no loop
    # may hand it to the anchor stream to be overwritten, batched or not.
    cfg = _refill_cell(SamplerKind.SMLD, corrector_r=0.16)
    gt = cfg.ground_truth.reshape(8, 8)
    mask = gaussian1d_mask(gt.shape, 2.0, 0.25, seed=31)
    op = MriOp(mask, mri_measure(gt, mask))
    before = op.vanilla_init().copy()
    cfg = replace(cfg, ground_truth=gt, init=cfg.init.reshape(8, 8), op=op,
                  oracle=ConditionalScoreOracle(gt))
    _, refills = _watch_draws(monkeypatch)
    n_prime = run_error_curve(cfg).n_prime
    assert np.array_equal(op.vanilla_init(), before)
    # The first corrector blocks are prefetched with the first reverse blocks.
    assert refills == {(11,): 1, (12,): n_prime, (13,): n_prime,
                       (15,): n_prime, (16,): n_prime}
    # One 256x256 image: the offset alone is as large as REFILL_MIN_VALUES.
    big = make_phantom("ellipses", (256, 256), seed=32)
    mask = gaussian1d_mask(big.shape, 4.0, 0.1, seed=32)
    op = MriOp(mask, mri_measure(big, mask))
    before = op.vanilla_init().copy()
    path = CcdfConfig(t0=0.03, N=100, kind=SamplerKind.SMLD, corrector_r=0.16)
    refills.clear()
    ccdf_sample(before, op, path, VE100, ConditionalScoreOracle(big), RngStream(32))
    assert np.array_equal(op.vanilla_init(), before)
    assert refills == {(1,): path.n_prime, (3,): path.n_prime}


@pytest.mark.parametrize("kind, op_name, kw", [
    (SamplerKind.DDPM, "inpaint", {}),
    (SamplerKind.SMLD, "identity", {"corrector_r": 0.16}),
    (SamplerKind.SMLD, "inpaint", {"shared_reverse_noise": True}),
], ids=["ddpm-inpaint", "smld-corrected", "smld-shared"])
def test_refills_leave_the_error_curve_bit_identical(monkeypatch, kind, op_name, kw):
    cfg = _refill_cell(kind, op_name, **kw)
    refilled = run_error_curve(cfg)
    monkeypatch.setattr(RngStream, "refill", lambda self, buf: None)
    drawn = run_error_curve(cfg)
    for name in ("mse", "stderr", "bound_recursive", "bound_simple"):
        assert getattr(refilled, name).tobytes() == getattr(drawn, name).tobytes()


@pytest.mark.parametrize("kind, op_name, kw, digest", [
    (SamplerKind.DDPM, "identity", {},
     "727017e2c637d75d7948d963d5fe04a4d619359393c3ef8697d36b96f2e094c4"),
    (SamplerKind.SMLD, "inpaint", {"corrector_r": 0.16},
     "8a17ab873f0388a120c36b48a468b77a5677d74537bf71794dc5340ab37899c3"),
    (SamplerKind.DDIM, "identity", {},
     "74b665143f087d3d2599d496d3f905b7e5c41a9a5465d2c7988745491f8cd2e7"),
], ids=["ddpm-identity", "smld-inpaint-corrected", "ddim-identity"])
def test_shared_noise_error_curve_golden_regression_lock(kind, op_name, kw, digest):
    # Shared mode at the refill block size: the pair's reverse and corrector
    # draws must stay bit-identical however the sharing is arranged.
    st = run_error_curve(_refill_cell(kind, op_name, shared_reverse_noise=True, **kw))
    assert hashlib.sha256(st.mse.tobytes() + st.stderr.tobytes()).hexdigest() == digest


# -------------------------------- sweeps ------------------------------------


def test_t0_sweep_golden_csv_regression_lock():
    cfg = _identity_cfg(SamplerKind.DDPM, VP100, t0=0.05, trials=256, seed=11)
    sweep = run_t0_sweep(cfg, (0.05, 0.1, 0.2, 0.5, 1.0))
    buf = io.StringIO()
    write_csv(buf, sweep.rows())
    digest = hashlib.sha256(buf.getvalue().encode()).hexdigest()
    assert digest == ("95faedbdd1992b9dd65da9c6e7bf99fcf75438c4"
                      "41e42b895dd31b72a6fa68bf")
    assert sweep.beats_full_path is not None


def test_error_curve_golden_regression_lock():
    # Frozen before the reverse steps, score, consistency and error recording
    # moved to in-place arithmetic: every kind on every operator whose bits
    # do not depend on the FFT backend, with the pair corrector on SMLD.
    vp, ve = make_vp_schedule(1e-4, 0.02, 50), make_ve_schedule(0.01, 378, 50)
    gt = make_phantom("ellipses", (8, 8), seed=21)
    mask = np.zeros((8, 8), dtype=bool)
    mask[:, ::2] = True
    digest = hashlib.sha256()
    for kind in (SamplerKind.DDPM, SamplerKind.SMLD, SamplerKind.DDIM):
        sch = ve if kind is SamplerKind.SMLD else vp
        for op in (IdentityOp(gt.shape, gt), InpaintOp(mask, gt), SrOp(2, gt)):
            cfg = ExperimentConfig(
                schedule=sch, kind=kind, t0=0.4, trials=16, ground_truth=gt,
                init=resolve_init("eps0:4.0", gt, op, seed=21), op=op,
                oracle=ConditionalScoreOracle(gt), seed=21,
                corrector_r=0.16 if kind is SamplerKind.SMLD else 0.0)
            stats = run_error_curve(cfg)
            digest.update(stats.mse.tobytes() + stats.stderr.tobytes())
    assert digest.hexdigest() == ("eed1121b24e71c301ce19bbd35c2db31"
                                  "0e2457106818248a16639463f1d3f4b9")


@pytest.mark.parametrize("op_class, kind, schedule, r", [
    (SrOp, SamplerKind.DDPM, make_vp_schedule(1e-4, 0.05, 100), 0.0),
    (InpaintOp, SamplerKind.SMLD, make_ve_schedule(0.02, 100, 100), 0.16),
], ids=["sr-ddpm", "inpaint-smld-corrected"])
def test_loop_hands_each_offset_the_coefficients_of_its_schedule(op_class, kind,
                                                                  schedule, r):
    # Each consistency map of step i, the corrector's included, gets
    # forward_coeffs(schedule, i) of the schedule the loop runs, in
    # ccdf_sample and in run_error_curve alike.
    gt = make_phantom("blocks", (16, 16), seed=4)
    seen = []

    class RecordingOp(op_class):
        def offset(self, c, rng, batch_shape=()):
            seen.append(c)
            return super().offset(c, rng, batch_shape)

    first = 4 if op_class is SrOp else RngStream(4).uniform(shape=(16, 16)) < 0.5
    op = RecordingOp(first, gt)
    path = CcdfConfig(t0=0.1, N=100, kind=kind, corrector_r=r)
    maps = 2 if r > 0 else 1
    expected = [forward_coeffs(schedule, i)
                for i in range(path.n_prime, 0, -1) for _ in range(maps)]
    oracle = ConditionalScoreOracle(gt)
    ccdf_sample(op.vanilla_init(), op, path, schedule, oracle, RngStream(5))
    assert seen == expected
    seen.clear()
    run_error_curve(ExperimentConfig(
        schedule=schedule, kind=kind, t0=0.1, trials=8, ground_truth=gt,
        init=op.vanilla_init(), op=op, oracle=oracle, seed=5, corrector_r=r))
    assert seen == expected


def test_t0_sweep_rejects_empty_grid():
    cfg = _identity_cfg(SamplerKind.DDPM, VP100, t0=0.05, trials=16, seed=12)
    with pytest.raises(ValidationError):
        run_t0_sweep(cfg, ())


def test_t0_sweep_with_gaussian_oracle_orders_inits_by_eps0():
    # Imperfect (Gaussian) prior: smaller initial error gives smaller final
    # error at a fixed small t0.
    gt = RngStream(13, (0x6774,)).uniform(0.0, 1.0, (64,))
    op = IdentityOp(gt.shape, gt)
    oracle = GaussianScoreOracle(mu=gt, var=0.25)
    finals = []
    for eps0 in (0.5, 8.0, 32.0):
        init = resolve_init(f"eps0:{eps0}", gt, op, seed=13)
        cfg = ExperimentConfig(schedule=VP100, kind=SamplerKind.DDPM, t0=0.1,
                               trials=4000, ground_truth=gt, init=init, op=op,
                               oracle=oracle, seed=13)
        finals.append(run_error_curve(cfg).final_mse)
    assert finals[0] < finals[1] < finals[2]


# ------------------------------- phantoms -----------------------------------


def test_blocks_phantom_is_block_constant_fixed_point():
    ph = make_phantom("blocks", (64, 64), seed=9)
    op = SrOp(4, ph)
    assert np.array_equal(op.project(ph), ph)
    assert ph.min() >= 0.0 and ph.max() <= 1.0


def test_ellipses_phantom_golden_pixel_sum():
    ph = make_phantom("ellipses", (64, 64), seed=7)
    assert float(ph.sum()) == pytest.approx(1832.051483973924, rel=1e-12)
    assert ph.min() >= 0.0 and ph.max() <= 1.0
    assert np.array_equal(ph, make_phantom("ellipses", (64, 64), seed=7))


def test_phantom_validation():
    with pytest.raises(ValidationError):
        make_phantom("ellipses", (1, 64), seed=0)
    with pytest.raises(ValidationError):
        make_phantom("nonsense", (8, 8), seed=0)


def test_psnr_values():
    a = np.zeros((4, 4))
    assert psnr(a, a) == float("inf")
    b = a + 0.1
    assert psnr(b, a) == pytest.approx(20.0, rel=1e-12)


def test_resolve_init_modes():
    gt = RngStream(14, (0x6774,)).uniform(0.0, 1.0, (32,))
    op = IdentityOp(gt.shape, gt)
    r = resolve_init("random", gt, op, seed=14)
    assert r.shape == gt.shape and 0 <= r.min() and r.max() <= 1
    v = resolve_init("vanilla", gt, op, seed=14)
    assert np.array_equal(v, gt)
    t = resolve_init("truth", gt, op, seed=14)
    assert np.array_equal(t, gt)
    e = resolve_init("eps0:2.5", gt, op, seed=14)
    assert float(np.sum((e - gt) ** 2)) == pytest.approx(2.5, rel=1e-12)
    with pytest.raises(ValidationError):
        resolve_init("bogus", gt, op, seed=14)


# -------------------------------- MRI demo ----------------------------------


def test_mri_demo_full_mask_recovers_exactly():
    ph = make_phantom("ellipses", (32, 32), seed=15)
    mask = np.ones((32, 32), dtype=bool)
    res = run_mri_demo(ph, mask, t0=0.02, trials=1, N=1000, seed=15)
    assert res.mean_psnr > 200.0  # infinite up to FFT roundoff
    assert res.residuals[0] <= 1e-10


def test_mri_demo_twenty_steps_and_residual():
    ph = make_phantom("ellipses", (64, 64), seed=16)
    mask = gaussian1d_mask((64, 64), 4.0, 0.08, seed=16)
    res = run_mri_demo(ph, mask, t0=0.02, trials=2, N=1000, seed=16)
    assert res.n_prime == 20
    assert all(r <= 1e-10 for r in res.residuals)


def test_mri_demo_beats_zero_filled_on_x4_mask():
    ph = make_phantom("ellipses", (64, 64), seed=17)
    mask = gaussian1d_mask((64, 64), 4.0, 0.08, seed=17)
    res = run_mri_demo(ph, mask, t0=0.02, trials=2, N=1000, seed=17)
    assert res.mean_psnr >= res.zero_filled_psnr


def test_mri_demo_golden_regression_lock():
    # Frozen before the corrector read its clamp from the oracle's slope: the
    # squared-step corrector with a Gaussian prior of var > 0, on numpy's FFT.
    ph = make_phantom("ellipses", (32, 32), seed=23)
    mask = gaussian1d_mask((32, 32), 4.0, 0.08, seed=23)
    res = run_mri_demo(ph, mask, t0=0.02, trials=1, N=1000, seed=23)
    assert hashlib.sha256(res.recon.tobytes()).hexdigest() == (
        "fd6d5ed610cc56403f38139996abcabb5a33c683592a81f7736e50548f01c528")


def test_mri_demo_rejects_asymmetric_mask():
    ph = make_phantom("ellipses", (16, 16), seed=18)
    mask = np.zeros((16, 16), dtype=bool)
    mask[:, 3] = True  # no mirrored partner
    mask[0, 0] = True
    with pytest.raises(ValidationError):
        run_mri_demo(ph, mask, t0=0.02)


def test_mri_demo_shared_anchor_consistency_with_inpaint_regression():
    # consistency anchors drawn once per step are shared between the coupled
    # trajectories: with shared reverse noise the pair difference is exactly
    # scalar, unaffected by the anchor stream
    gt = make_phantom("ellipses", (16, 16), seed=19)
    gen = RngStream(19, (7,)).generator()
    mask = gen.uniform(size=(16, 16)) < 0.5
    mask.flat[0] = True
    op = InpaintOp(mask, gt)
    init = resolve_init("eps0:4.0", gt, op, seed=19)
    cfg = ExperimentConfig(schedule=VP100, kind=SamplerKind.DDPM, t0=0.2,
                           trials=8, ground_truth=gt, init=init, op=op,
                           oracle=ConditionalScoreOracle(gt), seed=19,
                           shared_reverse_noise=True)
    stats = run_error_curve(cfg)
    from ccdiff import contraction_rate
    _, lam = contraction_rate(VP100, SamplerKind.DDPM, stats.n_prime)
    for k in range(1, stats.steps.size):
        i = stats.n_prime - k + 1
        # A = diag(0/1) on the unmeasured set composed with the scalar factor:
        # the ratio cannot exceed lambda_i
        assert stats.mse[k] <= stats.mse[k - 1] * lam[i - 1] ** 2 * (1 + 1e-9) + 1e-30
