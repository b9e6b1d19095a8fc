"""Desk-scale experiment drivers: coupled-trajectory error curves, shortcut
sweeps, synthetic phantoms, and the end-to-end MRI reconstruction demo.

The Monte Carlo experiments run a coupled pair per trial: a reference
trajectory started at the ground truth and an estimate trajectory started at
the chosen initialization.  Forward and reverse noise are independent per
trajectory (the regime of the error bounds), while the per-step consistency
offsets are shared within each pair, which is exactly the coupling the
bound analysis assumes.  A shared-reverse-noise mode, which gives both
trajectories the same reverse and corrector stream ids, exists solely for
verifying the per-step contraction factors bit-exactly.

Trials are vectorized along the leading axis and reduced with numpy's
deterministic pairwise summation, so statistics are reproducible from
(config, seed) alone.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, replace

import numpy as np

from . import rng
from .analysis import (bound_traces, contraction_rate, forward_error,
                       noise_constant_per_step)
from .errors import ValidationError
from .rng import RngStream
from .samplers import (DEFAULT_CORRECTOR_R, RULES, CcdfConfig, ccdf_sample,
                       forward_diffuse, reverse_path)
from .schedules import SamplerKind, Schedule, check_family, make_ve_schedule
from .score import GaussianScoreOracle, ScoreOracle, check_mean_fits
from .consistency import MriOp, mri_measure


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved inputs of one coupled-trajectory experiment."""

    schedule: Schedule
    kind: SamplerKind
    t0: float
    trials: int
    ground_truth: np.ndarray
    init: np.ndarray
    op: object
    oracle: ScoreOracle
    seed: int
    corrector_r: float = 0.0
    shared_reverse_noise: bool = False

    def __post_init__(self):
        if self.trials < 2:
            raise ValidationError("need at least 2 trials for standard errors")
        if not 0.0 < self.t0 <= 1.0:
            raise ValidationError(f"t0 must lie in (0, 1], got {self.t0}")
        check_family(self.schedule, self.kind, f"sampler kind {self.kind.value}")
        if np.shape(self.ground_truth) != np.shape(self.init):
            raise ValidationError(f"ground truth shape {np.shape(self.ground_truth)} "
                                  f"!= init shape {np.shape(self.init)}")
        tau = getattr(self.op, "tau", None)
        if not (isinstance(tau, numbers.Real) and 0.0 <= tau <= 1.0):
            raise ValidationError(
                f"the operator's tau must be a number in [0, 1], got {tau!r}")
        check_mean_fits(self.oracle, getattr(self.op, "shape", np.shape(self.ground_truth)))


@dataclass(frozen=True)
class TrajectoryStats:
    """Per-step mean squared error across trials, with the bound traces."""

    kind: SamplerKind
    t0: float
    n_prime: int
    trials: int
    n: int
    eps0: float
    steps: np.ndarray       # N', N'-1, ..., 0
    mse: np.ndarray
    stderr: np.ndarray
    bound_recursive: np.ndarray
    bound_simple: np.ndarray

    @property
    def final_mse(self) -> float:
        return float(self.mse[-1])

    @property
    def final_stderr(self) -> float:
        return float(self.stderr[-1])

    def rows(self):
        for k in range(self.steps.size):
            yield {
                "step": int(self.steps[k]),
                "mse": repr(float(self.mse[k])),
                "stderr": repr(float(self.stderr[k])),
                "bound_recursive": repr(float(self.bound_recursive[k])),
                "bound_simple": repr(float(self.bound_simple[k])),
            }


def resolve_init(mode: str, ground_truth: np.ndarray, op, seed: int) -> np.ndarray:
    """Build the estimate-trajectory initialization from a mode string.

    ``random``: uniform noise in [0, 1] (large initial error);
    ``vanilla``: the operator's corrupted measurement;
    ``truth``: the ground truth itself (zero initial error);
    ``eps0:<v>``: ground truth displaced by a seeded direction with squared
    norm exactly v (a stand-in for a learned initializer of known quality).
    """
    ground_truth = np.asarray(ground_truth, dtype=np.float64)
    if mode == "random":
        return RngStream(seed, (0x696E6974,)).uniform(0.0, 1.0, ground_truth.shape)
    if mode == "vanilla":
        return np.asarray(op.vanilla_init(), dtype=np.float64)
    if mode == "truth":
        return ground_truth.copy()
    if mode.startswith("eps0:"):
        try:
            eps0 = float(mode.split(":", 1)[1])
        except ValueError:
            raise ValidationError(f"eps0 must be a number, got {mode!r}") from None
        if not 0.0 <= eps0 < np.inf:
            raise ValidationError(f"eps0 must be finite and nonnegative, got {mode!r}")
        direction = RngStream(seed, (0x696E6974,)).normal(ground_truth.shape)
        norm = np.linalg.norm(direction)
        return ground_truth + direction * (np.sqrt(eps0) / norm)
    raise ValidationError(f"unknown init mode {mode!r}")


def _sq_norms(d: np.ndarray) -> np.ndarray:
    """Per-trial squared norms of ``d`` (trials on axis 0); squares ``d`` in place."""
    d = d.reshape(d.shape[0], -1)
    return np.sum(np.multiply(d, d, out=d), axis=1)


def run_error_curve(cfg: ExperimentConfig) -> TrajectoryStats:
    """Coupled-pair Monte Carlo of the shortcut reverse path.

    The pair runs through ``reverse_path``, the loop ``ccdf_sample`` runs, so
    the curve certifies exactly the sampler's map.  Errors are recorded in
    the contraction coordinates of the sampler kind (plain coordinates
    except for the deterministic sampler, which is scaled by
    1/sqrt(alpha_bar_i)); the bound traces use the matching forward error,
    so empirical and theoretical columns are directly comparable.  The bound
    columns assume the ideal conditional score (slope -1/b_i^2) and no
    corrector; under any other oracle, such as a Gaussian prior with
    variance above 0, or with corrector_r > 0 on SMLD, the Monte Carlo
    columns may exceed them.
    """
    schedule, kind = cfg.schedule, cfg.kind
    path = CcdfConfig(t0=cfg.t0, N=schedule.N, kind=kind, corrector_r=cfg.corrector_r)
    n_prime = path.n_prime
    shape = np.shape(cfg.ground_truth)
    n = int(np.prod(shape))
    M = int(cfg.trials)

    g = np.asarray(cfg.ground_truth, dtype=np.float64)
    x0 = np.asarray(cfg.init, dtype=np.float64)
    eps0 = float(np.sum((x0 - g) ** 2))

    root = RngStream(cfg.seed)
    r_fwd_x, r_fwd_g = root.substream(10), root.substream(11)
    shared = cfg.shared_reverse_noise
    r_rev_x, r_rev_g = root.substream(12), root.substream(12 if shared else 13)
    r_anchor = root.substream(14)
    r_cor_x, r_cor_g = root.substream(15), root.substream(15 if shared else 16)
    scale = RULES[kind].scale

    rng.prefetch(r_fwd_g, (M,) + shape)     # filled while the estimate's is drawn
    pair = [forward_diffuse(x0, n_prime, schedule, r_fwd_x.normal((M,) + shape)),
            forward_diffuse(g, n_prime, schedule, r_fwd_g.normal((M,) + shape))]

    def sq_errors(states, i):
        d = states[0] - states[1]
        d *= scale(schedule, i)
        return _sq_norms(d)

    sq = np.empty((n_prime + 1, M))
    sq[0] = sq_errors(pair, n_prime)

    def record(i, states):
        k = n_prime - i + 1
        sq[k] = sq_errors(states, i - 1)
        if not np.isfinite(sq[k]).all():
            raise ValidationError(f"non-finite squared error after step {i}")

    reverse_path(pair, path, schedule, cfg.oracle, cfg.op, [r_rev_x, r_rev_g],
                 [r_cor_x, r_cor_g], r_anchor, record)

    mse = sq.mean(axis=1)
    stderr = sq.std(axis=1, ddof=1) / np.sqrt(M)

    _, lam_steps = contraction_rate(schedule, kind, n_prime)
    c_steps = noise_constant_per_step(schedule, kind, n_prime, n)
    fwd = forward_error(eps0, schedule, kind, n_prime, n)
    simple, rec = bound_traces(lam_steps, c_steps, cfg.op.tau, fwd)
    steps = np.arange(n_prime, -1, -1)
    return TrajectoryStats(
        kind=kind, t0=cfg.t0, n_prime=n_prime, trials=M, n=n, eps0=eps0,
        steps=steps, mse=mse, stderr=stderr,
        bound_recursive=rec[steps], bound_simple=simple[steps],
    )


@dataclass(frozen=True)
class SweepResult:
    t0_grid: tuple
    stats: tuple            # TrajectoryStats per t0
    argmin_t0: float
    beats_full_path: bool | None   # None when 1.0 is not in the grid

    def rows(self):
        for t0, st in zip(self.t0_grid, self.stats):
            yield {
                "t0": repr(float(t0)),
                "n_prime": st.n_prime,
                "final_mse": repr(st.final_mse),
                "final_stderr": repr(st.final_stderr),
                "bound_recursive": repr(float(st.bound_recursive[-1])),
                "bound_simple": repr(float(st.bound_simple[-1])),
            }


def run_t0_sweep(cfg: ExperimentConfig, t0_grid) -> SweepResult:
    """Run the error-curve experiment per t0 and compare final errors."""
    t0_grid = tuple(float(t) for t in t0_grid)
    if not t0_grid:
        raise ValidationError("t0 grid must be non-empty")
    stats = tuple(run_error_curve(replace(cfg, t0=t0)) for t0 in t0_grid)
    finals = np.array([st.final_mse for st in stats])
    argmin_t0 = t0_grid[int(np.argmin(finals))]
    beats = None
    if any(t == 1.0 for t in t0_grid):
        full = finals[t0_grid.index(1.0)]
        shorter = [f for t, f in zip(t0_grid, finals) if t < 1.0]
        beats = bool(shorter and min(shorter) < full)
    return SweepResult(t0_grid=t0_grid, stats=stats, argmin_t0=argmin_t0,
                       beats_full_path=beats)


def make_phantom(kind: str, shape, seed: int = 0) -> np.ndarray:
    """Deterministic synthetic test image with values in [0, 1].

    ``blocks`` tiles an 8x8 grid of seeded constant blocks (exactly
    block-constant, hence a fixed point of the block-mean projection when
    the factor divides the block size); ``ellipses`` overlays seeded
    rotated ellipses on a head-shaped base ellipse.
    """
    H, W = (int(s) for s in shape)
    if H < 2 or W < 2:
        raise ValidationError(f"degenerate phantom shape {(H, W)}")
    gen = RngStream(seed, (0x7068616E,)).generator()
    if kind == "blocks":
        bh, bw = max(1, H // 8), max(1, W // 8)
        gh, gw = -(-H // bh), -(-W // bw)
        vals = gen.uniform(0.05, 0.95, (gh, gw))
        img = np.repeat(np.repeat(vals, bh, axis=0), bw, axis=1)[:H, :W]
        return np.ascontiguousarray(img)
    if kind == "ellipses":
        yy, xx = np.mgrid[-1.0:1.0:H * 1j, -1.0:1.0:W * 1j]
        img = np.zeros((H, W))
        # Head-shaped base plus seeded internal structures.
        img += 0.8 * (((xx / 0.85) ** 2 + (yy / 0.92) ** 2) <= 1.0)
        for _ in range(7):
            cx, cy = gen.uniform(-0.55, 0.55, 2)
            ax, ay = gen.uniform(0.08, 0.45, 2)
            theta = gen.uniform(0.0, np.pi)
            val = gen.uniform(-0.4, 0.4)
            ct, st = np.cos(theta), np.sin(theta)
            xr = ct * (xx - cx) + st * (yy - cy)
            yr = -st * (xx - cx) + ct * (yy - cy)
            img += val * (((xr / ax) ** 2 + (yr / ay) ** 2) <= 1.0)
        return np.clip(img, 0.0, 1.0)
    raise ValidationError(f"unknown phantom kind {kind!r}")


def psnr(x: np.ndarray, ref: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB for peak 1; infinite for an exact match."""
    mse = float(np.mean((np.asarray(x) - np.asarray(ref)) ** 2))
    if mse == 0.0:
        return float("inf")
    return float(10.0 * np.log10(1.0 / mse))


@dataclass(frozen=True)
class MriDemoResult:
    recon: np.ndarray
    psnrs: tuple
    mean_psnr: float
    zero_filled_psnr: float
    residuals: tuple
    n_prime: int
    mask_kept: int


MRI_DEMO_SIGMA_MIN = 0.01
MRI_DEMO_SIGMA_MAX = 378.0


def run_mri_demo(phantom: np.ndarray, mask: np.ndarray, t0: float,
                 trials: int = 1, N: int = 1000, seed: int = 0) -> MriDemoResult:
    """Reconstruct a phantom from masked k-space with the VE shortcut sampler.

    Builds y = D F(phantom), initializes from the zero-filled reconstruction
    (the corrupted measurement itself), and runs predictor-corrector
    sampling with per-step consistency on the VE schedule from
    ``MRI_DEMO_SIGMA_MIN`` to ``MRI_DEMO_SIGMA_MAX``.  The oracle is a
    Gaussian prior fitted to the phantom (mean image = phantom, variance
    sigma_min^2), standing in for a well-trained prior.  The corrector runs
    at ``DEFAULT_CORRECTOR_R`` in its annealed (squared) step-size form,
    which is what makes it outperform the zero-filled baseline.
    """
    phantom = np.asarray(phantom, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    schedule = make_ve_schedule(MRI_DEMO_SIGMA_MIN, MRI_DEMO_SIGMA_MAX, N)
    y = mri_measure(phantom, mask)
    op = MriOp(mask, y)
    oracle = GaussianScoreOracle(mu=phantom, var=MRI_DEMO_SIGMA_MIN ** 2)
    cfg = CcdfConfig(t0=t0, N=N, kind=SamplerKind.SMLD,
                     corrector_r=DEFAULT_CORRECTOR_R, corrector_squared_step=True)
    zf = op.vanilla_init()
    psnrs, residuals = [], []
    recon = None
    for trial in range(int(trials)):
        x = ccdf_sample(zf, op, cfg, schedule, oracle, RngStream(seed, (0x6D7269, trial)))
        if recon is None:
            recon = x
        psnrs.append(psnr(x, phantom))
        residuals.append(op.residual(x))
    return MriDemoResult(
        recon=recon, psnrs=tuple(psnrs), mean_psnr=float(np.mean(psnrs)),
        zero_filled_psnr=psnr(zf, phantom), residuals=tuple(residuals),
        n_prime=cfg.n_prime, mask_kept=int(mask.sum()),
    )
