"""Forward diffusion, reverse-diffusion steps, and the shortcut reverse path.

The shortcut sampler forward-diffuses an initial estimate to step
N' = round(t0 * N), then ``reverse_path`` alternates the reverse step of the
kind's rule (``RULES``) with the affine data-consistency map x <- A x' + b_i,
on one trajectory (``ccdf_sample``) or on the harness's coupled pairs.

All steps accept an optional pre-drawn noise array ``z``; when ``z`` is given
the RNG is not consulted, which is how coupled-trajectory experiments share
or withhold noise.  Passing ``rng=None, z=None`` to a stochastic step is an
error except for DDIM, which has no noise term.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .rng import (RngStream, STREAM_CONSISTENCY, STREAM_CORRECTOR,
                  STREAM_FORWARD, STREAM_REVERSE)
from .schedules import (SamplerKind, Schedule, check_family, check_step_index,
                        forward_coeffs, step_index_of_time, tilde_beta)
from .score import ScoreOracle

logger = logging.getLogger(__name__)

DEFAULT_CORRECTOR_R = 0.16


@dataclass(frozen=True)
class CcdfConfig:
    """Shortcut-sampling configuration.

    t0 is the fraction of the full reverse path to run: the loop starts at
    N' = round(t0 * N), clamped to [1, N].  ``corrector_r`` is the Langevin
    step-size ratio and applies to VE sampling only; r = 0 runs neither the
    corrector nor the second consistency map that follows it.
    """

    t0: float
    N: int
    kind: SamplerKind
    corrector_r: float = DEFAULT_CORRECTOR_R
    corrector_squared_step: bool = False

    def __post_init__(self):
        if not 0.0 < self.t0 <= 1.0:
            raise ValidationError(f"t0 must lie in (0, 1], got {self.t0}")
        if self.N < 2:
            raise ValidationError(f"N must be >= 2, got {self.N}")
        if self.corrector_r < 0.0:
            raise ValidationError("corrector_r must be nonnegative")

    @property
    def n_prime(self) -> int:
        return step_index_of_time(self.t0, self.N)


def _draw(rng: RngStream | None, z: np.ndarray | None, shape) -> np.ndarray:
    if z is not None:
        return np.asarray(z, dtype=np.float64)
    if rng is None:
        raise ValidationError("a stochastic step needs either rng or a pre-drawn z")
    return rng.normal(shape)


def forward_diffuse(x0: np.ndarray, n_prime: int, schedule: Schedule,
                    rng: RngStream | None, z: np.ndarray | None = None) -> np.ndarray:
    """Single-step forward diffusion x_{N'} = a_{N'} x0 + b_{N'} z.

    Draws z exactly once; no score evaluations are performed.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    c = forward_coeffs(schedule, n_prime)
    return c.a * x0 + c.b * _draw(rng, z, x0.shape)


def reverse_step_ddpm(x: np.ndarray, i: int, schedule: Schedule,
                      oracle: ScoreOracle, rng: RngStream | None,
                      z: np.ndarray | None = None,
                      use_tilde_variance: bool = False) -> np.ndarray:
    """One ancestral reverse step of the variance-preserving sampler.

    x_{i-1} = (x_i + (1 - alpha_i) s(x_i, i)) / sqrt(alpha_i) + sqrt(var_i) z,
    with var_i = beta_i by default or the posterior variance when
    ``use_tilde_variance`` is set.
    """
    i = check_step_index(schedule, i)
    check_family(schedule, SamplerKind.DDPM, "a DDPM step")
    x = np.asarray(x, dtype=np.float64)
    s = oracle.score(x, i, schedule)
    alpha_i = schedule.alpha[i]
    mean = (x + (1.0 - alpha_i) * s) / np.sqrt(alpha_i)
    var = tilde_beta(schedule, i) if use_tilde_variance else float(schedule.beta[i])
    return mean + np.sqrt(var) * _draw(rng, z, x.shape)


def reverse_step_smld(x: np.ndarray, i: int, schedule: Schedule,
                      oracle: ScoreOracle, rng: RngStream | None,
                      z: np.ndarray | None = None) -> np.ndarray:
    """One reverse step of the variance-exploding sampler.

    x_{i-1} = x_i + (sigma_i^2 - sigma_{i-1}^2) s(x_i, i)
              + sqrt(sigma_i^2 - sigma_{i-1}^2) z.
    """
    i = check_step_index(schedule, i)
    check_family(schedule, SamplerKind.SMLD, "an SMLD step")
    x = np.asarray(x, dtype=np.float64)
    dv = float(schedule.sigma[i] ** 2 - schedule.sigma[i - 1] ** 2)
    s = oracle.score(x, i, schedule)
    return x + dv * s + np.sqrt(dv) * _draw(rng, z, x.shape)


def reverse_step_ddim(x: np.ndarray, i: int, schedule: Schedule,
                      oracle: ScoreOracle) -> np.ndarray:
    """One deterministic reverse step (no additive noise term).

    With z_hat = -s(x_i, i) sqrt(1 - alpha_bar_i):

    x_{i-1} = sqrt(alpha_bar_{i-1}) (x_i - sqrt(1-alpha_bar_i) z_hat)
              / sqrt(alpha_bar_i) + sqrt(1 - alpha_bar_{i-1}) z_hat.
    """
    i = check_step_index(schedule, i)
    check_family(schedule, SamplerKind.DDIM, "a DDIM step")
    x = np.asarray(x, dtype=np.float64)
    ab_i = schedule.alpha_bar[i]
    ab_prev = schedule.alpha_bar[i - 1]
    z_hat = -oracle.score(x, i, schedule) * np.sqrt(1.0 - ab_i)
    x0_hat = (x - np.sqrt(1.0 - ab_i) * z_hat) / np.sqrt(ab_i)
    return np.sqrt(ab_prev) * x0_hat + np.sqrt(1.0 - ab_prev) * z_hat


def langevin_corrector(x: np.ndarray, i: int, schedule: Schedule,
                       oracle: ScoreOracle, r: float, rng: RngStream | None,
                       z: np.ndarray | None = None,
                       batch_axes: int = 0,
                       squared_step: bool = False) -> np.ndarray:
    """One Langevin refinement step x + eps s + sqrt(2 eps) z (VE schedules only).

    The step size eps = 2 r ||z|| / ||s(x, i)|| is set from the same fresh
    draw z that supplies the additive noise.  A zero score norm makes the
    step undefined; it is skipped with a warning.  ``batch_axes`` leading
    axes are treated as independent samples when computing the norms.

    With ``squared_step`` the signal-to-noise form eps = 2 (r ||z||/||s||)^2
    is used instead.  The default rule moves the state by exactly 2 r ||z||
    along the score direction irrespective of how close it already is, which
    floors the achievable error near r * sqrt(n); the squared form anneals
    the displacement with the noise level and matches the behaviour of
    predictor-corrector reconstruction in practice.

    Both rules send eps to infinity as the score norm vanishes (the state
    sits at the target), so eps is clamped at the Langevin stability limit
    1/max|ds/dx|, keeping the drift multiplier 1 - eps |J| nonnegative.
    """
    i = check_step_index(schedule, i)
    check_family(schedule, SamplerKind.SMLD, "the Langevin corrector")
    if r < 0.0:
        raise ValidationError("corrector step-size ratio r must be nonnegative")
    x = np.asarray(x, dtype=np.float64)
    if r == 0.0:
        return x
    s = oracle.score(x, i, schedule)
    zz = _draw(rng, z, x.shape)
    data_axes = tuple(range(batch_axes, x.ndim))
    s_norm = np.sqrt(np.sum(s * s, axis=data_axes, keepdims=True))
    z_norm = np.sqrt(np.sum(zz * zz, axis=data_axes, keepdims=True))
    if np.any(s_norm == 0.0):
        logger.warning("corrector skipped at step %d: zero score norm", i)
        if np.all(s_norm == 0.0):
            return x
        s_norm = np.where(s_norm == 0.0, np.inf, s_norm)  # eps -> 0 on those rows
    if squared_step:
        eps = 2.0 * (r * z_norm / s_norm) ** 2
    else:
        eps = 2.0 * r * z_norm / s_norm
    j_max = np.max(np.abs(oracle.jacobian_diag(x, i, schedule)),
                   axis=data_axes, keepdims=True)
    eps = np.where(j_max > 0.0, np.minimum(eps, 1.0 / np.maximum(j_max, 1e-300)),
                   eps)
    return x + eps * s + np.sqrt(2.0 * eps) * zz


class KindRule:
    """One sampler kind's part in the reverse path and in its analysis.

    ``step`` is the reverse update (``z`` is None unless the kind is
    ``noisy``); ``corrected`` kinds run the Langevin corrector when
    corrector_r > 0.  At step i (an index array for ``lam`` and ``g2``),
    ``lam`` is lambda_i, ``g2`` is g_i^2, ``coords`` is (a_i, b_i) in the
    contraction coordinates, and ``scale`` takes a plain state at level i
    into those coordinates.
    """

    noisy = True
    corrected = False

    def scale(self, schedule: Schedule, i: int) -> float:
        return 1.0


class _DdpmRule(KindRule):
    """lambda_i = sqrt(alpha_i) (1 - alpha_bar_{i-1}) / (1 - alpha_bar_i),
    g_i^2 = beta_i, (a_i, b_i) = (sqrt(alpha_bar_i), sqrt(1 - alpha_bar_i))."""

    def step(self, x, i, schedule, oracle, z):
        return reverse_step_ddpm(x, i, schedule, oracle, None, z=z)

    def _vp(self, schedule: Schedule) -> Schedule:
        check_family(schedule, SamplerKind.DDPM, "DDPM analysis")
        return schedule

    def lam(self, schedule, i):
        s = self._vp(schedule)
        return np.sqrt(s.alpha[i]) * (1.0 - s.alpha_bar[i - 1]) / (1.0 - s.alpha_bar[i])

    def g2(self, schedule, i):
        return self._vp(schedule).beta[i]

    def coords(self, schedule, i):
        ab = self._vp(schedule).alpha_bar[i]
        return float(np.sqrt(ab)), float(np.sqrt(1.0 - ab))


class _SmldRule(KindRule):
    """lambda_i = (sigma_{i-1}^2 - sigma_0^2) / (sigma_i^2 - sigma_0^2),
    g_i^2 = sigma_i^2 - sigma_{i-1}^2, (a_i, b_i) = (1, sqrt(sigma_i^2 - sigma_0^2))."""

    corrected = True

    def step(self, x, i, schedule, oracle, z):
        return reverse_step_smld(x, i, schedule, oracle, None, z=z)

    def sigma(self, schedule: Schedule) -> np.ndarray:
        check_family(schedule, SamplerKind.SMLD, "SMLD analysis")
        return schedule.sigma

    def lam(self, schedule, i):
        s = self.sigma(schedule)
        s0sq = s[0] ** 2
        return (s[i - 1] ** 2 - s0sq) / (s[i] ** 2 - s0sq)

    def g2(self, schedule, i):
        s = self.sigma(schedule)
        return s[i] ** 2 - s[i - 1] ** 2

    def coords(self, schedule, i):
        s = self.sigma(schedule)
        return 1.0, float(np.sqrt(s[i] ** 2 - s[0] ** 2))


class _DdimRule(KindRule):
    """lambda_i = sigma_{i-1} / sigma_i, g_i^2 = 0, (a_i, b_i) = (1, sigma_i) with
    sigma = ddim_sigma, or the sigma grid of a VE schedule (see analysis)."""

    noisy = False

    def step(self, x, i, schedule, oracle, z):
        return reverse_step_ddim(x, i, schedule, oracle)

    def sigma(self, schedule: Schedule) -> np.ndarray:
        return schedule.ddim_sigma if schedule.is_vp else schedule.sigma

    def lam(self, schedule, i):
        s = self.sigma(schedule)
        return s[i - 1] / s[i]

    def g2(self, schedule, i):
        return np.zeros(np.shape(i))

    def coords(self, schedule, i):
        return 1.0, float(self.sigma(schedule)[i])

    def scale(self, schedule, i):
        return 1.0 / float(np.sqrt(schedule.alpha_bar[i]))


RULES = {SamplerKind.DDPM: _DdpmRule(), SamplerKind.SMLD: _SmldRule(),
         SamplerKind.DDIM: _DdimRule()}


def _check_op(op, shape) -> None:
    for attr in ("apply_linear", "offset"):
        if not hasattr(op, attr):
            raise ValidationError(
                f"consistency operator lacks required method {attr!r}"
            )
    op_shape = getattr(op, "shape", None)
    if op_shape is not None and tuple(shape)[-len(op_shape):] != tuple(op_shape):
        raise ValidationError(
            f"input shape {tuple(shape)} does not end with operator shape {tuple(op_shape)}"
        )


def _noise(streams, k: int, z, shape):
    """Trajectory k's draw: the previous trajectory's ``z`` when both were
    handed the same stream, else a fresh draw from streams[k]."""
    if k and streams[k] is streams[k - 1]:
        return z
    return streams[k].normal(shape)


def _consistency(states: list, op, i: int, rng: RngStream, batch_axes: int) -> None:
    """x <- A x + b_i on every trajectory, with one offset b_i shared by all."""
    b = op.offset(i, rng, batch_shape=states[0].shape[:batch_axes])
    for k in range(len(states)):
        states[k] = op.apply_linear(states[k]) + b


def reverse_path(states: list, cfg: CcdfConfig, schedule: Schedule,
                 oracle: ScoreOracle, op, noise, corrector_noise,
                 anchor_rng: RngStream, batch_axes: int, on_step) -> list:
    """Run reverse steps i = N'..1 on coupled trajectories, updating ``states`` in place.

    Each step applies the kind's reverse update to every trajectory, then the
    consistency map with one offset from ``anchor_rng`` shared by all.  Only
    SMLD with corrector_r > 0 follows with a Langevin corrector step and a
    second consistency map.  ``noise[k]`` and ``corrector_noise[k]`` are the
    streams of trajectory k; one handed the same stream as the trajectory
    before it shares its draws.  The leading ``batch_axes`` axes hold
    independent samples.  ``on_step(i, states)`` runs after step i.
    """
    if cfg.N != schedule.N:
        raise ValidationError(f"config N={cfg.N} does not match schedule N={schedule.N}")
    _check_op(op, states[0].shape)
    if not all(np.isfinite(x).all() for x in states):
        raise ValidationError(f"non-finite state at the start of step {cfg.n_prime}")
    rule = RULES[cfg.kind]
    corrected = rule.corrected and cfg.corrector_r > 0.0
    for i in range(cfg.n_prime, 0, -1):
        # Indexing, not a loop variable, so no old state outlives its update.
        z = None
        for k in range(len(states)):
            if rule.noisy:
                z = _noise(noise, k, z, states[k].shape)
            states[k] = rule.step(states[k], i, schedule, oracle, z)
        _consistency(states, op, i, anchor_rng, batch_axes)
        if corrected:
            for k in range(len(states)):
                z = _noise(corrector_noise, k, z, states[k].shape)
                states[k] = langevin_corrector(
                    states[k], i, schedule, oracle, cfg.corrector_r, None, z=z,
                    batch_axes=batch_axes, squared_step=cfg.corrector_squared_step)
            _consistency(states, op, i, anchor_rng, batch_axes)
        if on_step is not None:
            on_step(i, states)
    return states


def ccdf_sample(x0_init: np.ndarray, op, cfg: CcdfConfig, schedule: Schedule,
                oracle: ScoreOracle, rng: RngStream) -> np.ndarray:
    """Run the shortcut sampler: forward-diffuse to N', then reverse to 0.

    This is the one-trajectory case of ``reverse_path``.  Forward, reverse,
    consistency and corrector draws come from separate substreams of
    ``rng``, so coupled runs can reproduce or share any of them.
    """
    x = forward_diffuse(x0_init, cfg.n_prime, schedule, rng.substream(STREAM_FORWARD))
    [x] = reverse_path([x], cfg, schedule, oracle, op, [rng.substream(STREAM_REVERSE)],
                       [rng.substream(STREAM_CORRECTOR)],
                       rng.substream(STREAM_CONSISTENCY), 0, None)
    return x
