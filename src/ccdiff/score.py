"""Analytic score oracles.

These stand in for a trained score network: they return the gradient of the
log perturbed density in closed form, so sampler and contraction claims can
be verified exactly.  Oracles are immutable and reentrant; evaluation is
deterministic, and output shape always equals input shape.
"""

from __future__ import annotations

import abc

import numpy as np

from .errors import ValidationError
from .schedules import Schedule, check_step_index, forward_coeffs


class ScoreOracle(abc.ABC):
    """Evaluator of s(x, i), affine in x at each step: s = J_i x + c_i."""

    @abc.abstractmethod
    def score(self, x: np.ndarray, i: int, schedule: Schedule) -> np.ndarray:
        """Raw score evaluation; callers guarantee finite x and a valid i.

        Returns a new array that the caller may overwrite: the reverse steps
        finish their update in it.
        """

    @abc.abstractmethod
    def slope(self, i: int, schedule: Schedule):
        """The diagonal J_i of d s(x, i) / d x, unbroadcast: a float, or one
        per-pixel map that every sample shares.  Callers only read it."""


class GaussianScoreOracle(ScoreOracle):
    """Exact marginal score when the clean data follows N(mu, diag(var)).

    Under the forward kernel x_i = a_i x_0 + b_i z the marginal of x_i is
    N(a_i mu, a_i^2 var + b_i^2), so

        s(x, i) = -(x - a_i mu) / (a_i^2 var + b_i^2)    (elementwise).

    With var = 0 this degenerates to the conditional oracle anchored at mu.
    """

    def __init__(self, mu: np.ndarray, var) -> None:
        self.mu = np.asarray(mu, dtype=np.float64)
        self.var = np.asarray(var, dtype=np.float64)
        vs, ms = self.var.shape, self.mu.shape
        if len(vs) > len(ms) or any(v not in (1, m) for v, m in zip(vs[::-1], ms[::-1])):
            raise ValidationError(f"prior variance of shape {vs} does not broadcast "
                                  f"to the prior mean's shape {ms}")
        if not np.all((0.0 <= self.var) & (self.var < np.inf)):
            raise ValidationError("prior variances must be finite and nonnegative")

    def score(self, x, i, schedule):
        # Two passes on VE steps (a_i = 1 and 1 * mu is mu).  Dividing by the
        # negated denominator gives the bits of negating and then dividing:
        # IEEE division is symmetric in sign, signed zeros included.
        c = forward_coeffs(schedule, i)
        s = np.subtract(x, self.mu if c.a == 1.0 else c.a * self.mu)
        s /= -(c.a * c.a * self.var + c.b * c.b)
        return s

    def slope(self, i, schedule):
        c = forward_coeffs(schedule, i)
        return -1.0 / (c.a * c.a * self.var + c.b * c.b)


class ConditionalScoreOracle(GaussianScoreOracle):
    """Score of the Gaussian perturbation kernel anchored at a clean signal.

    s(x, i) = -(x - a_i mu) / b_i^2, hence the slope is -1/b_i^2: the
    Gaussian oracle with var = 0.  This realizes the idealized denoising
    score exactly, which is the assumption under which the closed-form
    contraction rates hold.
    """

    def __init__(self, mu: np.ndarray):
        super().__init__(mu=mu, var=0.0)

    # Its own entry: bench/tracing.py's patch_method reads cls.__dict__["score"].
    score = GaussianScoreOracle.score


class ZeroScoreOracle(ScoreOracle):
    """Degenerate oracle s = 0; useful for isolating the drift-free dynamics."""

    def score(self, x, i, schedule):
        check_step_index(schedule, i)
        return np.zeros_like(np.asarray(x, dtype=np.float64))

    def slope(self, i, schedule):
        check_step_index(schedule, i)
        return 0.0

