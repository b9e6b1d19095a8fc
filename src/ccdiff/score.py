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
    """Evaluator of s(x, i) with a closed-form diagonal Jacobian."""

    @abc.abstractmethod
    def score(self, x: np.ndarray, i: int, schedule: Schedule) -> np.ndarray:
        """Raw score evaluation; callers guarantee finite x and a valid i.

        Returns a new array that the caller may overwrite: the reverse steps
        finish their update in it.
        """

    @abc.abstractmethod
    def jacobian_diag(self, x: np.ndarray, i: int, schedule: Schedule) -> np.ndarray:
        """Exact diagonal of d s(x, i) / d x, same shape as x, as a new array
        that the caller may overwrite."""


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
        if not np.all((0.0 <= self.var) & (self.var < np.inf)):
            raise ValidationError("prior variances must be finite and nonnegative")

    def score(self, x, i, schedule):
        c = forward_coeffs(schedule, i)
        s = np.subtract(x, c.a * self.mu)
        np.negative(s, out=s)
        s /= c.a * c.a * self.var + c.b * c.b
        return s

    def jacobian_diag(self, x, i, schedule):
        c = forward_coeffs(schedule, i)
        denom = c.a * c.a * self.var + c.b * c.b
        return np.broadcast_to(-1.0 / denom, np.shape(x)).astype(np.float64)


class ConditionalScoreOracle(GaussianScoreOracle):
    """Score of the Gaussian perturbation kernel anchored at a clean signal.

    s(x, i) = -(x - a_i x_ref) / b_i^2, hence the Jacobian is -(1/b_i^2) I:
    the Gaussian oracle with mu = x_ref and var = 0.  This realizes the
    idealized denoising score exactly, which is the assumption under which
    the closed-form contraction rates hold.
    """

    def __init__(self, x_ref: np.ndarray):
        super().__init__(mu=x_ref, var=0.0)
        self.x_ref = self.mu

    # Its own entry: bench/tracing.py's patch_method reads cls.__dict__["score"].
    score = GaussianScoreOracle.score


class ZeroScoreOracle(ScoreOracle):
    """Degenerate oracle s = 0; useful for isolating the drift-free dynamics."""

    def score(self, x, i, schedule):
        check_step_index(schedule, i)
        return np.zeros_like(np.asarray(x, dtype=np.float64))

    def jacobian_diag(self, x, i, schedule):
        check_step_index(schedule, i)
        return np.zeros_like(np.asarray(x, dtype=np.float64))

