"""Shortcut-initialized conditional diffusion sampling with contraction
certificates: discrete noise schedules, analytic score oracles, reverse
samplers with non-expansive data-consistency operators, and the closed-form
error-bound machinery that certifies shortened reverse paths."""

from .analysis import (ContractionReport, ShortcutResult, contraction_rate,
                       contraction_report, error_bound, forward_error,
                       minimal_shortcut, noise_constant, noise_constant_per_step)
from .consistency import (ConsistencyOp, IdentityOp, InpaintOp, MriOp, SrOp,
                          certify_nonexpansive, gaussian1d_mask,
                          hutchinson_tau, inpaint_projection,
                          is_conjugate_symmetric, mri_measure, mri_projection,
                          sr_projection)
from .errors import NumericFailure, ValidationError
from .harness import (ExperimentConfig, MriDemoResult, SweepResult,
                      TrajectoryStats, make_phantom, psnr, resolve_init,
                      run_error_curve, run_mri_demo, run_t0_sweep)
from .rng import RngStream
from .samplers import (CcdfConfig, ccdf_sample, forward_diffuse,
                       langevin_corrector, reverse_path, reverse_step_ddim,
                       reverse_step_ddpm, reverse_step_smld)
from .schedules import (ForwardCoeffs, SamplerKind, Schedule, forward_coeffs,
                        make_ve_schedule, make_vp_schedule,
                        step_index_of_time, write_schedule_csv)
from .score import (ConditionalScoreOracle, GaussianScoreOracle, ScoreOracle,
                    ZeroScoreOracle)

__version__ = "0.1.0"
