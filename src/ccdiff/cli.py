"""Command-line interface.

Subcommands: schedule, contract, shortcut, simulate, ccdf, phantom, check-op.
Outputs are CSV (UTF-8, header row) or PGM images.  Exit codes: 0 ok,
1 validation error, 2 numeric failure.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import time
from pathlib import Path

import numpy as np

from . import analysis, consistency, harness, imgio
from .errors import NumericFailure, ValidationError
from .rng import RngStream
from .samplers import RULES, CcdfConfig, DEFAULT_CORRECTOR_R, ccdf_sample
from .schedules import (SamplerKind, Schedule, make_ve_schedule,
                        make_vp_schedule, schedule_rows, step_index_of_time)
from .score import ConditionalScoreOracle, GaussianScoreOracle, ScoreOracle


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route usage errors to exit code 1
        raise ValidationError(message)


# Each family's range flags and their defaults; a kind reads only its own.
RANGE_FLAGS = {"vp": {"beta_min": 1e-4, "beta_max": 0.02},
               "ve": {"sigma_min": 0.01, "sigma_max": 378.0}}


def _add_schedule_args(p):
    p.add_argument("--kind", default="ddpm", choices=["ddpm", "smld", "ddim"])
    p.add_argument("--n-steps", type=int, default=1000)
    for flags in RANGE_FLAGS.values():
        for name, default in flags.items():
            p.add_argument("--" + name.replace("_", "-"), type=float,
                           help=f"default {default}")


def build_schedule(args) -> tuple[Schedule, SamplerKind]:
    kind = SamplerKind(args.kind)
    family, other = ("ve", "vp") if kind is SamplerKind.SMLD else ("vp", "ve")
    for name in RANGE_FLAGS[other]:
        if getattr(args, name) is not None:
            raise ValidationError(f"--{name.replace('_', '-')} does not apply to "
                                  f"--kind {kind.value}")
    lo, hi = (default if getattr(args, name) is None else getattr(args, name)
              for name, default in RANGE_FLAGS[family].items())
    make = make_ve_schedule if family == "ve" else make_vp_schedule
    return make(lo, hi, args.n_steps), kind


def _number(text: str, kind, what: str):
    """``kind(text)``, with a ValidationError naming ``what`` if it fails."""
    try:
        return kind(text)
    except ValueError:
        raise ValidationError(f"{what}: expected {kind.__name__}, got {text!r}") from None


def read_op_config(path) -> dict:
    """Parse a key=value operator config file ('#' starts a comment)."""
    cfg = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ValidationError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if "\0" in value:
            raise ValidationError(f"{path}:{lineno}: the value of {key!r} holds a NUL byte")
        cfg[key] = value
    return cfg


def _box_hole_mask(shape, box) -> np.ndarray:
    """Measured-pixel mask with a centered unmeasured box of the given size."""
    H, W = shape
    try:
        bh, bw = (int(v) for v in box.split(","))
    except ValueError:
        raise ValidationError(f"box must be 'H,W', got {box!r}") from None
    if bh > H or bw > W or bh < 1 or bw < 1:
        raise ValidationError(f"box {bh}x{bw} does not fit in image {H}x{W}")
    mask = np.ones((H, W), dtype=bool)
    r0, c0 = (H - bh) // 2, (W - bw) // 2
    mask[r0:r0 + bh, c0:c0 + bw] = False
    return mask


# Keys each operator reads besides its measurement (README's table).
OP_KEYS = {"identity": (), "sr": ("factor",),
           "inpaint": ("mask-path", "box", "keep-fraction", "seed"),
           "mri": ("mask-path", "accel-factor", "acs-fraction", "seed")}


def build_op(op_name: str, keys: dict, measurement: np.ndarray, prefix: str = ""):
    """The consistency operator ``op_name`` on ``measurement``.

    ``keys`` maps the operator's ``OP_KEYS`` names to string values.  Any
    other key is refused, and so is any key next to a mask-path or box, which
    is the whole mask.  Errors name a key as ``prefix + key``.  For the MRI
    operator the measurement is the image whose masked unitary-DFT k-space
    constitutes y.
    """
    source = next((k for k in ("mask-path", "box") if k in keys and k in OP_KEYS[op_name]),
                  None)
    unread = sorted(set(keys) - ({source} if source else set(OP_KEYS[op_name])))
    if unread:
        raise ValidationError(f"{op_name} op does not read "
                              f"{', '.join(repr(prefix + k) for k in unread)}"
                              + (f" next to {source!r}" if source else ""))

    def number(key, kind, default):
        return _number(keys.get(key, default), kind, prefix + key)

    if op_name == "identity":
        return consistency.IdentityOp(measurement.shape, measurement)
    if op_name == "sr":
        return consistency.SrOp(number("factor", int, "4"), measurement)
    if "mask-path" in keys:
        mask = imgio.read_mask(keys["mask-path"])
    elif "box" in keys:
        mask = _box_hole_mask(measurement.shape, keys["box"])
    elif op_name == "inpaint":  # each pixel kept with probability keep-fraction
        keep, seed = number("keep-fraction", float, "0.5"), number("seed", int, "0")
        if not 0.0 < keep <= 1.0:
            raise ValidationError(f"{prefix}keep-fraction must lie in (0, 1], got {keep}")
        mask = RngStream(seed, (0x6D6B,)).generator().uniform(size=measurement.shape) < keep
        if not mask.any():
            raise ValidationError(f"{prefix}keep-fraction {keep} keeps no pixel of the "
                                  f"n={mask.size} image drawn with {prefix}seed {seed}")
    elif measurement.ndim != 2:
        raise ValidationError(f"mri op needs a 2D image, got shape {measurement.shape}")
    else:
        mask = consistency.gaussian1d_mask(
            measurement.shape, accel=number("accel-factor", float, "4.0"),
            acs_fraction=number("acs-fraction", float, "0.08"), seed=number("seed", int, "0"))
    if op_name == "inpaint":
        return consistency.InpaintOp(mask, measurement)
    return consistency.MriOp(mask, consistency.mri_measure(measurement, mask))


def _config_op(op_name: str, path):
    """The operator an op-config file gives: its measurement plus its keys."""
    keys = read_op_config(path)
    if "measurement" not in keys:
        raise ValidationError(f"{op_name} op needs measurement=<path> in the config")
    return build_op(op_name, keys, imgio.load_image(keys.pop("measurement")))


def _parse_oracle(spec: str, ground_truth: np.ndarray) -> ScoreOracle:
    if spec == "conditional":
        return ConditionalScoreOracle(ground_truth)
    name, colon, var = spec.partition(":")
    if name == "gaussian":
        var = _number(var, float, "the gaussian oracle variance") if colon else 0.25
        return GaussianScoreOracle(mu=ground_truth, var=var)
    raise ValidationError(f"unknown oracle spec {spec!r}")


@contextlib.contextmanager
def _output(path):
    """The file at ``path`` open for writing, or stdout for None or '-'."""
    if path in (None, "-"):
        yield sys.stdout
        return
    with open(path, "w", newline="") as fh:
        yield fh


def _parse_size(text: str) -> tuple[int, int]:
    try:
        H, W = (int(v) for v in text.lower().split("x"))
    except ValueError:
        raise ValidationError(f"--size must be HxW, got {text!r}") from None
    return H, W


# ----------------------------- subcommands ---------------------------------


def cmd_schedule(args) -> int:
    schedule, _ = build_schedule(args)
    with _output(args.out) as fh:
        imgio.write_csv(fh, schedule_rows(schedule))
    return 0


def cmd_contract(args) -> int:
    schedule, kind = build_schedule(args)
    n_prime = step_index_of_time(args.t0, schedule.N)
    report = analysis.contraction_report(schedule, kind, n_prime,
                                         args.n, args.tau, args.eps0)
    with _output(args.out) as fh:
        for key, value in report.rows():
            fh.write(f"{key},{value}\n")
        if args.per_step:
            fh.write("step,lambda,C\n")
            c_steps = analysis.noise_constant_per_step(schedule, kind, n_prime, args.n)
            for j in range(n_prime):
                fh.write(f"{j + 1},{report.lambda_per_step[j]!r},{c_steps[j]!r}\n")
    return 0


def cmd_shortcut(args) -> int:
    schedule, kind = build_schedule(args)
    result = analysis.minimal_shortcut(args.eps0, args.mu, schedule, kind,
                                       args.tau, args.n)
    print(f"feasible,{result.feasible}")
    print(f"n_prime,{result.n_prime if result.n_prime is not None else ''}")
    if result.reason:
        print(f"reason,{result.reason}")
    for key, value in sorted(result.checks.items()):
        print(f"check[{key}],{value!r}")
    return 0


def _simulate_ground_truth(args):
    if args.size:
        if args.n is not None:
            raise ValidationError("--n does not apply with --size: the image has HxW pixels")
        return harness.make_phantom(args.gt or "ellipses", _parse_size(args.size), seed=args.seed)
    if args.gt:
        raise ValidationError("--gt does not apply without --size: --n draws a vector")
    n = 64 if args.n is None else args.n
    if n < 1:
        raise ValidationError(f"--n must be >= 1, got {n}")
    return RngStream(args.seed, (0x6774,)).uniform(0.0, 1.0, (n,))


# simulate's operator flags, each the op-config key of the same name.
SIMULATE_OP_FLAGS = ("factor", "keep-fraction", "accel-factor", "acs-fraction")


_GNUPLOT_TEMPLATE = """\
# gnuplot script for a ccdiff trajectory CSV
set datafile separator ","
set key autotitle columnhead
set logscale y
set xlabel "step index (reverse time)"
set ylabel "squared error"
set xrange [*:*] reverse
plot "{csv}" using 1:2 with lines lw 2, \\
     "{csv}" using 1:4 with lines dt 2, \\
     "{csv}" using 1:5 with lines dt 3
"""


def cmd_simulate(args) -> int:
    t0_values = [_number(v, float, "--t0") for v in args.t0.split(",")]
    if args.gnuplot and args.out in (None, "-"):
        raise ValidationError("--gnuplot plots the CSV file named by --out; pass --out")
    if args.gnuplot and len(t0_values) > 1:
        raise ValidationError("--gnuplot plots a trajectory CSV; a --t0 sweep writes none")
    schedule, kind = build_schedule(args)
    gt = _simulate_ground_truth(args)
    keys = {key: vars(args)[key] for key in SIMULATE_OP_FLAGS if vars(args)[key] is not None}
    if args.op_config:
        if keys:
            raise ValidationError(f"--{min(keys)} does not apply with --op-config")
        op = _config_op(args.op, args.op_config)
        if op.shape != gt.shape:
            raise ValidationError(f"--op-config measurement shape {op.shape} != "
                                  f"ground truth shape {gt.shape}")
    else:
        if "seed" in OP_KEYS[args.op]:
            keys["seed"] = str(args.seed)
        op = build_op(args.op, keys, gt, prefix="--")
        if args.op == "sr":  # the SR measurement is the ground truth's block mean
            op = build_op(args.op, keys, op.project(gt), prefix="--")
    oracle = _parse_oracle(args.oracle, gt)
    if isinstance(oracle, GaussianScoreOracle) and oracle.var > 0:
        raise ValidationError(f"--oracle {args.oracle!r}: the printed bounds hold only "
                              "for the conditional score (conditional or gaussian:0)")
    if args.init.startswith("file:"):
        init = imgio.load_image(args.init.split(":", 1)[1])
    else:
        init = harness.resolve_init(args.init, gt, op, args.seed)
    cfg = harness.ExperimentConfig(
        schedule=schedule, kind=kind, t0=t0_values[0], trials=args.trials,
        ground_truth=gt, init=init, op=op, oracle=oracle, seed=args.seed,
        shared_reverse_noise=args.shared_noise,
    )
    with _output(args.out) as fh:
        if len(t0_values) == 1:
            stats = harness.run_error_curve(cfg)
            imgio.write_csv(fh, stats.rows())
        else:
            sweep = harness.run_t0_sweep(cfg, t0_values)
            imgio.write_csv(fh, sweep.rows())
            print(f"argmin_t0,{sweep.argmin_t0}", file=sys.stderr)
            if sweep.beats_full_path is not None:
                print(f"beats_full_path,{sweep.beats_full_path}", file=sys.stderr)
    if args.gnuplot:
        Path(args.gnuplot).write_text(
            _GNUPLOT_TEMPLATE.format(csv=args.out))
    return 0


def cmd_ccdf(args) -> int:
    schedule, kind = build_schedule(args)
    if args.corrector_r is not None and not RULES[kind].corrected:
        raise ValidationError(f"--corrector-r does not apply to --kind {kind.value}")
    op = _config_op(args.op, args.op_config)
    consistency.certify_nonexpansive(op, trials=16, rng=RngStream(args.seed, (1,)))
    if args.init == "vanilla":
        x0 = op.vanilla_init()
    elif args.init.startswith("file:"):
        x0 = imgio.load_image(args.init.split(":", 1)[1])
    else:
        raise ValidationError(f"--init must be vanilla or file:<path>, got {args.init!r}")
    anchor = getattr(op, "measurement", None)
    if anchor is None:
        anchor = op.vanilla_init()
    oracle = _parse_oracle(args.oracle, anchor)
    cfg = CcdfConfig(t0=args.t0, N=args.n_steps, kind=kind, corrector_r=(
        DEFAULT_CORRECTOR_R if args.corrector_r is None else args.corrector_r))
    start = time.perf_counter()
    x = ccdf_sample(x0, op, cfg, schedule, oracle, RngStream(args.seed))
    elapsed = time.perf_counter() - start
    if args.out:
        imgio.save_image(args.out, x)
    print(f"n_prime,{cfg.n_prime}")
    print(f"reverse_steps,{cfg.n_prime}")
    print(f"score_evaluations,{cfg.n_prime * (2 if cfg.corrected else 1)}")
    print(f"seconds,{elapsed:.3f}")
    if isinstance(op, consistency.MriOp):
        print(f"consistency_residual,{op.residual(x)!r}")
    return 0


def cmd_phantom(args) -> int:
    img = harness.make_phantom(args.phantom_kind, _parse_size(args.size), seed=args.seed)
    imgio.write_pgm(args.out, img)
    return 0


def cmd_check_op(args) -> int:
    op = _config_op(args.op, args.op_config)
    rng = RngStream(args.seed, (0x636B,))
    sigma = consistency.certify_nonexpansive(op, trials=args.trials, rng=rng)
    gen = rng.generator()
    idem = sym = 0.0
    for _ in range(8):
        x = gen.standard_normal(op.shape)
        y = gen.standard_normal(op.shape)
        ax = op.apply_linear(x)
        idem = max(idem, float(np.max(np.abs(op.apply_linear(ax) - ax))))
        sym = max(sym, abs(float(np.vdot(ax, y) - np.vdot(x, op.apply_linear(y)))))
    hut, hut_se = consistency.hutchinson_tau(op.apply_linear, op.shape,
                                             rng=rng.substream(1))
    print(f"operator,{op.description}")
    print(f"sigma_max,{sigma!r}")
    print(f"idempotence_residual,{idem!r}")
    print(f"symmetry_residual,{sym!r}")
    print(f"tau,{op.tau!r}")
    print(f"tau_hutchinson,{hut!r}")
    print(f"tau_hutchinson_stderr,{hut_se!r}")
    return 0


# ------------------------------- parser ------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ccdiff",
                     description="Shortcut-initialized conditional diffusion "
                                 "sampling with contraction certificates.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("schedule", help="dump a noise schedule as CSV")
    _add_schedule_args(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_schedule)

    p = sub.add_parser("contract", help="contraction report for a schedule")
    _add_schedule_args(p)
    p.add_argument("--t0", type=float, default=1.0, help="N' = round(t0 N)")
    p.add_argument("--n", type=int, default=64, help="data dimension")
    p.add_argument("--tau", type=float, default=1.0)
    p.add_argument("--eps0", type=float, default=1.0)
    p.add_argument("--per-step", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_contract)

    p = sub.add_parser("shortcut", help="minimal shortcut step search")
    _add_schedule_args(p)
    p.add_argument("--eps0", type=float, required=True)
    p.add_argument("--mu", type=float, default=1.0)
    p.add_argument("--tau", type=float, default=1.0)
    p.add_argument("--n", type=int, default=64)
    p.set_defaults(func=cmd_shortcut)

    p = sub.add_parser("simulate", help="coupled-trajectory error curves / sweeps")
    _add_schedule_args(p)
    p.add_argument("--t0", default="0.2", help="single value or comma list")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--n", type=int, default=None, help="vector dimension")
    p.add_argument("--size", default=None, help="image HxW (enables 2D ops)")
    p.add_argument("--gt", choices=["ellipses", "blocks"], help="with --size; default ellipses")
    p.add_argument("--op", default="identity", choices=list(OP_KEYS))
    p.add_argument("--op-config", default=None)
    for key in SIMULATE_OP_FLAGS:
        p.add_argument("--" + key, dest=key, help=f"the op-config key {key}")
    p.add_argument("--oracle", default="conditional")
    p.add_argument("--init", default="vanilla")
    p.add_argument("--shared-noise", action="store_true")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--gnuplot", default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("ccdf", help="shortcut-sample one reconstruction")
    _add_schedule_args(p)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--op", required=True, choices=list(OP_KEYS))
    p.add_argument("--op-config", required=True)
    p.add_argument("--init", default="vanilla",
                   help="vanilla | file:<path>")
    p.add_argument("--oracle", default="gaussian:0.25")
    p.add_argument("--corrector-r", type=float,
                   help=f"smld only; default {DEFAULT_CORRECTOR_R}")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_ccdf)

    p = sub.add_parser("phantom", help="write a synthetic phantom as PGM")
    p.add_argument("--phantom-kind", default="ellipses",
                   choices=["ellipses", "blocks"])
    p.add_argument("--size", default="64x64")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_phantom)

    p = sub.add_parser("check-op", help="non-expansiveness and trace checks")
    p.add_argument("--op", required=True, choices=list(OP_KEYS))
    p.add_argument("--op-config", required=True)
    p.add_argument("--trials", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_check_op)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericFailure as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
