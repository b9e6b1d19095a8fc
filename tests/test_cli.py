import csv
import hashlib
import io
import struct
from contextlib import redirect_stdout

import numpy as np
import pytest

from ccdiff import GaussianScoreOracle, make_phantom
from ccdiff.cli import OP_KEYS, main, read_op_config
from ccdiff.imgio import RAW_DTYPE_F64, RAW_MAGIC, read_pgm, save_image, write_mask
from ccdiff.rng import RngStream


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def read_csv(path):
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def kv(output):
    pairs = {}
    for line in output.strip().splitlines():
        if "," in line:
            key, value = line.split(",", 1)
            pairs[key] = value
    return pairs


@pytest.fixture()
def phantom_file(tmp_path):
    path = tmp_path / "phantom.raw"
    save_image(path, make_phantom("ellipses", (64, 64), seed=5))
    return path


def test_schedule_csv_endpoints(tmp_path):
    out = tmp_path / "s.csv"
    code, _ = run_cli("schedule", "--kind", "ddpm", "--n-steps", "1000",
                      "--out", str(out))
    assert code == 0
    rows = read_csv(out)
    assert len(rows) == 1001
    assert float(rows[1]["beta"]) == 1e-4
    assert float(rows[1000]["beta"]) == 0.02
    assert float(rows[0]["alpha_bar"]) == 1.0


def test_schedule_smld_uses_sigma_grid(tmp_path):
    out = tmp_path / "v.csv"
    code, _ = run_cli("schedule", "--kind", "smld", "--n-steps", "1000",
                      "--out", str(out))
    assert code == 0
    rows = read_csv(out)
    assert float(rows[1]["sigma"]) == pytest.approx(0.01)
    assert float(rows[1000]["sigma"]) == pytest.approx(378.0)
    assert rows[3]["beta"] == ""


def test_contract_report_fields(tmp_path):
    out = tmp_path / "c.csv"
    code, _ = run_cli("contract", "--kind", "ddpm", "--n-steps", "100",
                      "--t0", "0.2", "--n", "64", "--tau", "0.5",
                      "--eps0", "10", "--per-step", "--out", str(out))
    assert code == 0
    text = out.read_text()
    pairs = kv(text.split("step,lambda,C")[0])
    assert pairs["kind"] == "ddpm"
    assert pairs["n_prime"] == "20"
    assert float(pairs["bound_recursive"]) <= float(pairs["bound_simple"]) + 1e-12
    assert "C[n_one_minus_alpha_N]" in pairs


def test_shortcut_reports_feasibility():
    code, out = run_cli("shortcut", "--kind", "smld", "--n-steps", "1000",
                        "--sigma-min", "0.01", "--sigma-max", "378",
                        "--eps0", "12.8", "--n", "64")
    assert code == 0
    pairs = kv(out)
    assert pairs["feasible"] == "True"
    # DDIM branch on the VP grid: the derived closed-form index
    code, out = run_cli("shortcut", "--kind", "ddim", "--n-steps", "1000",
                        "--beta-min", "1e-4", "--beta-max", "0.02",
                        "--eps0", "12.8", "--n", "64")
    assert code == 0


def test_shortcut_ddim_on_ve_grid_via_smld_schedule():
    # kind smld builds the VE grid; the ddim rule is exercised in-library
    # (the CLI binds kind to both schedule and rule, so use the library here)
    from ccdiff import SamplerKind, make_ve_schedule, minimal_shortcut
    res = minimal_shortcut(12.8, 1.0, make_ve_schedule(0.01, 378, 1000),
                           SamplerKind.DDIM, 1.0, 64)
    assert res.n_prime == 329


def test_simulate_requires_seed():
    code, _ = run_cli("simulate", "--kind", "ddpm", "--n-steps", "50",
                      "--t0", "0.2", "--trials", "16")
    assert code == 1


def test_simulate_trajectory_csv_and_gnuplot(tmp_path):
    out = tmp_path / "traj.csv"
    gp = tmp_path / "plot.gp"
    code, _ = run_cli("simulate", "--kind", "ddpm", "--n-steps", "50",
                      "--t0", "0.2", "--trials", "32", "--n", "16",
                      "--init", "eps0:4.0", "--seed", "7",
                      "--out", str(out), "--gnuplot", str(gp))
    assert code == 0
    rows = read_csv(out)
    assert len(rows) == 11  # steps 10..0
    assert rows[0]["step"] == "10" and rows[-1]["step"] == "0"
    assert "set datafile separator" in gp.read_text()
    # bit-for-bit reproducibility of the emitted CSV
    out2 = tmp_path / "traj2.csv"
    run_cli("simulate", "--kind", "ddpm", "--n-steps", "50",
            "--t0", "0.2", "--trials", "32", "--n", "16",
            "--init", "eps0:4.0", "--seed", "7", "--out", str(out2))
    assert out.read_text() == out2.read_text()


def test_simulate_sweep_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    code, _ = run_cli("simulate", "--kind", "ddim", "--n-steps", "50",
                      "--t0", "0.1,0.2,1.0", "--trials", "32", "--n", "16",
                      "--init", "eps0:4.0", "--seed", "8", "--out", str(out))
    assert code == 0
    rows = read_csv(out)
    assert [r["t0"] for r in rows] == ["0.1", "0.2", "1.0"]


def test_phantom_command_writes_pgm(tmp_path):
    out = tmp_path / "ph.pgm"
    code, _ = run_cli("phantom", "--phantom-kind", "blocks", "--size", "32x32",
                      "--seed", "3", "--out", str(out))
    assert code == 0
    img = read_pgm(out)
    assert img.shape == (32, 32)


def test_ccdf_mri_end_to_end(tmp_path, phantom_file):
    cfg = tmp_path / "op.cfg"
    cfg.write_text(
        "# mri operator\n"
        f"measurement={phantom_file}\n"
        "accel-factor=4\nacs-fraction=0.08\nseed=5\n"
    )
    out = tmp_path / "recon.raw"
    code, text = run_cli("ccdf", "--kind", "smld", "--n-steps", "1000",
                         "--t0", "0.02", "--seed", "9", "--op", "mri",
                         "--op-config", str(cfg), "--init", "vanilla",
                         "--out", str(out))
    assert code == 0
    pairs = kv(text)
    assert pairs["n_prime"] == "20"
    assert pairs["reverse_steps"] == "20"
    assert int(pairs["score_evaluations"]) == 40  # predictor + corrector
    assert float(pairs["consistency_residual"]) <= 1e-10
    assert out.exists()


def test_ccdf_mri_rejects_asymmetric_mask_file(tmp_path):
    measurement = tmp_path / "small.raw"
    save_image(measurement, make_phantom("ellipses", (16, 16), seed=18))
    mask = np.zeros((16, 16), dtype=bool)
    mask[:, 3] = True  # no mirrored partner
    mask[0, 0] = True
    write_mask(tmp_path / "mask.pgm", mask)
    cfg = tmp_path / "op.cfg"
    cfg.write_text(f"measurement={measurement}\nmask-path={tmp_path / 'mask.pgm'}\n")
    code, _ = run_cli("ccdf", "--kind", "smld", "--n-steps", "1000",
                      "--t0", "0.02", "--seed", "9", "--op", "mri",
                      "--op-config", str(cfg), "--init", "vanilla")
    assert code == 1


@pytest.mark.parametrize("nan_file", ["init", "measurement"])
def test_ccdf_rejects_non_finite_init_file(tmp_path, phantom_file, nan_file):
    image = make_phantom("blocks", (64, 64), seed=1)
    image[5, 7] = np.nan
    save_image(tmp_path / "nan.raw", image)
    files = {"init": phantom_file, "measurement": phantom_file, nan_file: tmp_path / "nan.raw"}
    cfg = tmp_path / "op.cfg"
    cfg.write_text(f"measurement={files['measurement']}\nfactor=4\n")
    code, _ = run_cli("ccdf", "--kind", "ddpm", "--n-steps", "100",
                      "--t0", "0.1", "--seed", "1", "--op", "sr",
                      "--op-config", str(cfg), "--init", f"file:{files['init']}")
    assert code == 1


def test_ccdf_inpaint_with_mask_file(tmp_path, phantom_file):
    mask = np.random.default_rng(0).uniform(size=(64, 64)) < 0.5
    mask.flat[0] = True
    write_mask(tmp_path / "mask.pgm", mask)
    cfg = tmp_path / "op.cfg"
    cfg.write_text(f"measurement={phantom_file}\nmask-path={tmp_path / 'mask.pgm'}\n")
    code, text = run_cli("ccdf", "--kind", "ddpm", "--n-steps", "100",
                         "--t0", "0.2", "--seed", "10", "--op", "inpaint",
                         "--op-config", str(cfg), "--init", "vanilla")
    assert code == 0
    assert kv(text)["reverse_steps"] == "20"


def test_ccdf_sr_with_box_config(tmp_path, phantom_file):
    cfg = tmp_path / "op.cfg"
    cfg.write_text(f"measurement={phantom_file}\nfactor=4\n")
    code, text = run_cli("ccdf", "--kind", "ddim", "--n-steps", "100",
                         "--t0", "0.1", "--seed", "11", "--op", "sr",
                         "--op-config", str(cfg), "--init", "vanilla")
    assert code == 0
    assert kv(text)["score_evaluations"] == "10"


def test_check_op_reports_certificates(tmp_path, phantom_file):
    cfg = tmp_path / "op.cfg"
    cfg.write_text(f"measurement={phantom_file}\nfactor=4\n")
    code, text = run_cli("check-op", "--op", "sr", "--op-config", str(cfg))
    assert code == 0
    pairs = kv(text)
    assert float(pairs["sigma_max"]) <= 1.0 + 1e-6
    assert float(pairs["idempotence_residual"]) <= 1e-12
    assert float(pairs["tau"]) == pytest.approx(15 / 16)
    assert float(pairs["tau_hutchinson"]) == pytest.approx(15 / 16, rel=0.01)


def test_exit_codes_for_bad_usage(tmp_path):
    code, _ = run_cli("schedule", "--kind", "bogus")
    assert code == 1
    code, _ = run_cli("ccdf", "--kind", "ddpm", "--t0", "0.1", "--seed", "1",
                      "--op", "mri", "--op-config", str(tmp_path / "none.cfg"))
    assert code == 1
    for argv in (("phantom", "--size", "64by64", "--out", str(tmp_path / "p.pgm")),
                 ("simulate", "--size", "16x16x2", "--seed", "1")):
        code, _ = run_cli(*argv)
        assert code == 1
    assert not (tmp_path / "p.pgm").exists()


# A data dimension that no float holds: 400 digits.
HUGE_N = "9" * 400
# 1e308 written out: a float holds it, but twice it does not.
N_1E308 = "1" + "0" * 308

# What the error line must name, for inputs refused by a check with a message
# of its own rather than by a later failure.
REFUSAL_NAMES = {
    "simulate --seed 1 --n 4 --trials 4 --init eps0:inf": "'eps0:inf'",
    "simulate --seed 1 --n 4 --trials 4 --init eps0:nan": "'eps0:nan'",
    "shortcut --kind smld --sigma-max 1e200 --eps0 1": "sigma_max^2",
    "shortcut --kind smld --sigma-min 1e-170 --eps0 1": "sigma_min^2",
    "shortcut --kind smld --sigma-min 1e-160 --sigma-max 1e150 --eps0 1":
        "sigma_max / sigma_min",
    "simulate --seed -1 --n 4 --trials 4": "seed",
    "ccdf --seed -1 --op identity --t0 0.1": "seed",
    "ccdf --seed 1 --kind smld --op mri --t0 0.02": "seed",
    "check-op --op identity --seed 1": "non-integer",
    "check-op --op inpaint --seed 11": "'mask-path' holds a NUL byte",
    "check-op --op identity --seed 2": "below 1x1",
    "check-op --op identity --seed 7": "above maxval",
    "check-op --op identity --seed 8": "truncated PGM pixel data",
    "check-op --op identity --seed 9": "truncated raw pixel data",
    "ccdf --seed 1 --op identity --t0 0.1": "below 1x1",
    "ccdf --seed 2 --op identity --t0 0.1": "below 1x1",
    "simulate --seed 1 --n 4 --trials 4 --oracle gaussian2": "'gaussian2'",
    "simulate --seed 1 --n 4 --trials 4 --oracle gaussianXYZ": "'gaussianXYZ'",
    "simulate --seed 1 --n 4 --trials 4 --op inpaint --keep-fraction nan":
        "keep-fraction",
    "simulate --seed 1 --n 4 --trials 4 --op inpaint --keep-fraction 0":
        "keep-fraction",
    "simulate --seed 1 --n 4 --trials 4 --op inpaint --keep-fraction 1.5":
        "keep-fraction",
    "simulate --seed 1 --n 4 --trials 4 --op inpaint --keep-fraction 0.001":
        "--keep-fraction 0.001 keeps no pixel of the n=4 image drawn with --seed 1",
    "simulate --seed 1 --n 4 --trials 4 --gnuplot {tmp}/p.gp": "--out",
    "contract --tau 2": "tau",
    "shortcut --tau 5 --eps0 100": "tau",
    "simulate --oracle gaussian:0.25 --t0 0.4 --n-steps 50 --trials 500 --seed 1 --n 64":
        "'gaussian:0.25'",
    "check-op --op sr": "'factr'",
    ("simulate --kind smld --n-steps 50 --t0 0.5 --trials 4000 --n 64 --init eps0:10 "
     "--seed 3 --corrector-r 0.16"): "--corrector-r",
    ("simulate --kind ddpm --n-steps 50 --t0 0.1,0.2 --trials 16 --n 16 --seed 1 "
     "--out {tmp}/s.csv --gnuplot {tmp}/s.gp"): "--gnuplot",
    "check-op --op identity --trials -5": "trials",
    "ccdf --kind ddpm --n-steps 100 --t0 0.1 --seed 3 --op sr --corrector-r 5":
        "--corrector-r",
    "ccdf --kind ddim --n-steps 100 --t0 0.1 --seed 3 --op sr --corrector-r 0":
        "--corrector-r",
    "contract --kind smld --n-steps 1000 --t0 0.1 --beta-max 0.5": "--beta-max",
    "shortcut --kind ddim --eps0 12.8 --sigma-min 0.02": "--sigma-min",
    "simulate --kind ddpm --n-steps 50 --n 4 --trials 4 --seed 1 --sigma-max 5":
        "--sigma-max",
    "contract --kind ddpm --n-steps 100 --n-prime 10": "--n-prime",
    "check-op --op sr --seed 3": "'kind'",
    "check-op --seed 4": "--op",
    "ccdf --kind ddim --n-steps 100 --t0 0.1 --seed 4": "--op",
    "simulate --seed 1 --n 4 --trials 4 --n-steps 20 --factor 8": "'--factor'",
    "simulate --seed 1 --n 4 --trials 4 --n-steps 20 --keep-fraction 0.3":
        "'--keep-fraction'",
    "simulate --seed 1 --n 4 --trials 4 --n-steps 20 --accel-factor 2": "'--accel-factor'",
    "simulate --seed 1 --n 4 --trials 4 --n-steps 20 --op inpaint --acs-fraction 0.2":
        "'--acs-fraction'",
    "simulate --seed 1 --size 8x8 --trials 4 --n-steps 20 --op sr --keep-fraction 0.3":
        "'--keep-fraction'",
    "simulate --seed 1 --size 8x8 --trials 4 --n-steps 20 --op mri --factor 2": "'--factor'",
    "simulate --seed 1 --size 8x8 --n 5 --trials 4 --n-steps 20": "--n does not apply",
    "simulate --seed 1 --n 4 --trials 4 --n-steps 20 --gt blocks": "--gt does not apply",
    "simulate --seed 1 --size 64x64 --trials 4 --n-steps 20 --op sr --factor 4":
        "--factor does not apply with --op-config",
    "simulate --seed 1 --trials 4 --n-steps 20 --op sr":
        "measurement shape (64, 64) != ground truth shape (64,)",
    "check-op --op inpaint --seed 5": "'seed' next to 'box'",
    "check-op --op mri --seed 6": "'accel-factor', 'seed' next to 'mask-path'",
    f"contract --kind ddpm --t0 0.5 --n {HUGE_N} --tau 0.5 --eps0 1": "data dimension n",
    f"shortcut --kind ddpm --n {HUGE_N} --tau 0.5 --eps0 1": "data dimension n",
    f"contract --kind ddpm --t0 0.5 --n {N_1E308}": "forward_error = inf overflows",
    f"contract --kind smld --t0 0.5 --n {N_1E308}": "forward_error = inf overflows",
    "simulate --seed 1 --size 16x16 --trials 4 --n-steps 20 --init file:{tmp}/8x8.raw":
        "ground truth shape (16, 16) != init shape (8, 8)",
}

# Malformed image files, written to the test's directory; ``{tmp}`` in a case
# below names that directory.  Cases that differ only in their op config
# differ in --seed too, so that REFUSAL_NAMES tells them apart.
BAD_IMAGES = {
    "nonint.pgm": b"P5\nabc 4\n255\n" + bytes(16),
    "negative.pgm": b"P5\n-2 -2\n255\n" + bytes(4),
    "empty.pgm": b"P5\n0 0\n255\n",
    "above-maxval.pgm": b"P5\n2 1\n100\n" + bytes([50, 200]),
    # Cut inside a 16-bit sample and inside a float64.
    "odd.pgm": b"P5\n2 2\n65535\n" + bytes(7),
    "odd.raw": struct.pack("<4sIII", RAW_MAGIC, RAW_DTYPE_F64, 1, 2) + bytes(11),
    "empty.raw": struct.pack("<4sIII", RAW_MAGIC, RAW_DTYPE_F64, 0, 4),   # H = 0
    # Well formed, but not the shape of a 16x16 ground truth.
    "8x8.raw": struct.pack("<4sIII", RAW_MAGIC, RAW_DTYPE_F64, 8, 8) + bytes(8 * 8 * 8),
}


@pytest.mark.parametrize("argv, op_config", [
    ("simulate --seed 1 --t0 0.2,abc", None),
    ("simulate --seed 1 --init eps0:abc", None),
    ("simulate --seed 1 --oracle gaussian:abc", None),
    ("simulate --seed 1 --n -3", None),
    ("simulate --seed 1 --n 0", None),
    ("ccdf --seed 1 --op sr --t0 0.1", "factor=abc"),
    ("ccdf --seed 1 --op mri --t0 0.1", "accel-factor=x"),
    ("shortcut --eps0 1 --n -5", None),
    ("contract --kind ddpm --n-steps 100 --n-prime 10", None),
    ("contract --n 0", None),
    ("shortcut --eps0 inf", None),
    ("shortcut --eps0 1 --tau nan", None),
    ("contract --tau nan", None),
    ("contract --kind ddim --eps0 inf", None),
    ("simulate --seed 1 --op mri --size 16x16 --accel-factor nan", None),
    ("simulate --seed 1 --n 4 --trials 4 --init eps0:inf", None),
    ("simulate --seed 1 --n 4 --trials 4 --init eps0:nan", None),
    ("shortcut --kind smld --sigma-max 1e200 --eps0 1", None),
    ("shortcut --kind smld --sigma-min 1e-170 --eps0 1", None),
    ("shortcut --kind smld --sigma-min 1e-160 --sigma-max 1e150 --eps0 1", None),
    ("simulate --seed -1 --n 4 --trials 4", None),
    ("ccdf --seed -1 --op identity --t0 0.1", ""),
    ("ccdf --seed 1 --kind smld --op mri --t0 0.02", "seed=-3"),
    ("check-op --op identity --seed 1", "measurement={tmp}/nonint.pgm"),
    ("check-op --op identity --seed 2", "measurement={tmp}/negative.pgm"),
    ("check-op --op identity --seed 7", "measurement={tmp}/above-maxval.pgm"),
    ("check-op --op identity --seed 8", "measurement={tmp}/odd.pgm"),
    ("check-op --op identity --seed 9", "measurement={tmp}/odd.raw"),
    ("ccdf --seed 1 --op identity --t0 0.1", "measurement={tmp}/empty.pgm"),
    ("ccdf --seed 2 --op identity --t0 0.1", "measurement={tmp}/empty.raw"),
    ("simulate --seed 1 --n 4 --trials 4 --oracle gaussian2", None),
    ("simulate --seed 1 --n 4 --trials 4 --oracle gaussianXYZ", None),
    ("simulate --seed 1 --n 4 --trials 4 --op inpaint --keep-fraction nan", None),
    ("simulate --seed 1 --n 4 --trials 4 --op inpaint --keep-fraction 0", None),
    ("simulate --seed 1 --n 4 --trials 4 --op inpaint --keep-fraction 1.5", None),
    ("simulate --seed 1 --n 4 --trials 4 --op inpaint --keep-fraction 0.001", None),
    ("simulate --seed 1 --n 4 --trials 4 --gnuplot {tmp}/p.gp", None),
    ("contract --tau 2", None),
    ("shortcut --tau 5 --eps0 100", None),
    ("simulate --oracle gaussian:0.25 --t0 0.4 --n-steps 50 --trials 500 --seed 1 --n 64",
     None),
    ("check-op --op sr", "factr=2"),
    (("simulate --kind smld --n-steps 50 --t0 0.5 --trials 4000 --n 64 --init eps0:10 "
      "--seed 3 --corrector-r 0.16"), None),
    (("simulate --kind ddpm --n-steps 50 --t0 0.1,0.2 --trials 16 --n 16 --seed 1 "
      "--out {tmp}/s.csv --gnuplot {tmp}/s.gp"), None),
    ("check-op --op identity --trials -5", ""),
    ("ccdf --kind ddpm --n-steps 100 --t0 0.1 --seed 3 --op sr --corrector-r 5",
     "factor=4"),
    ("ccdf --kind ddim --n-steps 100 --t0 0.1 --seed 3 --op sr --corrector-r 0",
     "factor=4"),
    ("contract --kind smld --n-steps 1000 --t0 0.1 --beta-max 0.5", None),
    ("shortcut --kind ddim --eps0 12.8 --sigma-min 0.02", None),
    ("simulate --kind ddpm --n-steps 50 --n 4 --trials 4 --seed 1 --sigma-max 5", None),
    ("check-op --op sr --seed 3", "kind=sr\nfactor=4"),
    ("check-op --seed 4", "kind=identity"),
    ("ccdf --kind ddim --n-steps 100 --t0 0.1 --seed 4", "kind=identity"),
    ("simulate --seed 1 --n 4 --trials 4 --n-steps 20 --factor 8", None),
    ("simulate --seed 1 --n 4 --trials 4 --n-steps 20 --keep-fraction 0.3", None),
    ("simulate --seed 1 --n 4 --trials 4 --n-steps 20 --accel-factor 2", None),
    ("simulate --seed 1 --n 4 --trials 4 --n-steps 20 --op inpaint --acs-fraction 0.2", None),
    ("simulate --seed 1 --size 8x8 --trials 4 --n-steps 20 --op sr --keep-fraction 0.3", None),
    ("simulate --seed 1 --size 8x8 --trials 4 --n-steps 20 --op mri --factor 2", None),
    ("simulate --seed 1 --size 8x8 --n 5 --trials 4 --n-steps 20", None),
    ("simulate --seed 1 --n 4 --trials 4 --n-steps 20 --gt blocks", None),
    ("simulate --seed 1 --size 64x64 --trials 4 --n-steps 20 --op sr --factor 4", "factor=4"),
    ("simulate --seed 1 --trials 4 --n-steps 20 --op sr", "factor=4"),
    ("check-op --op inpaint --seed 5", "box=3,3\nseed=2"),
    ("check-op --op inpaint --seed 11", "mask-path=\0"),
    ("check-op --op mri --seed 6", "mask-path={tmp}/nonint.pgm\nseed=2\naccel-factor=2"),
    pytest.param(f"contract --kind ddpm --t0 0.5 --n {HUGE_N} --tau 0.5 --eps0 1", None,
                 id="contract-n-400-digits"),
    pytest.param(f"shortcut --kind ddpm --n {HUGE_N} --tau 0.5 --eps0 1", None,
                 id="shortcut-n-400-digits"),
    pytest.param(f"contract --kind ddpm --t0 0.5 --n {N_1E308}", None,
                 id="contract-ddpm-n-1e308"),
    pytest.param(f"contract --kind smld --t0 0.5 --n {N_1E308}", None,
                 id="contract-smld-n-1e308"),
    ("simulate --seed 1 --size 16x16 --trials 4 --n-steps 20 --init file:{tmp}/8x8.raw", None),
])
def test_bad_inputs_exit_one_with_an_error_line(argv, op_config, tmp_path,
                                                phantom_file, capsys):
    names = REFUSAL_NAMES.get(argv, "")
    for name, data in BAD_IMAGES.items():
        (tmp_path / name).write_bytes(data)
    argv = argv.format(tmp=tmp_path).split()
    if op_config is not None:
        cfg = tmp_path / "op.cfg"
        # A later measurement= line overrides the phantom.
        cfg.write_text(f"measurement={phantom_file}\n{op_config.format(tmp=tmp_path)}\n")
        argv += ["--op-config", str(cfg)]
    code, _ = run_cli(*argv)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert names in err


def test_exit_code_two_for_numeric_failure(tmp_path, phantom_file, monkeypatch):
    import ccdiff.cli as climod

    def bad_certify(op, trials=16, rng=None):
        from ccdiff.errors import NumericFailure
        raise NumericFailure("synthetic certificate failure")

    monkeypatch.setattr(climod.consistency, "certify_nonexpansive", bad_certify)
    cfg = tmp_path / "op.cfg"
    cfg.write_text(f"measurement={phantom_file}\nfactor=4\n")
    code, _ = run_cli("ccdf", "--kind", "ddpm", "--n-steps", "100",
                      "--t0", "0.1", "--seed", "1", "--op", "sr",
                      "--op-config", str(cfg))
    assert code == 2


def test_read_op_config_parsing(tmp_path):
    cfg = tmp_path / "x.cfg"
    cfg.write_text("kind=mri  # trailing comment\n\n# full line comment\nseed=4\n")
    parsed = read_op_config(cfg)
    assert parsed == {"kind": "mri", "seed": "4"}
    bad = tmp_path / "bad.cfg"
    bad.write_text("this has no equals\n")
    from ccdiff.errors import ValidationError
    with pytest.raises(ValidationError):
        read_op_config(bad)


def test_ccdf_init_from_file_and_config_kind(tmp_path, phantom_file, capsys):
    init_path = tmp_path / "init.raw"
    save_image(init_path, make_phantom("blocks", (64, 64), seed=1))
    cfg = tmp_path / "op.cfg"
    cfg.write_text(f"measurement={phantom_file}\nfactor=4\n")
    argv = ["ccdf", "--kind", "ddim", "--n-steps", "100", "--t0", "0.1",
            "--seed", "12", "--op", "sr", "--op-config", str(cfg)]
    code, text = run_cli(*argv, "--init", f"file:{init_path}")
    assert code == 0
    assert kv(text)["reverse_steps"] == "10"
    # --op names the operator; a config kind= key is refused like any key
    # the operator does not read, even when it agrees with --op.
    cfg.write_text(f"kind=sr\nmeasurement={phantom_file}\nfactor=4\n")
    code, _ = run_cli(*argv)
    assert code == 1
    assert "'kind'" in capsys.readouterr().err


@pytest.mark.parametrize("argv, calls", [
    ("--kind smld --n-steps 1000 --t0 0.01", 20),     # predictor + corrector
    ("--kind smld --n-steps 1000 --t0 0.01 --corrector-r 0", 10),
    ("--kind ddim --n-steps 100 --t0 0.1", 10),
])
def test_ccdf_score_evaluations_are_the_calls_made(argv, calls, tmp_path, phantom_file,
                                                   monkeypatch):
    seen = []
    score = GaussianScoreOracle.score

    def counting_score(self, x, i, schedule):
        seen.append(i)
        return score(self, x, i, schedule)

    monkeypatch.setattr(GaussianScoreOracle, "score", counting_score)
    cfg = tmp_path / "op.cfg"
    cfg.write_text(f"measurement={phantom_file}\nfactor=4\n")
    code, text = run_cli("ccdf", *argv.split(), "--seed", "1", "--op", "sr",
                         "--op-config", str(cfg))
    assert code == 0
    assert int(kv(text)["score_evaluations"]) == len(seen) == calls


def test_simulate_accepts_the_zero_variance_gaussian_oracle():
    # gaussian:0 is the conditional score, which the bound columns assume.
    code, text = run_cli("simulate", "--seed", "1", "--n", "4", "--trials", "4",
                         "--n-steps", "20", "--oracle", "gaussian:0")
    assert code == 0
    assert "bound_recursive" in text.splitlines()[0]


def test_check_op_exits_zero_or_one_on_any_op_config(tmp_path, capsys):
    # Mostly the operator's own keys, sometimes any other key, with any value:
    # check-op either runs or refuses the config with an error line, and
    # never raises.
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    image = tmp_path / "img.raw"
    save_image(image, make_phantom("blocks", (8, 8), seed=3))
    mask = tmp_path / "mask.pgm"
    write_mask(mask, np.eye(8, dtype=bool) | np.eye(8, dtype=bool)[::-1])
    text = st.text(st.characters(blacklist_characters="\n\r#", blacklist_categories=("Cs",)),
                   max_size=10)
    any_key = st.one_of(st.sampled_from(["kind", "measurement", *sorted(
        {k for keys in OP_KEYS.values() for k in keys})]), text.filter(lambda k: "=" not in k))
    values = st.one_of(
        st.sampled_from(["1", "2", "4", "0.5", "0.08", "3,3"]),
        st.integers(-3, 20).map(str), st.floats().map(repr), text,
        st.tuples(st.integers(-1, 9), st.integers(-1, 9)).map(lambda hw: "%d,%d" % hw),
        st.sampled_from([str(image), str(mask), str(tmp_path / "missing.pgm"), *OP_KEYS]))
    cfg = tmp_path / "op.cfg"

    @hyp.settings(max_examples=200, deadline=None, database=None)
    @hyp.given(st.data())
    def check(data):
        op = data.draw(st.sampled_from(sorted(OP_KEYS)))
        pairs = data.draw(st.lists(st.tuples(any_key, values), max_size=1))
        if OP_KEYS[op]:
            pairs += data.draw(st.lists(st.tuples(st.sampled_from(OP_KEYS[op]), values),
                                        max_size=3))
        lines = [f"measurement={image}"] + [f"{k}={v}" for k, v in pairs]
        cfg.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, _ = run_cli("check-op", "--op", op, "--op-config", str(cfg), "--trials", "2")
        err = capsys.readouterr().err
        assert code in (0, 1)
        assert (code == 1) == err.startswith("error: ")

    check()


# simulate's CSV for every way it builds an operator, pinned by SHA-256:
# ``{cfg}`` names a 16x16 SR op config (factor 4, ellipses phantom seed 5).
SIMULATE_GOLDENS = {
    "--n 16": "76b28d692dd708e6da33b662a03aadd7d817e1d3ea59f7c50b077893a809b0b2",
    "--size 16x16": "e79bf5a9ce130663fada85e55f6c634afae35cfada6a94c36e024ac429f6a982",
    "--size 16x16 --op inpaint":
        "d8e3e81e85ec67e84777fec73d7529a6ba1352dfdad6d0dc9c8cbe367d966750",
    "--size 16x16 --op inpaint --keep-fraction 0.3":
        "808705796030b28737c103b22721d2d1b33dad0acce4d925fbe34fc463a36c10",
    "--size 16x16 --op sr": "04678b7674e4910e53ddc210021b6257a82217ee149f4a211663f435ef87b83f",
    "--size 16x16 --op sr --factor 2":
        "609184f7a7eb63d53aac98d7c0a8a5bb7562f7ac18d70fbf1e2bb4a01c8ac0d4",
    "--size 16x16 --op mri": "0dc28a8bba795459e77f8df7b9b7e612f3e52f453248e0d6cd3e8736838616a7",
    "--size 16x16 --op mri --accel-factor 2 --acs-fraction 0.2":
        "c9b8c627b56b5c4fe66b8daccd04eb0d10f5e020078043dc2609bfeab37436df",
    "--size 16x16 --op sr --op-config {cfg}":
        "1952f1913e59b18eb1d1a0ba892712ed65082e911764f137d8e509d6d45f5370",
}


@pytest.mark.parametrize("argv", list(SIMULATE_GOLDENS))
def test_simulate_csv_golden_per_operator_path(argv, tmp_path):
    save_image(tmp_path / "m.raw", make_phantom("ellipses", (16, 16), seed=5))
    cfg = tmp_path / "sr.cfg"
    cfg.write_text(f"measurement={tmp_path / 'm.raw'}\nfactor=4\n")
    code, text = run_cli("simulate", "--trials", "8", "--n-steps", "20", "--seed", "1",
                         *argv.format(cfg=cfg).split())
    assert code == 0
    assert hashlib.sha256(text.encode()).hexdigest() == SIMULATE_GOLDENS[argv]


def test_inpaint_config_draws_the_mask_simulate_draws(tmp_path):
    # keep-fraction and seed in an op config draw simulate's seeded mask.
    mask = RngStream(2, (0x6D6B,)).generator().uniform(size=(64, 64)) < 0.3
    save_image(tmp_path / "m.raw", make_phantom("ellipses", (64, 64), seed=5))
    cfg = tmp_path / "op.cfg"
    cfg.write_text(f"measurement={tmp_path / 'm.raw'}\nkeep-fraction=0.3\nseed=2\n")
    code, text = run_cli("check-op", "--op", "inpaint", "--op-config", str(cfg))
    assert code == 0
    assert kv(text)["operator"] == f"inpaint kept={mask.sum()}/4096"
