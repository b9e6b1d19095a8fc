import csv
import io
import struct
from contextlib import redirect_stdout

import numpy as np
import pytest

from ccdiff import make_phantom
from ccdiff.cli import OP_KEYS, main, read_op_config
from ccdiff.imgio import RAW_DTYPE_F64, RAW_MAGIC, read_pgm, save_image, write_mask


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
    "check-op --op identity --seed 2": "below 1x1",
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
}

# Malformed image files, written to the test's directory; ``{tmp}`` in a case
# below names that directory.  Cases that differ only in their op config
# differ in --seed too, so that REFUSAL_NAMES tells them apart.
BAD_IMAGES = {
    "nonint.pgm": b"P5\nabc 4\n255\n" + bytes(16),
    "negative.pgm": b"P5\n-2 -2\n255\n" + bytes(4),
    "empty.pgm": b"P5\n0 0\n255\n",
    "empty.raw": struct.pack("<4sIII", RAW_MAGIC, RAW_DTYPE_F64, 0, 4),   # H = 0
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
    ("contract --n-prime 0", None),
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


def test_ccdf_init_from_file_and_config_kind(tmp_path, phantom_file):
    init_path = tmp_path / "init.raw"
    save_image(init_path, make_phantom("blocks", (64, 64), seed=1))
    cfg = tmp_path / "op.cfg"
    cfg.write_text(f"kind=sr\nmeasurement={phantom_file}\nfactor=4\n")
    code, text = run_cli("ccdf", "--kind", "ddim", "--n-steps", "100",
                         "--t0", "0.1", "--seed", "12",
                         "--op-config", str(cfg),  # kind taken from the config
                         "--init", f"file:{init_path}")
    assert code == 0
    assert kv(text)["reverse_steps"] == "10"
    # mismatch between flag and config key is rejected
    code, _ = run_cli("ccdf", "--kind", "ddim", "--n-steps", "100",
                      "--t0", "0.1", "--seed", "12", "--op", "mri",
                      "--op-config", str(cfg), "--init", "vanilla")
    assert code == 1


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
        if data.draw(st.booleans()):
            argv = ["--op", op]
        else:
            argv, lines = [], [f"kind={op}"] + lines
        cfg.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, _ = run_cli("check-op", "--op-config", str(cfg), "--trials", "2", *argv)
        err = capsys.readouterr().err
        assert code in (0, 1)
        assert (code == 1) == err.startswith("error: ")

    check()
