import numpy as np
import pytest

import thermoep.cli as cli
from thermoep.cli import (
    ConfigError,
    main,
    parse_config_file,
    resolve_options,
)
from thermoep.models import QuadraticEnergyModel
from thermoep.oracle import CheckResult
from thermoep.sampler import ChainConfig, run_chains

from ula_reference import run_ula


def run(*argv):
    return main([str(a) for a in argv])


BLOBS_TINY = """
# tiny synthetic problem for fast CLI runs
dataset = blobs
classes = 3
per_class = 4
test_per_class = 2
dim = 16
noise = 0.08
data_seed = 2
hidden = 6
"""


@pytest.fixture
def tiny_cfg(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(BLOBS_TINY)
    return path


class TestConfigParsing:
    def test_comments_blanks_and_spacing(self, tmp_path):
        path = tmp_path / "a.cfg"
        path.write_text("# header\n\n key = 1 \nother=two words\n")
        assert parse_config_file(path) == {"key": "1", "other": "two words"}

    def test_duplicate_key(self, tmp_path):
        path = tmp_path / "a.cfg"
        path.write_text("k = 1\nk = 2\n")
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_file(path)

    def test_missing_equals(self, tmp_path):
        path = tmp_path / "a.cfg"
        path.write_text("just some words\n")
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_file(path)

    def test_empty_key(self, tmp_path):
        path = tmp_path / "a.cfg"
        path.write_text("= 3\n")
        with pytest.raises(ConfigError, match="empty key"):
            parse_config_file(path)

    def test_resolve_precedence(self, tmp_path):
        path = tmp_path / "a.cfg"
        path.write_text("b = file\nc = file\n")
        spec = {"a": "default", "b": "default", "c": "default"}
        merged = resolve_options(spec, path, {"c": "flag", "d": None})
        assert merged == {"a": "default", "b": "file", "c": "flag"}

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "a.cfg"
        path.write_text("bogus = 1\n")
        with pytest.raises(ConfigError, match="unknown config keys: bogus"):
            resolve_options({"a": "1"}, path, {})


class TestVerifyCommand:
    def test_passes_and_writes_report(self, tmp_path, capsys):
        code = run("verify", "--out", tmp_path, "--instances", 5, "--spins", 5)
        assert code == 0
        report = (tmp_path / "verify_report.txt").read_text()
        for name in (
            "contrast_gradient", "dA_dbeta", "quadrature_order",
            "supervised_bound", "decomposition_residual", "variational_bound",
        ):
            assert f"PASS {name}:" in report
        assert "PASS summary: 6/6" in report
        assert capsys.readouterr().out == report
        assert (tmp_path / "resolved_config.txt").exists()

    def test_injected_failure_sets_exit_code(self, tmp_path, monkeypatch):
        def fake_suite(**kwargs):
            return [
                CheckResult("contrast_gradient", True, 1e-9, 1e-6, "ok"),
                CheckResult("decomposition_residual", False, 3e-2, 1e-10, "boom"),
            ]

        monkeypatch.setattr(cli, "run_consistency_suite", fake_suite)
        code = run("verify", "--out", tmp_path)
        assert code == 1
        report = (tmp_path / "verify_report.txt").read_text()
        assert "FAIL decomposition_residual:" in report
        assert "FAIL summary: 1/2" in report

    def test_bad_config_value(self, tmp_path, capsys):
        code = run("verify", "--out", tmp_path, "--spins", 40)
        assert code == 2
        assert "spins" in capsys.readouterr().err

    def test_unknown_config_key(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("nonsense = 1\n")
        code = run("verify", "--out", tmp_path, "--config", bad)
        assert code == 2
        assert "unknown config keys" in capsys.readouterr().err

    def test_reruns_byte_identical(self, tmp_path):
        run("verify", "--out", tmp_path / "a", "--instances", 3, "--spins", 4)
        run("verify", "--out", tmp_path / "b", "--instances", 3, "--spins", 4)
        for name in ("verify_report.txt", "resolved_config.txt"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def train_args(tiny_cfg, out, *extra):
    return (
        "train", "--config", tiny_cfg, "--out", out,
        "--method", "backprop", "--epochs", 3, *extra,
    )


class TestTrainCommand:
    def test_writes_artifacts(self, tiny_cfg, tmp_path, capsys):
        out = tmp_path / "run"
        code = run(*train_args(tiny_cfg, out))
        assert code == 0
        metrics = (out / "metrics.csv").read_text().splitlines()
        assert metrics[0] == "epoch,method,beta,train_accuracy,test_accuracy,mean_J_estimate"
        assert len(metrics) == 4  # header + one row per epoch
        assert (out / "checkpoint.json").exists()
        resolved = (out / "resolved_config.txt").read_text()
        assert "method = backprop" in resolved and "dim = 16" in resolved
        assert "test_accuracy=" in capsys.readouterr().out

    def test_reruns_byte_identical(self, tiny_cfg, tmp_path):
        run(*train_args(tiny_cfg, tmp_path / "a"))
        run(*train_args(tiny_cfg, tmp_path / "b"))
        for name in ("metrics.csv", "checkpoint.json", "resolved_config.txt"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_resume_extends_run(self, tiny_cfg, tmp_path):
        run(*train_args(tiny_cfg, tmp_path / "full", "--epochs", 4))
        run(*train_args(tiny_cfg, tmp_path / "half", "--epochs", 2))
        code = run(*train_args(
            tiny_cfg, tmp_path / "resumed", "--epochs", 4,
            "--resume", tmp_path / "half" / "checkpoint.json",
        ))
        assert code == 0
        assert (
            (tmp_path / "resumed" / "metrics.csv").read_bytes()
            == (tmp_path / "full" / "metrics.csv").read_bytes()
        )

    def test_idx_dataset_mode(self, tmp_path, capsys):
        from thermoep.data import save_idx, train_test_blobs

        train_ds, test_ds = train_test_blobs(3, 4, 2, dim=16, noise=0.08, seed=2)
        for ds, tag in ((train_ds, "train"), (test_ds, "test")):
            save_idx(ds.inputs, ds.labels, tmp_path / f"{tag}-i.idx",
                     tmp_path / f"{tag}-l.idx", (4, 4))
        cfg = tmp_path / "idx.cfg"
        cfg.write_text(
            "dataset = idx\nclasses = 3\nhidden = 6\n"
            f"train_images = {tmp_path}/train-i.idx\n"
            f"train_labels = {tmp_path}/train-l.idx\n"
            f"test_images = {tmp_path}/test-i.idx\n"
            f"test_labels = {tmp_path}/test-l.idx\n"
        )
        out = tmp_path / "run"
        code = run("train", "--config", cfg, "--out", out,
                   "--method", "backprop", "--epochs", 2)
        assert code == 0
        assert (out / "metrics.csv").exists()

    def test_missing_idx_paths(self, tmp_path, capsys):
        cfg = tmp_path / "idx.cfg"
        cfg.write_text("dataset = idx\n")
        code = run("train", "--config", cfg, "--out", tmp_path / "run")
        assert code == 2
        assert "requires config key" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_divergence_exit_code(self, tiny_cfg, tmp_path, capsys):
        cfg = tmp_path / "diverge.cfg"
        cfg.write_text(BLOBS_TINY + "lr = 1e150\n")
        code = run("train", "--config", cfg, "--out", tmp_path / "run",
                   "--method", "backprop", "--epochs", 30)
        assert code == 3
        assert "numeric failure" in capsys.readouterr().err

    def test_unstable_relaxation_step_is_a_config_error(self, tiny_cfg, tmp_path, capsys):
        cfg = tmp_path / "relax.cfg"
        cfg.write_text(BLOBS_TINY + "relax_step = 10\n")
        code = run("train", "--config", cfg, "--out", tmp_path / "run", "--method", "backprop")
        assert code == 2
        assert "relax_step" in capsys.readouterr().err


class TestSweepCommand:
    def test_writes_curves(self, tiny_cfg, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            BLOBS_TINY
            + "betas = 0.5,1.0\nprobe = 2\nchains = 2\nsteps = 30\n"
            + "ref_scale = 2\nsnr_repeats = 2\nsnr_probes = 1\nstep_size = 0.05\n"
        )
        out = tmp_path / "run"
        code = run("sweep", "--config", cfg, "--out", out)
        assert code == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "beta,metric,value"
        assert len(lines) == 1 + 2 * 4  # two betas x four metrics
        assert "untrained parameter vector" in capsys.readouterr().out

    def test_checkpoint_theta_source(self, tiny_cfg, tmp_path):
        run(*train_args(tiny_cfg, tmp_path / "t", "--epochs", 2))
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            BLOBS_TINY
            + "betas = 1.0\nprobe = 1\nchains = 2\nsteps = 20\n"
            + "ref_scale = 2\nsnr_repeats = 2\nsnr_probes = 0\n"
        )
        code = run("sweep", "--config", cfg, "--out", tmp_path / "run",
                   "--checkpoint", tmp_path / "t" / "checkpoint.json")
        assert code == 0

    def test_bad_snr_repeats_exit_before_sampling(self, tiny_cfg, tmp_path, capsys,
                                                  langevin_calls):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(BLOBS_TINY + "betas = 1.0\nprobe = 1\nsnr_repeats = 1\n")
        code = run("sweep", "--config", cfg, "--out", tmp_path / "run")
        assert code == 2
        assert "snr_repeats" in capsys.readouterr().err
        assert langevin_calls == []

    def test_probe_bound(self, tiny_cfg, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(BLOBS_TINY + "probe = 9999\n")
        code = run("sweep", "--config", cfg, "--out", tmp_path / "run")
        assert code == 2
        assert "probe" in capsys.readouterr().err


class TestDiagnoseCommand:
    DIAG = (
        "spins = 4\nsamples = 20000\ngibbs_chains = 8\n"
        "mala_steps = 1200\nmala_chains = 8\ness_floor = 200\ndim = 3\n"
    )

    def test_passes(self, tmp_path, capsys):
        cfg = tmp_path / "d.cfg"
        cfg.write_text(self.DIAG)
        code = run("diagnose", "--config", cfg, "--out", tmp_path / "run")
        assert code == 0
        report = (tmp_path / "run" / "diagnose_report.txt").read_text()
        assert "PASS gibbs_tv:" in report
        assert "PASS mala_mean:" in report
        assert "PASS mala_cov:" in report
        assert "PASS mala_ess:" in report
        assert "PASS summary" in report

    def test_unattainable_tolerance_fails(self, tmp_path):
        cfg = tmp_path / "d.cfg"
        cfg.write_text(self.DIAG + "tv_tol = 1e-9\n")
        code = run("diagnose", "--config", cfg, "--out", tmp_path / "run")
        assert code == 1
        report = (tmp_path / "run" / "diagnose_report.txt").read_text()
        assert "FAIL gibbs_tv:" in report

    def test_batch_means_pass_mala_and_flag_unadjusted_langevin(self):
        # the diagnose defaults at the gate's seed 0, whose chains run at seed 1
        model, theta = QuadraticEnergyModel(4), [1.0]
        cfg = ChainConfig(n_steps=4000, n_chains=8, step_size=0.4, seed=1)
        worst = lambda per: max(z.max() for z in cli._gaussian_moment_z(per))
        assert worst(run_chains(model, theta, 0.0, 1.0, cfg).per_chain()) <= 3.0
        assert worst(run_ula(model, theta, 0.0, 1.0, cfg)) > 3.0

    def test_batch_means_need_a_row_per_batch(self):
        with pytest.raises(ValueError, match="kept steps per chain"):
            cli._gaussian_moment_z(np.zeros((8, cli.MALA_BATCHES - 1, 3)))


class TestParser:
    def test_unknown_subcommand_exits_with_usage(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_subcommand(self):
        with pytest.raises(SystemExit):
            main([])
