import importlib
import json

import numpy as np
import pytest

from thermoep.core import DivergenceError
from thermoep.data import one_hot, train_test_blobs
from thermoep.models import LayeredTanhEnergyNet, feature_grad, init_layer_params
from thermoep.rng import INIT_STREAM, derive_seed, make_generator
from thermoep.sampler import langevin
from thermoep.train import (
    Checkpoint,
    TrainConfig,
    _sample_phase,
    load_checkpoint,
    save_checkpoint,
    train,
)


@pytest.fixture(scope="module")
def tiny_sets():
    return train_test_blobs(4, 10, 5, dim=12, noise=0.08, seed=2)


def block_draw(seed, path, n_rows, chain, n_free):
    """A langevin draw replaying the trainer's layout by hand: row r's
    generator (seed, *path, r) gives its accept uniforms, then its noise."""
    blocks = []
    for r in range(n_rows):
        g = make_generator(seed, *path, r)
        blocks.append((g.random(chain.n_steps), g.standard_normal((chain.n_steps, n_free))))
    uniforms = np.stack([u for u, _ in blocks], axis=1)
    noise = np.stack([n for _, n in blocks], axis=1)
    return lambda step: (noise[step], uniforms[step])


def replica_rows(net, inputs, copies):
    """The trainer's rows: each example's clamped input, once per chain."""
    return np.repeat(np.stack([net.init_state(x) for x in inputs]), copies, axis=0)


def quick_config(**overrides):
    base = dict(
        method="backprop", epochs=3, batch_size=10, learning_rate=0.05,
        seed=0, n_hidden=8, n_chains=2, n_steps=24, step_size=0.05,
    )
    base.update(overrides)
    return TrainConfig(**base)


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="method"):
            quick_config(method="adam")
        with pytest.raises(ValueError, match=">= 1"):
            quick_config(epochs=0)
        with pytest.raises(ValueError, match="learning_rate"):
            quick_config(learning_rate=0.0)
        with pytest.raises(ValueError, match="momentum"):
            quick_config(momentum=1.0)
        with pytest.raises(ValueError, match="beta"):
            quick_config(beta=0.0)
        with pytest.raises(ValueError, match="beta"):
            quick_config(beta=1.5)
        with pytest.raises(ValueError, match="n_nodes"):
            quick_config(n_nodes=1)
        with pytest.raises(ValueError):
            quick_config(burn_in=24)  # >= n_steps, caught by the chain config
        for bad in (0.0, 2.0, 10.0):
            with pytest.raises(ValueError, match="relax_step"):
                quick_config(relax_step=bad)
        with pytest.raises(ValueError, match="relax_iters"):
            quick_config(relax_iters=0)

    def test_dict_round_trip(self):
        cfg = quick_config(method="ep", beta=0.5)
        assert TrainConfig.from_dict(cfg.to_dict()) == cfg


class TestCheckpointIO:
    def _checkpoint(self):
        sizes = (5, 3, 2)
        dim = 5 * 3 + 3 * 2 + 3 + 2
        return Checkpoint(
            method="ep", epoch=4, layer_sizes=sizes, master_seed=9,
            theta=np.linspace(-1, 1, dim), velocity=np.zeros(dim),
            config=quick_config(method="ep").to_dict(),
            history=[{"epoch": 4, "test_accuracy": 0.5}],
        )

    def test_round_trip(self, tmp_path):
        path = tmp_path / "ckpt.json"
        ckpt = self._checkpoint()
        save_checkpoint(path, ckpt)
        back = load_checkpoint(path)
        assert back.method == "ep" and back.epoch == 4
        assert back.layer_sizes == (5, 3, 2) and back.master_seed == 9
        np.testing.assert_array_equal(back.theta, ckpt.theta)
        np.testing.assert_array_equal(back.velocity, ckpt.velocity)
        assert back.config == ckpt.config
        assert back.history == ckpt.history

    def test_failed_write_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, self._checkpoint())
        before = path.read_bytes()

        def broken_dump(obj, f, **kwargs):
            f.write('{"format_version": ')
            raise OSError("disk full")

        monkeypatch.setattr(json, "dump", broken_dump)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, self._checkpoint())
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, self._checkpoint())
        payload = json.loads(path.read_text())
        payload["format_version"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="format_version"):
            load_checkpoint(path)

    def test_shape_mismatch(self, tmp_path):
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, self._checkpoint())
        payload = json.loads(path.read_text())
        payload["theta"] = payload["theta"][:-1]
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="layer_sizes"):
            load_checkpoint(path)

    @pytest.mark.parametrize("method", ["backprop", "path_integral"])
    def test_nan_history_is_strict_json(self, tiny_sets, tmp_path, method):
        train_ds, test_ds = tiny_sets
        result = train(train_ds, test_ds, quick_config(method=method, epochs=1, n_steps=16))
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, result.checkpoint)

        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        payload = json.loads(path.read_text(), parse_constant=reject)
        assert payload["format_version"] == 2
        assert payload["history"][-1]["beta"] is None
        assert np.isnan(load_checkpoint(path).history[-1]["beta"])

    def test_version_one_with_bare_nan_resumes(self, tiny_sets, tmp_path):
        train_ds, test_ds = tiny_sets
        full_cfg = quick_config(epochs=2)
        full = train(train_ds, test_ds, full_cfg)
        half = train(train_ds, test_ds, quick_config(epochs=1))
        path = tmp_path / "v1.json"
        save_checkpoint(path, half.checkpoint)
        payload = json.loads(path.read_text())
        payload["format_version"] = 1
        payload["history"] = [
            {k: float("nan") if v is None else v for k, v in row.items()}
            for row in payload["history"]
        ]
        path.write_text(json.dumps(payload))
        assert "NaN" in path.read_text()

        resumed = train(train_ds, test_ds, full_cfg, resume=load_checkpoint(path))
        assert resumed.theta.tobytes() == full.theta.tobytes()


class TestReplicaPhaseParity:
    def test_feature_reduction_matches_generic_gradient(self):
        """The matmul fast path must agree with per-row dE/dtheta sums."""
        net = LayeredTanhEnergyNet(6, 4, 3)
        theta = init_layer_params(6, 4, 3, seed=0).values
        rng = np.random.default_rng(1)
        inputs = rng.uniform(0.0, 1.0, size=(3, 6))
        targets = one_hot([0, 1, 2], 3)
        cfg = quick_config(method="ep", n_chains=3, n_steps=20, burn_in=8)
        chain = cfg.chain_config()

        stats = _sample_phase(
            net, theta, inputs, targets, 0.4, cfg.temperature, chain,
            seed=5, path=(1, 2),
        )
        fast = feature_grad(
            inputs,
            stats.sum_th / stats.n_rows,
            stats.sum_to / stats.n_rows,
            stats.sum_cross / stats.n_rows,
        )

        # replay the phase on the same row streams, keeping every (h, o) row
        c = chain.n_chains
        kept, _ = langevin(
            net.free_kernel(theta, 0.4, replica_rows(net, inputs, c), np.repeat(targets, c, 0)),
            np.zeros((len(inputs) * c, 4 + 3)),
            block_draw(5, (1, 2), len(inputs) * c, chain, 4 + 3), chain, cfg.temperature,
        )
        rows = kept.transpose(1, 0, 2)  # one (rows, n_free) block per kept step

        # every example owns the same number of rows, so the grand row mean
        # equals the mean over examples of per-example row means
        total = np.zeros_like(theta)
        count = 0
        for block in rows:
            states = np.concatenate([np.repeat(inputs, c, axis=0), block], axis=1)
            total += net.grad_theta_energy_sum(theta, states)
            count += len(states)
        np.testing.assert_allclose(fast, total / count, atol=1e-10)

    def test_phase_rows_draw_uniform_block_then_noise_block(self, monkeypatch):
        """Pins the trainer's stream layout: each row's uniforms, then its noise, as blocks."""
        net = LayeredTanhEnergyNet(6, 4, 3)
        theta = init_layer_params(6, 4, 3, seed=0).values
        inputs = np.random.default_rng(3).uniform(0.0, 1.0, size=(2, 6))
        targets = one_hot([1, 2], 3)
        chain = quick_config(n_chains=2, n_steps=15, burn_in=5).chain_config()
        seen = []

        def spy(*args):
            out = langevin(*args)
            seen.append(out[0])
            return out

        monkeypatch.setattr(importlib.import_module("thermoep.train"), "langevin", spy)
        _sample_phase(net, theta, inputs, targets, 0.5, 0.1, chain, seed=4, path=(3, 1))
        kept, _ = langevin(
            net.free_kernel(theta, 0.5, replica_rows(net, inputs, 2), np.repeat(targets, 2, 0)),
            np.zeros((4, 4 + 3)),
            block_draw(4, (3, 1), 4, chain, 4 + 3), chain, 0.1,
        )
        assert kept.tobytes() == seen[0].tobytes()

    @pytest.mark.parametrize("need_cov", [False, True])
    def test_phase_sums_are_byte_equal_to_the_inline_reduction(self, need_cov):
        """The model's feature_sums is the trainer's former in-line reduction, bit for bit."""
        net = LayeredTanhEnergyNet(6, 4, 3)
        theta = init_layer_params(6, 4, 3, seed=0).values
        inputs = np.random.default_rng(5).uniform(0.0, 1.0, size=(3, 6))
        targets = one_hot([0, 2, 1], 3)
        chain = quick_config(n_chains=2, n_steps=16, burn_in=6).chain_config()
        stats = _sample_phase(
            net, theta, inputs, targets, 0.5, 0.1, chain, seed=7, path=(2, 3), need_cov=need_cov
        )
        kept, _ = langevin(
            net.free_kernel(theta, 0.5, replica_rows(net, inputs, 2), np.repeat(targets, 2, 0)),
            np.zeros((6, 4 + 3)),
            block_draw(7, (2, 3), 6, chain, 4 + 3), chain, 0.1,
        )
        kept = kept.reshape(3, 2 * chain.n_kept, 4 + 3)
        th, to = np.tanh(kept[:, :, :4]), np.tanh(kept[:, :, 4:])
        d = kept[:, :, 4:] - targets[:, None, :]
        losses = 0.5 * np.einsum("bnj,bnj->bn", d, d)
        expected = dict(sum_th=th.sum(axis=1), sum_to=to.sum(axis=1),
                        sum_cross=th.transpose(0, 2, 1) @ to, losses=losses)
        if need_cov:
            lth = losses[:, :, None] * th
            expected.update(sum_lth=lth.sum(axis=1), sum_lto=np.einsum("bn,bno->bo", losses, to),
                            sum_lcross=lth.transpose(0, 2, 1) @ to)
        else:
            assert stats.sum_lth is None and stats.sum_lcross is None
        assert stats.n_rows == 2 * chain.n_kept
        assert stats.mean_loss().tobytes() == (losses.sum(axis=1) / stats.n_rows).tobytes()
        for name, value in expected.items():
            assert getattr(stats, name).tobytes() == value.tobytes(), name

    def test_noise_block_equals_consecutive_chunks(self):
        """A later layout may draw each row's noise in step chunks without moving a bit."""
        g = make_generator(4, 3, 1, 0)
        g.random(60)
        block = g.standard_normal((60, 42))
        g = make_generator(4, 3, 1, 0)
        g.random(60)
        chunks = np.concatenate([g.standard_normal((25, 42)), g.standard_normal((35, 42))])
        assert chunks.tobytes() == block.tobytes()

    def test_kept_row_count(self):
        net = LayeredTanhEnergyNet(4, 3, 2)
        theta = init_layer_params(4, 3, 2, seed=0).values
        cfg = quick_config(n_chains=2, n_steps=10, burn_in=4)
        stats = _sample_phase(
            net, theta, np.zeros((2, 4)), np.zeros((2, 2)), 0.0,
            cfg.temperature, cfg.chain_config(), seed=0, path=(0,),
        )
        assert stats.n_rows == 2 * 6


class TestTrainLoop:
    def test_backprop_learns_blobs(self, tiny_sets):
        train_ds, test_ds = tiny_sets
        result = train(train_ds, test_ds, quick_config(epochs=20))
        assert result.history[-1]["test_accuracy"] >= 0.9

    def test_history_schema(self, tiny_sets):
        train_ds, test_ds = tiny_sets
        result = train(train_ds, test_ds, quick_config(epochs=2))
        assert [row["epoch"] for row in result.history] == [1, 2]
        row = result.history[-1]
        assert set(row) == {
            "epoch", "method", "beta", "train_accuracy", "test_accuracy",
            "mean_J_estimate",
        }
        assert np.isnan(row["beta"]) and np.isnan(row["mean_J_estimate"])

    def test_ep_logs_finite_j(self, tiny_sets):
        train_ds, test_ds = tiny_sets
        cfg = quick_config(method="ep", epochs=1, beta=0.5, n_steps=16)
        result = train(train_ds, test_ds, cfg)
        row = result.history[-1]
        assert row["beta"] == 0.5
        assert np.isfinite(row["mean_J_estimate"])

    def test_byte_determinism(self, tiny_sets):
        train_ds, test_ds = tiny_sets
        cfg = quick_config(method="ep", epochs=2, n_steps=16)
        a = train(train_ds, test_ds, cfg)
        b = train(train_ds, test_ds, cfg)
        assert a.theta.tobytes() == b.theta.tobytes()
        assert a.history == b.history

    def test_seed_changes_trajectory(self, tiny_sets):
        train_ds, test_ds = tiny_sets
        a = train(train_ds, test_ds, quick_config(method="ep", epochs=1, n_steps=16, seed=0))
        b = train(train_ds, test_ds, quick_config(method="ep", epochs=1, n_steps=16, seed=1))
        assert a.theta.tobytes() != b.theta.tobytes()

    def test_resume_reproduces_uninterrupted_run(self, tiny_sets, tmp_path):
        train_ds, test_ds = tiny_sets
        full_cfg = quick_config(method="ep", epochs=4, n_steps=16)
        full = train(train_ds, test_ds, full_cfg)

        half = train(train_ds, test_ds, quick_config(method="ep", epochs=2, n_steps=16))
        path = tmp_path / "half.json"
        save_checkpoint(path, half.checkpoint)
        resumed = train(train_ds, test_ds, full_cfg, resume=load_checkpoint(path))

        assert resumed.theta.tobytes() == full.theta.tobytes()
        assert resumed.history == full.history

    def test_resume_config_mismatch(self, tiny_sets):
        train_ds, test_ds = tiny_sets
        half = train(train_ds, test_ds, quick_config(method="ep", epochs=1, n_steps=16))
        with pytest.raises(ValueError, match="different config"):
            train(train_ds, test_ds, quick_config(method="ep", epochs=4, n_steps=16, seed=3),
                  resume=half.checkpoint)

    def test_resume_past_budget(self, tiny_sets):
        train_ds, test_ds = tiny_sets
        half = train(train_ds, test_ds, quick_config(method="ep", epochs=2, n_steps=16))
        with pytest.raises(ValueError, match="past the budget"):
            train(train_ds, test_ds, quick_config(method="ep", epochs=1, n_steps=16),
                  resume=half.checkpoint)

    def test_dims_mismatch(self, tiny_sets):
        train_ds, _ = tiny_sets
        other = train_test_blobs(4, 4, 2, dim=7, noise=0.1, seed=0)[1]
        with pytest.raises(ValueError, match="share dimensions"):
            train(train_ds, other, quick_config())

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_divergence_raises(self, tiny_sets):
        train_ds, test_ds = tiny_sets
        cfg = quick_config(epochs=30, learning_rate=1e150)
        with pytest.raises(DivergenceError, match="non-finite"):
            train(train_ds, test_ds, cfg)

    def test_init_stream_matches_manual_derivation(self, tiny_sets):
        # the first-epoch starting point is pinned by (seed, init stream)
        train_ds, test_ds = tiny_sets
        cfg = quick_config(epochs=1)
        result = train(train_ds, test_ds, cfg)
        theta0 = init_layer_params(
            train_ds.dim, cfg.n_hidden, train_ds.n_classes, derive_seed(cfg.seed, INIT_STREAM)
        ).values
        assert result.checkpoint.layer_sizes == (12, 8, 4)
        assert theta0.shape == result.theta.shape
