import json
import math
import tracemalloc

import numpy as np
import pytest

import oracles
from clmmlab import dqn, nets, toymdp
from clmmlab.dqn import DDQNConfig, ReplayBuffer, ddqn_update, train_ddqn
from clmmlab.nets import (
    CheckpointError,
    NetworkParams,
    OptimizerState,
    TrainingDiverged,
    apply_update,
    forward,
    init_params,
    load_checkpoint,
    loss_and_gradients,
    save_checkpoint,
    soft_update,
)
from clmmlab.toymdp import ToyPriceCycleEnv


def global_norm(grads):
    return nets._global_norm(grads, np.empty_like(grads.flat))


def zero_params(input_dim=2, hidden=(2, 2), n_out=3):
    h1, h2 = hidden
    return NetworkParams(
        w1=np.zeros((input_dim, h1)), b1=np.zeros(h1),
        w2=np.zeros((h1, h2)), b2=np.zeros(h2),
        wv=np.zeros((h2, 1)), bv=np.zeros(1),
        wa=np.zeros((h2, n_out)), ba=np.zeros(n_out),
    )


class TestForward:
    def test_dueling_substitution(self):
        # all-zero trunk, v = 1, adv = [1, 2, 3] -> q = v + adv - mean(adv)
        p = zero_params()
        p.bv[:] = 1.0
        p.ba[:] = [1.0, 2.0, 3.0]
        q, v, adv = forward(p, np.array([0.3, -0.7]))
        assert v == 1.0
        assert np.allclose(adv, [1.0, 2.0, 3.0])
        assert np.allclose(q, [0.0, 1.0, 2.0])

    def test_zero_net_is_zero(self):
        p = zero_params()
        q, v, adv = forward(p, np.array([5.0, -2.0]))
        assert np.all(q == 0.0) and v == 0.0

    def test_mean_q_equals_v(self):
        p = init_params(8, 5, hidden=(16, 16), seed=3)
        rng = np.random.default_rng(4)
        s = rng.normal(size=(1000, 8))
        q, v, adv = forward(p, s)
        assert np.max(np.abs(q.mean(axis=1) - v)) < 1e-6

    def test_batch_matches_single(self):
        p = init_params(6, 4, seed=5)
        rng = np.random.default_rng(6)
        s = rng.normal(size=(7, 6))
        qb, vb, _ = forward(p, s)
        for i in range(7):
            qi, vi, _ = forward(p, s[i])
            assert np.allclose(qb[i], qi)
            assert vb[i] == pytest.approx(vi)

    def test_input_dim_mismatch(self):
        p = init_params(6, 4, seed=5)
        with pytest.raises(CheckpointError):
            forward(p, np.zeros(5))


class TestLoss:
    def test_exact_fit_zero_loss_zero_grads(self):
        p = zero_params()
        s = np.zeros((4, 2))
        a = np.array([0, 1, 2, 0])
        y = np.zeros(4)
        loss, g = loss_and_gradients(p, s, a, y)
        assert loss == 0.0
        assert global_norm(g) == 0.0

    def test_single_row_error_two(self):
        p = zero_params()
        loss, _ = loss_and_gradients(p, np.zeros((1, 2)), np.array([1]),
                                     np.array([-2.0]))
        assert loss == 4.0

    def test_empty_batch_rejected(self):
        p = zero_params()
        with pytest.raises(ValueError):
            loss_and_gradients(p, np.zeros((0, 2)), np.array([]), np.array([]))

    def test_gradients_match_finite_differences(self):
        # pick a seed whose preactivations stay clear of the ReLU kink
        eps = 1e-5
        for seed in range(20):
            p = init_params(3, 3, hidden=(4, 4), seed=seed)
            rng = np.random.default_rng(100 + seed)
            s = rng.normal(size=(5, 3))
            z1 = s @ p.w1 + p.b1
            h1 = np.maximum(z1, 0.0)
            z2 = h1 @ p.w2 + p.b2
            if min(np.abs(z1).min(), np.abs(z2).min()) > 1e-3:
                break
        else:
            pytest.fail("no kink-free configuration found")
        a = rng.integers(0, 3, size=5)
        y = rng.normal(size=5)
        _, grads = loss_and_gradients(p, s, a, y)
        worst = 0.0
        for name, arr in p.arrays():
            g = getattr(grads, name)
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + eps
                lp, _ = loss_and_gradients(p, s, a, y)
                arr[idx] = orig - eps
                lm, _ = loss_and_gradients(p, s, a, y)
                arr[idx] = orig
                fd = (lp - lm) / (2 * eps)
                denom = max(abs(fd), abs(g[idx]), 1e-8)
                worst = max(worst, abs(fd - g[idx]) / denom)
        assert worst < 1e-4


class TestOptimizer:
    def test_zero_grads_noop_from_fresh_state(self):
        p = init_params(4, 3, seed=1)
        opt = OptimizerState.for_params(p)
        g = NetworkParams(**{n: np.zeros_like(a) for n, a in p.arrays()})
        p2 = apply_update(p, opt, g)
        for n, a in p.arrays():
            assert np.array_equal(getattr(p2, n), a)

    def test_clip_scales_to_limit(self):
        p = zero_params(4, (4, 4), 3)
        g = NetworkParams(**{n: np.zeros_like(a) for n, a in p.arrays()})
        g.w1[0, 0] = 7.0
        assert global_norm(g) == pytest.approx(7.0)
        assert nets._clip(g, global_norm(g), 0.7)
        assert global_norm(g) == pytest.approx(0.7)
        before = g.flat.tobytes()
        assert not nets._clip(g, global_norm(g), 0.7)
        assert g.flat.tobytes() == before  # under the limit is left untouched

    def test_update_determinism(self):
        def run():
            p = init_params(4, 3, seed=2)
            opt = OptimizerState.for_params(p)
            rng = np.random.default_rng(3)
            for _ in range(5):
                s = rng.normal(size=(6, 4))
                a = rng.integers(0, 3, size=6)
                y = rng.normal(size=6)
                _, g = loss_and_gradients(p, s, a, y)
                p = apply_update(p, opt, g)
            return p
        p1, p2 = run(), run()
        for n, a in p1.arrays():
            assert np.array_equal(getattr(p2, n), a)

    def test_nonfinite_gradients_raise(self):
        p = init_params(4, 3, seed=1)
        opt = OptimizerState.for_params(p)
        g = NetworkParams(**{n: np.zeros_like(a) for n, a in p.arrays()})
        g.w2[0, 0] = math.nan
        with pytest.raises(TrainingDiverged):
            apply_update(p, opt, g)

    def test_default_learning_rate_is_one_constant(self):
        p = init_params(4, 3, seed=7)
        assert (OptimizerState.for_params(p).learning_rate
                == DDQNConfig().learning_rate == nets.LEARNING_RATE == 1e-4)

    def test_training_reduces_loss(self):
        p = init_params(4, 3, seed=7)
        opt = OptimizerState.for_params(p, learning_rate=1e-2)
        rng = np.random.default_rng(8)
        s = rng.normal(size=(32, 4))
        a = rng.integers(0, 3, size=32)
        y = rng.normal(size=32)
        first, _ = loss_and_gradients(p, s, a, y)
        for _ in range(200):
            _, g = loss_and_gradients(p, s, a, y)
            p = apply_update(p, opt, g)
        last, _ = loss_and_gradients(p, s, a, y)
        assert last < 0.1 * first


class TestSoftUpdate:
    def test_identity_when_equal(self):
        p = init_params(4, 3, seed=1)
        out = soft_update(p, p, 0.01)
        for n, a in p.arrays():
            assert np.allclose(getattr(out, n), a)

    def test_rate_one_copies_local(self):
        t = init_params(4, 3, seed=1)
        l = init_params(4, 3, seed=2)
        out = soft_update(t, l, 1.0)
        for n, a in l.arrays():
            assert np.array_equal(getattr(out, n), a)

    def test_scalar_case(self):
        t = zero_params()
        l = zero_params()
        l.bv[:] = 1.0
        out = soft_update(t, l, 0.01)
        assert out.bv[0] == pytest.approx(0.01)

    def test_shape_mismatch(self):
        t = init_params(4, 3, seed=1)
        l = init_params(4, 5, seed=1)
        with pytest.raises(CheckpointError):
            soft_update(t, l, 0.01)


class TestCheckpoints:
    def test_round_trip_bit_exact(self, tmp_path):
        for dtype in (np.float64, np.float32):
            p = init_params(32, 11, seed=9).astype(dtype)
            opt = OptimizerState.for_params(p)
            rng = np.random.default_rng(10)
            for _ in range(3):
                s = rng.normal(size=(8, 32))
                a = rng.integers(0, 11, size=8)
                y = rng.normal(size=8)
                _, g = loss_and_gradients(p, s, a, y)
                p = apply_update(p, opt, g)
            path = str(tmp_path / "net.json")
            save_checkpoint(path, p, opt, metadata={"seed": 9, "config_hash": "abc123"})
            p2, opt2, meta = load_checkpoint(path)
            for n, a in p.arrays():
                assert np.array_equal(getattr(p2, n), a)
            assert p2.flat.dtype == opt2.m.flat.dtype == opt2.v.flat.dtype == dtype
            assert opt2.step == opt.step
            assert opt2.m.layout == opt2.v.layout == p.layout
            assert opt2.m.flat.tobytes() == opt.m.flat.tobytes()
            assert opt2.v.flat.tobytes() == opt.v.flat.tobytes()
            assert meta["seed"] == 9
            # a float64 record names no dtype, so float64 checkpoints keep their bytes
            record = json.loads(open(path).read())["optimizer"]["v"]["w1"]
            assert list(record) == (["shape", "data"] if dtype == np.float64
                                    else ["shape", "dtype", "data"])

    @pytest.mark.parametrize("record,message", [
        ({"dtype": "float16"}, "field w1: dtype 'float16' is not float64 or float32"),
        ({"dtype": "float32", "data": [0.1] * 24},
         "field w1: data holds values that are not float32"),
        ({"dtype": "float32", "data": [1e300] * 24},
         "field w1: data holds values that are not float32"),
    ])
    def test_bad_dtype_record_rejected(self, tmp_path, record, message):
        p = init_params(8, 3, seed=1).astype(np.float32)
        path = str(tmp_path / "net.json")
        save_checkpoint(path, p)
        doc = json.loads(open(path).read())
        doc["params"]["w1"] = {"shape": [8, 3], "data": [0.5] * 24, **record}
        open(path, "w").write(json.dumps(doc))
        with pytest.raises(CheckpointError) as ei:
            load_checkpoint(path)
        assert str(ei.value) == message

    def test_moments_of_another_dtype_rejected(self, tmp_path):
        p = init_params(8, 3, seed=1)
        path = str(tmp_path / "net.json")
        save_checkpoint(path, p.astype(np.float32), OptimizerState.for_params(p))
        with pytest.raises(CheckpointError) as ei:
            load_checkpoint(path)
        assert str(ei.value) == "optimizer.m is float64, the params are float32"

    def test_shape_tamper_rejected(self, tmp_path):
        p = init_params(8, 3, seed=1)
        path = str(tmp_path / "net.json")
        save_checkpoint(path, p)
        doc = json.loads(open(path).read())
        doc["params"]["w2"]["shape"] = [64, 63]
        open(path, "w").write(json.dumps(doc))
        with pytest.raises(CheckpointError) as ei:
            load_checkpoint(path)
        assert "w2" in str(ei.value)

    @pytest.mark.parametrize("field", ["step", "learning_rate", "clip_norm", "m", "v"])
    def test_missing_optimizer_field_rejected(self, tmp_path, field):
        p = init_params(8, 3, seed=1)
        path = str(tmp_path / "net.json")
        save_checkpoint(path, p, OptimizerState.for_params(p))
        doc = json.loads(open(path).read())
        del doc["optimizer"][field]
        open(path, "w").write(json.dumps(doc))
        with pytest.raises(CheckpointError) as ei:
            load_checkpoint(path)
        assert field in str(ei.value)

    def test_missing_optimizer_moment_rejected(self, tmp_path):
        p = init_params(8, 3, seed=1)
        path = str(tmp_path / "net.json")
        save_checkpoint(path, p, OptimizerState.for_params(p))
        doc = json.loads(open(path).read())
        del doc["optimizer"]["v"]["wa"]
        open(path, "w").write(json.dumps(doc))
        with pytest.raises(CheckpointError) as ei:
            load_checkpoint(path)
        assert "optimizer.v" in str(ei.value) and "wa" in str(ei.value)

    def test_optimizer_shape_mismatch_rejected(self, tmp_path):
        p = init_params(3, 3, seed=1)
        path = str(tmp_path / "net.json")
        save_checkpoint(path, p, OptimizerState.for_params(p))
        doc = json.loads(open(path).read())
        doc["optimizer"]["m"]["w1"] = {"shape": [2, 2], "data": [0.0] * 4}
        open(path, "w").write(json.dumps(doc))
        with pytest.raises(CheckpointError) as ei:
            load_checkpoint(path)
        assert "optimizer.m" in str(ei.value) and "w1" in str(ei.value)

    @pytest.mark.parametrize("name", ["w1", "w2", "wa"])
    def test_one_axis_weight_rejected(self, tmp_path, name):
        p = init_params(3, 3, seed=1)
        path = str(tmp_path / "net.json")
        save_checkpoint(path, p)
        doc = json.loads(open(path).read())
        size = getattr(p, name).size
        doc["params"][name] = {"shape": [size], "data": [0.0] * size}
        open(path, "w").write(json.dumps(doc))
        with pytest.raises(CheckpointError) as ei:
            load_checkpoint(path)
        assert str(ei.value) == f"parameter {name} has shape ({size},), expected 2 axes"

    def test_missing_field_rejected(self, tmp_path):
        p = init_params(8, 3, seed=1)
        path = str(tmp_path / "net.json")
        save_checkpoint(path, p)
        doc = json.loads(open(path).read())
        del doc["params"]["ba"]
        open(path, "w").write(json.dumps(doc))
        with pytest.raises(CheckpointError) as ei:
            load_checkpoint(path)
        assert "ba" in str(ei.value)

    @pytest.mark.parametrize("shape", [[1.0], 5, [-1], [True], None, "1"])
    def test_bad_shape_rejected(self, tmp_path, shape):
        p = init_params(8, 3, seed=1)
        path = str(tmp_path / "net.json")
        save_checkpoint(path, p)
        doc = json.loads(open(path).read())
        doc["params"]["bv"]["shape"] = shape
        open(path, "w").write(json.dumps(doc))
        with pytest.raises(CheckpointError, match="field bv: shape"):
            load_checkpoint(path)

    @pytest.mark.parametrize("data", [[[0.5]], "0.5", 0.5, [{"x": 1}], [[1.0], [2.0, 3.0]]])
    def test_bad_data_rejected(self, tmp_path, data):
        p = init_params(8, 3, seed=1)
        path = str(tmp_path / "net.json")
        save_checkpoint(path, p)
        doc = json.loads(open(path).read())
        doc["params"]["bv"]["data"] = data
        open(path, "w").write(json.dumps(doc))
        with pytest.raises(CheckpointError, match="field bv: data"):
            load_checkpoint(path)

    def test_corrupt_json_rejected(self, tmp_path):
        path = str(tmp_path / "net.json")
        open(path, "w").write("{not json")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)


def random_params(rng, scale, input_dim=5, hidden=(6, 4), n_out=3):
    p = init_params(input_dim, n_out, hidden=hidden)
    return NetworkParams(**{n: scale * rng.normal(size=a.shape)
                            for n, a in p.arrays()})


def same_bytes(a, b):
    return a.flat.tobytes() == b.flat.tobytes()


class TestFlatMatchesOracle:
    """The whole-vector optimizer path equals the per-array oracle bit for bit."""

    @pytest.mark.parametrize("scale", [1e-12, 1.0, 1e3, 1e150, 0.0])
    def test_norm_clip_and_soft_update(self, scale):
        rng = np.random.default_rng(11)
        for _ in range(5):
            g = random_params(rng, scale)
            norm = global_norm(g)
            assert norm == oracles.global_norm(g)
            for limit in (0.7, norm, np.nextafter(norm, 0.0), np.nextafter(norm, np.inf)):
                clipped = g.copy()
                nets._clip(clipped, norm, limit)
                assert same_bytes(clipped, oracles.clip_by_global_norm(g, limit))
            t, l = random_params(rng, 1.0), g
            assert same_bytes(soft_update(t, l, 0.01), oracles.soft_update(t, l, 0.01))

    @pytest.mark.parametrize("scale", [1e-12, 1.0, 1e3, 1e150, 0.0])
    @pytest.mark.parametrize("where", ["below", "at", "above"])
    def test_adam_steps(self, scale, where):
        rng = np.random.default_rng(12)
        p = q = random_params(rng, 1.0)
        grads = [random_params(rng, scale) for _ in range(4)]
        norm = global_norm(grads[0])
        clip = {"below": np.nextafter(norm, 0.0), "at": norm,
                "above": np.nextafter(norm, np.inf)}[where]
        opt = OptimizerState.for_params(p, learning_rate=1e-2, clip_norm=clip)
        ref = OptimizerState.for_params(q, learning_rate=1e-2, clip_norm=clip)
        for g in grads:
            p = apply_update(p, opt, g)
            q = oracles.apply_update(q, ref, g)
            assert same_bytes(p, q) and opt.step == ref.step
            assert same_bytes(opt.m, ref.m) and same_bytes(opt.v, ref.v)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_adam_flushes_a_subnormal_first_moment(self, dtype):
        p = init_params(4, 3, seed=1).astype(dtype)
        opt, ref = OptimizerState.for_params(p), OptimizerState.for_params(p)
        opt.m.flat[:] = ref.m.flat[:] = np.finfo(dtype).tiny  # one decay from subnormal
        opt.m.flat[0] = ref.m.flat[0] = 1.0
        zero = NetworkParams.from_flat(np.zeros_like(p.flat), p.layout)
        new = apply_update(p, opt, zero)
        assert opt.m.flat[0] == dtype(0.9) and not opt.m.flat[1:].any()
        assert same_bytes(new, oracles.apply_update(p, ref, zero))
        assert same_bytes(opt.m, ref.m) and same_bytes(opt.v, ref.v)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_names_the_same_array(self, bad):
        p = init_params(4, 3, seed=1)
        for name in nets.PARAM_NAMES:
            g = NetworkParams(**{n: np.zeros_like(a) for n, a in p.arrays()})
            getattr(g, name).reshape(-1)[-1] = bad
            messages = []
            for update in (apply_update, oracles.apply_update):
                with pytest.raises(TrainingDiverged) as ei:
                    update(p, OptimizerState.for_params(p), g)
                messages.append(str(ei.value))
            assert messages[0] == messages[1] == f"non-finite gradient in {name}"

    def test_soft_update_shape_mismatch_message(self):
        t = init_params(4, 3, seed=1)
        l = init_params(4, 5, seed=1)
        messages = []
        for update in (soft_update, oracles.soft_update):
            with pytest.raises(CheckpointError) as ei:
                update(t, l, 0.01)
            messages.append(str(ei.value))
        assert messages[0] == messages[1]

    def test_training_run_matches_oracle(self, monkeypatch):
        cfg = DDQNConfig(learning_rate=3e-3, batch_size=64, warm_start=200,
                         eval_every_episodes=5, buffer=10_000)

        def run():
            return train_ddqn(ToyPriceCycleEnv(), ToyPriceCycleEnv(), cfg, 1500, seed=4)

        flat = run()
        monkeypatch.setattr(dqn, "ddqn_update", oracles.ddqn_update_in_place)
        ref = run()
        assert flat.steps == ref.steps == 1500
        assert same_bytes(flat.params, ref.params)
        assert flat.log == ref.log

    @pytest.mark.parametrize("rows", [1, 7, 64])
    def test_public_passes_match_fresh_array_oracle(self, rows):
        rng = np.random.default_rng(rows)
        p = random_params(rng, 1.0)
        s = rng.normal(size=(rows, 5))
        q, v, adv = forward(p, s)
        ref_q, ref_v, ref_adv, _ = oracles.affine_forward(p, s)
        assert q.tobytes() == ref_q.tobytes() and adv.tobytes() == ref_adv.tobytes()
        assert v.tobytes() == ref_v.tobytes()
        a, y = rng.integers(0, 3, size=rows), rng.normal(size=rows)
        loss, g = loss_and_gradients(p, s, a, y)
        ref_loss, ref_g = oracles.affine_loss_and_gradients(p, s, a, y)
        assert loss == ref_loss and same_bytes(g, ref_g)

    def test_relu_mask_in_place_keeps_nan_rows(self):
        # ReLU runs in place, so the backward masks with h > 0 where the
        # oracle masks with z > 0: the same mask, NaN included
        rng = np.random.default_rng(2)
        p = random_params(rng, 1.0)
        s = rng.normal(size=(6, 5))
        s[2, 1] = math.nan
        a, y = rng.integers(0, 3, size=6), rng.normal(size=6)
        loss, g = loss_and_gradients(p, s, a, y)
        ref_loss, ref_g = oracles.loss_and_gradients(p, s, a, y)
        assert math.isnan(loss) and math.isnan(ref_loss)
        assert np.array_equal(g.flat, ref_g.flat, equal_nan=True)


def assert_close(got, want, rtol=1e-12):
    """The same non-finite entries, and the finite ones within rtol of the
    largest finite |want|."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    finite = np.isfinite(want)
    assert np.array_equal(np.isfinite(got), finite)
    scale = np.abs(want[finite]).max(initial=0.0)
    assert np.all(np.abs(got[finite] - want[finite]) <= rtol * scale)


class TestAffineKernels:
    """The affine kernels (biases folded into the weight blocks, the head
    composed into one map) against the textbook dueling oracle."""

    def check(self, p, s, a, y):
        q, v, adv = forward(p, s)
        ref_q, ref_v, ref_adv, _ = oracles.forward_all(p, s)
        for got, want in ((q, ref_q), (v, ref_v[:, 0]), (adv, ref_adv)):
            assert_close(got, want)
        loss, g = loss_and_gradients(p, s, a, y)
        ref_loss, ref_g = oracles.loss_and_gradients(p, s, a, y)
        assert_close(loss, ref_loss)
        for name, want in ref_g.arrays():
            assert_close(getattr(g, name), want)

    @pytest.mark.parametrize("scale", [1e-12, 1.0, 1e3, 1e150, 0.0])
    @pytest.mark.parametrize("dims", [(5, (6, 4), 3), (32, (64, 64), 12)])
    def test_random_nets_match_textbook_oracle(self, scale, dims):
        n_in, hidden, n_out = dims
        rng = np.random.default_rng(13)
        for _ in range(5):
            p = random_params(rng, scale, input_dim=n_in, hidden=hidden, n_out=n_out)
            s = rng.normal(size=(64, n_in))
            with np.errstate(over="ignore", invalid="ignore"):
                self.check(p, s, rng.integers(0, n_out, size=64), rng.normal(size=64))

    def test_nan_rows_and_zero_net(self):
        rng = np.random.default_rng(14)
        s = rng.normal(size=(6, 5))
        s[2, 1] = math.nan
        a, y = rng.integers(0, 3, size=6), rng.normal(size=6)
        with np.errstate(invalid="ignore"):
            self.check(random_params(rng, 1.0), s, a, y)
        zero = random_params(rng, 0.0)
        self.check(zero, s[[0, 1, 3, 4, 5]], a[:5], y[:5])
        q, v, adv = forward(zero, s[0])
        assert not q.any() and v == 0.0 and not adv.any()

    def test_layers_view_flat(self):
        p = init_params(4, 3, hidden=(5, 6), seed=1)
        assert [layer.shape for layer in p.layers] == [(5, 5), (6, 6), (7, 1), (7, 3)]
        assert all(np.shares_memory(layer, p.flat) for layer in p.layers)
        p.layers[0][-1] = 2.5
        assert np.all(p.b1 == 2.5)
        p.layers[3][:-1] = 0.0
        assert not p.wa.any()

    def test_inconsistent_shapes_bind_no_layers(self):
        p = init_params(3, 3, seed=1)
        arrays = dict(p.arrays(), w1=np.zeros((2, 2)))
        bad = NetworkParams(**arrays)
        assert bad.layers is None
        with pytest.raises(CheckpointError,
                           match=r"parameter b1 has shape \(64,\), expected \(2,\)"):
            bad.validate()


# The float32 kernels' bound against the float64 textbook oracle, relative to
# the largest |q| or |g|: 30x their worst error over 50 random nets at batch 256.
F32_RTOL = 1e-5


class TestFloat32Kernels:
    """Float32 params run every pass in float32, within F32_RTOL of the
    float64 textbook oracle on the same float32 values."""

    @pytest.mark.parametrize("rows", [1, 64, 256])
    def test_passes_match_float64_textbook_oracle(self, rows):
        rng = np.random.default_rng(15 + rows)
        for _ in range(10):
            p = random_params(rng, 1.0, input_dim=32, hidden=(64, 64),
                              n_out=11).astype(np.float32)
            s = rng.normal(size=(rows, 32)).astype(np.float32)
            a, y = rng.integers(0, 11, size=rows), rng.normal(size=rows)
            p64, s64 = p.astype(np.float64), s.astype(np.float64)
            q, v, adv = forward(p, s)
            assert q.dtype == v.dtype == adv.dtype == np.float32
            ref_q, ref_v, ref_adv, _ = oracles.forward_all(p64, s64)
            for got, want in ((q, ref_q), (v, ref_v[:, 0]), (adv, ref_adv)):
                assert_close(got, want, F32_RTOL)
            loss, g = loss_and_gradients(p, s, a, y)
            ref_loss, ref_g = oracles.loss_and_gradients(p64, s64, a, y)
            assert g.flat.dtype == np.float32
            assert_close(loss, ref_loss, F32_RTOL)
            assert_close(g.flat, ref_g.flat, F32_RTOL)

    def test_greedy_actions_are_oracle_argmax_where_its_top_two_differ(self):
        rng = np.random.default_rng(16)
        p = init_params(32, 11, seed=16).astype(np.float32)
        s = rng.normal(size=(4096, 32)).astype(np.float32)
        ref_q = oracles.forward_all(p.astype(np.float64), s.astype(np.float64))[0]
        top2 = np.sort(ref_q, axis=1)[:, -2:]
        clear = top2[:, 1] - top2[:, 0] > F32_RTOL * np.abs(ref_q).max()
        assert clear.mean() > 0.9
        greedy = forward(p, s)[0].argmax(axis=1)
        assert np.array_equal(greedy[clear], ref_q.argmax(axis=1)[clear])

    def test_greedy_rollout_acts_in_float32(self, monkeypatch):
        p = init_params(toymdp.OBS_DIM, toymdp.N_WIDTHS + 1, seed=3).astype(np.float32)
        dtypes, real = [], nets._activations

        def spy(rows, params):
            acts = real(rows, params)
            dtypes.append({a.dtype for a in acts})
            return acts

        monkeypatch.setattr(nets, "_activations", spy)
        _, actions, _ = dqn.greedy_rollout(ToyPriceCycleEnv(), p, 2)
        assert dtypes == [{np.dtype(np.float32)}]
        env = ToyPriceCycleEnv()
        obs, checked = env.reset(2), 0
        for a in actions:
            x = obs.astype(np.float32).astype(np.float64)[None]
            q = oracles.forward_all(p.astype(np.float64), x)[0][0]
            top2 = np.sort(q)[-2:]
            if top2[1] - top2[0] > F32_RTOL * np.abs(q).max():
                assert a == q.argmax()
                checked += 1
            obs = env.step(a)[0]
        assert checked > 0.9 * len(actions)


def filled_buffer(rng, size, dim, n_actions):
    buf = ReplayBuffer(size, dim)
    for _ in range(size):
        buf.add(rng.normal(size=dim), rng.integers(n_actions), rng.normal(),
                rng.normal(size=dim))
    return buf


def learner(dim, n_out, batch, seed, dtype=np.float64, **opt_kwargs):
    local = init_params(dim, n_out, seed=seed).astype(dtype)
    return (nets.Workspace(local, 2 * batch, batch), local, local.copy(),
            OptimizerState.for_params(local, **opt_kwargs))


class TestInPlaceUpdate:
    """dqn.ddqn_update against the four-call update it replaced, run on the
    oracle's fresh-array version of the affine arithmetic in the same dtype."""

    @pytest.mark.parametrize("batch,dim,n_out", [(64, 15, 3), (256, 32, 11)])
    @pytest.mark.parametrize("clip", ["idle", "active"])
    def test_matches_four_call_oracle_bit_for_bit(self, batch, dim, n_out, clip):
        for dtype in (np.float64, np.float32):
            rng = np.random.default_rng(batch + dim)
            buf = filled_buffer(rng, 1000, dim, n_out)
            clip_norm = {"idle": math.inf, "active": 1e-3}[clip]
            ws, local, target, opt = learner(dim, n_out, batch, seed=dim, dtype=dtype,
                                             learning_rate=1e-2, clip_norm=clip_norm)
            _, ref_local, ref_target, ref_opt = learner(dim, n_out, batch, seed=dim,
                                                        dtype=dtype, learning_rate=1e-2,
                                                        clip_norm=clip_norm)
            assert all(a.dtype == dtype for a in (ws.x, *ws.acts, ws.grads.flat, opt.m.flat))
            rng_new, rng_ref = np.random.default_rng(7), np.random.default_rng(7)
            norms = []
            for _ in range(200):
                loss = ddqn_update(ws, buf, rng_new, local, target, opt)
                norms.append(global_norm(ws.grads))
                ref_loss, ref_local, ref_target = oracles.ddqn_update(
                    buf, batch, rng_ref, ref_local, ref_target, ref_opt)
                assert np.float64(loss).tobytes() == np.float64(ref_loss).tobytes()
                assert same_bytes(local, ref_local) and same_bytes(target, ref_target)
                assert same_bytes(opt.m, ref_opt.m) and same_bytes(opt.v, ref_opt.v)
                assert opt.step == ref_opt.step
            assert local.flat.dtype == ref_local.flat.dtype == dtype
            # every raw gradient is above the active limit, so it clips every step
            if clip == "idle":
                assert min(norms) > 1e-3
            else:
                assert norms == pytest.approx([1e-3] * len(norms))

    def test_warm_updates_allocate_no_activation_sized_array(self):
        for dtype in (np.float64, np.float32):
            batch, dim, n_out = 256, 32, 11
            rng = np.random.default_rng(5)
            buf = filled_buffer(rng, 1000, dim, n_out)
            ws, local, target, opt = learner(dim, n_out, batch, seed=5, dtype=dtype)
            one_activation = batch * 64 * np.dtype(dtype).itemsize  # a (256, 64) array

            def peak_growth(update):
                update()  # warm
                tracemalloc.start()
                try:
                    base = tracemalloc.get_traced_memory()[0]
                    for _ in range(20):
                        update()
                    return tracemalloc.get_traced_memory()[1] - base
                finally:
                    tracemalloc.stop()

            assert peak_growth(lambda: ddqn_update(ws, buf, rng, local, target, opt)) \
                < one_activation
            # the four-call update it replaced holds several at once
            nets_ = [local.copy(), target.copy()]

            def four_call():
                _, nets_[0], nets_[1] = oracles.ddqn_update(buf, batch, rng, *nets_, opt)

            assert peak_growth(four_call) > one_activation

    def test_nan_loss_raises_before_anything_is_written(self):
        batch, dim, n_out = 64, 15, 3
        rng = np.random.default_rng(6)
        buf = filled_buffer(rng, batch, dim, n_out)
        ws, local, target, opt = learner(dim, n_out, batch, seed=6)
        for _ in range(3):
            ddqn_update(ws, buf, rng, local, target, opt)
        before = [a.flat.tobytes() for a in (local, target, opt.m, opt.v)], opt.step
        buf.rewards[batch // 2] = math.nan  # a batch of the whole buffer draws it
        with pytest.raises(TrainingDiverged, match="^loss became nan$"):
            ddqn_update(ws, buf, rng, local, target, opt)
        assert ([a.flat.tobytes() for a in (local, target, opt.m, opt.v)], opt.step) \
            == before
