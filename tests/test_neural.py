"""Weight-count fidelity, gradient correctness, the inference pass,
training behaviour, checkpoints, and the attention cost model."""

import copy
import sys
import threading
import time
import tracemalloc
from concurrent.futures import Executor, ThreadPoolExecutor

import numpy as np
import pytest

from bicmlab.harness import NeuralEstimator
from bicmlab.neural import models
from bicmlab.neural.attention import MultiHeadSelfAttention
from bicmlab.neural.layers import _grad, sigmoid
from bicmlab.units import thread_pool
from bicmlab.neural import (
    ARCHS,
    TRAIN_SHARD_FRAMES,
    Adam,
    CheckpointError,
    GRULayer,
    RnnConfig,
    TrainingDiverged,
    TransformerConfig,
    attention_flops,
    bce_with_logits,
    build_estimator,
    load_checkpoint,
    save_checkpoint,
    train_step,
)
from oracles import all_zeros_baseline_bce, gradient_check


def rnn_count_oracle(cfg: RnnConfig) -> int:
    """Layer-by-layer arithmetic, independent of the closed form."""
    h = cfg.alpha * cfg.r
    total = 3 * (h * h + cfg.r * h + h)               # first layer
    total += (cfg.depth - 1) * 3 * (h * h + h * h + h)  # stacked layers
    total += h * cfg.k + cfg.k                          # output head
    return total


def transformer_count_oracle(cfg: TransformerConfig) -> int:
    d, r, k, nenc = cfg.embed_dim, cfg.r, cfg.k, cfg.encoders
    per_layer = (4 * d * d + 4 * d) + (8 * d * d + 5 * d) + 2 * (2 * d)
    return r * d + nenc * per_layer + 2 * d + (d + 1) + (r * k + k)


class TestCounts:
    def test_tiny_rnn_from_first_principles(self):
        cfg = RnnConfig(r=4, k=2, alpha=1, time_steps=1, depth=1)
        # one GRU cell 3(16+16+4) plus dense 4*2+2
        assert cfg.weights() == 118
        assert rnn_count_oracle(cfg) == 118

    def test_tiny_transformer_from_first_principles(self):
        cfg = TransformerConfig(r=1, k=1, embed_dim=1, heads=1, encoders=1)
        # 12 + (13 + 1 + 3) + 2 + 1
        assert cfg.weights() == 32
        assert transformer_count_oracle(cfg) == 32

    @pytest.mark.parametrize("n,k,expected", [(128, 64, 25_512_064),
                                              (64, 32, 6_381_632)])
    def test_rnn_full_scale_counts(self, n, k, expected):
        cfg = RnnConfig.for_code(n, k, alpha=5, time_steps=5, depth=5)
        assert cfg.weights() == expected
        assert rnn_count_oracle(cfg) == expected

    @pytest.mark.parametrize("n,k,expected", [(128, 64, 2_020_033),
                                              (64, 32, 1_998_497)])
    def test_transformer_full_scale_counts(self, n, k, expected):
        cfg = TransformerConfig.for_code(n, k, embed_dim=128, heads=8,
                                         encoders=10)
        assert cfg.weights() == expected
        assert transformer_count_oracle(cfg) == expected

    @pytest.mark.parametrize("n,k", [(128, 64), (64, 32)])
    def test_rnn_approximation_margin(self, n, k):
        cfg = RnnConfig.for_code(n, k, alpha=5, time_steps=5, depth=5)
        exact, approx = cfg.weights(), cfg.approx_weights()
        assert abs(exact - approx) / exact < 0.005

    @pytest.mark.parametrize("n,k", [(128, 64), (64, 32)])
    def test_transformer_approximation_margin(self, n, k):
        cfg = TransformerConfig.for_code(n, k, embed_dim=128, heads=8,
                                         encoders=10)
        exact = cfg.weights()
        approx = cfg.approx_weights()
        assert abs(exact - approx) / exact < 0.02

    def test_enumeration_matches_formula_across_configs(self):
        rng = np.random.default_rng(0)
        for alpha in (1, 2):
            for depth in (1, 2, 3):
                cfg = RnnConfig(r=11, k=5, alpha=alpha, time_steps=2,
                                depth=depth)
                net = build_estimator(cfg, rng)
                assert net.num_params() == cfg.weights()
        for d, heads, nenc in [(8, 2, 1), (12, 3, 2), (16, 4, 3)]:
            cfg = TransformerConfig(r=9, k=4, embed_dim=d, heads=heads,
                                    encoders=nenc)
            net = build_estimator(cfg, rng)
            assert net.num_params() == cfg.weights()

    def test_invalid_configs_rejected(self):
        valid = {RnnConfig: dict(r=4, k=2, alpha=5, time_steps=5, depth=5),
                 TransformerConfig: dict(r=4, k=2, embed_dim=128, heads=8,
                                         encoders=10)}
        for cls, kw, message in [
            (RnnConfig, dict(r=0), "r and k must be positive"),
            (TransformerConfig, dict(embed_dim=10, heads=3),
             "heads must divide embed_dim"),
            (TransformerConfig, dict(embed_dim=0),
             "embed_dim must be >= 1, got 0"),
            (RnnConfig, dict(alpha=0), "alpha must be >= 1, got 0"),
            (RnnConfig, dict(time_steps=0), "time_steps must be >= 1, got 0"),
            (RnnConfig, dict(depth=-1), "depth must be >= 1, got -1"),
        ]:
            with pytest.raises(ValueError, match=f"^{message}$"):
                cls(**{**valid[cls], **kw})


class TestForward:
    def test_zero_weights_zero_logits(self):
        rng = np.random.default_rng(1)
        net = build_estimator(RnnConfig(r=6, k=3, alpha=1, time_steps=2,
                                        depth=1), rng)
        for p in net.params():
            p.value[...] = 0
        out = net.forward(rng.normal(size=(4, 6)).astype(np.float32))
        assert not np.any(out)

    @pytest.mark.parametrize("arch", sorted(ARCHS))
    def test_batch_row_consistency(self, arch):
        rng = np.random.default_rng(2)
        cfg = {"rnn": RnnConfig(r=8, k=3, alpha=2, time_steps=3, depth=2),
               "transformer": TransformerConfig(r=8, k=3, embed_dim=8,
                                                heads=2, encoders=1)}[arch]
        net = build_estimator(cfg, rng, dtype=np.float64)
        x = rng.normal(size=(5, 8))
        full = net.forward(x)
        single = np.vstack([net.forward(x[i:i + 1]) for i in range(5)])
        assert np.allclose(full, single, atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("arch", sorted(ARCHS))
    def test_network_keeps_its_dtype(self, arch, dtype):
        rng = np.random.default_rng(3)
        cfg = {"rnn": RnnConfig(r=8, k=3, alpha=1, time_steps=2, depth=1),
               "transformer": TransformerConfig(r=8, k=3, embed_dim=8,
                                                heads=2, encoders=1)}[arch]
        net = build_estimator(cfg, rng, dtype=dtype)
        assert {p.value.dtype for p in net.params()} == {np.dtype(dtype)}
        assert net.predict(rng.normal(size=(4, 8))).dtype == dtype

    def test_permuting_batch_rows_permutes_outputs(self):
        rng = np.random.default_rng(3)
        net = build_estimator(
            TransformerConfig(r=6, k=2, embed_dim=8, heads=2, encoders=1),
            rng, dtype=np.float64)
        x = rng.normal(size=(6, 6))
        perm = rng.permutation(6)
        assert np.allclose(net.forward(x)[perm], net.forward(x[perm]),
                           atol=1e-12)


def reference_attention(mha, x):
    """Multi-head self-attention written out plainly in float64: queries
    outermost, the scores scaled, then softmaxed over the last axis, and
    normalised before attn @ v."""
    b, t, dim = x.shape
    heads, dk = mha.heads, mha.dk
    x = x.astype(np.float64)

    def project(dense):
        y = x @ dense.w.value + dense.b.value
        return y.reshape(b, t, heads, dk).transpose(0, 2, 1, 3)

    q, k, v = project(mha.q), project(mha.k), project(mha.v)
    scores = q @ k.transpose(0, 1, 3, 2) / np.sqrt(dk)
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    attn = e / e.sum(axis=-1, keepdims=True)
    ctx = (attn @ v).transpose(0, 2, 1, 3).reshape(b, t, dim)
    return ctx @ mha.o.w.value + mha.o.b.value, np.abs(scores).max()


def attention_layer(heads, dtype, seed=11):
    """An 8-wide attention layer with nonzero biases."""
    rng = np.random.default_rng(seed)
    mha = MultiHeadSelfAttention("mha", 8, heads, rng, dtype)
    for dense in (mha.q, mha.k, mha.v, mha.o):
        dense.b.value[...] = rng.normal(size=dense.b.value.shape)
    return mha


class TestAttention:
    @pytest.mark.parametrize("taped", [False, True])
    @pytest.mark.parametrize("r", [10, 48])
    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_forward_matches_reference(self, heads, r, taped):
        mha = attention_layer(heads, np.float64)
        x = np.random.default_rng(12).normal(size=(3, r, 8))
        want, _ = reference_attention(mha, x)
        got = mha.forward(x, {} if taped else None)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_scores_past_the_exp_range_stay_finite(self, dtype):
        mha = attention_layer(4, dtype)
        x = 40 * np.random.default_rng(13).normal(size=(3, 48, 8))
        want, top = reference_attention(mha, x)
        assert top > 1e3
        got = mha.forward(x.astype(dtype))
        assert np.all(np.isfinite(got))
        if dtype == np.float64:
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-9)


def desk_net(arch, n, k, dtype=np.float32, seed=20):
    """The desk-rnn or desk-transformer network of an (n, k) code."""
    cfg = {"rnn": RnnConfig.for_code(n, k, alpha=2, time_steps=3, depth=2),
           "transformer": TransformerConfig.for_code(
               n, k, embed_dim=32, heads=4, encoders=2)}[arch]
    return build_estimator(cfg, np.random.default_rng(seed), dtype=dtype)


def stray_arrays(obj, path="net"):
    """Paths of the ndarrays reachable from a network's attributes, lists
    and tuples without passing through a Param."""
    if isinstance(obj, np.ndarray):
        return [path]
    if isinstance(obj, (list, tuple)):
        return [p for i, v in enumerate(obj)
                for p in stray_arrays(v, f"{path}[{i}]")]
    if hasattr(obj, "params"):
        return [p for name, v in vars(obj).items()
                for p in stray_arrays(v, f"{path}.{name}")]
    return []


class TestInference:
    @pytest.mark.parametrize("arch", sorted(ARCHS))
    def test_predict_leaves_no_arrays_on_the_network(self, arch):
        net = desk_net(arch, 16, 8)
        net.predict(np.random.default_rng(0).normal(size=(64, net.cfg.r)))
        assert stray_arrays(net) == []

    def test_concurrent_predicts_overlap_and_match_serial(self):
        est = NeuralEstimator(desk_net("transformer", 16, 8), n=16,
                              input_scale=0.5)
        rng = np.random.default_rng(1)
        inputs = [rng.normal(size=(64 + 8 * i, est.net.cfg.r))
                  for i in range(4)]
        serial = [est.predict(x) for x in inputs]
        # every thread must be inside the network at once: a lock around
        # the network's predict would break the barrier
        together = threading.Barrier(len(inputs), timeout=10)
        net_predict = est.net.predict

        def met(stats):
            together.wait()
            return net_predict(stats)

        est.net.predict = met
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(len(inputs)) as ex:
                futures = [ex.submit(est.predict, x) for x in inputs]
                results = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(switch)
        for got, want in zip(results, serial):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("arch", sorted(ARCHS))
    def test_sliced_predict_matches_forward(self, arch):
        x = np.random.default_rng(2).normal(size=(300, 48))
        if arch == "transformer":
            for itemsize in (4, 8):
                # 300 rows span more than one slice of the predict
                assert (models._SLICE_SCORE_BYTES
                        // (4 * 48 * 48 * itemsize)) < 300
        net64 = desk_net(arch, 32, 16, dtype=np.float64)
        np.testing.assert_allclose(net64.predict(x), net64.forward(x),
                                   rtol=0, atol=1e-12)
        net32 = desk_net(arch, 32, 16, dtype=np.float32)
        got, want = net32.predict(x), net32.forward(x)
        assert got.shape == (300, 16)
        assert np.array_equal(np.sign(got), np.sign(want))

    def test_predict_memory_is_bounded_in_the_batch(self):
        net = desk_net("transformer", 64, 32)
        rng = np.random.default_rng(3)
        inputs = [rng.normal(size=(frames, net.cfg.r))
                  for frames in (256, 2048)]
        peaks = []
        tracemalloc.start()
        try:
            for x in inputs:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                net.predict(x)
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
        assert peaks[1] <= 2 * peaks[0], peaks


class TestGradients:
    def test_dense_only(self):
        rng = np.random.default_rng(4)
        net = build_estimator(
            RnnConfig(r=5, k=3, alpha=1, time_steps=1, depth=1), rng,
            dtype=np.float64)
        # silence the recurrent part: gradcheck still covers it, but the
        # dedicated dense bound is tighter
        x = rng.normal(size=(4, 5))
        t = (rng.random((4, 3)) < 0.4).astype(float)
        head_err = _head_only_check(net, x, t, rng)
        assert head_err < 1e-6

    def test_gru_two_layers_t3(self):
        rng = np.random.default_rng(5)
        net = build_estimator(
            RnnConfig(r=10, k=4, alpha=1, time_steps=3, depth=2), rng,
            dtype=np.float64)
        x = rng.normal(size=(3, 10))
        t = (rng.random((3, 4)) < 0.3).astype(float)
        assert gradient_check(net, x, t, rng) < 1e-4

    def test_transformer_one_encoder(self):
        rng = np.random.default_rng(6)
        net = build_estimator(
            TransformerConfig(r=10, k=4, embed_dim=8, heads=2, encoders=1),
            rng, dtype=np.float64)
        x = rng.normal(size=(3, 10))
        t = (rng.random((3, 4)) < 0.3).astype(float)
        assert gradient_check(net, x, t, rng) < 1e-4

    def test_transformer_two_encoders_four_heads(self):
        # the tape holds each layer's keys-outermost scores.  A 1e-4 step
        # errs by 1e-2 or more on most draws of this network, mostly because
        # the first LayerNorm sees x_i times one embedding row, which bends
        # sharply where x_i is near 0
        rng = np.random.default_rng(8)
        net = build_estimator(
            TransformerConfig(r=10, k=4, embed_dim=8, heads=4, encoders=2),
            rng, dtype=np.float64)
        x = rng.normal(size=(3, 10))
        t = (rng.random((3, 4)) < 0.3).astype(float)
        assert gradient_check(net, x, t, rng, step=1e-5) < 1e-4

    def test_float32_network_rejected(self):
        rng = np.random.default_rng(7)
        net = build_estimator(
            RnnConfig(r=4, k=2, alpha=1, time_steps=1, depth=1), rng)
        with pytest.raises(ValueError, match="float64"):
            gradient_check(net, np.zeros((1, 4)), np.zeros((1, 2)), rng)


def _head_only_check(net, x, t, rng, step=1e-6):
    """Central differences restricted to the output dense layer."""
    for p in net.params():
        p.grad[...] = 0
    tape = {p: p.grad for p in net.params()}
    loss, dz = bce_with_logits(net.forward(x, tape), t)
    net.backward(dz, tape)
    worst = 0.0
    for p in (net.head.w, net.head.b):
        flat_v, flat_g = p.value.reshape(-1), p.grad.reshape(-1)
        for i in rng.choice(flat_v.size, size=min(10, flat_v.size),
                            replace=False):
            keep = flat_v[i]
            flat_v[i] = keep + step
            up, _ = bce_with_logits(net.forward(x), t)
            flat_v[i] = keep - step
            dn, _ = bce_with_logits(net.forward(x), t)
            flat_v[i] = keep
            num = (up - dn) / (2 * step)
            worst = max(worst, abs(num - flat_g[i]) /
                        max(abs(num), abs(flat_g[i]), 1e-6))
    return worst


class TestTraining:
    def test_loss_near_zero_on_saturated_correct_logits(self):
        logits = np.array([[20.0, -20.0]])
        targets = np.array([[1.0, 0.0]])
        loss, _ = bce_with_logits(logits, targets)
        assert loss < 1e-8

    def test_monotone_decrease_on_separable_toy(self):
        rng = np.random.default_rng(8)
        net = build_estimator(
            RnnConfig(r=6, k=2, alpha=1, time_steps=2, depth=1), rng)
        opt = Adam(net.params())
        x = rng.normal(size=(128, 6)).astype(np.float32)
        t = (x[:, :2] > 0).astype(np.float32)
        losses = [train_step(net, x, t, opt) for _ in range(100)]
        assert losses[-1] < losses[0]
        assert np.mean(losses[-10:]) < np.mean(losses[:10])

    def test_desk_scale_beats_constant_predictor(self):
        # tiny budget: the estimator only has to undercut the entropy of the
        # flip rate, which any learning at all achieves
        from bicmlab.bicm import transmit_batch
        from bicmlab.gf2code import get_code
        from bicmlab.modem import NoiseConfig, build_constellation
        from bicmlab.sbnd import make_training_batch

        code = get_code("polar_16_8")
        const = build_constellation("qam16")
        nc = NoiseConfig.from_ebn0_db(5.0, code.rate, const.m)
        rng = np.random.default_rng(9)
        net = build_estimator(
            RnnConfig.for_code(code.n, code.k, alpha=2, time_steps=3, depth=2),
            rng)
        opt = Adam(net.params())
        last = baseline = None
        for step in range(400):
            fb = transmit_batch(code, const, nc, rng, 256)
            x, t = make_training_batch(fb, code)
            if baseline is None:
                baseline = all_zeros_baseline_bce(t)
            last = train_step(net, x.astype(np.float32),
                              t.astype(np.float32), opt)
        assert last < baseline

    def test_divergence_detected(self):
        rng = np.random.default_rng(10)
        net = build_estimator(
            RnnConfig(r=4, k=2, alpha=1, time_steps=1, depth=1), rng)
        net.head.w.value[...] = np.inf
        opt = Adam(net.params())
        with np.errstate(invalid="ignore"), pytest.raises(TrainingDiverged):
            train_step(net, np.ones((2, 4), dtype=np.float32),
                       np.zeros((2, 2), dtype=np.float32), opt)

    def test_empty_batch_rejected(self):
        rng = np.random.default_rng(11)
        net = build_estimator(
            RnnConfig(r=4, k=2, alpha=1, time_steps=1, depth=1), rng)
        with pytest.raises(ValueError):
            train_step(net, np.zeros((0, 4)), np.zeros((0, 2)),
                       Adam(net.params()))

    def test_fixed_seed_training_is_bit_identical(self):
        def run():
            rng = np.random.default_rng(12)
            net = build_estimator(
                RnnConfig(r=6, k=2, alpha=1, time_steps=2, depth=1), rng)
            opt = Adam(net.params())
            x = rng.normal(size=(32, 6)).astype(np.float32)
            t = (rng.random((32, 2)) < 0.2).astype(np.float32)
            for _ in range(20):
                train_step(net, x, t, opt)
            return [p.value.copy() for p in net.params()]

        a, b = run(), run()
        for pa, pb in zip(a, b):
            assert np.array_equal(pa, pb)


class TestGruTape:
    @pytest.mark.parametrize("seq_len, steps", [(4, None), (1, 3)])
    def test_taped_states_are_rows_of_outs(self, seq_len, steps):
        # the tape keeps no second copy of the states the forward returns
        rng = np.random.default_rng(5)
        gru = GRULayer("g", 6, 5, rng)
        xs = rng.normal(size=(seq_len, 8, 6)).astype(np.float32)
        tape = {}
        outs = gru.forward(xs, tape, steps=steps)
        _, cache = tape[gru]
        assert len(cache) == outs.shape[0] == (steps or seq_len)
        for t in range(1, len(cache)):
            h_prev = cache[t][0]
            assert np.shares_memory(h_prev, outs[t - 1])
            assert np.array_equal(h_prev, outs[t - 1])


class ParentGRULayer(GRULayer):
    """GRULayer's passes as they were before the step from h0 = 0 skipped
    its recurrent products and the first layer skipped its input gradient;
    the reference for bit identity."""

    def forward(self, xs, tape=None, steps=None):
        steps = steps or xs.shape[0]
        batch, hh = xs.shape[1], self.n_out
        ax = xs @ self.wx.value
        ax += self.b.value
        ax = np.broadcast_to(ax, (steps,) + ax.shape[1:])
        h = np.zeros((batch, hh), dtype=xs.dtype)
        outs = np.empty((steps, batch, hh), dtype=xs.dtype)
        cache = []
        if tape is not None:
            tape[self] = (xs, cache)
        wh = self.wh.value
        for t in range(steps):
            z = sigmoid(ax[t, :, :hh] + h @ wh[:, :hh])
            r = sigmoid(ax[t, :, hh:2 * hh] + h @ wh[:, hh:2 * hh])
            rh = r * h
            c = np.tanh(ax[t, :, 2 * hh:] + rh @ wh[:, 2 * hh:])
            h_new = z * h + (1.0 - z) * c
            if tape is not None:
                cache.append((h, z, r, rh, c))
            outs[t] = h_new
            h = h_new
        return outs

    def backward(self, douts, tape, input_grad=True):
        hh = self.n_out
        wh = self.wh.value
        xs, cache = tape[self]
        gwx, gwh, gb = (_grad(tape, p) for p in (self.wx, self.wh, self.b))
        das = np.empty(douts.shape[:2] + (3 * hh,), dtype=douts.dtype)
        dh = np.zeros_like(douts[0])
        for t in reversed(range(len(cache))):
            h_prev, z, r, rh, c = cache[t]
            dh_tot = douts[t] + dh
            dz = dh_tot * (h_prev - c)
            dc = dh_tot * (1.0 - z)
            dh_prev = dh_tot * z
            dac = dc * (1.0 - c * c)
            gwh[:, 2 * hh:] += rh.T @ dac
            drh = dac @ wh[:, 2 * hh:].T
            dr = drh * h_prev
            dh_prev = dh_prev + drh * r
            daz = dz * z * (1.0 - z)
            dar = dr * r * (1.0 - r)
            gwh[:, :hh] += h_prev.T @ daz
            gwh[:, hh:2 * hh] += h_prev.T @ dar
            dh_prev = dh_prev + daz @ wh[:, :hh].T + dar @ wh[:, hh:2 * hh].T
            np.concatenate([daz, dar, dac], axis=1, out=das[t])
            dh = dh_prev
        if xs.shape[0] != das.shape[0]:
            das = das.sum(axis=0, keepdims=True)
        da2 = das.reshape(-1, 3 * hh)
        gwx += xs.reshape(-1, self.n_in).T @ da2
        gb += da2.sum(axis=0)
        return das @ self.wx.value.T


class ParentAdam(Adam):
    """Adam.step as it was before it updated m and v in place."""

    def step(self):
        self.t += 1
        b1c = 1.0 - self.beta1 ** self.t
        b2c = 1.0 - self.beta2 ** self.t
        for i, p in enumerate(self.params):
            g = p.grad
            self.m[i] = self.beta1 * self.m[i] + (1 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1 - self.beta2) * (g * g)
            mhat = self.m[i] / b1c
            vhat = self.v[i] / b2c
            p.value -= (self.lr * mhat / (np.sqrt(vhat) + self.eps)).astype(
                p.value.dtype)


class TestBitIdentity:
    """The GRU and Adam give the bits their reference copies give: the
    forward pass, every gradient, and three training steps."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("time_steps, depth", [(3, 2), (1, 1), (2, 3)])
    def test_rnn_matches_reference(self, time_steps, depth, dtype):
        rng = np.random.default_rng(13)
        net = build_estimator(
            RnnConfig(r=24, k=8, alpha=2, time_steps=time_steps, depth=depth),
            rng, dtype=dtype)
        ref = copy.deepcopy(net)
        for g in ref.grus:
            g.__class__ = ParentGRULayer
        x = rng.normal(size=(64, 24)).astype(dtype)
        t = (rng.random((64, 8)) < 0.2).astype(dtype)

        assert np.array_equal(net.forward(x), ref.forward(x))
        for model in (net, ref):
            tape = {p: p.grad for p in model.params()}
            _, dz = bce_with_logits(model.forward(x, tape), t)
            model.backward(dz, tape)
        for p, q in zip(net.params(), ref.params()):
            assert np.array_equal(p.grad, q.grad), p.name

        opt, ref_opt = Adam(net.params()), ParentAdam(ref.params())
        for _ in range(3):
            assert train_step(net, x, t, opt) == train_step(ref, x, t, ref_opt)
        for p, q in zip(net.params(), ref.params()):
            assert np.array_equal(p.value, q.value), p.name
        for got, want in zip(opt.m + opt.v, ref_opt.m + ref_opt.v):
            assert np.array_equal(got, want)


def parent_train_step(net, x, targets, opt):
    """train_step as it was before it split batches into shards."""
    for p in opt.params:
        p.grad[...] = 0
    tape = {p: p.grad for p in opt.params}
    logits = net.forward(x, tape)
    z = np.asarray(logits, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64)
    loss = np.maximum(z, 0) - z * t + np.log1p(np.exp(-np.abs(z)))
    dz = ((sigmoid(z) - t) / z.size).astype(logits.dtype)
    net.backward(dz, tape)
    opt.step()
    return float(loss.mean())


def _shard_nets(dtype):
    rng = np.random.default_rng(17)
    return {
        "rnn": build_estimator(
            RnnConfig(r=24, k=8, alpha=2, time_steps=3, depth=2), rng, dtype),
        "transformer": build_estimator(
            TransformerConfig(r=12, k=4, embed_dim=8, heads=2, encoders=2),
            rng, dtype),
    }


class TestShardedStep:
    """train_step splits its batch into TRAIN_SHARD_FRAMES-frame shards."""

    @pytest.mark.parametrize("batch", [512, 600])
    @pytest.mark.parametrize("arch", sorted(ARCHS))
    def test_shard_grads_sum_to_the_batch_gradient(self, arch, batch):
        net = _shard_nets(np.float64)[arch]
        rng = np.random.default_rng(batch)
        x = rng.normal(size=(batch, net.cfg.r))
        t = (rng.random((batch, net.cfg.k)) < 0.2).astype(np.float64)
        ref = copy.deepcopy(net)
        tape = {p: p.grad for p in ref.params()}
        want_loss, dz = bce_with_logits(ref.forward(x, tape), t)
        ref.backward(dz, tape)

        inline = copy.deepcopy(net)
        got = [train_step(inline, x, t, Adam(inline.params()))]
        with ThreadPoolExecutor(max_workers=2) as pool:
            got.append(train_step(net, x, t, Adam(net.params()), pool))
        assert got[0] == got[1]
        assert got[0] == pytest.approx(want_loss, rel=1e-12, abs=0)
        # some grads are 0 in exact arithmetic (softmax ignores the key
        # bias), so the bound is relative to the largest gradient entry
        scale = max(np.max(np.abs(r.grad)) for r in ref.params())
        for p, q, r in zip(net.params(), inline.params(), ref.params()):
            assert np.array_equal(p.grad, q.grad), p.name
            np.testing.assert_allclose(p.grad, r.grad, rtol=1e-12,
                                       atol=1e-12 * scale, err_msg=p.name)

    @pytest.mark.parametrize("batch", [100, 256])
    @pytest.mark.parametrize("arch", sorted(ARCHS))
    def test_one_shard_is_the_unsharded_step(self, arch, batch):
        net = _shard_nets(np.float32)[arch]
        ref = copy.deepcopy(net)
        rng = np.random.default_rng(batch)
        x = rng.normal(size=(batch, net.cfg.r)).astype(np.float32)
        t = (rng.random((batch, net.cfg.k)) < 0.2).astype(np.float32)
        opt, ref_opt = Adam(net.params()), Adam(ref.params())
        with ThreadPoolExecutor(max_workers=2) as pool:
            for _ in range(3):
                assert (train_step(net, x, t, opt, pool)
                        == parent_train_step(ref, x, t, ref_opt))
        for p, q in zip(net.params(), ref.params()):
            assert np.array_equal(p.value, q.value), p.name
            assert np.array_equal(p.grad, q.grad), p.name
        for got, want in zip(opt.m + opt.v, ref_opt.m + ref_opt.v):
            assert np.array_equal(got, want)

    def test_more_threads_than_cores_lose_no_update(self):
        # four pool threads switching every microsecond: a shard whose grads
        # were lost or written twice would move the weights off the inline run
        rng = np.random.default_rng(4)
        x = rng.normal(size=(1000, 24)).astype(np.float32)
        t = (rng.random((1000, 8)) < 0.2).astype(np.float32)
        net = _shard_nets(np.float32)["rnn"]
        inline = copy.deepcopy(net)
        opt, inline_opt = Adam(net.params()), Adam(inline.params())
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                for _ in range(3):
                    assert (train_step(net, x, t, opt, pool)
                            == train_step(inline, x, t, inline_opt))
        finally:
            sys.setswitchinterval(interval)
        for p, q in zip(net.params(), inline.params()):
            assert np.array_equal(p.value, q.value), p.name

    def test_shards_run_on_any_executor(self):
        # an Executor with no ThreadPoolExecutor fields (no _max_workers)
        # still runs the shards past the next one, given the step's thread
        # count, and the weights are those of the inline step
        class Forwarding(Executor):
            def __init__(self, pool):
                self.pool, self.submitted = pool, 0

            def submit(self, fn, /, *args, **kwargs):
                self.submitted += 1
                return self.pool.submit(fn, *args, **kwargs)

        rng = np.random.default_rng(5)
        x = rng.normal(size=(1000, 24)).astype(np.float32)
        t = (rng.random((1000, 8)) < 0.2).astype(np.float32)
        net = _shard_nets(np.float32)["rnn"]
        inline = copy.deepcopy(net)
        opt, inline_opt = Adam(net.params()), Adam(inline.params())
        with ThreadPoolExecutor(max_workers=2) as threads:
            pool = Forwarding(threads)
            assert not hasattr(pool, "_max_workers")
            for _ in range(3):
                assert (train_step(net, x, t, opt, pool, 3)
                        == train_step(inline, x, t, inline_opt))
        assert pool.submitted > 0
        for p, q in zip(net.params(), inline.params()):
            assert np.array_equal(p.value, q.value), p.name

    @pytest.mark.parametrize("threads", [1, 2])
    def test_step_holds_at_most_threads_plus_one_gradient_sets(self, threads):
        # 16 shards, all on net: besides net's grads, at most threads + 1
        # shards' gradients are alive at once, next to the activations of
        # the threads' shards.  A one-shard step adds into net's grads and
        # measures the activations alone
        rng = np.random.default_rng(6)
        net = build_estimator(
            RnnConfig(r=8, k=4, alpha=32, time_steps=2, depth=1), rng)
        grad_set = sum(p.grad.nbytes for p in net.params())
        x = rng.normal(size=(16 * TRAIN_SHARD_FRAMES, 8)).astype(np.float32)
        t = (rng.random((x.shape[0], 4)) < 0.2).astype(np.float32)
        opt = Adam(net.params())
        peaks = []
        with thread_pool(threads - 1) as pool:
            tracemalloc.start()
            try:
                for frames in (TRAIN_SHARD_FRAMES, x.shape[0]):
                    base = tracemalloc.get_traced_memory()[0]
                    tracemalloc.reset_peak()
                    train_step(net, x[:frames], t[:frames], opt, pool,
                               threads)
                    peaks.append(tracemalloc.get_traced_memory()[1] - base)
            finally:
                tracemalloc.stop()
        one, sixteen = peaks
        assert sixteen <= threads * one + (threads + 1) * grad_set, (
            one, sixteen, grad_set)

    def test_failing_shard_raises_once_every_shard_ends(self, monkeypatch):
        # shard 0 fails at once; the caller sees the error only after the
        # two slower shards have finished writing their grads
        net = _shard_nets(np.float32)["rnn"]
        ended = []
        forward = type(net).forward

        def failing_or_slow(model, x, tape=None):
            logits = forward(model, x, tape)
            if x[0, 0] == 0:  # the first row of shard 0
                logits[...] = np.nan
            else:
                time.sleep(0.05)
                ended.append(x[0, 0])
            return logits

        monkeypatch.setattr(type(net), "forward", failing_or_slow)
        x = np.repeat(np.arange(600, dtype=np.float32)[:, None], net.cfg.r,
                      axis=1)
        t = np.zeros((600, net.cfg.k), dtype=np.float32)
        with ThreadPoolExecutor(max_workers=3) as pool:
            with pytest.raises(TrainingDiverged, match="activation"):
                train_step(net, x, t, Adam(net.params()), pool)
            assert len(ended) == 2


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(13)
        net = build_estimator(
            RnnConfig(r=8, k=4, alpha=2, time_steps=2, depth=2), rng)
        path = tmp_path / "est.ckpt"
        save_checkpoint(path, net, input_scale=0.25, step=42, seed=13)
        net2, header = load_checkpoint(path)
        assert header["step"] == 42
        assert header["input_scale"] == 0.25
        for p, q in zip(net.params(), net2.params()):
            assert p.name == q.name
            assert np.array_equal(p.value, q.value)
        x = rng.normal(size=(3, 8)).astype(np.float32)
        assert np.allclose(net.forward(x), net2.forward(x))

    def test_resave_byte_identical(self, tmp_path):
        rng = np.random.default_rng(14)
        net = build_estimator(
            TransformerConfig(r=6, k=3, embed_dim=8, heads=2, encoders=1), rng)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(p1, net, input_scale=1.0, step=7, seed=0)
        net2, _ = load_checkpoint(p1)
        save_checkpoint(p2, net2, input_scale=1.0, step=7, seed=0)
        assert p1.read_bytes() == p2.read_bytes()

    def test_failed_save_leaves_no_temporary_file(self, tmp_path):
        # the rename onto a directory fails after the whole file is written
        net = build_estimator(
            RnnConfig(r=8, k=4, alpha=1, time_steps=1, depth=1),
            np.random.default_rng(1))
        folder = tmp_path / "d"
        folder.mkdir()
        with pytest.raises(OSError):
            save_checkpoint(folder, net)
        assert list(tmp_path.iterdir()) == [folder]

    def test_corruption_detected(self, tmp_path):
        rng = np.random.default_rng(15)
        net = build_estimator(
            RnnConfig(r=4, k=2, alpha=1, time_steps=1, depth=1), rng)
        path = tmp_path / "c.ckpt"
        save_checkpoint(path, net)
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="checksum"):
            load_checkpoint(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTACKPT" + b"\0" * 16)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    HEADER_DEFECTS = {
        "list": "not a JSON object",
        "format": "unsupported checkpoint format 2",
        "no-arch": "no 'arch' entry",
        "config-key": "unexpected keyword argument 'bogus'",
        "params-int": "'int' object is not iterable",
        "no-offset": "no 'offset' entry",
        "dtype": "float99",
        "past-data": "block gru0.wx runs past the data",
        "unknown-arch": "unknown architecture 'lstm'",
    }

    @pytest.mark.parametrize("defect", HEADER_DEFECTS)
    def test_malformed_header_names_the_file(self, tmp_path, edit_header,
                                             defect):
        """A header that parses but does not describe a checkpoint raises
        CheckpointError naming the file, never a bare KeyError, TypeError,
        AttributeError or ValueError."""
        path = tmp_path / "bad.ckpt"
        save_checkpoint(path, build_estimator(
            RnnConfig(r=4, k=2, alpha=1, time_steps=1, depth=1),
            np.random.default_rng(16)))

        def edit(header):
            first = header["params"][0]
            if defect == "list":
                header = [header]
            elif defect == "format":
                header["format"] = 2
            elif defect == "no-arch":
                del header["arch"]
            elif defect == "config-key":
                header["config"]["bogus"] = 1
            elif defect == "params-int":
                header["params"] = 7
            elif defect == "no-offset":
                del first["offset"]
            elif defect == "dtype":
                first["dtype"] = "float99"
            elif defect == "unknown-arch":
                header["arch"] = "lstm"
            else:
                data = sum(block["nbytes"] for block in header["params"])
                first["offset"] = data - first["nbytes"] + 4
            return header

        edit_header(path, edit)
        with pytest.raises(CheckpointError) as exc:
            load_checkpoint(path)
        assert str(exc.value).startswith(f"{path}: ")
        assert self.HEADER_DEFECTS[defect] in str(exc.value)


class TestFlops:
    def test_attention_counter_scales_quadratically(self):
        rs = [32, 64, 128, 256]
        counts = [attention_flops(r, 128, 8) for r in rs]
        expo = np.polyfit(np.log(rs), np.log(counts), 1)[0]
        assert abs(expo - 2.0) <= 0.1

    def test_attention_counter_linear_in_embed_dim(self):
        a = attention_flops(64, 64, 8)
        b = attention_flops(64, 128, 8)
        assert 1.8 <= b / a <= 2.0
