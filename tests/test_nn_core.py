import json
import re
import weakref

import numpy as np
import pytest

from gradcheck import NonFiniteError, grad_check
from tabseq.errors import RangeError, ShapeError
from tabseq.nn import (
    Adam,
    AttentionCounter,
    Embedding,
    Encoder,
    EncoderLayer,
    FeedForward,
    LayerNorm,
    Linear,
    MultiHeadSelfAttention,
    TaskHead,
    Tensor,
    load_checkpoint,
    save_checkpoint,
)
from tabseq.nn import tensor as T

TOL = 1e-4


def probe(module, x, seed=0):
    """Scalar loss that excites every output coordinate with O(1) weights.

    A plain sum-of-squares through a final layer norm has near-zero true
    gradients (the norm output is scale/shift invariant), which drowns real
    gradients in finite-difference noise; a random linear probe avoids that.
    """
    c = np.random.default_rng(seed).standard_normal(module(Tensor(x)).shape)

    def f():
        return T.tsum(module(Tensor(x)) * c)

    return f


class TestAutogradPrimitives:
    def test_quadratic_exact(self):
        theta = Tensor(np.array(3.0), requires_grad=True)
        err = grad_check(lambda: theta * theta, [theta])
        assert err < 1e-9
        assert theta.grad == pytest.approx(6.0)

    def test_constant_function(self):
        theta = Tensor(np.array(2.0), requires_grad=True)
        assert grad_check(lambda: Tensor(5.0) + 0.0 * theta, [theta]) == 0.0

    def test_broadcast_add_mul(self):
        rng = np.random.default_rng(1)
        a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal(4), requires_grad=True)
        c = rng.standard_normal((3, 4))
        assert grad_check(lambda: T.tsum((a + b) * (a * b) * c), [a, b]) < TOL

    def test_matmul_batched(self):
        rng = np.random.default_rng(2)
        a = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
        c = rng.standard_normal((2, 3, 5))
        assert grad_check(lambda: T.tsum(T.matmul(a, b) * c), [a, b]) < TOL

    @pytest.mark.parametrize("op", [T.gelu])
    def test_elementwise_ops(self, op):
        rng = np.random.default_rng(3)
        x = Tensor(rng.uniform(0.2, 2.0, (4, 5)), requires_grad=True)
        c = rng.standard_normal((4, 5))
        assert grad_check(lambda: T.tsum(op(x) * c), [x]) < TOL

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(4)
        out = T.softmax(Tensor(rng.standard_normal((6, 9)) * 30)).data
        assert np.max(np.abs(out.sum(axis=-1) - 1.0)) < 1e-12

    def test_softmax_gradient(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.standard_normal((3, 6)), requires_grad=True)
        c = rng.standard_normal((3, 6))
        assert grad_check(lambda: T.tsum(T.softmax(x) * c), [x]) < TOL

    def test_take_and_embedding_scatter(self):
        rng = np.random.default_rng(6)
        table = Tensor(rng.standard_normal((7, 4)), requires_grad=True)
        ids = np.array([[0, 3], [3, 6]])
        c = rng.standard_normal((2, 2, 4))
        assert grad_check(lambda: T.tsum(T.embedding(table, ids) * c), [table]) < TOL

    def test_embedding_out_of_range(self):
        table = Tensor(np.zeros((4, 2)), requires_grad=True)
        with pytest.raises(RangeError):
            T.embedding(table, np.array([4]))

    def test_reused_node_accumulates(self):
        x = Tensor(np.array(2.0), requires_grad=True)
        y = x * x + x * 3.0  # dy/dx = 2x + 3 = 7
        y.backward()
        assert x.grad == pytest.approx(7.0)

    def test_backward_needs_scalar(self):
        x = Tensor(np.zeros(3), requires_grad=True)
        with pytest.raises(ShapeError):
            (x * 2.0).backward()


# The layers as they were composed from primitives before each became one tape
# node: reference oracles for the fused forward and backward.
def transpose(a, axes):
    inverse = np.argsort(axes)
    return Tensor(a.data.transpose(axes), _parents=(a,),
                  _backward_fn=lambda g: (g.transpose(inverse),))


def power(a, exponent):
    return Tensor(a.data ** exponent, _parents=(a,),
                  _backward_fn=lambda g: (g * exponent * a.data ** (exponent - 1.0),))


def composed_linear(lin, x):
    return T.matmul(x, lin.weight) + lin.bias


def composed_layer_norm(ln, x):
    mu = T.tmean(x, axis=-1, keepdims=True)
    centered = x - mu
    var = T.tmean(centered * centered, axis=-1, keepdims=True)
    return centered * power(var + ln.eps, -0.5) * ln.gain + ln.bias


def composed_attention(q, k, v, heads):
    batch, s, h = q.shape
    dh = h // heads

    def split(t):
        return transpose(T.reshape(t, (batch, s, heads, dh)), (0, 2, 1, 3))

    q, k, v = split(q), split(k), split(v)
    scores = T.matmul(q, transpose(k, (0, 1, 3, 2))) * (1.0 / np.sqrt(dh))
    ctx = T.matmul(T.softmax(scores, axis=-1), v)
    return T.reshape(transpose(ctx, (0, 2, 1, 3)), (batch, s, h))


def gradients(f, params, c):
    """The gradients of sum(f() * c) with respect to ``params``."""
    for p in params:
        p.grad = None
    T.tsum(f() * c).backward()
    return [p.grad for p in params]


class TestFusedKernels:
    @pytest.mark.parametrize("shape", [(4, 5), (2, 3, 5), "swapaxes"])
    def test_linear_forward_matches_composed(self, shape):
        rng = np.random.default_rng(30)
        lin = Linear(5, 7, rng)
        lin.bias.data = rng.standard_normal(7)
        x = (np.swapaxes(rng.standard_normal((2, 5, 3)), 1, 2) if shape == "swapaxes"
             else rng.standard_normal(shape))
        assert np.array_equal(lin(Tensor(x)).data, composed_linear(lin, Tensor(x)).data)

    @pytest.mark.parametrize("shape", [(4, 5), (2, 3, 5)])
    def test_linear_backward(self, shape):
        rng = np.random.default_rng(31)
        lin = Linear(5, 3, rng)
        x = Tensor(rng.standard_normal(shape), requires_grad=True)
        c = rng.standard_normal((*shape[:-1], 3))
        params = [x, lin.weight, lin.bias]
        assert grad_check(lambda: T.tsum(lin(x) * c), params) < TOL
        for fused, composed in zip(gradients(lambda: lin(x), params, c),
                                   gradients(lambda: composed_linear(lin, x), params, c)):
            np.testing.assert_allclose(fused, composed, rtol=1e-12, atol=1e-14)

    def test_linear_weight_gradient_over_many_row_blocks(self):
        # 1800 rows of a 16 -> 64 layer span seven full row blocks and a partial one
        rng = np.random.default_rng(37)
        lin = Linear(16, 64, rng)
        x = Tensor(rng.standard_normal((300, 6, 16)))
        c = rng.standard_normal((300, 6, 64))
        params = [lin.weight, lin.bias]
        for fused, composed in zip(gradients(lambda: lin(x), params, c),
                                   gradients(lambda: composed_linear(lin, x), params, c)):
            np.testing.assert_allclose(fused, composed, rtol=1e-12, atol=1e-12)

    def test_linear_skips_input_gradient_of_constant(self):
        rng = np.random.default_rng(32)
        lin = Linear(4, 2, rng)
        out = lin(Tensor(rng.standard_normal((3, 4))))
        assert out._backward_fn(np.ones((3, 2)))[0] is None

    @pytest.mark.parametrize("width", [12, 16])
    def test_layer_norm_forward_matches_composed(self, width):
        # at 12, sum * (1/n) and np.mean round differently: the order is kept
        rng = np.random.default_rng(33)
        ln = LayerNorm(width)
        ln.gain.data = rng.standard_normal(width)
        ln.bias.data = rng.standard_normal(width)
        x = Tensor(rng.standard_normal((3, 4, width)) * 3 + 1)
        assert np.array_equal(ln(x).data, composed_layer_norm(ln, x).data)

    def test_layer_norm_backward(self):
        rng = np.random.default_rng(34)
        ln = LayerNorm(12)
        ln.gain.data = rng.standard_normal(12)
        x = Tensor(rng.standard_normal((2, 3, 12)), requires_grad=True)
        c = rng.standard_normal((2, 3, 12))
        params = [x, ln.gain, ln.bias]
        assert grad_check(lambda: T.tsum(ln(x) * c), params) < TOL
        for fused, composed in zip(gradients(lambda: ln(x), params, c),
                                   gradients(lambda: composed_layer_norm(ln, x), params, c)):
            np.testing.assert_allclose(fused, composed, rtol=1e-12, atol=1e-14)

    def test_attention_forward_matches_composed(self):
        rng = np.random.default_rng(35)
        q, k, v = (Tensor(rng.standard_normal((3, 5, 8))) for _ in range(3))
        assert np.array_equal(T.attention(q, k, v, 2).data,
                              composed_attention(q, k, v, 2).data)

    def test_attention_backward_two_heads(self):
        rng = np.random.default_rng(36)
        q, k, v = (Tensor(rng.standard_normal((2, 4, 8)), requires_grad=True)
                   for _ in range(3))
        c = rng.standard_normal((2, 4, 8))
        assert grad_check(lambda: T.tsum(T.attention(q, k, v, 2) * c), [q, k, v]) < TOL
        for fused, composed in zip(gradients(lambda: T.attention(q, k, v, 2), [q, k, v], c),
                                   gradients(lambda: composed_attention(q, k, v, 2),
                                             [q, k, v], c)):
            np.testing.assert_allclose(fused, composed, rtol=1e-12, atol=1e-14)

    def test_attention_block_forward_matches_composed(self):
        rng = np.random.default_rng(37)
        mha = MultiHeadSelfAttention(8, 2, rng)
        x = Tensor(rng.standard_normal((3, 5, 8)))
        merged = composed_attention(composed_linear(mha.wq, x), composed_linear(mha.wk, x),
                                    composed_linear(mha.wv, x), 2)
        expect = composed_layer_norm(mha.norm, x + composed_linear(mha.wo, merged))
        assert np.array_equal(mha(x).data, expect.data)

    def test_gelu_forward_matches_composed(self):
        rng = np.random.default_rng(40)
        x = rng.standard_normal((3, 5, 7)) * 3
        expect = x * (0.5 * (1.0 + T.erf(x * T._INV_SQRT2)))
        assert np.array_equal(T.gelu(Tensor(x)).data, expect)

    def test_gelu_backward_matches_composed(self):
        rng = np.random.default_rng(43)
        x = rng.standard_normal((3, 5, 7)) * 3
        g = rng.standard_normal(x.shape)
        t = Tensor(x, requires_grad=True)
        T.gelu(t).backward(g)
        cdf = 0.5 * (1.0 + T.erf(x * T._INV_SQRT2))
        pdf = T._INV_SQRT_2PI * np.exp(-0.5 * x * x)
        assert np.array_equal(t.grad, g * (cdf + x * pdf))

    def test_softmax_matches_composed(self):
        rng = np.random.default_rng(41)
        x = rng.standard_normal((2, 3, 4, 4)) * 10
        e = np.exp(x - x.max(axis=-1, keepdims=True))
        assert np.array_equal(T._softmax(x, -1), e / e.sum(axis=-1, keepdims=True))

    @pytest.mark.parametrize("grad", [True, False], ids=["taped", "no_grad"])
    @pytest.mark.parametrize("op", ["gelu", "linear", "attention", "softmax"])
    def test_forward_leaves_inputs_unchanged(self, op, grad):
        rng = np.random.default_rng(42)
        arrays = {"gelu": [rng.standard_normal((3, 4, 6))],
                  "linear": [rng.standard_normal(s) for s in ((3, 4, 6), (6, 5), (5,))],
                  "attention": [rng.standard_normal((2, 4, 6)) for _ in range(3)],
                  "softmax": [rng.standard_normal((2, 3, 5))]}[op]
        tensors = [Tensor(a, requires_grad=True) for a in arrays]
        run = {"gelu": lambda: T.gelu(*tensors),
               "linear": lambda: T.linear(*tensors),
               "attention": lambda: T.attention(*tensors, heads=2),
               "softmax": lambda: T._softmax(arrays[0], -1)}[op]
        copies = [a.copy() for a in arrays]
        if grad:
            run()
        else:
            with T.no_grad():
                run()
        assert all(np.array_equal(t.data, c) for t, c in zip(tensors, copies))
        assert all(np.array_equal(a, c) for a, c in zip(arrays, copies))

    def test_embedding_backward_equals_bincount_scatter(self):
        rng = np.random.default_rng(38)
        for ids in (rng.integers(0, 4, (5, 7)),  # 2-D, ids repeat, rows 4 and 5 get none
                    rng.integers(0, 4, 9),       # 1-D with repeats
                    rng.permutation(6)[:5]):     # 1-D, distinct, one row gets none
            table = Tensor(rng.standard_normal((6, 3)), requires_grad=True)
            g = rng.standard_normal(ids.shape + (3,))
            T.embedding(table, ids).backward(g)
            assert np.array_equal(table.grad, bincount_scatter(table.shape, (ids,), g))

    def test_take_backward_equals_bincount_scatter(self):
        rng = np.random.default_rng(39)
        flat = rng.permutation(24)[:20]  # 20 distinct of the 24 leading cells
        for idx in ((rng.integers(0, 2, 20), rng.integers(0, 3, 20), np.full(20, 1)),
                    (flat // 12, flat // 4 % 3, flat % 4)):
            a = Tensor(rng.standard_normal((2, 3, 4, 5)), requires_grad=True)
            g = rng.standard_normal((20, 5))
            T.take(a, idx).backward(g)
            assert np.array_equal(a.grad, bincount_scatter(a.shape, idx, g))


def bincount_scatter(shape, idx, g):
    """The gradient of ``a[idx]`` for an ``a`` of ``shape``, summed one
    ``bincount`` per trailing column over the flattened leading index: an
    independent oracle that also adds in index order."""
    lead = shape[:len(idx)]
    flat = np.ravel_multi_index(idx, lead).reshape(-1)
    cols = g.reshape(len(flat), -1).T
    n = int(np.prod(lead))
    return np.stack([np.bincount(flat, weights=c, minlength=n) for c in cols],
                    axis=1).reshape(shape)


class TestNoGrad:
    def test_records_no_tape_inside_only(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        with T.no_grad():
            y = T.gelu(x * 2.0)
        assert y._parents == () and y._backward_fn is None and not y.requires_grad
        assert (x * 2.0)._parents  # taping resumes after the block

    def test_grad_mode_restored_after_exception(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ShapeError):
            with T.no_grad():
                (x * 2.0).backward()
        y = T.tsum(x * 2.0)
        y.backward()
        assert (x.grad == 2.0).all()


class TestTapeRelease:
    def test_backward_frees_the_tape_and_walks_it_once(self):
        x = Tensor(np.linspace(-2.0, 2.0, 6).reshape(2, 3), requires_grad=True)
        mid = x * 2.0
        freed = weakref.ref(mid.data)
        loss = T.tsum(T.gelu(mid))
        del mid
        loss.backward()
        assert freed() is None
        grad = x.grad.copy()
        with pytest.raises(RangeError):
            loss.backward()
        assert np.array_equal(x.grad, grad)


class TestLosses:
    def test_uniform_logits_is_log_c(self):
        loss = T.cross_entropy(Tensor(np.zeros((5, 7))), np.zeros(5, dtype=np.int64))
        assert loss.item() == pytest.approx(np.log(7), abs=1e-12)

    def test_dominant_logit_drives_ce_to_zero(self):
        logits = np.zeros((3, 4))
        logits[:, 2] = 1e4  # survives the log-sum-exp stabilization
        loss = T.cross_entropy(Tensor(logits), np.full(3, 2, dtype=np.int64))
        assert loss.item() < 1e-12

    def test_ce_gradient(self):
        rng = np.random.default_rng(7)
        logits = Tensor(rng.standard_normal((6, 4)), requires_grad=True)
        targets = rng.integers(0, 4, 6)
        assert grad_check(lambda: T.cross_entropy(logits, targets), [logits]) < TOL

    def test_ce_rejects_bad_targets(self):
        with pytest.raises(RangeError):
            T.cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 3]))
        with pytest.raises(RangeError):
            T.cross_entropy(Tensor(np.zeros((2, 3))), np.array([0.0, 1.0]))

    def test_mse_identity_and_gradient(self):
        rng = np.random.default_rng(8)
        t = rng.standard_normal(10)
        assert T.mse(Tensor(t), Tensor(t)).item() == 0.0
        p = Tensor(rng.standard_normal(10), requires_grad=True)
        assert grad_check(lambda: T.mse(p, Tensor(t)), [p]) < TOL

    def test_mse_shape_mismatch(self):
        with pytest.raises(ShapeError):
            T.mse(Tensor(np.zeros(3)), Tensor(np.zeros(4)))


class TestLayers:
    def params(self, module):
        return list(module.named_parameters().values())

    def test_linear_gradients(self):
        rng = np.random.default_rng(9)
        lin = Linear(5, 3, rng)
        x = rng.standard_normal((4, 5))
        assert grad_check(probe(lin, x), self.params(lin)) < TOL

    def test_embedding_layer_gradients(self):
        rng = np.random.default_rng(10)
        emb = Embedding(12, 6, rng)
        ids = rng.integers(0, 12, (3, 4))
        c = rng.standard_normal((3, 4, 6))
        assert grad_check(lambda: T.tsum(emb(ids) * c), self.params(emb)) < TOL

    def test_layer_norm_statistics(self):
        rng = np.random.default_rng(11)
        ln = LayerNorm(16)
        out = ln(Tensor(rng.standard_normal((5, 16)) * 4 + 2)).data
        assert np.max(np.abs(out.mean(axis=-1))) < 1e-10
        assert np.max(np.abs(out.var(axis=-1) - 1.0)) < 1e-6

    def test_layer_norm_gradients(self):
        rng = np.random.default_rng(12)
        ln = LayerNorm(8)
        x = Tensor(rng.standard_normal((3, 8)), requires_grad=True)
        c = rng.standard_normal((3, 8))
        assert grad_check(lambda: T.tsum(ln(x) * c),
                          self.params(ln) + [x]) < TOL

    def test_mha_gradients(self):
        rng = np.random.default_rng(13)
        mha = MultiHeadSelfAttention(8, 2, rng)
        x = rng.standard_normal((2, 4, 8))
        assert grad_check(probe(mha, x), self.params(mha)) < TOL

    def test_mha_single_position_closed_form(self):
        # S=1: the attention weight is exactly 1, so the block reduces to
        # norm(x + Wo(Wv x + bv) + bo)
        rng = np.random.default_rng(14)
        mha = MultiHeadSelfAttention(6, 3, rng)
        x = Tensor(rng.standard_normal((2, 1, 6)))
        expect = mha.norm(x + mha.wo(mha.wv(x))).data
        assert np.max(np.abs(mha(x).data - expect)) < 1e-12

    def test_mha_two_position_hand_oracle(self):
        # 1 head, H=2, identity projections: a scalar-by-scalar recomputation
        rng = np.random.default_rng(15)
        mha = MultiHeadSelfAttention(2, 1, rng)
        eye = np.eye(2)
        for lin in (mha.wq, mha.wk, mha.wv, mha.wo):
            lin.weight.data = eye.copy()
            lin.bias.data = np.zeros(2)
        x = rng.standard_normal((1, 2, 2))
        scores = x[0] @ x[0].T / np.sqrt(2)
        e = np.exp(scores - scores.max(axis=1, keepdims=True))
        attn = e / e.sum(axis=1, keepdims=True)
        mixed = x[0] + attn @ x[0]
        mu = mixed.mean(axis=1, keepdims=True)
        var = mixed.var(axis=1, keepdims=True)
        expect = (mixed - mu) / np.sqrt(var + 1e-8)
        assert np.max(np.abs(mha(Tensor(x)).data[0] - expect)) < 1e-12

    def test_mha_counter_contract(self):
        rng = np.random.default_rng(16)
        mha = MultiHeadSelfAttention(8, 4, rng)
        counter = AttentionCounter()
        for batch, s in [(1, 1), (2, 5), (3, 7)]:
            counter.reset()
            mha(Tensor(rng.standard_normal((batch, s, 8))), counter=counter)
            assert counter.count == batch * 4 * s * s

    def test_mha_shape_error(self):
        mha = MultiHeadSelfAttention(8, 2, np.random.default_rng(0))
        with pytest.raises(ShapeError):
            mha(Tensor(np.zeros((2, 3, 7))))

    def test_load_state_rejects_unknown_tensor(self):
        lin = Linear(3, 2, np.random.default_rng(0))
        before = lin.state()
        with pytest.raises(ShapeError, match="extra"):
            lin.load_state({**before, "extra": np.zeros(2)})
        assert all(np.array_equal(lin.state()[k], v) for k, v in before.items())

    def test_ffn_gradients(self):
        rng = np.random.default_rng(17)
        ffn = FeedForward(6, rng)
        x = rng.standard_normal((2, 3, 6))
        assert grad_check(probe(ffn, x), self.params(ffn)) < TOL

    def test_encoder_gradients(self):
        rng = np.random.default_rng(18)
        enc = Encoder(8, 2, 2, rng)
        x = rng.standard_normal((2, 3, 8))
        assert grad_check(probe(enc, x), self.params(enc), max_coords=8) < TOL

    def test_task_head_gradients(self):
        rng = np.random.default_rng(19)
        head = TaskHead(6, 2, rng)
        x = rng.standard_normal((4, 6))
        assert grad_check(probe(head, x), self.params(head)) < TOL

    def test_forward_deterministic(self):
        rng = np.random.default_rng(20)
        enc = Encoder(8, 2, 2, rng)
        x = Tensor(rng.standard_normal((2, 4, 8)))
        a = enc(x).data
        b = enc(x).data
        assert (a == b).all()

    def test_dropout_seeded_and_disabled(self):
        rng = np.random.default_rng(21)
        layer = EncoderLayer(8, 2, rng)
        x = Tensor(np.random.default_rng(1).standard_normal((2, 4, 8)))
        a = layer(x, dropout=0.5, rng=np.random.default_rng(3)).data
        b = layer(x, dropout=0.5, rng=np.random.default_rng(3)).data
        c = layer(x, dropout=0.5, rng=np.random.default_rng(4)).data
        assert (a == b).all() and not (a == c).all()
        assert (layer(x).data == layer(x).data).all()

    def test_dropout_without_rng(self):
        x = Tensor(np.ones((2, 3)))
        assert T.dropout(x, 0.0, None) is x
        with pytest.raises(RangeError):
            T.dropout(x, 0.5, None)


def first_adam_step(p, g, lr):
    """One step of a fresh Adam on a single parameter with gradient ``g``;
    returns the updated values."""
    x = Tensor(p, requires_grad=True)
    opt = Adam([x], lr=lr)
    x.grad = g
    opt.step()
    return x.data, opt


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        p = np.array([1.0, -2.0])
        out, _ = first_adam_step(p, np.zeros(2), lr=0.1)
        assert (out == p).all()

    def test_first_step_closed_form(self):
        # after bias correction the first update is -lr * g / (|g| + eps)
        g = np.array([0.5, -3.0, 1e-12])
        out, opt = first_adam_step(np.zeros(3), g, lr=0.01)
        expect = -0.01 * g / (np.abs(g) + opt.eps)
        assert np.max(np.abs(out - expect)) < 1e-12

    def test_deterministic(self):
        g = np.array([0.3, -0.7])
        a, _ = first_adam_step(np.ones(2), g, lr=0.05)
        b, _ = first_adam_step(np.ones(2), g, lr=0.05)
        assert (a == b).all()

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            first_adam_step(np.zeros(2), np.zeros(3), lr=1e-3)

    def test_wrapper_decreases_quadratic(self):
        x = Tensor(np.array([4.0, -3.0]), requires_grad=True)
        opt = Adam([x], lr=0.1)
        for _ in range(200):
            opt.zero_grad()
            loss = T.tsum(x * x)
            loss.backward()
            opt.step()
        assert T.tsum(x * x).item() < 1e-2


class TestGradCheckHarness:
    def test_eps_domain(self):
        x = Tensor(np.array(1.0), requires_grad=True)
        with pytest.raises(RangeError):
            grad_check(lambda: x * x, [x], eps=1.0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_function(self):
        x = Tensor(np.array(0.0), requires_grad=True)
        with pytest.raises(NonFiniteError):
            grad_check(lambda: power(x, -1.0), [x])

    def test_detects_wrong_gradient(self):
        # a deliberately broken backward must be flagged
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)

        def broken():
            out = Tensor(np.sum(x.data ** 2), _parents=(x,),
                         _backward_fn=lambda g: (g * x.data,))  # missing factor 2
            return out

        assert grad_check(broken, [x]) > 0.1


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(22)
        params = {"a.weight": rng.standard_normal((3, 4)).astype(np.float64),
                  "b.bias": rng.standard_normal(5)}
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, {"family": "vanilla"}, vocab_hash="abc", seed=7)
        header, state = load_checkpoint(path)
        assert header["model_spec"] == {"family": "vanilla"}
        assert header["vocab_hash"] == "abc" and header["seed"] == 7
        assert set(state) == set(params)
        for k in params:
            assert np.array_equal(state[k], params[k])  # stored as little-endian float64

    def test_version_1_refused_by_path(self, tmp_path):
        path = tmp_path / "old.ckpt"
        save_checkpoint(path, {"w": np.ones(2)}, {"family": "vanilla"})
        doc = json.loads(path.read_bytes().split(b"\n", 1)[0])
        path.write_bytes(json.dumps({**doc, "version": 1}).encode() + b"\n"
                         + np.ones(2, dtype="<f4").tobytes())
        with pytest.raises(RangeError, match=f"^{re.escape(str(path))}: not a version-2"):
            load_checkpoint(path)

    @pytest.mark.parametrize("cut", [-1, 8, 3])
    def test_wrong_data_size_refused(self, tmp_path, cut):
        # one byte short, one value more, and a partial trailing value
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, {"w": np.ones((2, 3))}, {"family": "vanilla"})
        data = path.read_bytes()
        path.write_bytes(data[:cut] if cut < 0 else data + b"\0" * cut)
        with pytest.raises(ShapeError, match="checkpoint data holds"):
            load_checkpoint(path)

    def test_identical_bytes_for_identical_state(self, tmp_path):
        params = {"w": np.linspace(0, 1, 12).reshape(3, 4)}
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(p1, params, {"family": "vanilla"}, seed=0)
        save_checkpoint(p2, dict(params), {"family": "vanilla"}, seed=0)
        assert p1.read_bytes() == p2.read_bytes()
