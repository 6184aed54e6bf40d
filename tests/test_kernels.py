"""Fused kernels against the per-step / per-op compositions they replace.

The recurrent encoders, the attention decoder and the output layer with
its loss each run as one tape node with a hand-written backward.  Each
is checked here against the unfused reference: the step functions, the
taped composition the decoder used to be (`reference.decode`), the
autograd chain the attention used to be, and matmul + log_softmax +
take_per_row + mean_all.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

import odnext.autograd as ag
import reference as ref
from odnext.data import build_interval_tables, build_vocab
from odnext.model import (
    ATTEND_BLOCK,
    ATTENTION_CONTEXTS,
    VARIANTS,
    Model,
    ModelConfig,
    _leaky_relu,
    _leaky_relu_slope,
    attend,
    attend_backward,
    attention_keys,
)
from odnext.nn import ContractViolation, draw_params
from odnext.stlstm import (
    STLSTMInput,
    _regroup,
    _ungroup,
    lstm_encode,
    lstm_spec,
    st_lstm_encode,
    st_lstm_spec,
)
from odnext.synth import SynthConfig, generate
from reference import lstm_step, st_lstm_step

TOL = 1e-12
STEPS = (0, 1, 2, 7)
ATTENDING = [v for v in VARIANTS if v != "encoder-only"]  # the variants `Model._decode` serves


def _grads(tensors):
    return [np.zeros_like(t.value) if t.grad is None else t.grad.copy() for t in tensors]


def _zero(tensors):
    for t in tensors:
        t.zero_grad()


def _close(actual, expected):
    np.testing.assert_allclose(actual, expected, rtol=0, atol=TOL)


def tape_size(root):
    """Tensors reachable from `root` through the tape, leaves included."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for p in stack.pop()._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


class TestRecurrentKernels:
    @pytest.mark.parametrize("steps", STEPS)
    def test_st_lstm_matches_step_loop(self, steps):
        rng = np.random.default_rng([11, steps])
        dim, hidden, n_loc = 4, 5, 6
        w = draw_params(st_lstm_spec(dim, hidden, n_loc), rng)
        for p in w.values():  # non-zero biases exercise every column
            p.value += rng.normal(scale=0.1, size=p.value.shape)
        inp = STLSTMInput(
            loc=ag.parameter(rng.normal(size=(steps, dim))),
            geo=ag.parameter(rng.normal(size=(steps, dim))),
            slot=ag.parameter(rng.normal(size=(steps, dim))),
            dspace=ag.parameter(rng.uniform(size=(steps, n_loc))),
            dtime=ag.parameter(rng.uniform(size=(steps, n_loc))),
        )
        probe = ag.constant(rng.normal(size=(steps, hidden)))
        tensors = [*w.values(), inp.loc, inp.geo, inp.slot, inp.dspace, inp.dtime]

        fused = st_lstm_encode(w, inp)
        if steps == 0:
            assert fused.shape == (0, hidden) and not fused._parents
            return
        ref.mean_all(ref.mul(fused, probe)).backward()
        fused_grads = _grads(tensors)
        _zero(tensors)

        zero = ag.constant(np.zeros(hidden))
        h, c, cs, ct = zero, zero, zero, zero
        states = []
        for j in range(steps):
            row = [ref.index(t, j) for t in (inp.loc, inp.geo, inp.slot, inp.dspace, inp.dtime)]
            h, c, cs, ct = st_lstm_step(w, *row, h, c, cs, ct)
            states.append(h)
        unrolled = ref.stack(states)
        ref.mean_all(ref.mul(unrolled, probe)).backward()

        _close(fused.value, unrolled.value)
        for got, want in zip(fused_grads, _grads(tensors)):
            _close(got, want)

    @pytest.mark.parametrize("steps", STEPS)
    def test_lstm_matches_step_loop(self, steps):
        # from a non-zero initial state, as a continued sequence starts
        rng = np.random.default_rng([12, steps])
        in_dim, hidden = 3, 5
        w = draw_params(lstm_spec(in_dim, hidden), rng)
        w["b"].value += rng.normal(scale=0.1, size=w["b"].value.shape)
        x = ag.parameter(rng.normal(size=(steps, in_dim)))
        h0 = rng.normal(scale=0.5, size=hidden)
        c0 = rng.normal(scale=0.5, size=hidden)
        probe = ag.constant(rng.normal(size=(steps, hidden)))
        tensors = [*w.values(), x]

        fused, h_fin, c_fin = lstm_encode(w, x, h0, c0)
        h, c = ag.constant(h0), ag.constant(c0)
        states = []
        for j in range(steps):
            h, c = lstm_step(w, ref.index(x, j), h, c)
            states.append(h)
        _close(h_fin, h.value)
        _close(c_fin, c.value)
        if steps == 0:
            assert fused.shape == (0, hidden) and not fused._parents
            return
        ref.mean_all(ref.mul(fused, probe)).backward()
        fused_grads = _grads(tensors)
        _zero(tensors)
        unrolled = ref.stack(states)
        ref.mean_all(ref.mul(unrolled, probe)).backward()

        _close(fused.value, unrolled.value)
        for got, want in zip(fused_grads, _grads(tensors)):
            _close(got, want)


def reference_attend(queries, states, w_a, mask, slope):
    """The attention layer as the autograd chain the fused kernel replaced,
    query-major: it takes a state-major (S, E, 1) mask
    (`reference.causal_mask`) and returns alpha as (E, S, sd)."""
    n_ex, qw = queries.value.shape
    n_states, sd = states.value.shape
    q_proj = ref.matmul(queries, ref.index(w_a, (slice(0, qw), slice(None))))
    h_proj = ref.matmul(states, ref.index(w_a, (slice(qw, None), slice(None))))
    scores = ref.leaky_relu(
        ref.add(ref.reshape(q_proj, (n_ex, 1, sd)), ref.reshape(h_proj, (1, n_states, sd))),
        slope,
    )
    if mask is not None:
        scores = ref.add(scores, ag.constant(mask.transpose(1, 0, 2)))
    alpha = ref.softmax(scores, axis=1)
    summary = ref.sum_axis(ref.mul(alpha, ref.reshape(states, (1, n_states, sd))), 1)
    return summary, alpha


def masked_attend(q, s, w, mask, slope):
    """(summary, alpha) of `attend` on plain arrays, with the leaky ReLU
    as the masked copy the elementwise max replaced; query-major like
    `reference_attend`."""
    pre = (q @ w[: q.shape[1]])[:, None, :] + (s @ w[q.shape[1] :])[None, :, :]
    alpha = pre * slope
    np.copyto(alpha, pre, where=pre >= 0)
    if mask is not None:
        alpha += mask.transpose(1, 0, 2)
    alpha -= alpha.max(axis=1, keepdims=True)
    np.exp(alpha, out=alpha)
    alpha /= alpha.sum(axis=1, keepdims=True)
    return (alpha * s[None]).sum(axis=1), alpha


def query_major_attend(q, s, w_a, mask, slope):
    """`attend` (taped) in the query-major (E, S, sd) layout, reducing
    over the middle axis: (summary, alpha, positive), with `mask` (E, S,
    1).  The state-major kernel keeps its bits wherever sd > 1 or E = 1."""
    n_q = q.shape[1]
    pre = (q @ w_a[:n_q])[:, None, :] + attention_keys(s, w_a)[None, :, :]
    positive = pre >= 0
    alpha = _leaky_relu(pre, slope)
    if mask is not None:
        alpha += mask
    alpha -= alpha.max(axis=1, keepdims=True)
    np.exp(alpha, out=alpha)
    alpha /= alpha.sum(axis=1, keepdims=True)
    summary = np.multiply(alpha, s[None], out=pre).sum(axis=1)
    return summary, alpha, positive


def query_major_attend_backward(g, q, s, w_a, alpha, positive, slope):
    """`attend_backward` in the query-major layout: the gradients of q, s
    and w_a."""
    n_q = q.shape[1]
    w_q, w_s = w_a[:n_q], w_a[n_q:]
    d_pre = g[:, None, :] * s[None]
    scratch = d_pre * alpha
    d_pre -= scratch.sum(axis=1, keepdims=True)
    d_pre *= alpha
    d_pre *= _leaky_relu_slope(positive, slope, out=scratch)
    d_q_proj = d_pre.sum(axis=1)
    d_s_proj = d_pre.sum(axis=0)
    g_alpha = np.multiply(g[:, None, :], alpha, out=scratch)
    return (
        d_q_proj @ w_q.T,
        g_alpha.sum(axis=0) + d_s_proj @ w_s.T,
        np.concatenate([q.T @ d_q_proj, s.T @ d_s_proj]),
    )


SLOPES = (0.0, 0.01, 0.5, 1.0, 2.0, 10.0)
EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, 1.7e308, -1.7e308)
finite_floats = st.one_of(
    st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False)
)


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def _assert_same_bits(a, b, exact=True):
    """Equal bit for bit, or, where numpy sums one side pairwise, to
    rounding."""
    if exact:
        assert a.tobytes() == b.tobytes()
    else:
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)


class TestGateRegrouping:
    """The kernel joins the branches' packed gate columns by gate, so the
    sigmoid blocks come first and the i/f blocks line up with the stacked
    cell vector; the backward splits them back per branch."""

    HIDDEN = 2
    GATES = (("i", "f", "o", "g"), ("i_s", "f_s", "g_s"), ("i_t", "f_t", "g_t"))

    def _labels(self, gates):
        return np.array([[g for g in gates for _ in range(self.HIDDEN)]] * 3)

    @pytest.mark.parametrize(
        "n_branches,order",
        [
            (1, ("i", "f", "o", "g")),
            (3, ("i", "i_s", "i_t", "f", "f_s", "f_t", "o", "g", "g_s", "g_t")),
        ],
    )
    def test_fused_order_and_round_trip(self, n_branches, order):
        packed = [self._labels(gates) for gates in self.GATES[:n_branches]]
        fused = _regroup(packed, self.HIDDEN)
        np.testing.assert_array_equal(fused, self._labels(order))
        back = _ungroup(fused, self.HIDDEN, n_branches)
        assert len(back) == n_branches
        for got, want in zip(back, packed):
            np.testing.assert_array_equal(got, want)

    def test_regrouped_rows_stay_contiguous(self):
        rng = np.random.default_rng(14)
        packed = [rng.normal(size=(3, k * self.HIDDEN)) for k in (4, 3, 3)]
        fused = _regroup(packed, self.HIDDEN)
        assert fused.flags.c_contiguous
        assert all(a.flags.c_contiguous for a in _ungroup(fused, self.HIDDEN, 3))


class TestAttentionKernel:
    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("n_ex,qw,sd", [(1, 3, 2), (6, 9, 4), (15, 24, 8)])
    def test_matches_autograd_composition(self, masked, n_ex, qw, sd):
        rng = np.random.default_rng([13, n_ex, int(masked)])
        values = [
            rng.normal(size=(n_ex, qw)),
            rng.normal(size=(2 * n_ex, sd)),
            rng.normal(size=(qw + sd, sd)),
        ]
        probe = ag.constant(rng.normal(size=(n_ex, sd)))
        mask = ref.causal_mask(n_ex) if masked else None
        results = []
        for fn, context in ((ref.attend, masked), (reference_attend, mask)):
            tensors = [ag.parameter(v.copy()) for v in values]
            summary, alpha = fn(*tensors, context, 0.2)
            ref.mean_all(ref.mul(summary, probe)).backward()
            if fn is reference_attend:  # query-major
                alpha = ag.constant(alpha.value.transpose(1, 0, 2))
            results.append([summary.value, alpha.value, *_grads(tensors)])
        for got, want in zip(*results):
            _close(got, want)

    @given(
        st.integers(1, 40),
        st.integers(1, 60),
        st.integers(1, 24),
        st.integers(1, 16),
        st.sampled_from([0.01, 2.0]),
        st.integers(0, 2**32 - 1),
    )
    def test_state_major_keeps_the_query_major_bits(self, n_ex, n_states, qw, sd, slope, seed):
        """Forward and backward equal the query-major kernels bit for bit,
        alpha and the sign mask transposed: every reduction over S adds
        the same terms in the same order from either axis.  The exception
        is sd = 1 with several queries: there the query-major reductions
        ran along a contiguous axis, which numpy sums pairwise, so the two
        layouts agree only to rounding.  Causal calls are the next test's."""
        rng = np.random.default_rng(seed)
        q, s = rng.normal(size=(n_ex, qw)), rng.normal(size=(n_states, sd))
        w, g = rng.normal(size=(qw + sd, sd)), rng.normal(size=(n_ex, sd))
        summary, blocks = attend(q, s, w, False, slope, taped=True)
        want = query_major_attend(q, s, w, None, slope)
        [(states, alpha, positive)] = blocks
        assert states is s and alpha.shape == positive.shape == (n_states, n_ex, sd)
        got_grads = attend_backward(g, q, s, w, blocks, slope)
        want_grads = query_major_attend_backward(g, q, s, w, want[1], want[2], slope)
        np.testing.assert_array_equal(positive, want[2].transpose(1, 0, 2))  # the sign mask
        alphas = alpha, want[1].transpose(1, 0, 2)
        for a, b in [(summary, want[0]), alphas, *zip(got_grads, want_grads)]:
            _assert_same_bits(a, b, exact=sd > 1 or n_ex == 1)

    @given(
        st.integers(1, 3 * ATTEND_BLOCK + 2),
        st.integers(1, 24),
        st.integers(1, 16),
        st.sampled_from([0.01, 2.0]),
        st.integers(0, 2**32 - 1),
    )
    def test_blocked_causal_keeps_the_query_major_bits(self, n_ex, qw, sd, slope, seed):
        """A causal call computes, per block of ATTEND_BLOCK queries, only
        the states the block can see.  Its summary, each block's alpha and
        sign mask (the visible entries of the full ones) and all three
        gradients equal the query-major kernels under the full causal mask
        bit for bit; at sd = 1 to rounding, as above."""
        rng = np.random.default_rng(seed)
        q, s = rng.normal(size=(n_ex, qw)), rng.normal(size=(2 * n_ex, sd))
        w, g = rng.normal(size=(qw + sd, sd)), rng.normal(size=(n_ex, sd))
        summary, blocks = attend(q, s, w, True, slope, taped=True)
        want = query_major_attend(q, s, w, ref.causal_mask(n_ex).transpose(1, 0, 2), slope)
        got_grads = attend_backward(g, q, s, w, blocks, slope)
        want_grads = query_major_attend_backward(g, q, s, w, want[1], want[2], slope)
        exact = sd > 1 or n_ex == 1
        _assert_same_bits(summary, want[0], exact)
        # state-major, one (E, E, sd) plane per encoder block
        want_alpha, want_positive = (
            a.transpose(1, 0, 2).reshape(2, n_ex, n_ex, sd) for a in want[1:]
        )
        assert len(blocks) == -(-n_ex // ATTEND_BLOCK)
        a = 0
        for rows, alpha, positive in blocks:  # block [a, b) sees states 0..b-1 of each
            b = a + alpha.shape[1]
            assert b - a <= ATTEND_BLOCK and alpha.shape == positive.shape == (2 * b, b - a, sd)
            assert rows.tobytes() == s.reshape(2, n_ex, sd)[:, :b].tobytes()
            visible = (2 * b, b - a, sd)
            _assert_same_bits(alpha, want_alpha[:, :b, a:b].reshape(visible), exact)
            np.testing.assert_array_equal(positive, want_positive[:, :b, a:b].reshape(visible))
            a = b
        assert a == n_ex
        # what the blocks leave out is what the full mask zeroes
        full = ref.full_alpha(blocks, n_ex)
        _assert_same_bits(full, want[1].transpose(1, 0, 2), exact)
        for got, want_grad in zip(got_grads, want_grads):
            _assert_same_bits(got, want_grad, exact)

    @pytest.mark.parametrize("masked", [False, True])
    def test_keys_computed_before_keep_every_bit(self, masked):
        # masked: a causal call over more queries than one block
        rng = np.random.default_rng([17, int(masked)])
        n_ex = 2 * ATTEND_BLOCK + 1
        q, s = rng.normal(size=(n_ex, 9)), rng.normal(size=(2 * n_ex, 4))
        w = rng.normal(size=(13, 4))
        want_summary, want_blocks = attend(q, s, w, masked, 0.2)
        summary, blocks = attend(q, s, w, masked, 0.2, keys=attention_keys(s, w))
        assert summary.tobytes() == want_summary.tobytes()
        assert len(blocks) == len(want_blocks) == (3 if masked else 1)
        for (_, a, _), (_, b, _) in zip(blocks, want_blocks):
            assert a.tobytes() == b.tobytes()

    def test_keys_computed_before_are_refused_on_the_tape(self):
        rng = np.random.default_rng(18)
        q, s, w = rng.normal(size=(2, 3)), rng.normal(size=(4, 2)), rng.normal(size=(5, 2))
        with pytest.raises(ContractViolation, match="off-tape"):
            attend(q, s, w, False, 0.2, keys=attention_keys(s, w), taped=True)

    @pytest.mark.parametrize("masked", [False, True])
    def test_inference_allocates_about_two_score_arrays(self, masked):
        # the pre-activations, and the scores that become alpha in place;
        # the weighted states reuse the pre-activations' buffer, and only a
        # taped call builds the backward's (E, S, sd) sign mask (which took
        # the peak to 2.2 arrays).  masked: a causal call over 41 queries,
        # whose blocks' arrays together hold less
        n_ex, n_states, sd = (41, 82, 64) if masked else (18, 82, 64)
        rng = np.random.default_rng(15)
        args = [
            rng.normal(size=(n_ex, 96)),
            rng.normal(size=(n_states, sd)),
            rng.normal(size=(96 + sd, sd)),
        ]
        attend(*args, masked, 0.01)  # warm up numpy's caches
        tracemalloc.start()
        try:
            attend(*args, masked, 0.01)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.17 * n_ex * n_states * sd * 8


class TestMaskFreeLeakyRelu:
    """The leaky ReLU runs as an elementwise max or min and its backward as
    one product by an exact factor; both have the bits of the masked forms
    they replaced."""

    @given(
        st.lists(st.tuples(finite_floats, finite_floats), min_size=1, max_size=40),
        st.sampled_from(SLOPES),
    )
    def test_matches_the_masked_forms_bit_for_bit(self, pairs, slope):
        pre, d = (np.array(col) for col in zip(*pairs))
        positive = pre >= 0
        with np.errstate(over="ignore"):
            want = pre * slope
            np.copyto(want, pre, where=positive)
            got = _leaky_relu(pre, slope)
            want_d = d.copy()
            np.multiply(want_d, slope, out=want_d, where=~positive)
            got_d = d * _leaky_relu_slope(positive, slope, out=np.empty_like(d))
        np.testing.assert_array_equal(_bits(got), _bits(want))  # signed zeros too
        np.testing.assert_array_equal(_bits(got_d), _bits(want_d))

    @given(
        st.lists(st.sampled_from([1.0, -1.0, 2.0, 0.0]), min_size=3, max_size=3),
        st.lists(
            st.sampled_from([np.inf, -np.inf, np.nan, 0.5, -0.25]), min_size=4, max_size=4
        ),
        st.sampled_from(SLOPES),
        st.booleans(),
    )
    def test_non_finite_scores_give_nan_in_the_same_places(self, q_col, w_row, slope, masked):
        # q_proj[e, j] = q_col[e] * w_row[j] exactly, so pre holds +-inf and
        # NaN; slope 0 at pre = +inf is NaN here and inf in the masked copy,
        # and both are NaN after the softmax
        rng = np.random.default_rng(16)
        q = np.array(q_col)[:, None]
        s = rng.normal(size=(6, 4))
        w = np.concatenate([np.array(w_row)[None], rng.normal(size=(4, 4))])
        mask = ref.causal_mask(3) if masked else None
        with np.errstate(invalid="ignore", over="ignore"):
            summary, [(_, alpha, _)] = attend(q, s, w, masked, slope)
            want_summary, want_alpha = masked_attend(q, s, w, mask, slope)
        np.testing.assert_array_equal(np.isnan(alpha), np.isnan(want_alpha.transpose(1, 0, 2)))
        np.testing.assert_array_equal(np.isnan(summary), np.isnan(want_summary))


class TestCrossEntropyKernel:
    """`autograd.output_loss`, the output layer and its mean cross-entropy
    as one node, against the chain it stands for: `matmul`, `log_softmax`,
    `take_per_row`, `mean_all`, `scale(-1)`."""

    @pytest.mark.parametrize("scale", [1.0, 50.0, 800.0, 1e5])
    def test_matches_log_softmax_chain(self, scale):
        rng = np.random.default_rng([14, int(scale)])
        x = rng.normal(size=(9, 5))
        w = rng.normal(size=(5, 13)) * scale
        x[0] = 0.0  # a row of tied logits, all exactly 0
        # the last input column selects one overwhelming logit, (1, 3)
        x[:, 4], x[1, 4], w[4], w[4, 3] = 0.0, 1.0, 0.0, 1e300
        targets = rng.integers(0, 13, size=9)
        targets[1] = 4  # its target is not the overwhelming one
        fused_x, fused_w = ag.parameter(x.copy()), ag.parameter(w.copy())
        fused = ag.output_loss(fused_x, fused_w, targets)
        fused.backward()
        chain_x, chain_w = ag.parameter(x.copy()), ag.parameter(w.copy())
        log_probs = ref.log_softmax(ref.matmul(chain_x, chain_w), axis=1)
        chain = ref.scale(ref.mean_all(ref.take_per_row(log_probs, targets)), -1.0)
        chain.backward()
        assert (fused_x.value @ fused_w.value)[1, 3] == 1e300
        assert fused.value.tobytes() == chain.value.tobytes()
        assert fused_x.grad.tobytes() == chain_x.grad.tobytes()
        assert fused_w.grad.tobytes() == chain_w.grad.tobytes()
        assert np.isfinite(fused_x.grad).all() and np.isfinite(fused_w.grad).all()


def _decoder_world(variant, context="causal"):
    corpus, _ = generate(
        SynthConfig(n_users=3, n_locations=9, n_clusters=3, trips_per_user=12, seed=7)
    )
    model = Model(
        ModelConfig(dim=4, hdim=5, variant=variant, attention_context=context),
        build_vocab(corpus),
        build_interval_tables(corpus),
    )
    return corpus, model


def _bytes(arrays):
    return [np.ascontiguousarray(a).tobytes() for a in arrays]


class TestDecoderKernel:
    """`Model._decode`, one tape node, against the taped composition it
    replaced (`reference.decode`), bit for bit: the summary, alpha and
    the gradient of every input.  Every variant but encoder-only attends
    through it; encoder-only has no decoder."""

    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("variant", ATTENDING)
    def test_matches_taped_composition_bit_for_bit(self, variant, masked):
        # masked: causal attention over more queries than one block
        _, model = _decoder_world(variant, "causal" if masked else "all")
        c, n_ex = model.config, 2 * ATTEND_BLOCK + 3
        rng = np.random.default_rng([19, VARIANTS.index(variant), int(masked)])
        values = [
            rng.normal(size=(2 * n_ex, c.state_dim)),
            rng.normal(size=(n_ex, c.dim)),
            rng.normal(size=(n_ex, c.dim)),
        ]
        head_width = model.params["out/W_loc"].shape[0]  # the summary's
        probe = ag.constant(rng.normal(size=(n_ex, head_width)))
        names = ["emb/user", "attn/W_A"]
        params = [model.params[n] for n in names]
        results = []
        for decode in (model._decode, lambda *a: ref.decode(model, *a, None, masked)):
            inputs = [ag.parameter(v.copy()) for v in values]
            _zero(params)
            summary, alpha = decode(*inputs, 2)
            ref.mean_all(ref.mul(summary, probe)).backward()
            results.append((summary.value, alpha, _grads(inputs + params)))
        (got_summary, blocks, got_grads), (want_summary, want_alpha, want_grads) = results
        got_alpha, want_alpha = ref.full_alpha(blocks, n_ex), want_alpha.value
        assert got_summary.tobytes() == want_summary.tobytes()
        assert got_alpha.tobytes() == want_alpha.tobytes()
        labels = ["states", "o_emb", "d_emb", *names]
        for label, got, want in zip(labels, got_grads, want_grads, strict=True):
            assert want.any(), label
            assert got.tobytes() == want.tobytes(), label
        _zero(params)

    @pytest.mark.parametrize("context", ATTENTION_CONTEXTS)
    @pytest.mark.parametrize("variant", ATTENDING)
    def test_training_step_keeps_every_gradient_bit(self, variant, context, monkeypatch):
        """A whole `_loss` backward, encoders included, gives every
        parameter the same gradient bits with the kernel as with the
        composition, so the tape accumulates in an order that keeps them."""
        corpus, model = _decoder_world(variant, context)
        batch = model._batch(corpus.trips_by_user[1])
        grads = []
        for swap in (False, True):
            if swap:
                causal = context == "causal"
                monkeypatch.setattr(
                    model,
                    "_decode",
                    lambda s, o, d, u: ref.decode(model, s, o, d, u, None, causal),
                )
            _zero(model.params.values())
            loss = model._loss(1, batch)
            loss.backward()
            grads.append((loss.value.tobytes(), _bytes(_grads(model.params.values()))))
        assert grads[0] == grads[1]
        _zero(model.params.values())


class TestTapeSize:
    # one causal step's tape, leaves included: the decoder is one node over
    # the states, the two embedding gathers and its two parameters, and the
    # output layer and loss one node over its input and out/W_loc (the
    # composition took 44, 20, 39, 12, 45 and 45)
    NODES = {
        "stod-ppa": 41,
        "od-ppa": 17,
        "encoder-only": 38,
        "decoder-only": 9,
        "user-add": 41,
        "user-concat": 41,
    }

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_independent_of_history_length(self, variant):
        corpus, _ = generate(
            SynthConfig(n_users=2, n_locations=12, n_clusters=4, trips_per_user=25, seed=5)
        )
        model = Model(
            ModelConfig(dim=4, hdim=5, variant=variant, attention_context="causal"),
            build_vocab(corpus),
            build_interval_tables(corpus),
        )
        trips = corpus.trips_by_user[0]
        short = tape_size(model._loss(0, model._batch(trips[:5])))
        long = tape_size(model._loss(0, model._batch(trips)))
        assert short == long == self.NODES[variant]
        # the per-step tape held 772 tensors for a 21-trip stod-ppa user
        assert long <= 772 // 10
