"""Init, Adam, and the gradient-check harness itself."""

import numpy as np
from hypothesis import given, strategies as st

import odnext.autograd as ag
import reference as ref
from odnext.nn import Adam, embedding_init, glorot_uniform
from reference import grad_check


class TestEmbedding:
    def test_init_bounds(self):
        e = embedding_init(np.random.default_rng(0), 50, 16)
        assert e.shape == (50, 16)
        assert (np.abs(e) <= 0.1).all()
        assert np.abs(e).max() > 0.05  # actually spread out


class TestGlorot:
    def test_bounds_and_shape(self):
        W = glorot_uniform(np.random.default_rng(1), 30, 20)
        a = np.sqrt(6.0 / 50)
        assert W.shape == (30, 20)
        assert (np.abs(W) <= a).all()

    def test_deterministic(self):
        a = glorot_uniform(np.random.default_rng(5), 8, 8)
        b = glorot_uniform(np.random.default_rng(5), 8, 8)
        np.testing.assert_array_equal(a, b)


class TestAdam:
    def test_first_step_magnitude(self):
        # With constant gradient, the bias-corrected first step is
        # lr * g / (|g| + eps) = ~lr * sign(g).
        p = ag.parameter(np.array([1.0, -2.0, 3.0]))
        opt = Adam({"p": p}, lr=0.01)
        p.grad = np.array([0.5, -0.25, 1e-3])
        before = p.value.copy()
        opt.step()
        step = p.value - before
        np.testing.assert_allclose(np.abs(step), 0.01, rtol=1e-4)
        np.testing.assert_allclose(np.sign(step), [-1.0, 1.0, -1.0])

    def test_matches_reference_loop(self):
        rng = np.random.default_rng(9)
        p = ag.parameter(rng.normal(size=(3, 2)))
        ref = p.value.copy()
        m = np.zeros_like(ref)
        v = np.zeros_like(ref)
        opt = Adam({"p": p}, lr=0.05)
        for t in range(1, 6):
            g = rng.normal(size=(3, 2))
            p.grad = g.copy()
            opt.step()
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            mh = m / (1 - 0.9**t)
            vh = v / (1 - 0.999**t)
            ref -= 0.05 * mh / (np.sqrt(vh) + 1e-8)
            np.testing.assert_allclose(p.value, ref, atol=1e-12)
            p.zero_grad()

    def test_none_grad_is_skipped(self):
        p = ag.parameter(np.ones(2))
        q = ag.parameter(np.ones(2))
        opt = Adam({"p": p, "q": q}, lr=0.1)
        p.grad = np.ones(2)
        opt.step()
        assert (p.value != 1.0).all()
        np.testing.assert_array_equal(q.value, np.ones(2))

    def test_zero_grad(self):
        p = ag.parameter(np.ones(2))
        p.grad = np.ones(2)
        Adam({"p": p}).zero_grad()
        assert p.grad is None or not p.grad.any()

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_descends_a_quadratic(self, seed):
        rng = np.random.default_rng(seed)
        target = rng.normal(size=4)
        p = ag.parameter(np.zeros(4))
        opt = Adam({"p": p}, lr=0.1)
        first = None
        for _ in range(300):
            diff = ref.sub(p, ag.constant(target))
            loss = ref.mean_all(ref.mul(diff, diff))
            if first is None:
                first = loss.item()
            opt.zero_grad()
            loss.backward()
            opt.step()
        final = float(np.mean((p.value - target) ** 2))
        assert final < first * 0.05


class TestGradCheck:
    def test_quadratic_exact(self):
        p = ag.parameter(np.array([3.0]))
        err = grad_check(lambda: ref.mean_all(ref.mul(p, p)), {"p": p})
        assert err < 1e-8

    def test_linear_softmax_ce(self):
        rng = np.random.default_rng(12)
        W = ag.parameter(glorot_uniform(rng, 6, 9))
        b = ag.parameter(np.zeros(9))
        x = ag.constant(rng.normal(size=(1, 6)))

        def loss():
            return ag.mean_cross_entropy(ref.add(ag.matmul(x, W), b), [4])

        assert grad_check(loss, {"W": W, "b": b}) < 1e-6

    def test_detects_a_wrong_gradient(self):
        p = ag.parameter(np.array([1.5]))

        def loss():
            out = ref.mean_all(ref.mul(p, p))
            return out

        # Sabotage: double the analytic gradient via a second backward pass.
        def bad_loss():
            out = loss()
            extra = ref.mean_all(ref.mul(p, p))
            extra.backward()  # pollutes p.grad before the checker's backward
            return out

        assert grad_check(bad_loss, {"p": p}) > 0.3

    def test_leaves_grads_clean(self):
        p = ag.parameter(np.array([2.0]))
        grad_check(lambda: ref.mean_all(ref.mul(p, p)), {"p": p})
        assert p.grad is None or not p.grad.any()
