"""Init, parameter scopes, Adam, and the gradient-check harness itself."""

import tracemalloc

import numpy as np
from hypothesis import given, settings, strategies as st

import odnext.autograd as ag
import reference as ref
from odnext.nn import (
    Adam,
    ParamSpec,
    draw_params,
    embedding_init,
    glorot_uniform,
    prefixed,
    scope,
    zeros_init,
)
from reference import grad_check


class TestEmbedding:
    def test_init_bounds(self):
        e = embedding_init(np.random.default_rng(0), 50, 16)
        assert e.shape == (50, 16)
        assert (np.abs(e) <= 0.1).all()
        assert np.abs(e).max() > 0.05  # actually spread out


# spec names may nest ("emb/loc"); a prefix and its sibling do not
_NAMES = st.lists(st.text(alphabet="ab_/", min_size=1, max_size=5), unique=True, max_size=5)
_PREFIX = st.text(alphabet="ab_", min_size=1, max_size=4)


@given(_NAMES, _NAMES, _PREFIX, _PREFIX)
def test_scope_is_the_inverse_of_prefixed(names, sibling_names, prefix, suffix):
    """`scope(params, p)` gives back, in order and as the same Tensors,
    exactly what `prefixed(p, ...)` declared, and nothing of a sibling
    prefix such as p + "_o"."""
    sibling = prefix + suffix
    specs = [ParamSpec(n, (1,), zeros_init) for n in names]
    siblings = [ParamSpec(n, (2,), zeros_init) for n in sibling_names]
    params = draw_params(
        [*prefixed(sibling, siblings), *prefixed(prefix, specs)], np.random.default_rng(0)
    )
    got = scope(params, prefix)
    assert list(got) == names
    assert all(got[n] is params[f"{prefix}/{n}"] for n in names)
    respecified = [ParamSpec(n, t.shape, zeros_init) for n, t in got.items()]
    assert prefixed(prefix, respecified) == prefixed(prefix, specs)
    assert list(scope(params, sibling)) == sibling_names


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
        start = p.value.copy()
        opt = Adam({"p": p}, lr=0.05)
        grads = []
        for _ in range(5):
            grads.append({"p": rng.normal(size=(3, 2))})
            p.grad = grads[-1]["p"].copy()
            opt.step()
            want, _, _ = ref.adam_loop({"p": start}, grads, lr=0.05)
            np.testing.assert_allclose(p.value, want["p"], atol=1e-12)
            p.zero_grad()

    @settings(max_examples=60)
    @given(
        shapes=st.lists(
            st.one_of(
                st.tuples(st.integers(1, 9)),
                st.tuples(st.integers(1, 6), st.integers(1, 6)),
            ),
            min_size=1,
            max_size=4,
        ),
        lr=st.sampled_from([1e-4, 1e-3, 0.05, 1.0]),
        steps=st.integers(1, 60),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_folded_step_matches_the_textbook_loop(self, shapes, lr, steps, seed):
        """Several parameters, gradients from 1e-9 to 1e3 with exact zeros
        among them, and one parameter ("skip") whose grad is None on some
        steps: on those its value and moments stay put while the shared
        counter advances, and after every step the values and moments
        agree with the textbook loop."""
        rng = np.random.default_rng(seed)
        shapes = {f"p{i}": shape for i, shape in enumerate(shapes)}
        shapes["skip"] = (3, 2)
        start = {k: rng.normal(size=shape) for k, shape in shapes.items()}
        params = {k: ag.parameter(x.copy()) for k, x in start.items()}
        opt = Adam(params, lr=lr)
        grads = []
        for t in range(1, steps + 1):
            step = {}
            for k, shape in shapes.items():
                g = rng.normal(size=shape) * 10.0 ** rng.uniform(-9, 3, size=shape)
                g[rng.random(shape) < 0.2] = 0.0
                step[k] = None if k == "skip" and rng.random() < 0.4 else g
            grads.append(step)
            held = {k: (params[k].value.copy(), opt.m[k].copy(), opt.v[k].copy()) for k in shapes}
            for k, p in params.items():
                p.grad = None if step[k] is None else step[k].copy()
            opt.step()
            assert opt.t == t
            for k, (value, m, v) in held.items():
                if step[k] is None:
                    np.testing.assert_array_equal(params[k].value, value)
                    np.testing.assert_array_equal(opt.m[k], m)
                    np.testing.assert_array_equal(opt.v[k], v)
        want, want_m, want_v = ref.adam_loop(start, grads, lr)
        for k, p in params.items():
            np.testing.assert_allclose(p.value, want[k], rtol=0, atol=1e-12)
            np.testing.assert_allclose(opt.m[k], want_m[k], rtol=0, atol=1e-12)
            np.testing.assert_allclose(opt.v[k], want_v[k], rtol=0, atol=1e-12)

    def test_step_allocates_no_parameter_sized_array(self):
        """After one warm-up step, a step's peak allocation stays below the
        bytes of the smallest parameter: the update runs in place."""
        rng = np.random.default_rng(3)
        params = {"w": ag.parameter(rng.normal(size=(300, 200))), "b": ag.parameter(rng.normal(size=200))}
        opt = Adam(params, lr=1e-3)
        for p in params.values():
            p.grad = rng.normal(size=p.value.shape)
        opt.step()
        tracemalloc.start()
        try:
            opt.step()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < params["b"].value.nbytes

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
        x = ag.parameter(rng.normal(size=(2, 6)))

        def loss():
            return ag.output_loss(x, W, [4, 0])

        assert grad_check(loss, {"W": W, "x": x}) < 1e-6

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
