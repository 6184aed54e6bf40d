"""Reverse-mode tape: every op's backward against finite differences,
plus graph-shape edge cases (fan-out, reuse, ops over constants).  The ops the
program does not use come from `reference`.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

import odnext.autograd as ag
import reference as ref
from reference import grad_check


def fd_check(build, arrays, tol=1e-6, h=1e-6):
    """Scalar-loss finite-difference check over a dict of input arrays."""
    params = {k: ag.parameter(v.copy()) for k, v in arrays.items()}

    def loss():
        return build(params)

    err, *_ = grad_check(loss, params, h=h)
    assert err < tol, f"max relative gradient error {err:.3e}"


def rng_of(seed):
    return np.random.default_rng(seed)


class TestElementwise:
    def test_add_sub_mul_chain(self):
        r = rng_of(0)
        fd_check(
            lambda p: ref.mean_all(ref.mul(ref.add(p["a"], p["b"]), ref.sub(p["a"], p["c"]))),
            {"a": r.normal(size=(3, 4)), "b": r.normal(size=(3, 4)), "c": r.normal(size=(3, 4))},
        )

    def test_broadcast_row_against_matrix(self):
        r = rng_of(1)
        fd_check(
            lambda p: ref.mean_all(ref.mul(p["m"], p["row"])),
            {"m": r.normal(size=(5, 3)), "row": r.normal(size=(3,))},
        )

    def test_scale(self):
        r = rng_of(2)
        fd_check(lambda p: ref.mean_all(ref.scale(p["a"], -2.5)), {"a": r.normal(size=(4,))})

    def test_unary_saturating(self):
        r = rng_of(3)
        for op in (ref.sigmoid, ref.tanh):
            fd_check(lambda p, op=op: ref.mean_all(op(p["a"])), {"a": r.normal(size=(6,))})

    def test_leaky_relu_both_sides(self):
        x = np.array([-2.0, -0.5, 0.4, 3.0])
        fd_check(lambda p: ref.mean_all(ref.leaky_relu(p["a"], 0.01)), {"a": x})
        t = ref.leaky_relu(ag.constant(x), 0.25)
        np.testing.assert_allclose(t.value, [-0.5, -0.125, 0.4, 3.0])


class TestMatmul:
    # the shapes the reference cells multiply: a row, or rows, by a matrix
    @pytest.mark.parametrize("sa,sb", [((3, 4), (4, 5)), ((4,), (4, 5))])
    def test_shapes(self, sa, sb):
        r = rng_of(hash((sa, sb)) % 2**32)
        fd_check(
            lambda p: ref.mean_all(ref.matmul(p["a"], p["b"])),
            {"a": r.normal(size=sa), "b": r.normal(size=sb)},
        )

    def test_value_matches_numpy(self):
        r = rng_of(6)
        a, b = r.normal(size=(3, 4)), r.normal(size=(4, 2))
        out = ref.matmul(ag.constant(a), ag.constant(b))
        np.testing.assert_allclose(out.value, a @ b)


class TestIndexing:
    def test_take_rows_with_repeats(self):
        # Repeated rows must accumulate, not overwrite.
        table = ag.parameter(np.arange(12.0).reshape(4, 3))
        idx = np.array([1, 1, 3])
        out = ref.sum_axis(ag.take_rows(table, idx), 0)
        ref.mean_all(out).backward()
        expected = np.zeros((4, 3))
        expected[1] = 2 / 3
        expected[3] = 1 / 3
        np.testing.assert_allclose(table.grad, expected)

    def test_take_rows_sums_per_gather_before_adding(self):
        # Three gathers from one table: two repeat rows, rows 0 and 1 only
        # the first touches, and the third takes one row by a 0-d index, as
        # user-add's decoder does.  The table's gradient is each gather's
        # row sums added in the order the backwards run (a, b, c), bit for bit.
        r = rng_of(5)
        table = ag.parameter(r.normal(size=(6, 3)))
        idx_a, idx_b, idx_c = np.array([4, 1, 4, 0, 4]), np.array([[4, 2], [4, 4]]), np.asarray(2)
        g_a, g_b, g_c = r.normal(size=(5, 3)) * 1e3, r.normal(size=(2, 2, 3)), r.normal(size=3)
        terms = [
            ref.mean_all(ref.mul(ag.take_rows(table, idx), ag.constant(g)))
            for idx, g in ((idx_a, g_a), (idx_b, g_b), (idx_c, g_c))
        ]
        ref.add(ref.add(*terms[:2]), terms[2]).backward()
        sum_a, sum_b, sum_c = np.zeros((3, 6, 3))
        np.add.at(sum_a, idx_a, (1.0 / g_a.size) * g_a)
        np.add.at(sum_b, idx_b, (1.0 / g_b.size) * g_b)
        np.add.at(sum_c, idx_c, (1.0 / g_c.size) * g_c)
        np.testing.assert_array_equal(table.grad, sum_a + sum_b + sum_c)

    def test_take_per_row(self):
        m = ag.parameter(np.arange(6.0).reshape(2, 3))
        out = ref.take_per_row(m, np.array([2, 0]))
        np.testing.assert_allclose(out.value, [2.0, 3.0])
        ref.mean_all(out).backward()
        expected = np.zeros((2, 3))
        expected[0, 2] = 0.5
        expected[1, 0] = 0.5
        np.testing.assert_allclose(m.grad, expected)

    def test_getitem_slice(self):
        r = rng_of(7)
        fd_check(
            lambda p: ref.mean_all(ref.index(p["a"], slice(1, 3))), {"a": r.normal(size=(5, 2))}
        )

    def test_index_scalar_cell(self):
        a = ag.parameter(np.eye(3))
        ref.index(a, (1, 2)).backward()
        expected = np.zeros((3, 3))
        expected[1, 2] = 1.0
        np.testing.assert_allclose(a.grad, expected)


class TestShapeOps:
    def test_concat_axis0_and_axis1(self):
        r = rng_of(8)
        for axis, shapes in [(0, [(2, 3), (4, 3)]), (1, [(2, 3), (2, 2)])]:
            fd_check(
                lambda p, axis=axis: ref.mean_all(ag.concat([p["a"], p["b"]], axis=axis)),
                {"a": r.normal(size=shapes[0]), "b": r.normal(size=shapes[1])},
            )

    def test_stack(self):
        r = rng_of(9)
        fd_check(
            lambda p: ref.mean_all(ref.stack([p["a"], p["b"], p["a"]])),
            {"a": r.normal(size=(3,)), "b": r.normal(size=(3,))},
        )

    def test_reshape(self):
        r = rng_of(10)
        fd_check(lambda p: ref.mean_all(ref.reshape(p["a"], (6,))), {"a": r.normal(size=(2, 3))})

    def test_sum_axis_values(self):
        a = ag.constant(np.arange(6.0).reshape(2, 3))
        np.testing.assert_allclose(ref.sum_axis(a, 0).value, [3.0, 5.0, 7.0])
        np.testing.assert_allclose(ref.sum_axis(a, 1).value, [3.0, 12.0])


class TestSoftmax:
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_rows_sum_to_one(self, seed):
        z = rng_of(seed).normal(scale=5.0, size=(4, 7))
        s = ref.softmax(ag.constant(z), axis=-1).value
        np.testing.assert_allclose(s.sum(axis=-1), np.ones(4), atol=1e-12)
        assert (s >= 0).all()

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_shift_invariance(self, seed):
        z = rng_of(seed).normal(size=(5,))
        a = ref.softmax(ag.constant(z)).value
        b = ref.softmax(ag.constant(z + 123.456)).value
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_extreme_logits_stay_finite(self):
        z = np.array([1e4, 0.0, -1e4])
        s = ref.softmax(ag.constant(z)).value
        assert np.isfinite(s).all()
        assert s[0] == pytest.approx(1.0)

    def test_gradient(self):
        r = rng_of(11)
        fd_check(
            lambda p: ref.mean_all(ref.mul(ref.softmax(p["z"], axis=1), p["w"])),
            {"z": r.normal(size=(3, 5)), "w": r.normal(size=(3, 5))},
        )

    def test_log_softmax_matches_log_of_softmax(self):
        z = rng_of(12).normal(size=(2, 6))
        a = ref.log_softmax(ag.constant(z), axis=-1).value
        b = np.log(ref.softmax(ag.constant(z), axis=-1).value)
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_log_softmax_gradient(self):
        r = rng_of(13)
        fd_check(
            lambda p: ref.mean_all(ref.mul(ref.log_softmax(p["z"], axis=0), p["w"])),
            {"z": r.normal(size=(4, 3)), "w": r.normal(size=(4, 3))},
        )

    def test_softmax_axis1_of_3d(self):
        r = rng_of(14)
        fd_check(
            lambda p: ref.mean_all(ref.mul(ref.softmax(p["z"], axis=1), p["w"])),
            {"z": r.normal(size=(2, 4, 3)), "w": r.normal(size=(2, 4, 3))},
        )


# every op over two inputs, and over one, that builds a node
MIXED_OPS = {
    "add": ref.add,
    "matmul": ref.matmul,
    "output_loss": lambda a, b: ag.output_loss(a, b, [0, 1]),
    "concat": lambda a, b: ag.concat([a, b], axis=1),
    "sub": ref.sub,
    "mul": ref.mul,
    "stack": lambda a, b: ref.stack([a, b]),
}
SINGLE_OPS = {
    "take_rows": lambda a: ag.take_rows(a, [1, 1, 0]),
    "softmax": ref.softmax,
    "scale": lambda a: ref.scale(a, 2.0),
    "index": lambda a: ref.index(a, slice(0, 1)),
    "take_per_row": lambda a: ref.take_per_row(a, [1, 0]),
    "log_softmax": ref.log_softmax,
    "sigmoid": ref.sigmoid,
}


class TestGraph:
    def test_diamond_fanout_accumulates(self):
        # a feeds two branches; grads from both must add.
        a = ag.parameter(np.array([2.0]))
        loss = ref.add(ref.mul(a, a), ref.scale(a, 3.0))  # a^2 + 3a
        ref.mean_all(loss).backward()
        np.testing.assert_allclose(a.grad, [7.0])

    def test_deep_chain(self):
        a = ag.parameter(np.array([0.3]))
        x = a
        for _ in range(200):
            x = ref.tanh(x)
        ref.mean_all(x).backward()
        assert np.isfinite(a.grad).all()

    def test_backward_requires_scalar(self):
        a = ag.parameter(np.ones(3))
        with pytest.raises(ValueError):
            ref.scale(a, 2.0).backward()

    @pytest.mark.parametrize("op", sorted(MIXED_OPS))
    @pytest.mark.parametrize("param_first", [True, False])
    def test_a_constant_input_stays_off_the_tape(self, op, param_first):
        p, c = ag.parameter(np.ones((2, 2))), ag.constant(np.full((2, 2), 2.0))
        out = MIXED_OPS[op](p, c) if param_first else MIXED_OPS[op](c, p)
        assert out._parents == (p,)
        ref.mean_all(out).backward()
        assert p.grad is not None and c.grad is None

    @pytest.mark.parametrize("op", sorted(MIXED_OPS) + sorted(SINGLE_OPS))
    def test_no_op_tapes_under_no_grad(self, op):
        """Over inputs none of which takes a gradient, every op returns a
        constant: what keeps inference off the tape, with no mode."""
        p, q = ag.constant(np.ones((2, 2))), ag.constant(np.full((2, 2), 2.0))
        out = MIXED_OPS[op](p, q) if op in MIXED_OPS else SINGLE_OPS[op](p)
        assert out._parents == () and out._backward is None
        assert not ag.needs_grad(out)

    def test_constant_gets_no_gradient(self):
        a = ag.parameter(np.array([1.0, 2.0]))
        c = ag.constant(np.array([3.0, 4.0]))
        ref.mean_all(ref.mul(a, c)).backward()
        assert c.grad is None

    def test_second_backward_accumulates_into_grad(self):
        a = ag.parameter(np.array([1.0]))
        ref.mean_all(ref.mul(a, a)).backward()
        first = a.grad.copy()
        ref.mean_all(ref.mul(a, a)).backward()
        np.testing.assert_allclose(a.grad, 2 * first)
