"""Recurrent cells: fused encoder vs. reference steps, degeneracy, grads."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

import odnext.autograd as ag
import reference as ref
from helpers import degenerate_st_weights
from odnext.stlstm import STLSTMInput, lstm_encode, st_lstm_encode
from reference import grad_check, init_lstm, init_st_lstm, lstm_step, st_lstm_step


def random_st_input(rng, steps, dim, n_loc):
    return STLSTMInput(
        loc=ag.constant(rng.normal(size=(steps, dim))),
        geo=ag.constant(rng.normal(size=(steps, dim))),
        slot=ag.constant(rng.normal(size=(steps, dim))),
        dspace=ag.constant(rng.uniform(size=(steps, n_loc))),
        dtime=ag.constant(rng.uniform(size=(steps, n_loc))),
    )


def reference_states(w, inp):
    """Iterate the branch-by-branch step; the encoder must agree."""
    hidden = w.hidden_dim
    h = ag.constant(np.zeros(hidden))
    c = ag.constant(np.zeros(hidden))
    cs = ag.constant(np.zeros(hidden))
    ct = ag.constant(np.zeros(hidden))
    out = []
    for j in range(len(inp)):
        row = [ref.index(t, j) for t in (inp.loc, inp.geo, inp.slot, inp.dspace, inp.dtime)]
        h, c, cs, ct = st_lstm_step(w, *row, h, c, cs, ct)
        out.append(h.value.copy())
    return np.array(out)


class TestSTLSTM:
    def test_encode_shape(self):
        rng = np.random.default_rng(0)
        w = init_st_lstm(rng, dim=3, hidden=5, n_locations=7)
        states = st_lstm_encode(w, random_st_input(rng, 6, 3, 7))
        assert states.shape == (6, 5)

    def test_empty_sequence(self):
        rng = np.random.default_rng(1)
        w = init_st_lstm(rng, dim=3, hidden=5, n_locations=7)
        assert st_lstm_encode(w, random_st_input(rng, 0, 3, 7)).shape == (0, 5)

    @given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=1, max_value=7))
    def test_encode_matches_stepwise_reference(self, seed, steps):
        rng = np.random.default_rng(seed)
        w = init_st_lstm(rng, dim=4, hidden=6, n_locations=5)
        inp = random_st_input(rng, steps, 4, 5)
        fused = st_lstm_encode(w, inp).value
        np.testing.assert_allclose(fused, reference_states(w, inp), atol=1e-12)

    def test_zero_weights_zero_state_gives_zero_h(self):
        rng = np.random.default_rng(2)
        w = init_st_lstm(rng, dim=3, hidden=4, n_locations=5)
        for p in vars(w).values():
            p.value[:] = 0.0
        zeros = ag.constant(np.zeros(4))
        x = ag.constant(np.zeros(3))
        h, c, cs, ct = st_lstm_step(
            w, x, x, x,
            ag.constant(np.zeros(5)), ag.constant(np.zeros(5)),
            zeros, zeros, zeros, zeros,
        )
        np.testing.assert_array_equal(h.value, np.zeros(4))
        np.testing.assert_array_equal(c.value, np.zeros(4))

    def test_states_depend_only_on_prefix(self):
        rng = np.random.default_rng(3)
        w = init_st_lstm(rng, dim=3, hidden=4, n_locations=6)
        inp = random_st_input(rng, 5, 3, 6)
        before = st_lstm_encode(w, inp).value.copy()
        tampered = STLSTMInput(
            loc=ag.constant(np.concatenate([inp.loc.value[:3], rng.normal(size=(2, 3))])),
            geo=inp.geo, slot=inp.slot, dspace=inp.dspace, dtime=inp.dtime,
        )
        after = st_lstm_encode(w, tampered).value
        np.testing.assert_array_equal(after[:3], before[:3])
        assert not np.array_equal(after[3:], before[3:])

    def test_step_gradient_matches_finite_differences(self):
        # Loss through one step on a small random configuration.
        rng = np.random.default_rng(8)
        w = init_st_lstm(rng, dim=4, hidden=6, n_locations=10)
        params = vars(w)
        x = ag.constant(rng.normal(size=4))
        geo = ag.constant(rng.normal(size=4))
        slot = ag.constant(rng.normal(size=4))
        dspace = ag.constant(rng.uniform(size=10))
        dtime = ag.constant(rng.uniform(size=10))
        h0 = ag.constant(rng.normal(size=6) * 0.3)
        c0 = ag.constant(rng.normal(size=6) * 0.3)
        probe = ag.constant(rng.normal(size=6))

        def loss():
            h, c, cs, ct = st_lstm_step(w, x, geo, slot, dspace, dtime, h0, c0, c0, c0)
            return ref.mean_all(ref.mul(ref.add(ref.add(ref.add(h, c), cs), ct), probe))

        assert grad_check(loss, params) < 1e-4

    def test_encode_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        w = init_st_lstm(rng, dim=3, hidden=4, n_locations=6)
        params = vars(w)
        inp = random_st_input(rng, 3, 3, 6)
        probe = ag.constant(rng.normal(size=(3, 4)))

        def loss():
            return ref.mean_all(ref.mul(st_lstm_encode(w, inp), probe))

        assert grad_check(loss, params) < 1e-4


class TestDegenerateEquivalence:
    @given(st.integers(min_value=0, max_value=10**9))
    def test_matches_plain_lstm(self, seed):
        rng = np.random.default_rng(seed)
        dim, hidden, n_loc, steps = 4, 5, 6, 4
        lstm = init_lstm(rng, dim, hidden)
        stw = degenerate_st_weights(lstm, dim, n_loc)
        x = ag.constant(rng.normal(size=(steps, dim)))
        inp = STLSTMInput(
            loc=x,
            geo=ag.constant(rng.normal(size=(steps, dim))),
            slot=ag.constant(rng.normal(size=(steps, dim))),
            dspace=ag.constant(rng.uniform(size=(steps, n_loc))),
            dtime=ag.constant(rng.uniform(size=(steps, n_loc))),
        )
        st_states = st_lstm_encode(stw, inp).value
        plain, _, _ = lstm_encode(lstm, x)
        np.testing.assert_allclose(st_states, plain.value, atol=1e-12)


class TestPlainLSTM:
    def test_encode_matches_step_loop(self):
        rng = np.random.default_rng(4)
        w = init_lstm(rng, in_dim=3, hidden=5)
        x = ag.constant(rng.normal(size=(6, 3)))
        states, h_fin, c_fin = lstm_encode(w, x)
        h = ag.constant(np.zeros(5))
        c = ag.constant(np.zeros(5))
        for j in range(6):
            h, c = lstm_step(w, ref.index(x, j), h, c)
            np.testing.assert_allclose(states.value[j], h.value, atol=1e-12)
        np.testing.assert_allclose(h_fin, h.value, atol=1e-12)
        np.testing.assert_allclose(c_fin, c.value, atol=1e-12)

    def test_state_continuation(self):
        # Encoding [a; b] equals encoding b from a's final state.
        rng = np.random.default_rng(6)
        w = init_lstm(rng, in_dim=3, hidden=4)
        x = rng.normal(size=(7, 3))
        full, _, _ = lstm_encode(w, ag.constant(x))
        _, h, c = lstm_encode(w, ag.constant(x[:4]))
        rest, _, _ = lstm_encode(w, ag.constant(x[4:]), h0=h, c0=c)
        np.testing.assert_allclose(rest.value, full.value[4:], atol=1e-12)

    def test_empty_sequence_returns_initial_state(self):
        rng = np.random.default_rng(7)
        w = init_lstm(rng, in_dim=3, hidden=4)
        h0 = rng.normal(size=4)
        c0 = rng.normal(size=4)
        states, h, c = lstm_encode(w, ag.constant(np.zeros((0, 3))), h0, c0)
        assert states.shape == (0, 4)
        np.testing.assert_array_equal(h, h0)
        np.testing.assert_array_equal(c, c0)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        w = init_lstm(rng, in_dim=3, hidden=4)
        params = vars(w)
        x = ag.constant(rng.normal(size=(3, 3)))
        probe = ag.constant(rng.normal(size=(3, 4)))

        def loss():
            states, _, _ = lstm_encode(w, x)
            return ref.mean_all(ref.mul(states, probe))

        assert grad_check(loss, params) < 1e-4

    def test_init_shapes_and_bias_zero(self):
        w = init_lstm(np.random.default_rng(10), in_dim=7, hidden=3)
        assert w.W_x.shape == (7, 12)
        assert w.U_h.shape == (3, 12)
        np.testing.assert_array_equal(w.b.value, np.zeros(12))
        stw = init_st_lstm(np.random.default_rng(10), dim=7, hidden=3, n_locations=11)
        assert stw.W_s.shape == (7, 9)
        assert stw.V_s.shape == (11, 9)
        assert stw.W_h.shape == (9, 3)
