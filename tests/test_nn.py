import math
import os
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import metadapt
from metadapt import nn
from metadapt.nn import (AdamState, LstmParams, NumericalError, Param,
                         adam_step, bilstm_backward, bilstm_forward,
                         ffn_backward, ffn_forward_cached, flatten,
                         grad_check, lstm_backward, lstm_forward, lstm_states, one_hot,
                         project_inputs, reverse_index, softmax, softmax_cross_entropy)
import oracles
from oracles import cross_entropy, ffn_forward, lstm_cell

# frozen via 40-digit evaluation of e/(1+e) and log1p(exp(-20))
SOFTMAX_1000_1001 = (0.2689414213699951, 0.7310585786300049)
CE_10_M10_LABEL0 = 2.061153620314381e-09
LN5 = 1.6094379124341003


def sigmoid(x):
    return 1.0 / (1.0 + math.exp(-x))


class TestSoftmax:
    def test_constant_logits_uniform(self):
        out = softmax([3.7, 3.7, 3.7])
        assert np.allclose(out, [1 / 3] * 3, atol=1e-15)

    def test_mask_semantics(self):
        out = softmax([0.0, 0.0], mask=[True, False])
        assert out[0] == 1.0
        assert out[1] == 0.0

    def test_extreme_logits_stable(self):
        out = softmax([1000.0, 1001.0])
        assert np.isfinite(out).all()
        assert abs(out[0] - SOFTMAX_1000_1001[0]) < 1e-12
        assert abs(out[1] - SOFTMAX_1000_1001[1]) < 1e-12

    def test_all_masked_rejected(self):
        with pytest.raises(ValueError, match="masked"):
            softmax([1.0, 2.0], mask=[False, False])

    @given(st.lists(st.floats(min_value=-1000, max_value=1000), min_size=1, max_size=12))
    @settings(max_examples=200)
    def test_probability_vector(self, logits):
        out = softmax(logits)
        assert (out >= 0).all()
        assert abs(out.sum() - 1.0) < 1e-12

    @given(st.lists(st.floats(min_value=-50, max_value=50), min_size=2, max_size=8),
           st.integers(min_value=0, max_value=7))
    @settings(max_examples=100)
    def test_masked_positions_exactly_zero(self, logits, keep):
        mask = [i == keep % len(logits) for i in range(len(logits))]
        out = softmax(logits, mask=mask)
        for i, m in enumerate(mask):
            if not m:
                assert out[i] == 0.0
        assert abs(out.sum() - 1.0) < 1e-12


class TestLstmCell:
    def zero_params(self, d=3, H=2):
        return LstmParams(Param(np.zeros((4 * H, d))), Param(np.zeros((4 * H, H))),
                          Param(np.zeros(4 * H)))

    def test_all_zero(self):
        p = self.zero_params()
        h, c = lstm_cell(np.ones(3), np.zeros(2), np.zeros(2), p)
        assert np.array_equal(h, np.zeros(2))
        assert np.array_equal(c, np.zeros(2))

    def test_forget_gate_saturation(self):
        # with forget bias 50 the gate saturates and c ~ c_prev + i*g
        rng = np.random.default_rng(1)
        d, H = 3, 2
        p = LstmParams(Param(rng.normal(size=(4 * H, d)) * 0.3),
                       Param(rng.normal(size=(4 * H, H)) * 0.3),
                       Param(np.zeros(4 * H)))
        p.b.value[H:2 * H] = 50.0
        x = rng.normal(size=d)
        h_prev = rng.normal(size=H) * 0.5
        c_prev = rng.normal(size=H)
        _, c = lstm_cell(x, h_prev, c_prev, p)
        a = p.w_x.value @ x + p.w_h.value @ h_prev + p.b.value
        i = 1 / (1 + np.exp(-a[:H]))
        g = np.tanh(a[2 * H:3 * H])
        assert np.abs(c - (c_prev + i * g)).max() < 1e-9

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(2)
        d, H = 4, 3
        p = LstmParams(Param(rng.normal(size=(4 * H, d))),
                       Param(rng.normal(size=(4 * H, H))),
                       Param(rng.normal(size=4 * H)))
        x = rng.normal(size=d)
        h_prev = rng.normal(size=H)
        c_prev = rng.normal(size=H)
        h, c = lstm_cell(x, h_prev, c_prev, p)
        # independent scalar re-derivation, gate by gate
        for u in range(H):
            a_i = sum(p.w_x.value[u, k] * x[k] for k in range(d)) \
                + sum(p.w_h.value[u, k] * h_prev[k] for k in range(H)) + p.b.value[u]
            a_f = sum(p.w_x.value[H + u, k] * x[k] for k in range(d)) \
                + sum(p.w_h.value[H + u, k] * h_prev[k] for k in range(H)) + p.b.value[H + u]
            a_g = sum(p.w_x.value[2 * H + u, k] * x[k] for k in range(d)) \
                + sum(p.w_h.value[2 * H + u, k] * h_prev[k] for k in range(H)) + p.b.value[2 * H + u]
            a_o = sum(p.w_x.value[3 * H + u, k] * x[k] for k in range(d)) \
                + sum(p.w_h.value[3 * H + u, k] * h_prev[k] for k in range(H)) + p.b.value[3 * H + u]
            cu = sigmoid(a_f) * c_prev[u] + sigmoid(a_i) * math.tanh(a_g)
            hu = sigmoid(a_o) * math.tanh(cu)
            assert abs(c[u] - cu) < 1e-12
            assert abs(h[u] - hu) < 1e-12

    def test_init_shapes_and_forget_bias(self):
        rng = np.random.default_rng(0)
        p = LstmParams.init(5, 4, rng)
        assert p.w_x.value.shape == (16, 5)
        assert p.w_h.value.shape == (16, 4)
        assert np.array_equal(p.b.value[4:8], np.ones(4))
        assert np.array_equal(p.b.value[:4], np.zeros(4))
        limit = 1 / np.sqrt(4)
        assert np.abs(p.w_x.value).max() <= limit
        assert np.abs(p.w_h.value).max() <= limit


def padded(columns):
    """Time-major padded batch (T, B, d) of sequences given as d x m_b
    matrices, each from t = 0 and zero-padded at its end, and the lengths."""
    lengths = [c.shape[1] for c in columns]
    X = np.zeros((max(lengths), len(columns), columns[0].shape[0]))
    for b, c in enumerate(columns):
        X[:c.shape[1], b] = c.T
    return X, lengths


def positions(X):
    """Every position of a padded batch X (T, B, d) as an input of its own:
    the inputs (T * B, d) and each position's row (T, B)."""
    T, B, d = X.shape
    return X.reshape(T * B, d), np.arange(T * B).reshape(T, B)


def run_lstm(X, p):
    """lstm_forward on the projections of X's positions, with X cached for
    lstm_backward."""
    E, rows = positions(X)
    out, cache = lstm_forward(project_inputs(E, p)[rows], p)
    cache["X"] = X
    return out, cache


def aligned(Hf, Hb, rev):
    """The two directions' states side by side at each position (T, B, 2H),
    the backward states realigned, Hb[rev, cols]: the contextual states as
    the per-sentence reference stacks them."""
    return np.concatenate([Hf, Hb[rev, np.arange(rev.shape[1])]], axis=2)


def run_bilstm(X, lengths, fwd, bwd):
    """bilstm_forward on the projections of X's positions; returns the
    position-aligned states (T, B, 2H) and the cache."""
    Hf, Hb, rev, cache = bilstm_forward(*positions(X), lengths, fwd, bwd)
    return aligned(Hf, Hb, rev), cache


def backward_aligned(dOut, X, lengths, cache, fwd, bwd):
    """bilstm_backward of a gradient dOut (T, B, 2H) of the position-aligned
    states: the forward half as it is, the backward half realigned into the
    backward direction's own time order."""
    T, B, _ = X.shape
    H = fwd.hidden_size
    rev = reverse_index(lengths, T)
    bilstm_backward(dOut[:, :, :H], dOut[rev, np.arange(B), H:], X, cache, fwd, bwd)


def bilstm1(X, fwd, bwd):
    """The position-aligned states of a batch of one sequence X (d x m),
    2H x m."""
    out, _ = run_bilstm(*padded([X]), fwd, bwd)
    return out[:, 0].T


class TestBilstm:
    def test_single_token(self):
        rng = np.random.default_rng(3)
        fwd = LstmParams.init(3, 2, rng)
        bwd = LstmParams.init(3, 2, rng)
        X = rng.normal(size=(3, 1))
        out = bilstm1(X, fwd, bwd)
        assert out.shape == (4, 1)
        hf, _ = lstm_cell(X[:, 0], np.zeros(2), np.zeros(2), fwd)
        hb, _ = lstm_cell(X[:, 0], np.zeros(2), np.zeros(2), bwd)
        assert np.allclose(out[:2, 0], hf, atol=1e-15)
        assert np.allclose(out[2:, 0], hb, atol=1e-15)

    def test_zero_params_zero_output(self):
        d, H = 3, 2
        zp = LstmParams(Param(np.zeros((4 * H, d))), Param(np.zeros((4 * H, H))),
                        Param(np.zeros(4 * H)))
        X = np.random.default_rng(0).normal(size=(d, 4))
        out = bilstm1(X, zp, zp)
        assert np.array_equal(out, np.zeros((4, 4)))

    def test_palindrome_symmetry(self):
        # shared params on a palindromic input mirror the two directions
        rng = np.random.default_rng(4)
        p = LstmParams.init(3, 2, rng)
        half = rng.normal(size=(3, 3))
        X = np.concatenate([half, half[:, ::-1]], axis=1)  # m = 6 palindrome
        out = bilstm1(X, p, p)
        m = X.shape[1]
        for k in range(m):
            assert np.abs(out[:2, k] - out[2:, m - 1 - k]).max() < 1e-12

    def test_forward_states_match_cell(self):
        rng = np.random.default_rng(5)
        fwd = LstmParams.init(3, 2, rng)
        bwd = LstmParams.init(3, 2, rng)
        X = rng.normal(size=(3, 5))
        out = bilstm1(X, fwd, bwd)
        h = np.zeros(2)
        c = np.zeros(2)
        for t in range(5):
            h, c = lstm_cell(X[:, t], h, c, fwd)
            assert np.allclose(out[:2, t], h, atol=1e-15)


class TestGateForm:
    """The one-tanh gates: sigmoid(z) = 1/2 + tanh(z/2)/2 with the 1/2 of
    z/2 folded into the projection."""

    def gates(self, z):
        # d = H = 1 and unit input weights: every gate's pre-activation is z
        p = LstmParams(Param(np.ones((4, 1))), Param(np.zeros((4, 1))), Param(np.zeros(4)))
        _, cache = lstm_forward(project_inputs(z[:, None], p)[None, :-1], p)
        return cache["A"][0]

    def test_sigmoid_gates_match_expit(self):
        from scipy.special import expit
        z = np.linspace(-50.0, 50.0, 200001)
        a = self.gates(z)
        for col in (0, 1, 3):
            assert np.abs(a[:, col] - expit(z)).max() <= 4.5e-16
        assert np.array_equal(a[:, 2], np.tanh(z))

    def test_extreme_inputs_stay_finite(self):
        a = self.gates(np.array([-1000.0, 1000.0]))
        assert np.isfinite(a).all()
        assert a[:, 0].tolist() == [0.0, 1.0] and a[:, 2].tolist() == [-1.0, 1.0]

    def test_table_rows_in_gate_form(self):
        # row u is W_x e_u + b with the sigmoid columns halved; the last
        # (padding) row is b alone, what a zero input projects to
        rng = np.random.default_rng(23)
        p = LstmParams.init(3, 2, rng)
        p.b.value[:] = rng.normal(size=8)
        E = rng.normal(size=(4, 3))
        P = project_inputs(E, p)
        half = np.repeat([0.5, 0.5, 1.0, 0.5], 2)
        assert P.shape == (5, 8)
        assert np.abs(P[:-1] - (E @ p.w_x.value.T + p.b.value) * half).max() < 1e-15
        assert np.array_equal(P[-1], p.b.value * half)


class TestPaddedBatch:
    """The batched kernels against the per-sentence reference, column by
    column, on sequences of lengths 1 to T padded at their ends."""

    LENGTHS = [3, 1, 6, 4, 6]

    def test_lstm_matches_per_sentence(self):
        rng = np.random.default_rng(20)
        d, H = 4, 3
        p = LstmParams.init(d, H, rng)
        X, valid = ragged_batch(rng, d, self.LENGTHS)
        dH = rng.normal(size=X.shape[:2] + (H,)) * valid
        out, cache = run_lstm(X, p)
        lstm_backward(dH, cache, p)
        got = [q.grad.copy() for q in p.params()]
        for q in p.params():
            q.grad.fill(0.0)
        for b, m in enumerate(self.LENGTHS):
            want, c = oracles.lstm_forward(X[:m, b].T, p)
            assert np.abs(out[:m, b] - want.T).max() < 1e-12
            oracles.lstm_backward(dH[:m, b].T.copy(), c, p)
        for g, q in zip(got, p.params()):
            assert np.abs(g - q.grad).max() < 1e-12 * np.abs(q.grad).max()

    def test_bilstm_matches_per_sentence(self):
        rng = np.random.default_rng(21)
        d, H = 4, 3
        fwd, bwd = LstmParams.init(d, H, rng), LstmParams.init(d, H, rng)
        X, valid = ragged_batch(rng, d, self.LENGTHS)
        dOut = rng.normal(size=X.shape[:2] + (2 * H,)) * valid
        out, cache = run_bilstm(X, self.LENGTHS, fwd, bwd)
        backward_aligned(dOut, X, self.LENGTHS, cache, fwd, bwd)
        params = fwd.params() + bwd.params()
        got = [q.grad.copy() for q in params]
        for q in params:
            q.grad.fill(0.0)
        for b, m in enumerate(self.LENGTHS):
            want, c = oracles.bilstm_forward(X[:m, b].T, fwd, bwd)
            assert np.abs(out[:m, b] - want.T).max() < 1e-12
            oracles.bilstm_backward(dOut[:m, b].T.copy(), c, fwd, bwd)
        for g, q in zip(got, params):
            assert np.abs(g - q.grad).max() < 1e-12 * np.abs(q.grad).max()

    def test_reverse_index_is_an_involution(self):
        rev = reverse_index(self.LENGTHS, 6)
        assert rev[:, 1].tolist() == [0, 1, 2, 3, 4, 5]
        assert rev[:, 0].tolist() == [2, 1, 0, 3, 4, 5]
        cols = np.arange(len(self.LENGTHS))
        assert np.array_equal(rev[rev, cols], np.broadcast_to(np.arange(6)[:, None], rev.shape))

    def test_cache_serves_one_backward_pass(self):
        rng = np.random.default_rng(22)
        p = LstmParams.init(2, 2, rng)
        out, cache = run_lstm(rng.normal(size=(3, 2, 2)), p)
        lstm_backward(np.ones_like(out), cache, p)
        with pytest.raises(ValueError, match="consumed"):
            lstm_backward(np.ones_like(out), cache, p)


class TestFfn:
    def test_identity_layer(self):
        lay = [(Param(np.eye(3)), Param(np.zeros(3)))]
        x = np.array([1.0, -2.0, 3.0])   # the last layer has no ReLU
        assert np.array_equal(ffn_forward(x, lay), x)

    def test_zero_weights_give_activation_of_zero(self):
        for n_layers in (1, 2):
            lay = [(Param(np.zeros((4, 3 if i == 0 else 4))), Param(np.zeros(4)))
                   for i in range(n_layers)]
            out = ffn_forward(np.array([1.0, 2.0, 3.0]), lay)
            assert np.array_equal(out, np.zeros(4))

    def test_two_layer_composition_oracle(self):
        rng = np.random.default_rng(6)
        w1, b1 = rng.normal(size=(5, 3)), rng.normal(size=5)
        w2, b2 = rng.normal(size=(2, 5)), rng.normal(size=2)
        lay = [(Param(w1), Param(b1)), (Param(w2), Param(b2))]
        x = rng.normal(size=3)
        z = w1 @ x + b1
        assert (z > 0).any() and (z < 0).any()   # both sides of the relu
        want = w2 @ np.maximum(z, 0.0) + b2
        assert np.abs(ffn_forward(x, lay) - want).max() < 1e-12

    def test_batch_rows_match_single(self):
        rng = np.random.default_rng(7)
        lay = [(Param(rng.normal(size=(4, 3))), Param(rng.normal(size=4))),
               (Param(rng.normal(size=(2, 4))), Param(rng.normal(size=2)))]
        X = rng.normal(size=(6, 3))
        batch = ffn_forward(X, lay)
        for i in range(6):
            assert np.allclose(batch[i], ffn_forward(X[i], lay), atol=1e-15)


def ce(logits, label):
    """Loss of softmax_cross_entropy on a single logit vector."""
    return softmax_cross_entropy(np.asarray(logits, dtype=np.float64)[None], [label])[0]


class TestCrossEntropy:
    def test_uniform_five_way(self):
        assert abs(ce(np.zeros(5), 2) - LN5) < 1e-12

    def test_confident_correct(self):
        # true value log1p(exp(-20)); the log-softmax form is exact to the
        # absolute rounding floor of float64 at logit scale 10
        got = ce(np.array([10.0, -10.0]), 0)
        assert abs(got - CE_10_M10_LABEL0) < 1e-14
        assert abs(got - CE_10_M10_LABEL0) / CE_10_M10_LABEL0 < 1e-5

    def test_invalid_label(self):
        with pytest.raises(ValueError):
            ce(np.zeros(3), 3)
        with pytest.raises(ValueError):
            ce(np.zeros(3), -1)

    @given(st.lists(st.floats(min_value=-1000, max_value=1000), min_size=2, max_size=8),
           st.integers(min_value=0, max_value=7))
    @settings(max_examples=200)
    def test_nonnegative_and_finite(self, logits, label):
        label = label % len(logits)
        loss = ce(logits, label)
        assert loss >= 0.0
        assert math.isfinite(loss)

    def test_zero_only_in_one_hot_limit(self):
        assert ce(np.array([1000.0, 0.0]), 0) == 0.0
        assert ce(np.array([3.0, 2.9]), 0) > 0.0

    def test_grad_matches_finite_difference(self):
        rng = np.random.default_rng(8)
        logits = rng.normal(size=(3, 4))
        labels = [1, 0, 3]
        _, g = softmax_cross_entropy(logits, labels)
        eps = 1e-6
        for idx in np.ndindex(3, 4):
            lp = logits.copy(); lp[idx] += eps
            lm = logits.copy(); lm[idx] -= eps
            num = (softmax_cross_entropy(lp, labels)[0]
                   - softmax_cross_entropy(lm, labels)[0]) / (2 * eps)
            assert abs(num - g[idx]) < 1e-8

    def test_extreme_logits_exact(self):
        # the -log(p) form overflows to inf here once p underflows to zero
        assert ce(np.array([-1000.0, 0.0, 1000.0]), 0) == 2000.0

    def test_batch_is_mean_of_rows(self):
        rng = np.random.default_rng(9)
        logits = rng.normal(size=(6, 3)) * 5
        labels = rng.integers(0, 3, size=6)
        want = np.mean([cross_entropy(z, y) for z, y in zip(logits, labels)])
        assert abs(softmax_cross_entropy(logits, labels)[0] - want) < 1e-12


def ragged_batch(rng, d, lengths):
    """Padded batch of random sequences and its validity mask (T, B, 1)."""
    X, _ = padded([rng.normal(size=(d, m)) for m in lengths])
    valid = (np.arange(X.shape[0])[:, None] < np.asarray(lengths)[None, :])[:, :, None]
    return X, valid


def split_directions(monkeypatch, split: bool):
    """Force the BiLSTM's two directions onto two threads, or onto one."""
    monkeypatch.setattr(nn, "_split_directions", lambda T, B, H: split)


class TestSplitDirections:
    """The two BiLSTM directions on two threads: the same bits as the serial
    path, errors from either side reach the caller, and the split engages
    only for large batches with one BLAS thread per call."""

    def instance(self, seed, d=7, H=5, lengths=(3, 1, 9, 6, 9, 2)):
        rng = np.random.default_rng(seed)
        fwd, bwd = LstmParams.init(d, H, rng), LstmParams.init(d, H, rng)
        X, valid = ragged_batch(rng, d, lengths)
        dOut = rng.normal(size=X.shape[:2] + (2 * H,)) * valid
        return X, list(lengths), fwd, bwd, dOut

    @staticmethod
    def forward_backward(X, lengths, fwd, bwd, dOut):
        params = fwd.params() + bwd.params()
        for q in params:
            q.grad.fill(0.0)
        out, cache = run_bilstm(X, lengths, fwd, bwd)
        backward_aligned(dOut, X, lengths, cache, fwd, bwd)
        return [out] + [q.grad.copy() for q in params]

    def test_bitwise_equal_to_serial(self, monkeypatch):
        for seed in range(3):
            args = self.instance(seed)
            split_directions(monkeypatch, False)
            serial = self.forward_backward(*args)
            split_directions(monkeypatch, True)
            split = self.forward_backward(*args)
            for a, b in zip(serial, split):
                assert np.array_equal(a, b)

    def test_backward_direction_runs_on_the_worker(self, monkeypatch):
        X, lengths, fwd, bwd, dOut = self.instance(1)
        seen = []
        for name in ("lstm_forward", "lstm_backward"):
            real = getattr(nn, name)

            def spy(*args, real=real, name=name):
                seen.append((name, args[-1] is bwd, threading.current_thread()))
                return real(*args)
            monkeypatch.setattr(nn, name, spy)
        for split in (False, True):
            split_directions(monkeypatch, split)
            seen.clear()
            self.forward_backward(X, lengths, fwd, bwd, dOut)
            assert len(seen) == 4
            for name, backward_direction, thread in seen:
                here = thread is threading.current_thread()
                assert here == (not (split and backward_direction)), (name, split)

    def test_worker_exception_reaches_caller(self, monkeypatch):
        X, lengths, fwd, bwd, dOut = self.instance(2)
        real = nn.lstm_forward

        def failing(A, p):
            if p is bwd:
                raise RuntimeError("backward direction failed")
            return real(A, p)
        monkeypatch.setattr(nn, "lstm_forward", failing)
        split_directions(monkeypatch, True)
        with pytest.raises(RuntimeError, match="backward direction failed"):
            run_bilstm(X, lengths, fwd, bwd)

    def test_caller_waits_for_worker_when_its_direction_raises(self):
        finished = threading.Event()

        def forward():
            raise RuntimeError("forward direction failed")

        def backward():
            time.sleep(0.2)
            finished.set()
        with pytest.raises(RuntimeError, match="forward direction failed"):
            nn._run_directions(forward, backward, True)
        assert finished.is_set()

    def test_callers_on_several_threads(self, monkeypatch):
        instances = [self.instance(seed) for seed in range(4)]
        split_directions(monkeypatch, False)
        want = [self.forward_backward(*args) for args in instances]
        split_directions(monkeypatch, True)
        got = [None] * len(instances)
        start = threading.Barrier(len(instances), timeout=60)

        def run(i):
            start.wait()
            for _ in range(5):
                got[i] = self.forward_backward(*instances[i])
        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(instances))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        # each call joined its worker before it returned
        assert not any(t.name.startswith("metadapt-bilstm") for t in threading.enumerate())
        for w, g in zip(want, got):
            for a, b in zip(w, g):
                assert np.array_equal(a, b)

    def test_split_needs_enough_work(self, monkeypatch):
        monkeypatch.setattr(nn, "_SPLIT_ALLOWED", True)
        assert nn._split_directions(40, 30, 128)       # a paper-shape evaluation batch
        assert not nn._split_directions(12, 44, 16)    # an acceptance-shape training batch
        assert nn._split_directions(nn.SPLIT_MIN_WORK, 1, 1)
        assert not nn._split_directions(nn.SPLIT_MIN_WORK - 1, 1, 1)
        monkeypatch.setattr(nn, "_SPLIT_ALLOWED", False)
        assert not nn._split_directions(40, 55, 128)

    @pytest.mark.parametrize("env, blas, cpus, allowed", [
        ({}, "scipy-openblas", 2, False),                     # BLAS uses every CPU
        ({"OPENBLAS_NUM_THREADS": "1"}, "scipy-openblas", 2, True),
        ({"OPENBLAS_NUM_THREADS": "1"}, "scipy-openblas", 1, False),
        ({"OPENBLAS_NUM_THREADS": "2"}, "scipy-openblas", 4, False),
        ({"GOTO_NUM_THREADS": "1"}, "openblas", 2, True),
        ({"OMP_NUM_THREADS": "1"}, "openblas", 2, True),
        ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, "openblas", 2, False),
        ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, "openblas", 2, True),
        ({"OPENBLAS_NUM_THREADS": "x", "OMP_NUM_THREADS": "3"}, "openblas", 8, False),
        ({"MKL_NUM_THREADS": "1"}, "openblas", 2, False),
        ({"MKL_NUM_THREADS": "1"}, "mkl-sdl", 2, True),
        ({"OPENBLAS_NUM_THREADS": "1"}, "mkl-sdl", 2, False),
    ])
    def test_split_needs_one_blas_thread_and_two_cpus(self, env, blas, cpus, allowed):
        assert nn._split_allowed(env, blas, cpus) is allowed

    @pytest.mark.parametrize("threads", [None, "1"])
    def test_decided_at_import_from_the_environment(self, threads):
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS",
                            "MKL_NUM_THREADS")}
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = env["MKL_NUM_THREADS"] = threads
        env["PYTHONPATH"] = str(Path(metadapt.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-c", "from metadapt import nn; "
                              "import threading; "
                              "print(nn._SPLIT_ALLOWED, threading.active_count())"],
                             env=env, capture_output=True, text=True, timeout=60, check=True)
        allowed = threads is not None and nn._cpu_count() >= 2
        assert out.stdout.split() == [str(allowed), "1"]   # importing starts no thread

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_splits(self):
        # a child forked after a split runs its own first split; the parent
        # kills a child that hangs, so no process outlives the script
        script = textwrap.dedent("""
            import os, signal, sys, time
            from metadapt import nn

            nn._run_directions(lambda: 1, lambda: 2, True)
            pid = os.fork()
            if pid == 0:
                nn._run_directions(lambda: 1, lambda: 2, True)
                os._exit(0)
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                done, status = os.waitpid(pid, os.WNOHANG)
                if done:
                    sys.exit(os.waitstatus_to_exitcode(status))
                time.sleep(0.05)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            sys.exit("child hung at its first split")
        """)
        env = dict(os.environ, PYTHONPATH=str(Path(metadapt.__file__).resolve().parents[1]))
        out = subprocess.run([sys.executable, "-W", "ignore::DeprecationWarning", "-c", script],
                             env=env, capture_output=True, text=True, timeout=60)
        assert out.returncode == 0, out.stderr


def token_batch(rng, d, U, lengths):
    """U distinct inputs (U, d) and each position's row (T, B) among them,
    for sequences of the given lengths; padded positions get row U, the
    padding row of a project_inputs table."""
    valid = np.arange(max(lengths))[:, None] < np.asarray(lengths)[None, :]
    return rng.normal(size=(U, d)), np.where(valid, rng.integers(0, U, size=valid.shape), U)


class TestForwardOnly:
    """lstm_states and bilstm_forward(cache=False), the kernels of callers
    that never backpropagate: bitwise the states of the cached kernels on
    the same batch, and no cache."""

    @pytest.mark.parametrize("d, H, lengths", [
        (4, 3, [3, 1, 6, 4, 6]),
        (4, 3, [1, 1]),   # one step: only one of the two cell buffers is used
        # the acceptance shape: a 4-way 1-shot 5-query episode with its
        # source set, sentences of up to 12 tokens
        (32, 16, [12] + [1 + (7 * b) % 12 for b in range(43)]),
    ])
    def test_lstm_states_equal_lstm_forward(self, d, H, lengths):
        rng = np.random.default_rng(30)
        p = LstmParams.init(d, H, rng)
        E, rows = token_batch(rng, d, 25, lengths)
        P = project_inputs(E, p)
        want, _ = lstm_forward(P[rows], p)
        assert np.array_equal(lstm_states(P, rows, p), want)

    @pytest.mark.parametrize("split", [False, True])
    def test_bilstm_states_equal_cached_pass(self, split, monkeypatch):
        rng = np.random.default_rng(31)
        d, H = 16, 64
        lengths = [20] + [int(m) for m in rng.integers(1, 21, size=49)]
        assert 20 * 50 * H * H >= nn.SPLIT_MIN_WORK   # a batch the split takes
        fwd, bwd = LstmParams.init(d, H, rng), LstmParams.init(d, H, rng)
        E, rows = token_batch(rng, d, 300, lengths)
        split_directions(monkeypatch, False)
        *want, cache = bilstm_forward(E, rows, lengths, fwd, bwd)
        split_directions(monkeypatch, split)
        *got, none = bilstm_forward(E, rows, lengths, fwd, bwd, cache=False)
        assert cache is not None and none is None
        assert np.array_equal(aligned(*got), aligned(*want))


def test_import_loads_no_scipy():
    env = dict(os.environ, PYTHONPATH=str(Path(metadapt.__file__).resolve().parents[1]))
    code = ("import sys, metadapt; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    assert out.stdout.strip() == "[]"


def test_holds_numerics_only():
    # the checkpoint container, its version and its errors live in harness
    assert not {"json", "DataError", "save_arrays", "load_arrays",
                "CHECKPOINT_FORMAT_VERSION"} & vars(nn).keys()


class TestBackwardPasses:
    def test_lstm_backward_grad_check(self):
        # a ragged batch: the loss reads no padded step
        rng = np.random.default_rng(9)
        d, H, lengths = 3, 4, [5, 2, 4]
        p = LstmParams.init(d, H, rng)
        X, valid = ragged_batch(rng, d, lengths)
        w_out = rng.normal(size=(5, 3, H)) * valid

        def loss_fn():
            out, cache = run_lstm(X, p)
            lstm_backward(w_out, cache, p)
            return float((w_out * out).sum())

        assert grad_check(loss_fn, *flatten(p.params()), n_coords=1000, rng=rng) < 1e-5

    def test_bilstm_backward_grad_check(self):
        rng = np.random.default_rng(10)
        d, H, lengths = 3, 3, [4, 1, 3]
        fwd = LstmParams.init(d, H, rng)
        bwd = LstmParams.init(d, H, rng)
        X, valid = ragged_batch(rng, d, lengths)
        w_out = rng.normal(size=(4, 3, 2 * H)) * valid

        def loss_fn():
            out, cache = run_bilstm(X, lengths, fwd, bwd)
            backward_aligned(w_out, X, lengths, cache, fwd, bwd)
            return float((w_out * out).sum())

        assert grad_check(loss_fn, *flatten(fwd.params() + bwd.params()),
                          n_coords=1000, rng=rng) < 1e-5

    def test_lstm_input_gradient(self):
        # the per-sentence reference's input gradient; the batched kernel
        # computes none, since the word vectors are never trained
        rng = np.random.default_rng(11)
        d, H, m = 3, 2, 4
        p = LstmParams.init(d, H, rng)
        X = rng.normal(size=(d, m))
        w_out = rng.normal(size=(H, m))
        out, cache = oracles.lstm_forward(X, p)
        dX = oracles.lstm_backward(w_out, cache, p)
        eps = 1e-6
        for idx in np.ndindex(d, m):
            Xp = X.copy(); Xp[idx] += eps
            Xm = X.copy(); Xm[idx] -= eps
            lp = float((w_out * oracles.lstm_forward(Xp, p)[0]).sum())
            lm = float((w_out * oracles.lstm_forward(Xm, p)[0]).sum())
            assert abs((lp - lm) / (2 * eps) - dX[idx]) < 1e-7

    def test_ffn_backward_grad_check(self):
        rng = np.random.default_rng(12)
        lay = [(Param(rng.normal(size=(5, 3))), Param(rng.normal(size=5))),
               (Param(rng.normal(size=(4, 5))), Param(rng.normal(size=4))),
               (Param(rng.normal(size=(2, 4))), Param(rng.normal(size=2)))]
        params = [p for pair in lay for p in pair]
        x = rng.normal(size=(6, 3))
        labels = [0, 1, 1, 0, 1, 0]
        _, acts = ffn_forward_cached(x, lay)
        for (w, b), a_in in zip(lay[:-1], acts):
            z = a_in @ w.value.T + b.value
            assert (z > 0).any() and (z < 0).any()   # both sides of each ReLU

        def loss_fn():
            out, acts = ffn_forward_cached(x, lay)
            loss, dout = softmax_cross_entropy(out, labels)
            ffn_backward(dout, acts, lay)
            return loss

        assert grch(loss_fn, params, rng) < 1e-5
        # the input gradient, against central differences
        out, acts = ffn_forward_cached(x, lay)
        dx = ffn_backward(softmax_cross_entropy(out, labels)[1], acts, lay, update_grads=False)
        eps = 1e-6
        for idx in np.ndindex(x.shape):
            xp, xm = x.copy(), x.copy()
            xp[idx] += eps
            xm[idx] -= eps
            numeric = (softmax_cross_entropy(ffn_forward(xp, lay), labels)[0]
                       - softmax_cross_entropy(ffn_forward(xm, lay), labels)[0]) / (2 * eps)
            assert abs(numeric - dx[idx]) < 1e-7

    def test_ffn_backward_input_only_leaves_params(self):
        rng = np.random.default_rng(13)
        lay = [(Param(rng.normal(size=(4, 3))), Param(rng.normal(size=4))),
               (Param(rng.normal(size=(2, 4))), Param(rng.normal(size=2)))]
        x = rng.normal(size=(5, 3))
        out, acts = ffn_forward_cached(x, lay)
        ffn_backward(np.ones_like(out), acts, lay, update_grads=False)
        for w, b in lay:
            assert np.array_equal(w.grad, np.zeros_like(w.grad))
            assert np.array_equal(b.grad, np.zeros_like(b.grad))

    def test_gradients_accumulate(self):
        p = Param(np.array([2.0]))
        _, grads = flatten([p])

        def loss_fn():
            p.grad += 2.0 * p.value  # d/dp of p^2
            return float(p.value[0] ** 2)

        loss_fn()
        loss_fn()
        assert p.grad[0] == 8.0  # two accumulations of 4.0
        grads.fill(0.0)   # zeroing the vector zeroes the Param's view
        assert p.grad[0] == 0.0


def grch(loss_fn, params, rng, eps=1e-5):
    return grad_check(loss_fn, *flatten(params), eps=eps, n_coords=1000, rng=rng)


class TestGradCheck:
    def test_linear_loss_near_exact(self):
        rng = np.random.default_rng(14)
        w = Param(rng.normal(size=6))
        # O(1) coordinates keep the difference quotient's rounding noise
        # well under the 1e-10 bar
        x = rng.uniform(0.5, 1.5, size=6) * rng.choice([-1.0, 1.0], size=6)

        def loss_fn():
            w.grad += x
            return float(w.value @ x)

        assert grad_check(loss_fn, *flatten([w]), rng=rng) < 1e-10

    def test_constant_function_zero_grads(self):
        w = Param(np.ones(4))

        def loss_fn():
            return 3.25

        assert grad_check(loss_fn, *flatten([w]), rng=np.random.default_rng(0)) == 0.0

    def test_quadratic_grad_is_x(self):
        rng = np.random.default_rng(15)
        w = Param(rng.normal(size=8))

        def loss_fn():
            w.grad += w.value
            return float(0.5 * (w.value ** 2).sum())

        assert grad_check(loss_fn, *flatten([w]), rng=rng) < 1e-9

    def test_corrupted_gradient_detected(self):
        rng = np.random.default_rng(16)
        w = Param(rng.normal(size=6) + 2.0)  # keep entries away from zero
        x = np.ones(6)

        def loss_fn():
            w.grad += 2.0 * x  # doubled analytic gradient
            return float(w.value @ x)

        err = grad_check(loss_fn, *flatten([w]), rng=rng)
        assert abs(err - 1.0 / 3.0) < 1e-6

    def test_attention_pipeline(self):
        # LSTM + softmax-attention + fuse on a batch of 3-, 1- and 2-token inputs
        from metadapt.corpus import EmbeddingTable, Example
        from metadapt.model import GeneratorParams, ModelConfig, gen_backward, gen_forward
        rng = np.random.default_rng(17)
        cfg = ModelConfig(dim=4, hidden=3, max_len=8, disc_hidden=(4, 4))
        gen = GeneratorParams.init(cfg, rng)
        table = EmbeddingTable(matrix=rng.normal(size=(6, 4)), dim=4)
        batch = [Example(ids, 0) for ids in ((0, 1, 2), (3,), (4, 5))]
        target = rng.normal(size=(3, 4))

        def loss_fn():
            s, cache = gen_forward(batch, gen, table, cfg)
            gen_backward(target, cache, gen, cfg)
            return float((target * s).sum())

        assert grad_check(loss_fn, gen.values, gen.grads, n_coords=1000, rng=rng) < 1e-5

    @pytest.mark.parametrize("n_coords", [0, -1])
    def test_no_coordinates_rejected(self, n_coords):
        # with no coordinate sampled, a doubled gradient would pass as exact
        w = Param(np.ones(3) + 2.0)

        def loss_fn():
            w.grad += 2.0
            return float(w.value.sum())

        with pytest.raises(ValueError, match="n_coords"):
            grad_check(loss_fn, *flatten([w]), n_coords=n_coords)

    def test_flat_coordinates_across_params(self):
        # every coordinate of a Param list: a doubled gradient in the second
        # Param shows, so the flat indices reach past the first one
        a, b = Param(np.ones(2) + 2.0), Param(np.ones(3) + 2.0)

        def loss_fn():
            a.grad += 1.0
            b.grad += 2.0
            return float(a.value.sum() + b.value.sum())

        assert abs(grad_check(loss_fn, *flatten([a, b])) - 1.0 / 3.0) < 1e-6

    def test_non_finite_loss_raises(self):
        w = Param(np.ones(2))

        def loss_fn():
            return float("nan")

        with pytest.raises(NumericalError):
            grad_check(loss_fn, *flatten([w]), rng=np.random.default_rng(0))


class TestAdam:
    def test_zero_grads_no_move(self):
        p = Param(np.array([1.0, -2.0]))
        st_ = AdamState(lr=0.1)
        adam_step(st_, *flatten([p]))
        assert np.array_equal(p.value, [1.0, -2.0])
        assert st_.t == 1

    def test_first_step_magnitude(self):
        # step 1 closed form: lr * g / (|g| + eps)
        g = np.array([0.3, -4.0, 1e-3])
        p = Param(np.zeros(3))
        values, grads = flatten([p])
        p.grad += g
        st_ = AdamState(lr=0.01)
        adam_step(st_, values, grads)
        want = -0.01 * g / (np.abs(g) + 1e-8)
        assert np.abs(p.value - want).max() < 1e-15

    def test_grads_zeroed_after_step(self):
        p = Param(np.zeros(2))
        values, grads = flatten([p])
        p.grad += np.array([1.0, 1.0])
        adam_step(AdamState(lr=0.1), values, grads)
        assert np.array_equal(p.grad, np.zeros(2))

    def test_converges_on_quadratic(self):
        # minimize (w - 3)^2 / 2 from 0 with lr 0.1
        p = Param(np.array([0.0]))
        values, grads = flatten([p])
        st_ = AdamState(lr=0.1)
        for _ in range(500):
            p.grad += p.value - 3.0
            adam_step(st_, values, grads)
        assert abs(p.value[0] - 3.0) < 1e-2

    def test_param_list_must_match(self):
        p1, p2 = Param(np.zeros(2)), Param(np.zeros(2))
        st_ = AdamState(lr=0.1)
        adam_step(st_, *flatten([p1]))
        with pytest.raises(ValueError):
            adam_step(st_, *flatten([p1, p2]))
        with pytest.raises(ValueError):   # a gradient vector of another length
            adam_step(st_, np.zeros(2), np.zeros(3))


    def test_blocks_match_per_param_oracle(self):
        # three whole blocks and a ragged tail, Params straddling blocks
        sizes = [nn.ADAM_BLOCK + 5, 2 * nn.ADAM_BLOCK - 17, 1000]
        assert sum(sizes) > 3 * nn.ADAM_BLOCK and sum(sizes) % nn.ADAM_BLOCK
        rng = np.random.default_rng(33)
        init = [rng.normal(size=n) for n in sizes]
        flat, ref = [Param(v) for v in init], [Param(v) for v in init]
        values, grads = flatten(flat)
        st_flat, st_ref = AdamState(lr=0.01), AdamState(lr=0.01)
        for _ in range(4):
            for a, b in zip(flat, ref):
                g = rng.normal(size=a.value.shape)
                a.grad += g
                b.grad += g
            adam_step(st_flat, values, grads)
            oracles.adam_step_per_param(st_ref, ref)
        assert np.array_equal(values, np.concatenate([p.value for p in ref]))
        assert np.array_equal(st_flat.m, np.concatenate(st_ref.m))
        assert np.array_equal(st_flat.v, np.concatenate(st_ref.v))


class TestPurityAndStability:
    def test_forward_ops_bit_identical(self):
        rng = np.random.default_rng(18)
        p = LstmParams.init(3, 2, rng)
        X = rng.normal(size=(4, 2, 3))
        a1, _ = run_lstm(X, p)
        a2, _ = run_lstm(X, p)
        assert a1.tobytes() == a2.tobytes()
        s1 = softmax(X[0, 0])
        s2 = softmax(X[0, 0])
        assert s1.tobytes() == s2.tobytes()

    def test_no_nan_on_extreme_logits(self):
        v = np.array([-1000.0, 0.0, 1000.0])
        assert np.isfinite(softmax(v)).all()
        assert math.isfinite(ce(v, 0))
        assert math.isfinite(ce(v, 2))


class TestOneHot:
    def test_basic(self):
        out = one_hot([2, 0], 3)
        assert np.array_equal(out, [[0, 0, 1], [1, 0, 0]])
