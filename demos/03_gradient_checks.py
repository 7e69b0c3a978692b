"""Finite-difference verification of the hand-written backward passes.

Every gradient in the trainer is derived and coded by hand (LSTM through
time, attention softmax, fused embeddings, the feed-forward discriminator),
so central-difference checks are the safety net.  This demo checks a single
component and then the two end-to-end training losses.

Run:  python3 demos/03_gradient_checks.py
"""

import numpy as np

from metadapt import LstmParams, flatten, grad_check
from metadapt.nn import lstm_backward, lstm_forward, project_inputs
from metadapt.harness import run_gradient_checks

# --- one component: LSTM-through-time -------------------------------------
# a time-major batch (T, B, d) of three sequences of lengths 6, 2 and 4,
# each padded with zeros at its end; the probe reads no padded step
rng = np.random.default_rng(0)
params = LstmParams.init(input_size=5, hidden_size=4, rng=rng)
lengths = np.array([6, 2, 4])
valid = np.arange(6)[:, None] < lengths[None, :]
X = rng.normal(size=(6, 3, 5)) * valid[:, :, None]
probe = rng.normal(size=(6, 3, 4)) * valid[:, :, None]
# every position is an input of its own: row (t, b) of the projection table
rows = np.arange(18).reshape(6, 3)


def loss_fn():
    # the kernel reads gathered input projections; its backward pass forms
    # dW_x from the inputs themselves, which the caller adds to the cache
    out, cache = lstm_forward(project_inputs(X.reshape(18, 5), params)[rows], params)
    cache["X"] = X
    lstm_backward(probe, cache, params)     # analytic grads into params
    return float((probe * out).sum())


# grad_check perturbs one flat value vector and reads one gradient vector:
# flatten makes the LSTM's three Params views into the two
err = grad_check(loss_fn, *flatten(params.params()), n_coords=500, rng=rng)
print(f"LSTM backward vs central differences: max relative error {err:.3e} "
      f"({'ok' if err < 1e-5 else 'SUSPECT'})")

# --- the two training losses ----------------------------------------------
# discriminator loss w.r.t. its weights, generator loss w.r.t. the BiLSTM
# and attention projection, on a small random episode
errs = run_gradient_checks(seed=0)
for name, e in errs.items():
    print(f"{name}: max relative error {e:.3e} "
          f"({'ok' if e < 1e-5 else 'SUSPECT'})")
