"""Forward/backward correctness, Adam behavior, dropout, checkpoints."""

import math

import numpy as np
import pytest

from mimicrank.nn import (
    DenseLayer,
    adam_state,
    backward,
    forward,
    init_layers,
    layers_from_arrays,
    layers_to_arrays,
    optimizer_step,
)
from mimicrank.serialize import read_container, write_container

from gradcheck import finite_difference_check


def layer(w, b, act):
    return DenseLayer(np.asarray(w, dtype=float), np.asarray(b, dtype=float), act)


# ---------------------------------------------------------------------------
# Forward


def test_forward_zero_params_tanh_outputs_zero():
    layers = [layer(np.zeros((3, 2)), np.zeros(2), "relu"),
              layer(np.zeros((2, 1)), np.zeros(1), "tanh")]
    out, _ = forward(layers, np.array([1.0, -2.0, 3.0]))
    assert out.shape == (1,)
    assert out[0] == 0.0


def test_forward_affine_arithmetic():
    layers = [layer([[2.0]], [-1.0], "identity")]
    out, _ = forward(layers, np.array([3.0]))
    assert out[0] == 5.0


def test_forward_infer_is_deterministic():
    rng = np.random.default_rng(0)
    layers = init_layers([4, 3, 1], ["relu", "tanh"], rng)
    x = rng.normal(size=4)
    a, _ = forward(layers, x)
    b, _ = forward(layers, x)
    assert np.array_equal(a, b)


def test_forward_rejects_dim_mismatch_naming_layer():
    layers = [layer(np.zeros((3, 2)), np.zeros(2), "relu"),
              layer(np.zeros((5, 1)), np.zeros(1), "tanh")]
    with pytest.raises(ValueError, match="layer 1"):
        forward(layers, np.zeros(3))


def test_forward_batch_matches_per_row():
    # batch matmul and single-row matmul use different BLAS kernels, so
    # agreement is to rounding error, not bitwise
    rng = np.random.default_rng(1)
    layers = init_layers([4, 5, 2], ["relu", "identity"], rng)
    xs = rng.normal(size=(6, 4))
    batch_out, _ = forward(layers, xs)
    for i in range(6):
        row_out, _ = forward(layers, xs[i])
        assert np.allclose(batch_out[i], row_out, rtol=1e-12, atol=1e-14)


def test_activation_ranges():
    # strict |tanh| < 1 holds while |z| stays below ~19; beyond that float64
    # rounds tanh to exactly 1, so the probe uses unit-scale inputs
    rng = np.random.default_rng(2)
    relu_net = init_layers([3, 4], ["relu"], rng)
    tanh_net = init_layers([3, 4], ["tanh"], rng)
    for _ in range(50):
        x = rng.normal(scale=1.0, size=3)
        r, _ = forward(relu_net, x)
        t, _ = forward(tanh_net, x)
        assert (r >= 0.0).all()
        assert (np.abs(t) < 1.0).all()


# ---------------------------------------------------------------------------
# Backward


def test_backward_zero_upstream_gives_zero_grads():
    rng = np.random.default_rng(3)
    layers = init_layers([3, 4, 1], ["relu", "tanh"], rng)
    _, cache = forward(layers, rng.normal(size=3))
    store = backward(cache, np.zeros(1))
    for dw, db in zip(store.d_weights, store.d_biases):
        assert not dw.any()
        assert not db.any()
    assert not store.d_input.any()


def test_backward_scalar_identity_product_rule():
    w = 4.0
    x = 7.0
    layers = [layer([[w]], [0.0], "identity")]
    _, cache = forward(layers, np.array([x]))
    store = backward(cache, np.array([1.0]))
    assert store.d_weights[0][0, 0] == x
    assert store.d_input[0] == w
    assert store.d_biases[0][0] == 1.0


def test_backward_rejects_shape_mismatch():
    layers = [layer(np.zeros((2, 3)), np.zeros(3), "identity")]
    _, cache = forward(layers, np.zeros(2))
    with pytest.raises(ValueError, match="upstream"):
        backward(cache, np.zeros(2))


@pytest.mark.parametrize("dims,acts", [
    ([3, 1], ["tanh"]),
    ([4, 6, 1], ["relu", "tanh"]),
    ([5, 8, 8, 1], ["relu", "relu", "tanh"]),
    ([6, 7, 5, 4, 1], ["relu", "relu", "relu", "tanh"]),
])
def test_backward_matches_finite_differences(dims, acts):
    rng = np.random.default_rng(hash(tuple(dims)) % (2**32))
    layers = init_layers(dims, acts, rng)
    x = rng.normal(size=dims[0])

    def loss():
        out, _ = forward(layers, x)
        return float(out[0])

    _, cache = forward(layers, x)
    store = backward(cache, np.array([1.0]))
    params = [a for lyr in layers for a in (lyr.weights, lyr.bias)]
    grads = [a for dw, db in zip(store.d_weights, store.d_biases) for a in (dw, db)]
    report = finite_difference_check(loss, params, grads, max_coords_per_param=20, seed=9)
    assert report.passed, report


# ---------------------------------------------------------------------------
# Optimizer


def test_adam_zero_gradient_leaves_params_unchanged():
    p = np.array([1.5, -2.0])
    state = adam_state([p], learning_rate=1e-3)
    optimizer_step([p], [np.zeros(2)], state)
    assert np.array_equal(p, [1.5, -2.0])


def test_adam_first_step_magnitude():
    # hand evaluation: m_hat = v_hat = 1 at step 1 with g=1
    p = np.array([0.0])
    state = adam_state([p], learning_rate=1e-3)
    optimizer_step([p], [np.ones(1)], state)
    expected = -1e-3 * 1.0 / (1.0 + 1e-8)
    assert p[0] == pytest.approx(expected, rel=1e-12)


def test_adam_matches_scalar_reference_over_steps():
    # independent reference: plain-float Adam on one scalar
    lr, b1, b2, eps = 1e-3, 0.9, 0.999, 1e-8
    theta_ref, m, v = 0.3, 0.0, 0.0
    grads = [1.0, 1.0, -0.5, 2.0, 0.0, -1.0]
    trace = []
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1**t)
        v_hat = v / (1 - b2**t)
        theta_ref -= lr * m_hat / (math.sqrt(v_hat) + eps)
        trace.append(theta_ref)

    p = np.array([0.3])
    state = adam_state([p], learning_rate=lr)
    for t, g in enumerate(grads):
        optimizer_step([p], [np.array([g])], state)
        assert p[0] == pytest.approx(trace[t], rel=1e-14)
    assert state.step == len(grads)


def test_adam_rejects_non_finite_gradient():
    p = np.array([0.0, 1.0])
    state = adam_state([p], learning_rate=1e-3)
    with pytest.raises(ValueError, match="non-finite"):
        optimizer_step([p], [np.array([np.nan, 0.0])], state)


def test_adam_rejects_shape_mismatch():
    p = np.array([0.0, 1.0])
    state = adam_state([p], learning_rate=1e-3)
    with pytest.raises(ValueError, match="shape"):
        optimizer_step([p], [np.zeros(3)], state)


# ---------------------------------------------------------------------------
# Dropout


def test_dropout_requires_rng_in_train_mode():
    layers = [layer(np.eye(2), np.zeros(2), "relu"),
              layer(np.ones((2, 1)), np.zeros(1), "identity")]
    with pytest.raises(ValueError, match="rng"):
        forward(layers, np.ones(2), dropout_keep=0.5, train=True)


def test_dropout_never_applied_at_inference():
    rng = np.random.default_rng(4)
    layers = init_layers([3, 5, 1], ["relu", "tanh"], rng)
    x = np.array([1.0, 2.0, 3.0])
    a, _ = forward(layers, x, dropout_keep=0.5, train=False)
    b, _ = forward(layers, x)
    assert np.array_equal(a, b)


def test_dropout_preserves_expectation():
    # mean of inverted-dropout outputs must approach the no-dropout output
    keep = 0.8
    w1 = np.eye(4)
    layers = [layer(w1, np.zeros(4), "relu"),
              layer(np.eye(4), np.zeros(4), "identity")]
    x = np.array([1.0, 2.0, 3.0, 4.0])
    clean, _ = forward(layers, x)
    n = 4000
    rng = np.random.default_rng(5)
    acc = np.zeros(4)
    for _ in range(n):
        out, _ = forward(layers, x, dropout_keep=keep, train=True, rng=rng)
        acc += out
    mean = acc / n
    # per-unit variance of v*Bern(p)/p is v^2 (1-p)/p
    sigma = np.sqrt(x**2 * (1 - keep) / keep / n)
    assert (np.abs(mean - clean) <= 3 * sigma).all()


def test_dropout_gradients_match_fd_with_frozen_mask():
    # with a fixed mask sequence the dropped forward is deterministic, so
    # the same finite-difference oracle applies
    dims, acts = [4, 6, 6, 1], ["relu", "relu", "tanh"]
    rng = np.random.default_rng(6)
    layers = init_layers(dims, acts, rng)
    x = rng.normal(size=4)

    def fixed_rng():
        return np.random.default_rng(123)

    def loss():
        out, _ = forward(layers, x, dropout_keep=0.7, train=True, rng=fixed_rng())
        return float(out[0])

    _, cache = forward(layers, x, dropout_keep=0.7, train=True, rng=fixed_rng())
    store = backward(cache, np.array([1.0]))
    params = [a for lyr in layers for a in (lyr.weights, lyr.bias)]
    grads = [a for dw, db in zip(store.d_weights, store.d_biases) for a in (dw, db)]
    report = finite_difference_check(loss, params, grads, max_coords_per_param=15, seed=7)
    assert report.passed, report


# ---------------------------------------------------------------------------
# The in-place passes against the plain arithmetic they replace


def reference_forward(layers, x, keep, rng):
    """Forward with one fresh array per operation and float dropout masks."""
    h = x.reshape(1, -1) if x.ndim == 1 else x
    inputs, pre_acts, acts, masks = [], [], [], []
    for i, lyr in enumerate(layers):
        inputs.append(h)
        z = h @ lyr.weights + lyr.bias
        a = {"relu": lambda: np.maximum(z, 0.0), "tanh": lambda: np.tanh(z),
             "identity": lambda: z}[lyr.activation]()
        pre_acts.append(z)
        acts.append(a)
        if rng is not None and i < len(layers) - 1:
            mask = (rng.random(a.shape) < keep).astype(np.float64)
            masks.append(mask)
            h = a * mask / keep
        else:
            masks.append(None)
            h = a
    return h, (inputs, pre_acts, acts, masks)


def reference_backward(layers, cache, upstream, keep):
    inputs, pre_acts, acts, masks = cache
    g = upstream
    d_weights, d_biases = [None] * len(layers), [None] * len(layers)
    for i in range(len(layers) - 1, -1, -1):
        if masks[i] is not None:
            g = g * masks[i] / keep
        z, a = pre_acts[i], acts[i]
        deriv = {"relu": lambda: (z > 0.0).astype(np.float64),
                 "tanh": lambda: 1.0 - a * a,
                 "identity": lambda: np.ones_like(z)}[layers[i].activation]()
        dz = g * deriv
        d_weights[i] = inputs[i].T @ dz
        d_biases[i] = dz.sum(axis=0)
        g = dz @ layers[i].weights.T
    return d_weights, d_biases, g


def reference_adam_step(params, grads, m_list, v_list, t, lr):
    b1, b2 = 0.9, 0.999
    for p, g, m, v in zip(params, grads, m_list, v_list):
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        m_hat = m / (1.0 - b1**t)
        v_hat = v / (1.0 - b2**t)
        p -= lr * m_hat / (np.sqrt(v_hat) + 1e-8)


@pytest.mark.parametrize("hidden", ["relu", "tanh", "identity"])
@pytest.mark.parametrize("keep", [1.0, 0.7])
@pytest.mark.parametrize("rows", [None, 9])
def test_passes_equal_the_plain_arithmetic_bitwise(hidden, keep, rows):
    rng = np.random.default_rng(11)
    layers = init_layers([6, 8, 7, 1], [hidden, hidden, "tanh"], rng)
    for lyr in layers:
        lyr.bias += rng.normal(scale=0.3, size=lyr.bias.shape)
    shape = (6,) if rows is None else (rows, 6)
    x = rng.normal(size=shape)
    upstream = rng.normal(size=(1,) if rows is None else (rows, 1))
    x_before, upstream_before = x.copy(), upstream.copy()
    train = keep < 1.0

    out, cache = forward(layers, x, dropout_keep=keep, train=train,
                         rng=np.random.default_rng(4) if train else None)
    store = backward(cache, upstream)
    want_out, want_cache = reference_forward(
        layers, x, keep, np.random.default_rng(4) if train else None)
    want_dw, want_db, want_dx = reference_backward(
        layers, want_cache, upstream.reshape(want_out.shape), keep)

    assert np.array_equal(out, want_out.reshape(out.shape))
    assert np.array_equal(store.d_input, want_dx.reshape(x.shape))
    for got, want in zip(store.d_weights + store.d_biases, want_dw + want_db):
        assert np.array_equal(got, want)
    assert np.array_equal(x, x_before)
    assert np.array_equal(upstream, upstream_before)


@pytest.mark.parametrize("first", ["relu", "tanh", "identity"])
@pytest.mark.parametrize("keep", [1.0, 0.7])
def test_pre_activation_entry_equals_the_plain_forward_bitwise(first, keep):
    rng = np.random.default_rng(12)
    layers = init_layers([5, 6, 4, 1], [first, "relu", "tanh"], rng)
    x = rng.normal(size=(7, 5))
    z0 = x @ layers[0].weights + layers[0].bias
    z0_before = z0.copy()
    upstream = rng.normal(size=(7, 1))
    train = keep < 1.0

    def run(inputs, **kwargs):
        out, cache = forward(layers, inputs, dropout_keep=keep, train=train,
                             rng=np.random.default_rng(8) if train else None, **kwargs)
        return out, backward(cache, upstream)

    plain_out, plain = run(x)
    out, store = run(z0, pre_activation=True)
    assert np.array_equal(out, plain_out)
    assert np.array_equal(z0, z0_before)
    assert store.d_weights[0] is None and store.d_biases[0] is None
    for got, want in zip(store.d_weights[1:] + store.d_biases[1:],
                         plain.d_weights[1:] + plain.d_biases[1:]):
        assert np.array_equal(got, want)
    # the pre-activation gradient is what the plain pass multiplies out
    assert np.array_equal(x.T @ store.d_input, plain.d_weights[0])
    assert np.array_equal(store.d_input.sum(axis=0), plain.d_biases[0])
    assert np.array_equal(store.d_input @ layers[0].weights.T, plain.d_input)


def test_pre_activation_entry_checks_layer_zero_output_dim():
    layers = [layer(np.zeros((3, 2)), np.zeros(2), "relu"),
              layer(np.zeros((2, 1)), np.zeros(1), "tanh")]
    with pytest.raises(ValueError, match="layer 0: pre-activation dim 3"):
        forward(layers, np.zeros((4, 3)), pre_activation=True)


def test_adam_equals_the_plain_arithmetic_bitwise_over_steps():
    # parameters on the scale of a step, so a step's last bits show in them
    rng = np.random.default_rng(13)
    params = [rng.normal(scale=3e-3, size=shape) for shape in [(5, 4), (4,), (3,)]]
    want = [p.copy() for p in params]
    want_m = [np.zeros_like(p) for p in params]
    want_v = [np.zeros_like(p) for p in params]
    state = adam_state(params, learning_rate=3e-3)
    for t in range(1, 6):
        grads = [rng.normal(size=p.shape) * 10.0**rng.integers(-4, 2) for p in params]
        grads_before = [g.copy() for g in grads]
        optimizer_step(params, grads, state)
        reference_adam_step(want, grads, want_m, want_v, t, 3e-3)
        for got, ref in zip(params + state.m + state.v, want + want_m + want_v):
            assert np.array_equal(got, ref)
        for g, before in zip(grads, grads_before):
            assert np.array_equal(g, before)


# ---------------------------------------------------------------------------
# Init and checkpoints


def test_init_layers_glorot_bounds_and_zero_bias():
    rng = np.random.default_rng(8)
    layers = init_layers([10, 20, 1], ["relu", "tanh"], rng)
    for lyr in layers:
        limit = math.sqrt(6.0 / (lyr.in_dim + lyr.out_dim))
        assert (np.abs(lyr.weights) <= limit).all()
        assert not lyr.bias.any()
    again = init_layers([10, 20, 1], ["relu", "tanh"], np.random.default_rng(8))
    for a, b in zip(layers, again):
        assert np.array_equal(a.weights, b.weights)


def test_layer_validation():
    with pytest.raises(ValueError, match="activation"):
        layer(np.zeros((2, 2)), np.zeros(2), "sigmoid")
    with pytest.raises(ValueError, match="bias"):
        layer(np.zeros((2, 2)), np.zeros(3), "relu")
    with pytest.raises(ValueError, match="finite"):
        layer(np.full((2, 2), np.inf), np.zeros(2), "relu")


def test_network_checkpoint_round_trip(tmp_path):
    # the dense stack's checkpoint arrays, as save_model/load_model store them
    rng = np.random.default_rng(9)
    layers = init_layers([3, 4, 1], ["relu", "tanh"], rng)
    activations = [lay.activation for lay in layers]
    path = tmp_path / "net.ckpt"
    write_container(path, b"TEST", 1, {"activations": activations},
                    layers_to_arrays(layers))
    meta, arrays = read_container(path, b"TEST", 1)
    loaded = layers_from_arrays(meta["activations"], arrays)
    assert len(loaded) == len(layers)
    for a, b in zip(layers, loaded):
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.bias, b.bias)
        assert a.activation == b.activation
    path2 = tmp_path / "net2.ckpt"
    write_container(path2, b"TEST", 1, {"activations": activations},
                    layers_to_arrays(loaded))
    assert path.read_bytes() == path2.read_bytes()


def _container_bytes(tmp_path):
    path = tmp_path / "whole.ckpt"
    write_container(path, b"TEST", 1, {"k": 1}, [("a", np.arange(3.0))])
    return path.read_bytes()


# byte offsets: magic 0-4, version 4-8, header length 8-16, header, payload
@pytest.mark.parametrize("cut, fragment", [
    (lambda b: b[:6], "truncated format version"),
    (lambda b: b[:4] + b"\2\0\0\0" + b[8:], "unsupported format version 2"),
    (lambda b: b[:12], "truncated header length"),
    (lambda b: b[:20], "truncated header"),
    (lambda b: b[:-1], "truncated payload for array 'a'"),
    (lambda b: b + b"\0", "trailing bytes"),
    (lambda b: b.replace(b'"f8"', b'"f4"'), "malformed array entry"),
], ids=["version", "other-version", "header-length", "header", "payload", "trailing", "dtype"])
def test_read_container_rejects_damaged_files(tmp_path, cut, fragment):
    path = tmp_path / "damaged.ckpt"
    path.write_bytes(cut(_container_bytes(tmp_path)))
    with pytest.raises(ValueError) as err:
        read_container(path, b"TEST", 1)
    assert str(path) in str(err.value) and fragment in str(err.value)
