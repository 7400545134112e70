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
    out, _ = forward(layers, np.array([[1.0, -2.0], [0.5, 3.0]]))
    assert out.shape == (2, 1)
    assert not out.any()


def test_forward_affine_arithmetic():
    # layer 0 applies only its activation to the pre-activation it is given;
    # layer 1 is relu(h·W1 + b1): relu([-1, 3]) · [2, 5] - 1 = 14
    layers = [layer(np.zeros((4, 2)), np.zeros(2), "relu"),
              layer([[2.0], [5.0]], [-1.0], "relu")]
    out, _ = forward(layers, np.array([[-1.0, 3.0]]))
    assert out[0, 0] == 14.0


def test_forward_infer_is_deterministic():
    rng = np.random.default_rng(0)
    layers = init_layers([4, 3, 1], ["relu", "tanh"], rng)
    x = rng.normal(size=(5, 3))
    a, _ = forward(layers, x)
    b, _ = forward(layers, x)
    assert np.array_equal(a, b)


def test_forward_rejects_dim_mismatch_naming_layer():
    layers = [layer(np.zeros((3, 2)), np.zeros(2), "relu"),
              layer(np.zeros((5, 1)), np.zeros(1), "tanh")]
    with pytest.raises(ValueError, match="layer 1"):
        forward(layers, np.zeros((4, 2)))


def test_forward_batch_matches_per_row():
    # batch matmul and single-row matmul use different BLAS kernels, so
    # agreement is to rounding error, not bitwise
    rng = np.random.default_rng(1)
    layers = init_layers([4, 5, 2], ["relu", "tanh"], rng)
    xs = rng.normal(size=(6, 5))
    batch_out, _ = forward(layers, xs)
    for i in range(6):
        row_out, _ = forward(layers, xs[i:i + 1])
        assert np.allclose(batch_out[i], row_out[0], rtol=1e-12, atol=1e-14)


def test_activation_ranges():
    # strict |tanh| < 1 holds while |z| stays below ~19; beyond that float64
    # rounds tanh to exactly 1, so the probe uses unit-scale inputs
    rng = np.random.default_rng(2)
    relu_net = init_layers([3, 4, 4], ["relu", "relu"], rng)
    tanh_net = init_layers([3, 4, 4], ["tanh", "tanh"], rng)
    for _ in range(50):
        x = rng.normal(scale=1.0, size=(1, 4))
        r, _ = forward(relu_net, x)
        t, _ = forward(tanh_net, x)
        assert (r >= 0.0).all()
        assert (np.abs(t) < 1.0).all()


# ---------------------------------------------------------------------------
# Backward


def test_backward_zero_upstream_gives_zero_grads():
    rng = np.random.default_rng(3)
    layers = init_layers([3, 4, 1], ["relu", "tanh"], rng)
    _, cache = forward(layers, rng.normal(size=(2, 4)))
    store = backward(cache, np.zeros((2, 1)))
    # layer 0's parameter gradients belong to whoever formed its pre-activation
    assert store.d_weights[0] is None and store.d_biases[0] is None
    for dw, db in zip(store.d_weights[1:], store.d_biases[1:]):
        assert not dw.any()
        assert not db.any()
    assert not store.d_input.any()


def test_backward_scalar_product_rule():
    # a positive pre-activation x passes layer 0's relu unchanged, and
    # layer 1 is relu(w·x) with w·x > 0
    w = 4.0
    x = 7.0
    layers = [layer([[0.0]], [0.0], "relu"), layer([[w]], [0.0], "relu")]
    _, cache = forward(layers, np.array([[x]]))
    store = backward(cache, np.array([[1.0]]))
    assert store.d_weights[1][0, 0] == x
    assert store.d_input[0, 0] == w
    assert store.d_biases[1][0] == 1.0


def test_backward_rejects_shape_mismatch():
    layers = [layer(np.zeros((2, 3)), np.zeros(3), "relu")]
    _, cache = forward(layers, np.zeros((1, 3)))
    with pytest.raises(ValueError, match="upstream"):
        backward(cache, np.zeros((1, 2)))


@pytest.mark.parametrize("dims,acts", [
    ([3, 1], ["tanh"]),
    ([4, 6, 1], ["relu", "tanh"]),
    ([5, 8, 8, 1], ["relu", "relu", "tanh"]),
    ([6, 7, 5, 4, 1], ["relu", "relu", "relu", "tanh"]),
])
def test_backward_matches_finite_differences(dims, acts):
    # the pre-activation x is checked like a parameter: it is what layer 0
    # hands back to the caller that formed it
    rng = np.random.default_rng(hash(tuple(dims)) % (2**32))
    layers = init_layers(dims, acts, rng)
    x = rng.normal(size=(3, dims[1]))
    upstream = rng.normal(size=(3, 1))

    def loss():
        out, _ = forward(layers, x)
        return float((out * upstream).sum())

    _, cache = forward(layers, x)
    store = backward(cache, upstream)
    params = [x] + [a for lyr in layers[1:] for a in (lyr.weights, lyr.bias)]
    grads = [store.d_input] + [a for dw, db in zip(store.d_weights[1:], store.d_biases[1:])
                               for a in (dw, db)]
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
    # dropout runs exactly when the keep rate is below 1
    layers = [layer(np.eye(2), np.zeros(2), "relu"),
              layer(np.ones((2, 1)), np.zeros(1), "relu")]
    with pytest.raises(ValueError, match="rng"):
        forward(layers, np.ones((1, 2)), dropout_keep=0.5)


def test_dropout_never_applied_at_inference():
    # inference runs at keep 1, which draws no masks: an rng given is untouched
    rng = np.random.default_rng(4)
    layers = init_layers([3, 5, 1], ["relu", "tanh"], rng)
    x = np.array([[1.0, 2.0, 3.0, -1.0, 0.5]])
    state = rng.bit_generator.state
    a, cache = forward(layers, x, rng=rng)
    b, _ = forward(layers, x)
    assert np.array_equal(a, b)
    assert rng.bit_generator.state == state
    assert cache["masks"] == [None, None]


def test_dropout_preserves_expectation():
    # mean of inverted-dropout outputs must approach the no-dropout output
    keep = 0.8
    layers = [layer(np.eye(4), np.zeros(4), "relu"),
              layer(np.eye(4), np.zeros(4), "relu")]
    x = np.array([[1.0, 2.0, 3.0, 4.0]])
    clean, _ = forward(layers, x)
    n = 4000
    rng = np.random.default_rng(5)
    acc = np.zeros((1, 4))
    for _ in range(n):
        out, _ = forward(layers, x, dropout_keep=keep, rng=rng)
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
    x = rng.normal(size=(2, 6))

    def fixed_rng():
        return np.random.default_rng(123)

    def loss():
        out, _ = forward(layers, x, dropout_keep=0.7, rng=fixed_rng())
        return float(out.sum())

    _, cache = forward(layers, x, dropout_keep=0.7, rng=fixed_rng())
    store = backward(cache, np.ones((2, 1)))
    params = [x] + [a for lyr in layers[1:] for a in (lyr.weights, lyr.bias)]
    grads = [store.d_input] + [a for dw, db in zip(store.d_weights[1:], store.d_biases[1:])
                               for a in (dw, db)]
    report = finite_difference_check(loss, params, grads, max_coords_per_param=15, seed=7)
    assert report.passed, report


# ---------------------------------------------------------------------------
# The in-place passes against the plain arithmetic they replace


def reference_forward(layers, x, keep, rng):
    """The whole stack from its input x, layer 0 included, with one fresh
    array per operation and float dropout masks."""
    h = x
    inputs, pre_acts, acts, masks = [], [], [], []
    for i, lyr in enumerate(layers):
        inputs.append(h)
        z = h @ lyr.weights + lyr.bias
        a = np.maximum(z, 0.0) if lyr.activation == "relu" else np.tanh(z)
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
    """Gradients of every layer and of x; also each layer's pre-activation gradient."""
    inputs, pre_acts, acts, masks = cache
    g = upstream
    d_weights, d_biases, d_pre = [None] * len(layers), [None] * len(layers), [None] * len(layers)
    for i in range(len(layers) - 1, -1, -1):
        if masks[i] is not None:
            g = g * masks[i] / keep
        z, a = pre_acts[i], acts[i]
        deriv = (z > 0.0).astype(np.float64) if layers[i].activation == "relu" else 1.0 - a * a
        dz = g * deriv
        d_pre[i] = dz
        d_weights[i] = inputs[i].T @ dz
        d_biases[i] = dz.sum(axis=0)
        g = dz @ layers[i].weights.T
    return d_weights, d_biases, g, d_pre


def bits(a):
    """a's float64 bit patterns, which tell -0.0 from 0.0 where == does not."""
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


def signed_upstream(rng, rows):
    """An upstream gradient with negative entries and exact zeros, so that
    dropped and dead units carry signed zeros back through the stack."""
    upstream = rng.normal(size=(rows, 1))
    upstream[::2] = -np.abs(upstream[::2])
    upstream[1::3] = 0.0
    return upstream


def layer_zero(layers, x):
    """Layer 0's pre-activation x·W0 + b0, formed as the caller of forward forms it."""
    return x @ layers[0].weights + layers[0].bias


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


@pytest.mark.parametrize("hidden", ["relu", "tanh"])
@pytest.mark.parametrize("keep", [1.0, 0.7])
@pytest.mark.parametrize("rows", [1, 8, 9])  # BLAS kernels differ by row count
def test_passes_equal_the_plain_arithmetic_bitwise(hidden, keep, rows):
    rng = np.random.default_rng(11)
    layers = init_layers([6, 8, 7, 1], [hidden, hidden, "tanh"], rng)
    for lyr in layers:
        lyr.bias += rng.normal(scale=0.3, size=lyr.bias.shape)
    x = rng.normal(size=(rows, 6))
    z0 = layer_zero(layers, x)
    upstream = signed_upstream(rng, rows)
    z0_before, upstream_before = z0.copy(), upstream.copy()
    dropout_rng = np.random.default_rng(4) if keep < 1.0 else None

    out, cache = forward(layers, z0, dropout_keep=keep, rng=dropout_rng)
    store = backward(cache, upstream)
    want_out, want_cache = reference_forward(
        layers, x, keep, np.random.default_rng(4) if keep < 1.0 else None)
    want_dw, want_db, _, want_dz = reference_backward(layers, want_cache, upstream, keep)

    assert np.array_equal(bits(out), bits(want_out))
    assert np.array_equal(bits(store.d_input), bits(want_dz[0]))
    for got, want in zip(store.d_weights[1:] + store.d_biases[1:],
                         want_dw[1:] + want_db[1:]):
        assert np.array_equal(bits(got), bits(want))
    assert np.array_equal(bits(z0), bits(z0_before))
    assert np.array_equal(bits(upstream), bits(upstream_before))


@pytest.mark.parametrize("hidden", ["relu", "tanh"])
@pytest.mark.parametrize("keep", [1.0, 0.7])
@pytest.mark.parametrize("rows", [1, 8, 9])
def test_forward_without_cache_gives_the_caching_output_bits(hidden, keep, rows):
    rng = np.random.default_rng(16)
    layers = init_layers([6, 8, 7, 1], [hidden, hidden, "tanh"], rng)
    z0 = layer_zero(layers, rng.normal(size=(rows, 6)))
    z0_before = z0.copy()

    def dropout_rng():
        return np.random.default_rng(4) if keep < 1.0 else None

    want, _ = forward(layers, z0, dropout_keep=keep, rng=dropout_rng())
    got, cache = forward(layers, z0, dropout_keep=keep, rng=dropout_rng(), cache=False)
    assert cache is None
    assert np.array_equal(bits(got), bits(want))
    assert np.array_equal(bits(z0), bits(z0_before))


@pytest.mark.parametrize("first", ["relu", "tanh"])
@pytest.mark.parametrize("keep", [1.0, 0.7])
def test_pre_activation_entry_equals_the_plain_forward_bitwise(first, keep):
    # layer 0's own gradients, formed by the caller from the gradient at its
    # pre-activation, are what the whole-stack arithmetic multiplies out
    rng = np.random.default_rng(12)
    layers = init_layers([5, 6, 4, 1], [first, "relu", "tanh"], rng)
    x = rng.normal(size=(7, 5))
    upstream = signed_upstream(rng, 7)
    dropout_rng = np.random.default_rng(8) if keep < 1.0 else None

    out, cache = forward(layers, layer_zero(layers, x), dropout_keep=keep, rng=dropout_rng)
    store = backward(cache, upstream)
    want_out, want_cache = reference_forward(
        layers, x, keep, np.random.default_rng(8) if keep < 1.0 else None)
    want_dw, want_db, want_dx, _ = reference_backward(layers, want_cache, upstream, keep)
    assert np.array_equal(bits(out), bits(want_out))
    assert np.array_equal(bits(x.T @ store.d_input), bits(want_dw[0]))
    assert np.array_equal(bits(store.d_input.sum(axis=0)), bits(want_db[0]))
    assert np.array_equal(bits(store.d_input @ layers[0].weights.T), bits(want_dx))


def test_signed_upstream_sends_signed_zeros_through_dropped_relu_units():
    # the bitwise checks above see signed zeros only if some reach them: a
    # negative upstream row gives -0.0 at the units of a dropped or dead
    # ReLU layer, and an exact zero row +0.0
    rng = np.random.default_rng(11)
    layers = init_layers([6, 8, 7, 1], ["relu", "relu", "tanh"], rng)
    z0 = layer_zero(layers, rng.normal(size=(9, 6)))
    _, cache = forward(layers, z0, dropout_keep=0.7, rng=np.random.default_rng(4))
    dz = backward(cache, signed_upstream(rng, 9)).d_input
    zeros = dz == 0.0
    assert np.signbit(dz[zeros]).any() and not np.signbit(dz[zeros]).all()


# ---------------------------------------------------------------------------
# The cache: what forward keeps and backward releases


def test_cache_keeps_dropout_masks_of_tanh_hidden_layers_only():
    # a ReLU layer's output is zero wherever its mask dropped the unit, so
    # its derivative needs no mask; tanh's is read from its pre-dropout
    # activation, which the mask does not touch
    rng = np.random.default_rng(14)
    layers = init_layers([4, 5, 6, 5, 1], ["relu", "tanh", "relu", "tanh"], rng)
    _, cache = forward(layers, rng.normal(size=(3, 5)), dropout_keep=0.6, rng=rng)
    relu_mask, tanh_mask, relu_mask2, last_mask = cache["masks"]
    assert relu_mask is None and relu_mask2 is None and last_mask is None
    assert tanh_mask.dtype == np.bool_ and tanh_mask.shape == (3, 6)


def test_backward_empties_the_cache_and_refuses_a_second_pass():
    rng = np.random.default_rng(15)
    layers = init_layers([4, 5, 6, 5, 1], ["relu", "tanh", "relu", "tanh"], rng)
    _, cache = forward(layers, rng.normal(size=(3, 5)), dropout_keep=0.6, rng=rng)
    backward(cache, np.ones((3, 1)))
    held = [a for name in ("inputs", "masks", "outputs") for a in cache[name]]
    assert len(held) == 3 * len(layers) and all(a is None for a in held)
    with pytest.raises(ValueError, match="consumed"):
        backward(cache, np.ones((3, 1)))


def test_pre_activation_entry_checks_layer_zero_output_dim():
    layers = [layer(np.zeros((3, 2)), np.zeros(2), "relu"),
              layer(np.zeros((2, 1)), np.zeros(1), "tanh")]
    with pytest.raises(ValueError, match=r"layer 0: pre-activation shape \(4, 3\) is not"):
        forward(layers, np.zeros((4, 3)))
    # a vector is not a batch of rows, even of the right length
    with pytest.raises(ValueError, match=r"layer 0: pre-activation shape \(2,\) is not"):
        forward(layers, np.zeros(2))


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
