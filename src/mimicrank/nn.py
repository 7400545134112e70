"""Dense feed-forward substrate: forward, exact backward, Adam, checkpoints.

Everything is float64. Parameter stores are plain numpy arrays owned by the
caller; training steps mutate them in place, so a store must not be shared
while a step runs. The passes work in place on arrays they allocate and
never write to their inputs; forward's cache keeps only each layer's input,
its boolean dropout mask and the output its activation's derivative reads.
A caller that computes layer 0's pre-activation itself (to share part of it
between rows) enters the stack there with forward(..., pre_activation=True).
"""

import math
from dataclasses import dataclass, field

import numpy as np

ACTIVATIONS = ("relu", "tanh", "identity")

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# array-name prefix of the dense layers in a checkpoint
LAYER_PREFIX = "layer_"


@dataclass
class DenseLayer:
    weights: np.ndarray  # (in_dim, out_dim)
    bias: np.ndarray  # (out_dim,)
    activation: str

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weights.ndim != 2:
            raise ValueError(f"weights must be 2-D, got shape {self.weights.shape}")
        if self.bias.shape != (self.weights.shape[1],):
            raise ValueError(
                f"bias shape {self.bias.shape} does not match out_dim "
                f"{self.weights.shape[1]}"
            )
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if not (np.isfinite(self.weights).all() and np.isfinite(self.bias).all()):
            raise ValueError("non-finite layer parameters")

    @property
    def in_dim(self):
        return self.weights.shape[0]

    @property
    def out_dim(self):
        return self.weights.shape[1]


@dataclass
class GradientStore:
    d_weights: list
    d_biases: list
    d_input: np.ndarray


def _activate(name, z, owned):
    """Layer activation of z, written into z when the caller owns it."""
    out = z if owned else None
    if name == "relu":
        return np.maximum(z, 0.0, out=out)
    if name == "tanh":
        return np.tanh(z, out=out)
    return z


def init_layers(dims, activations, rng):
    """Glorot-uniform weights (±sqrt(6/(fan_in+fan_out))), zero biases.

    dims: [d0, d1, ..., dL]; activations: one per layer (len(dims) - 1).
    """
    if len(activations) != len(dims) - 1:
        raise ValueError("need one activation per layer")
    layers = []
    for i, act in enumerate(activations):
        fan_in, fan_out = dims[i], dims[i + 1]
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        w = rng.uniform(-limit, limit, size=(fan_in, fan_out))
        layers.append(DenseLayer(w, np.zeros(fan_out), act))
    return layers


def forward(layers, x, dropout_keep=1.0, train=False, rng=None,
            pre_activation=False):
    """Run the stack; returns (output, cache for backward).

    x may be a vector or a batch (n, ·); the output mirrors the input's
    rank. Normally x is the stack's input (in_dim of layer 0). With
    pre_activation=True, x is layer 0's pre-activation x·W0 + b0 (out_dim
    of layer 0), computed by the caller: layer 0's weights and bias are
    not used, and backward returns the gradient at that pre-activation.
    In train mode, inverted dropout runs after every hidden activation
    (never after the last layer): mask/keep scaling at train time,
    nothing at inference, so expectations match. dropout_keep=1 draws no
    masks at all. x is never written to.

    The cache holds, per layer, its input (None for a pre-activation
    entry), its boolean dropout mask (or None), and the output backward
    needs for the activation's derivative: tanh's activation before
    dropout, ReLU's output after dropout (the next layer's input; h > 0
    wherever the mask kept the unit, and the mask zeroes the rest), and
    nothing for identity.
    """
    if not 0.0 < dropout_keep <= 1.0:
        raise ValueError(f"dropout_keep must be in (0, 1], got {dropout_keep}")
    use_dropout = train and dropout_keep < 1.0
    if use_dropout and rng is None:
        raise ValueError("train-mode dropout needs an rng")
    x = np.asarray(x, dtype=np.float64)
    squeeze = x.ndim == 1
    h = x.reshape(1, -1) if squeeze else x
    inputs, masks, outputs = [], [], []
    last = len(layers) - 1
    for i, layer in enumerate(layers):
        entry = pre_activation and i == 0
        expected = layer.out_dim if entry else layer.in_dim
        if h.shape[1] != expected:
            what = "pre-activation" if entry else "input"
            raise ValueError(f"layer {i}: {what} dim {h.shape[1]} != expected {expected}")
        if entry:
            inputs.append(None)
            z = h
        else:
            inputs.append(h)
            z = h @ layer.weights
            z += layer.bias
        a = _activate(layer.activation, z, owned=not entry)
        mask = None
        if use_dropout and i < last:
            mask = rng.random(a.shape) < dropout_keep
            if layer.activation == "tanh" or a is h:
                h = a * mask  # a is kept for the derivative, or is the caller's x
            else:
                h = np.multiply(a, mask, out=a)
            h /= dropout_keep
        else:
            h = a
        masks.append(mask)
        if layer.activation == "tanh":
            outputs.append(a)
        else:
            outputs.append(h if layer.activation == "relu" else None)
    cache = {
        "layers": layers,
        "inputs": inputs,
        "masks": masks,
        "outputs": outputs,
        "out_shape": h.shape,
        "dropout_keep": dropout_keep,
        "squeeze": squeeze,
    }
    out = h[0] if squeeze else h
    return out, cache


def backward(cache, upstream):
    """Exact reverse-mode gradients for every weight, bias, and the input.

    upstream is never written to. After a pre-activation forward, d_input
    is the gradient at layer 0's pre-activation, and layer 0's weight and
    bias gradients are None.
    """
    layers = cache["layers"]
    keep = cache["dropout_keep"]
    upstream = np.asarray(upstream, dtype=np.float64)
    g = upstream.reshape(1, -1) if cache["squeeze"] else upstream
    if g.shape != cache["out_shape"]:
        raise ValueError(
            f"upstream gradient shape {g.shape} does not match output "
            f"{cache['out_shape']}"
        )
    d_weights = [None] * len(layers)
    d_biases = [None] * len(layers)
    owned = False  # whether g may be written to
    for i in range(len(layers) - 1, -1, -1):
        mask = cache["masks"][i]
        if mask is not None:
            g = g * mask
            g /= keep
            owned = True
        out = cache["outputs"][i]
        if layers[i].activation == "tanh":
            dz = out * out
            np.subtract(1.0, dz, out=dz)
            dz *= g
        elif layers[i].activation == "relu":
            # subgradient 0 at the kink
            dz = np.multiply(g, out > 0.0, out=g if owned else None)
        else:
            dz = g
        if cache["inputs"][i] is None:
            g = dz
            break
        d_weights[i] = cache["inputs"][i].T @ dz
        d_biases[i] = dz.sum(axis=0)
        g = dz @ layers[i].weights.T
        owned = True
    d_input = g[0] if cache["squeeze"] else g
    return GradientStore(d_weights, d_biases, d_input)


# ---------------------------------------------------------------------------
# Optimizer


@dataclass
class OptimizerState:
    learning_rate: float
    step: int = 0
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)


def adam_state(params, learning_rate):
    return OptimizerState(
        learning_rate=learning_rate,
        m=[np.zeros_like(p) for p in params],
        v=[np.zeros_like(p) for p in params],
    )


def optimizer_step(params, grads, state):
    """One Adam update, mutating params (and state) in place.

    params and grads are parallel lists of arrays; shapes must match the
    accumulators created by adam_state. Non-finite gradients abort with a
    diagnostic identifying the offending parameter.
    """
    if len(params) != len(state.m) or len(grads) != len(params):
        raise ValueError(
            f"expected {len(state.m)} parameter/gradient arrays, "
            f"got {len(params)}/{len(grads)}"
        )
    for i, g in enumerate(grads):
        if g.shape != state.m[i].shape:
            raise ValueError(
                f"gradient {i} shape {g.shape} != accumulator {state.m[i].shape}"
            )
        if not np.isfinite(g).all():
            bad = int(np.size(g) - np.isfinite(g).sum())
            raise ValueError(
                f"non-finite gradient in parameter {i} ({bad} bad entries)"
            )
    state.step += 1
    t = state.step
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    for p, g, m, v in zip(params, grads, state.m, state.v):
        # the textbook expression, evaluated in its own order through two
        # scratch arrays: (1-b1)·g, (1-b2)·(g·g), lr·m̂ / (√v̂ + ε)
        step, scratch = np.empty_like(p), np.empty_like(p)
        m *= b1
        m += np.multiply(1.0 - b1, g, out=scratch)
        v *= b2
        np.multiply(g, g, out=scratch)
        v += np.multiply(1.0 - b2, scratch, out=scratch)
        np.divide(m, 1.0 - b1**t, out=step)
        step *= state.learning_rate
        np.divide(v, 1.0 - b2**t, out=scratch)
        np.sqrt(scratch, out=scratch)
        scratch += ADAM_EPS
        step /= scratch
        p -= step
    return params, state


# ---------------------------------------------------------------------------
# Checkpoint format


def layers_from_arrays(activations, arrays):
    layers = []
    for i, act in enumerate(activations):
        layers.append(
            DenseLayer(
                arrays[f"{LAYER_PREFIX}weights_{i:02d}"],
                arrays[f"{LAYER_PREFIX}bias_{i:02d}"],
                act,
            )
        )
    return layers


def layers_to_arrays(layers):
    arrays = []
    for i, layer in enumerate(layers):
        arrays.append((f"{LAYER_PREFIX}weights_{i:02d}", layer.weights))
        arrays.append((f"{LAYER_PREFIX}bias_{i:02d}", layer.bias))
    return arrays
