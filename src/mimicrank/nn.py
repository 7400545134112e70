"""Dense feed-forward substrate: forward, exact backward, Adam, checkpoints.

Everything is float64. Parameter stores are plain numpy arrays owned by the
caller; training steps mutate them in place, so a store must not be shared
while a step runs. The passes work in place on arrays they allocate and
never write to their inputs. Forward's cache keeps only what backward
reads: each layer's input, the output its activation's derivative reads
and, for a tanh hidden layer under dropout, its boolean mask (a ReLU
layer's derivative needs none). Backward drops each of these from the
cache as it reads it, so a cache serves one backward. The stack always
starts at layer 0's pre-activation, which the caller forms (the ranker
shares parts of it between rows), and backward stops there.
"""

import math
from dataclasses import dataclass, field

import numpy as np

ACTIVATIONS = ("relu", "tanh")

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
    return np.tanh(z, out=out)


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


def forward(layers, x, dropout_keep=1.0, rng=None, cache=True):
    """Run the stack from layer 0's pre-activation; returns (output, cache).

    x is an (n, out_dim of layer 0) batch of layer 0's pre-activation
    x0·W0 + b0, formed by the caller: layer 0's weights and bias are not
    used here, and backward returns the gradient at x. Inverted dropout
    runs after every hidden activation (never after the last layer)
    exactly when dropout_keep < 1, and then needs rng: each mask is drawn
    as rng.random(shape) < dropout_keep and the kept units are scaled by
    1/dropout_keep, so expectations match the pass without dropout, which
    draws no masks. x is never written to.

    The cache holds, per layer, its input (None for layer 0), its boolean
    dropout mask, and the output backward needs for the activation's
    derivative. A tanh layer's output is its activation before dropout,
    and its mask is kept. A ReLU layer's output is the one after dropout
    (the next layer's input) and its mask is None: the mask zeroes every
    unit it drops, so h > 0 already marks a unit that was kept. The cache
    is for one backward, which empties it.

    With cache=False, for inference, the cache is None and nothing is
    kept: each layer's input is freed as soon as its output exists, so
    the pass holds at most one layer's input and output (and the
    caller's x). The output bits are those of the caching pass.
    """
    if not 0.0 < dropout_keep <= 1.0:
        raise ValueError(f"dropout_keep must be in (0, 1], got {dropout_keep}")
    if dropout_keep < 1.0 and rng is None:
        raise ValueError("dropout needs an rng")
    h = np.asarray(x, dtype=np.float64)  # layer 0's pre-activation
    if h.ndim != 2 or h.shape[1] != layers[0].out_dim:
        raise ValueError(f"layer 0: pre-activation shape {h.shape} is not "
                         f"(n, {layers[0].out_dim})")
    del x  # from here h holds each layer's input, and its output replaces it
    inputs, masks, outputs = [None], [], []
    for i, layer in enumerate(layers):
        if i:
            if h.shape[1] != layer.in_dim:
                raise ValueError(f"layer {i}: input dim {h.shape[1]} != expected {layer.in_dim}")
            if cache:
                inputs.append(h)
            h = h @ layer.weights
            h += layer.bias
        a = _activate(layer.activation, h, owned=i > 0)
        tanh = layer.activation == "tanh"
        mask = None
        if dropout_keep < 1.0 and i < len(layers) - 1:
            mask = rng.random(a.shape) < dropout_keep
            # tanh's activation is kept for its derivative
            h = np.multiply(a, mask, out=None if tanh else a)
            h /= dropout_keep
        else:
            h = a
        if cache:
            masks.append(mask if tanh else None)
            outputs.append(a if tanh else h)
    if not cache:
        return h, None
    return h, {"layers": layers, "inputs": inputs, "masks": masks, "outputs": outputs,
               "dropout_keep": dropout_keep}


def backward(cache, upstream):
    """Exact reverse-mode gradients of layers 1 and up, and of forward's x.

    d_input is the gradient at layer 0's pre-activation; layer 0's weight
    and bias gradients are None, for the caller that formed the
    pre-activation to form them. upstream is never written to.

    Each cached array leaves the cache as it is read, so a layer's
    activations are freed as the pass descends past it and the cache is
    empty when backward returns; a second backward on it raises
    ValueError. A dropped ReLU layer's gradient is (g / keep) · (h > 0),
    bit for bit the masked ((g · mask) / keep) · (h > 0): where h > 0 the
    mask is 1, and elsewhere both are sign(g)·0 (NaN for a g that is, or
    overflows to, a non-finite value).
    """
    layers, keep = cache["layers"], cache["dropout_keep"]
    inputs, masks, outputs = cache["inputs"], cache["masks"], cache["outputs"]
    if outputs[-1] is None:
        raise ValueError("this forward cache was consumed by an earlier backward")
    g = np.asarray(upstream, dtype=np.float64)
    if g.shape != outputs[-1].shape:
        raise ValueError(f"upstream gradient shape {g.shape} does not match output "
                         f"{outputs[-1].shape}")
    d_weights, d_biases = [None] * len(layers), [None] * len(layers)
    owned = False  # whether g may be written to
    for i in range(len(layers) - 1, -1, -1):
        mask = masks[i]
        if mask is not None:
            g = g * mask
            g /= keep
            owned = True
        elif keep < 1.0 and i < len(layers) - 1:
            # a dropped ReLU layer: h > 0 below zeroes what its mask dropped
            g = np.divide(g, keep, out=g if owned else None)
            owned = True
        out = outputs[i]
        outputs[i] = masks[i] = None
        if layers[i].activation == "tanh":
            dz = out * out
            np.subtract(1.0, dz, out=dz)
            dz *= g
        else:
            # ReLU; subgradient 0 at the kink
            dz = np.multiply(g, out > 0.0, out=g if owned else None)
        if i == 0:
            return GradientStore(d_weights, d_biases, dz)
        d_weights[i] = inputs[i].T @ dz
        inputs[i] = None
        d_biases[i] = dz.sum(axis=0)
        g = dz @ layers[i].weights.T
        owned = True


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
