"""A small fully connected network trained from scratch with Adam.

Everything lives in numpy: dense forward pass, exact backpropagation of the
mean squared error, the Adam update with bias correction, and the training
loop with a validation split and seeded mini-batch shuffling. Inputs are
mapped componentwise onto the unit hypercube using the training-domain
bounds, and targets are scaled down by a constant (prices top out around
160 USD, so the default scale is 100).

Training is deterministic: the split, every shuffle, and the weight
initialization derive from the config seed, and batch gradients are reduced
in fixed index order, so identical seeds reproduce identical weights bit
for bit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .pricing import C_TRAIN, DomainBox, OptionContract, contract_terms
from .rng import generator, stage_seed
from .tail import ErrorSample

MODEL_FORMAT_VERSION = 1
DEFAULT_TARGET_SCALE = 100.0


@dataclass
class TrainConfig:
    """Optimizer and schedule settings for :func:`train`."""

    epochs: int = 20
    batch_size: int = 100
    validation_fraction: float = 0.2
    learning_rate: float = 1e-3
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_epsilon: float = 1e-8
    seed: int = 0

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if not 0.0 < self.validation_fraction < 1.0:
            raise ValueError(
                f"validation_fraction must be in (0, 1), got {self.validation_fraction}"
            )
        if self.learning_rate <= 0.0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if not 0.0 < self.adam_beta1 < 1.0:
            raise ValueError(f"adam_beta1 must be in (0, 1), got {self.adam_beta1}")
        if not 0.0 < self.adam_beta2 < 1.0:
            raise ValueError(f"adam_beta2 must be in (0, 1), got {self.adam_beta2}")
        if self.adam_epsilon <= 0.0:
            raise ValueError(f"adam_epsilon must be positive, got {self.adam_epsilon}")


@dataclass
class MlpModel:
    """Layer weights plus the input and output affine maps.

    ``weights[i]`` has shape (widths[i+1], widths[i]); biases match the
    output side. Hidden layers apply ReLU. Inputs are normalized as
    (x - input_lower) / (input_upper - input_lower), and the raw network
    output is multiplied by ``target_scale`` to give USD.
    """

    layer_widths: tuple[int, ...]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    input_lower: np.ndarray
    input_upper: np.ndarray
    target_scale: float

    def __post_init__(self) -> None:
        """The one model rule, for a fresh and for a loaded model."""
        self.input_lower = np.asarray(self.input_lower, dtype=float)
        self.input_upper = np.asarray(self.input_upper, dtype=float)
        DomainBox(self.input_lower, self.input_upper)
        self.layer_widths = widths = check_widths(self.layer_widths, len(self.input_lower))
        if len(self.weights) != len(widths) - 1 or len(self.biases) != len(widths) - 1:
            raise ValueError(
                f"{len(widths)} layer widths need {len(widths) - 1} layers, "
                f"got {len(self.weights)}"
            )
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.shape != (widths[i + 1], widths[i]) or b.shape != (widths[i + 1],):
                raise ValueError(f"layer {i} arrays do not match layer_widths")
        self.target_scale = float(self.target_scale)
        if not (math.isfinite(self.target_scale) and self.target_scale != 0.0):
            raise ValueError(
                f"target_scale must be finite and nonzero, got {self.target_scale}"
            )

    def parameters(self) -> list[np.ndarray]:
        """Flat parameter list, weight then bias per layer."""
        out: list[np.ndarray] = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out

    def set_parameters(self, tensors: Sequence[np.ndarray]) -> None:
        n_layers = len(self.weights)
        for i in range(n_layers):
            self.weights[i] = tensors[2 * i]
            self.biases[i] = tensors[2 * i + 1]


def check_widths(widths: Sequence[int], input_dim: int) -> tuple[int, ...]:
    """Widths as ints: at least two, positive, first = input_dim, last = 1."""
    widths = tuple(int(w) for w in widths)
    if len(widths) < 2:
        raise ValueError("widths needs at least an input and an output layer")
    if any(w < 1 for w in widths):
        raise ValueError(f"layer widths must be positive, got {widths}")
    if widths[0] != input_dim:
        raise ValueError(
            f"first width ({widths[0]}) must match the input dimension ({input_dim})"
        )
    if widths[-1] != 1:
        raise ValueError(f"last width must be 1, got {widths[-1]}")
    return widths


def split_sizes(size: int, config: TrainConfig) -> tuple[int, int]:
    """Training and validation row counts; rejects fewer training rows than a batch."""
    val_size = round(config.validation_fraction * size)
    train_size = size - val_size
    if train_size < config.batch_size:
        raise ValueError(
            f"dataset of size {size} leaves only {train_size} training "
            f"rows after the validation split; need at least {config.batch_size}"
        )
    return train_size, val_size


def init_model(
    widths: Sequence[int],
    seed: int,
    input_box: DomainBox = C_TRAIN,
    target_scale: float = DEFAULT_TARGET_SCALE,
) -> MlpModel:
    """Uniformly initialized network, deterministic given the seed.

    Weights are drawn from U(-a, a) with a = sqrt(6 / (fan_in + fan_out)),
    biases start at zero. The widths must pass :func:`check_widths`.
    """
    widths = check_widths(widths, len(input_box.lower))
    rng = generator(seed)
    weights = []
    biases = []
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        bound = math.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return MlpModel(widths, weights, biases, input_box.lower, input_box.upper, target_scale)


def _normalize(model: MlpModel, x: np.ndarray) -> np.ndarray:
    return (x - model.input_lower) / (model.input_upper - model.input_lower)


def _forward_raw(
    model: MlpModel, x: np.ndarray, keep_activations: bool = False
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Raw (scaled-space) outputs, plus each layer's input if kept for gradients;
    otherwise one layer at a time is held, which keeps large batches small."""
    a = _normalize(model, x)
    activations = []
    last = len(model.weights) - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        if keep_activations:
            activations.append(a)
        z = a @ w.T
        z += b
        if i < last:
            np.maximum(z, 0.0, out=z)
        a = z
    return a[:, 0], activations


def forward_batch(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """Predicted prices in USD for an (n, d) input matrix."""
    raw, _ = _forward_raw(model, np.asarray(x, dtype=float))
    return raw * model.target_scale


def forward(model: MlpModel, contract: OptionContract) -> float:
    """Predicted price in USD for one contract."""
    return float(forward_batch(model, contract_terms([contract]))[0])


def _gradient_arrays(
    model: MlpModel, x: np.ndarray, targets_scaled: np.ndarray
) -> list[np.ndarray]:
    """Exact MSE gradient in scaled target space, flat like parameters()."""
    raw, activations = _forward_raw(model, x, keep_activations=True)
    batch = x.shape[0]
    delta = (2.0 / batch) * (raw - targets_scaled)[:, None]
    grads: list[np.ndarray] = [np.empty(0)] * (2 * len(model.weights))
    for i in range(len(model.weights) - 1, -1, -1):
        grads[2 * i] = delta.T @ activations[i]
        grads[2 * i + 1] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ model.weights[i]) * (activations[i] > 0.0)
    return grads


def scale_targets(model: MlpModel, targets_usd: np.ndarray) -> np.ndarray:
    return np.asarray(targets_usd, dtype=float) / model.target_scale


def _labeled(x, prices) -> tuple[np.ndarray, np.ndarray]:
    """Contract terms (see :func:`contract_terms`) and their oracle prices in
    USD as arrays of equal length."""
    x = contract_terms(x)
    prices = np.asarray(prices, dtype=float)
    if prices.shape != (len(x),):
        raise ValueError("contracts and prices must have equal length")
    return x, prices


def gradient(model: MlpModel, x, prices) -> list[np.ndarray]:
    """Gradient of the batch MSE with respect to every weight and bias.

    The loss is measured in scaled target space, matching what the trainer
    minimizes. Returned tensors line up with ``model.parameters()``.
    """
    x, prices = _labeled(x, prices)
    if len(x) < 1:
        raise ValueError("batch must be nonempty")
    return _gradient_arrays(model, x, scale_targets(model, prices))


@dataclass
class AdamState:
    """Parameters plus first/second moment accumulators and a step counter."""

    tensors: list[np.ndarray]
    m: list[np.ndarray]
    v: list[np.ndarray]
    step: int = 0


def adam_init(tensors: Sequence[np.ndarray]) -> AdamState:
    return AdamState(
        tensors=[t.copy() for t in tensors],
        m=[np.zeros_like(t) for t in tensors],
        v=[np.zeros_like(t) for t in tensors],
        step=0,
    )


def adam_step(
    state: AdamState, grads: Sequence[np.ndarray], config: TrainConfig
) -> AdamState:
    """One bias-corrected Adam update; returns a new state."""
    if len(grads) != len(state.tensors):
        raise ValueError("gradient list does not match the parameter list")
    b1, b2 = config.adam_beta1, config.adam_beta2
    t = state.step + 1
    c1 = 1.0 - b1**t
    c2 = 1.0 - b2**t
    tensors, ms, vs = [], [], []
    for theta, m, v, g in zip(state.tensors, state.m, state.v, grads):
        if g.shape != theta.shape:
            raise ValueError(
                f"gradient shape {g.shape} does not match parameter shape {theta.shape}"
            )
        m_new = b1 * m + (1.0 - b1) * g
        v_new = b2 * v + (1.0 - b2) * (g * g)
        update = (m_new / c1) / (np.sqrt(v_new / c2) + config.adam_epsilon)
        tensors.append(theta - config.learning_rate * update)
        ms.append(m_new)
        vs.append(v_new)
    return AdamState(tensors=tensors, m=ms, v=vs, step=t)


@dataclass(frozen=True)
class TrainingReport:
    """Per-epoch MSE in USD^2 on the training and validation splits."""

    train_mse: tuple[float, ...]
    validation_mse: tuple[float, ...]
    train_size: int
    validation_size: int


def _mse_usd(model: MlpModel, x: np.ndarray, y_usd: np.ndarray) -> float:
    pred = forward_batch(model, x)
    diff = pred - y_usd
    return float(np.mean(diff * diff))


def train(
    x,
    prices,
    widths: Sequence[int],
    config: TrainConfig,
    input_box: DomainBox = C_TRAIN,
    target_scale: float = DEFAULT_TARGET_SCALE,
) -> tuple[MlpModel, TrainingReport]:
    """Train a network on contracts ``x`` and their oracle ``prices``.

    The validation split holds out round(validation_fraction * size) points
    chosen by a seeded shuffle; every epoch reshuffles the remaining
    training rows and walks them in mini-batches (the final batch may be
    short). Fully deterministic given (x, prices, widths, config).
    """
    x_all, y_all = _labeled(x, prices)
    train_size, val_size = split_sizes(len(y_all), config)

    model = init_model(
        widths, stage_seed(config.seed, "init"), input_box=input_box,
        target_scale=target_scale,
    )
    shuffle_rng = generator(stage_seed(config.seed, "shuffle"))
    order = shuffle_rng.permutation(len(y_all))
    val_idx = order[:val_size]
    train_idx = order[val_size:]
    x_train, y_train = x_all[train_idx], y_all[train_idx]
    x_val, y_val = x_all[val_idx], y_all[val_idx]
    y_train_scaled = scale_targets(model, y_train)

    state = adam_init(model.parameters())
    train_curve: list[float] = []
    val_curve: list[float] = []
    for _ in range(config.epochs):
        epoch_order = shuffle_rng.permutation(train_size)
        for start in range(0, train_size, config.batch_size):
            rows = epoch_order[start : start + config.batch_size]
            grads = _gradient_arrays(model, x_train[rows], y_train_scaled[rows])
            state = adam_step(state, grads, config)
            model.set_parameters(state.tensors)
        train_curve.append(_mse_usd(model, x_train, y_train))
        val_curve.append(_mse_usd(model, x_val, y_val))
    report = TrainingReport(
        train_mse=tuple(train_curve),
        validation_mse=tuple(val_curve),
        train_size=train_size,
        validation_size=val_size,
    )
    return model, report


def error_sample(model: MlpModel, x, prices) -> ErrorSample:
    """Sorted absolute differences, in USD, between the oracle ``prices`` of
    contracts ``x`` and the model's predictions."""
    x, prices = _labeled(x, prices)
    return ErrorSample(np.abs(prices - forward_batch(model, x)))


def save_model(model: MlpModel, path) -> None:
    """Persist a model as a self-describing JSON document."""
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "layer_widths": list(model.layer_widths),
        "activation": "relu",
        "input_lower": model.input_lower.tolist(),
        "input_upper": model.input_upper.tolist(),
        "target_scale": model.target_scale,
        "target_offset": 0.0,
        "layers": [
            {"weights": w.tolist(), "bias": b.tolist()}
            for w, b in zip(model.weights, model.biases)
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def load_model(path) -> MlpModel:
    """Load a model persisted by :func:`save_model`."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    version = doc.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise ValueError(
            f"{path}: unsupported model format_version {version!r} "
            f"(expected {MODEL_FORMAT_VERSION})"
        )
    for key, fixed in (("activation", "relu"), ("target_offset", 0.0)):
        if doc.get(key) != fixed:
            raise ValueError(f"{path}: unsupported {key} {doc.get(key)!r}")
    try:
        return MlpModel(
            layer_widths=doc["layer_widths"],
            weights=[np.asarray(layer["weights"], dtype=float) for layer in doc["layers"]],
            biases=[np.asarray(layer["bias"], dtype=float) for layer in doc["layers"]],
            input_lower=doc["input_lower"],
            input_upper=doc["input_upper"],
            target_scale=doc["target_scale"],
        )
    except KeyError as exc:
        raise ValueError(f"{path}: missing field {exc}") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
