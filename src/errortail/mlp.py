"""A small fully connected network trained from scratch with Adam.

Everything lives in numpy: dense forward pass, exact backpropagation of the
mean squared error, the Adam update with bias correction, and the training
loop with a validation split and seeded mini-batch shuffling. The Adam
update works in place on the model's own weight and bias arrays, so training
holds one copy of the parameters plus their two moment arrays. Inputs are
mapped componentwise onto the unit hypercube using the training-domain
bounds, and targets are scaled down by a constant (prices top out around
160 USD, so the default scale is 100).

Training is deterministic: the split, every shuffle, and the weight
initialization derive from the config seed, and batch gradients are reduced
in fixed index order, so identical seeds reproduce identical weights bit
for bit.

Evaluation (:func:`forward_batch`, and through it :func:`error_sample` and
the per-epoch training curves) walks its rows in fixed blocks of
``EVAL_BLOCK_ROWS`` from row 0 and holds one block per layer, so its working
memory does not grow with the row count. A row's last bit depends on the
rows that share its matrix product, so the reproducibility unit is the call:
the same model and the same rows in the same order give the same bits, while
a subset or a reordering of the rows may differ in the last ulp.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from itertools import chain
from typing import Sequence

import numpy as np

from .pricing import C_TRAIN, DomainBox, contract_terms
from .rng import check_integer, generator, stage_seed
from .tail import ErrorSample

MODEL_FORMAT_VERSION = 1
DEFAULT_TARGET_SCALE = 100.0
# rows per evaluation block: one 512 x 300 activation is 1.2 MB, which fits
# a 2 MB L2, and a set of at most 512 rows is evaluated in one product
EVAL_BLOCK_ROWS = 512


def check_fields(config) -> None:
    """Apply the rule that each field of a config dataclass declares in its
    metadata. A ``minimum`` field is stored as the int :func:`check_integer`
    returns (a seed's minimum is None); an ``upper`` field must lie strictly
    between 0 and its upper bound, so NaN and inf are rejected."""
    for f in fields(config):
        value, rule = getattr(config, f.name), f.metadata
        if "minimum" in rule:
            object.__setattr__(config, f.name, check_integer(f.name, value, rule["minimum"]))
        elif "upper" in rule and not 0.0 < value < rule["upper"]:
            raise ValueError(f"{f.name} must be in (0, {rule['upper']}), got {value}")


@dataclass
class TrainConfig:
    """Optimizer and schedule settings for :func:`train`. Each field
    declares its rule, and :func:`check_fields` applies the rules."""

    epochs: int = field(default=20, metadata={"minimum": 1})
    batch_size: int = field(default=100, metadata={"minimum": 1})
    validation_fraction: float = field(default=0.2, metadata={"upper": 1})
    learning_rate: float = field(default=1e-3, metadata={"upper": math.inf})
    adam_beta1: float = field(default=0.9, metadata={"upper": 1})
    adam_beta2: float = field(default=0.999, metadata={"upper": 1})
    adam_epsilon: float = field(default=1e-8, metadata={"upper": math.inf})
    seed: int = field(default=0, metadata={"minimum": None})

    def __post_init__(self) -> None:
        check_fields(self)


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
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise ValueError(f"layer {i} weights and biases must be finite")
        self.target_scale = float(self.target_scale)
        if not (math.isfinite(self.target_scale) and self.target_scale != 0.0):
            raise ValueError(
                f"target_scale must be finite and nonzero, got {self.target_scale}"
            )

    def parameters(self) -> list[np.ndarray]:
        """Flat parameter list, weight then bias per layer: the model's own
        arrays, so writing into them changes the model."""
        out: list[np.ndarray] = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out


def check_widths(widths: Sequence[int], input_dim: int) -> tuple[int, ...]:
    """Widths as ints: positive integers (:func:`check_integer`), at least
    two, first = input_dim, last = 1."""
    widths = tuple(check_integer("a width", w, 1) for w in widths)
    if len(widths) < 2:
        raise ValueError("widths needs at least an input and an output layer")
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
    otherwise one layer at a time is held. The rows of ``x`` form one matrix
    product per layer, so a row's last bit can depend on the other rows:
    :func:`forward_batch` calls this on fixed blocks, which bounds its memory
    and makes a row's bits depend only on the rows of its block."""
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
    """Predicted prices in USD for an (n, d) input matrix, evaluated in
    blocks of ``EVAL_BLOCK_ROWS`` rows from row 0 (see the module notes)."""
    x = np.asarray(x, dtype=float)
    raw = np.empty(len(x))
    for start in range(0, len(x), EVAL_BLOCK_ROWS):
        stop = start + EVAL_BLOCK_ROWS
        raw[start:stop] = _forward_raw(model, x[start:stop])[0]
    raw *= model.target_scale
    return raw


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
    """Contract terms (see :func:`contract_terms`) and their finite oracle
    prices in USD (a negative target is valid) as arrays of equal length."""
    x = contract_terms(x)
    prices = np.asarray(prices, dtype=float)
    if prices.shape != (len(x),):
        raise ValueError("contracts and prices must have equal length")
    bad = np.flatnonzero(~np.isfinite(prices))
    if bad.size:
        raise ValueError(f"row {bad[0]}: price must be finite, got {float(prices[bad[0]])}")
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


def adam_step(
    params: Sequence[np.ndarray],
    moments: Sequence[tuple[np.ndarray, np.ndarray]],
    grads: Sequence[np.ndarray],
    step: int,
    config: TrainConfig,
) -> None:
    """Bias-corrected Adam update number ``step`` (counted from 1), in place
    on the parameter arrays ``params`` and their first and second moments
    ``moments``, one (m, v) pair per parameter array. The shapes are checked
    before any array changes."""
    if len(grads) != len(params):
        raise ValueError("gradient list does not match the parameter list")
    for theta, g in zip(params, grads):
        if g.shape != theta.shape:
            raise ValueError(
                f"gradient shape {g.shape} does not match parameter shape {theta.shape}"
            )
    b1, b2 = config.adam_beta1, config.adam_beta2
    c1 = 1.0 - b1**step
    c2 = 1.0 - b2**step
    for theta, (m, v), g in zip(params, moments, grads):
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        theta -= config.learning_rate * ((m / c1) / (np.sqrt(v / c2) + config.adam_epsilon))


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

    params = model.parameters()
    moments = [(np.zeros_like(p), np.zeros_like(p)) for p in params]
    step = 0
    train_curve: list[float] = []
    val_curve: list[float] = []
    for _ in range(config.epochs):
        epoch_order = shuffle_rng.permutation(train_size)
        for start in range(0, train_size, config.batch_size):
            rows = epoch_order[start : start + config.batch_size]
            grads = _gradient_arrays(model, x_train[rows], y_train_scaled[rows])
            step += 1
            adam_step(params, moments, grads, step, config)
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
    # json.dumps runs the C encoder; json.dump streams through the Python one
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc) + "\n")


def load_model(path) -> MlpModel:
    """Load a model persisted by :func:`save_model`."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: expected a JSON object, got {type(doc).__name__}")
    version = doc.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise ValueError(
            f"{path}: unsupported model format_version {version!r} "
            f"(expected {MODEL_FORMAT_VERSION})"
        )
    for key, fixed in (("activation", "relu"), ("target_offset", 0.0)):
        if doc.get(key) != fixed:
            raise ValueError(f"{path}: unsupported {key} {doc.get(key)!r}")

    def doc_field(key, convert):
        if key not in doc:
            raise ValueError(f"{path}: missing field {key!r}")
        try:
            return convert(doc[key])
        except KeyError as exc:
            raise ValueError(f"{path}: field {key!r}: missing {exc}") from None
        except (ValueError, TypeError, OverflowError) as exc:
            raise ValueError(f"{path}: field {key!r}: {exc}") from None

    widths = doc_field(
        "layer_widths", lambda widths: tuple(check_integer("a width", w, 1) for w in widths)
    )
    layers = doc_field("layers", lambda layers: [
        _layer_arrays(index, layer) for index, layer in enumerate(layers)
    ])
    lower = doc_field("input_lower", _vector)
    upper = doc_field("input_upper", _vector)
    target_scale = doc_field("target_scale", _number)
    try:
        return MlpModel(
            widths, [w for w, _ in layers], [b for _, b in layers], lower, upper, target_scale
        )
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _layer_arrays(index: int, layer) -> tuple[np.ndarray, np.ndarray]:
    """A layer's weight rows and bias as arrays; every element must be a JSON
    number, so true, a string, null or a nested list is not read as one."""
    weights, bias = layer["weights"], layer["bias"]
    if not {float, int}.issuperset(map(type, chain(bias, chain.from_iterable(weights)))):
        raise ValueError(f"layer {index} holds an element that is not a number")
    return np.asarray(weights, dtype=float), np.asarray(bias, dtype=float)


def _number(value) -> float:
    """A JSON number as a float; true, false and strings are no numbers."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _vector(values) -> np.ndarray:
    if not isinstance(values, list):
        raise ValueError(f"expected a list of numbers, got {values!r}")
    return np.array([_number(v) for v in values], dtype=float)
