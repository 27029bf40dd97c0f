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
the per-epoch training curves) cuts its rows into fixed blocks of
``EVAL_BLOCK_ROWS`` from row 0. A row's last bit depends on the rows that
share its matrix product, so the reproducibility unit is the call: the same
model and the same rows in the same order give the same bits, while a subset
or a reordering of the rows may differ in the last ulp. A block's bits
depend only on its own rows, so a call of at least ``_THREADED_BLOCKS``
blocks spreads them over one thread per usable core, each holding one block
per layer: working memory grows with the thread count, not the row count.

:func:`train` and :func:`forward_batch` pin numpy's bundled OpenBLAS to one
thread while they run and restore the caller's count on return, so their
bits do not depend on the BLAS thread count, and training uses no BLAS
threads. Where that library or its thread functions are not loaded there is
no pin: the blocks run one after another, and the BLAS thread count is part
of the reproducibility unit.
"""

from __future__ import annotations

import json
import math
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cache
from itertools import chain
from typing import Sequence

import numpy as np

from .pricing import C_TRAIN, DomainBox, contract_terms, usable_cores
from .rng import check_fields, check_integer, generator, stage_seed
from .tail import ErrorSample
from .textio import replacing

MODEL_FORMAT_VERSION = 1
DEFAULT_TARGET_SCALE = 100.0
# rows per evaluation block: one 512 x 300 activation is 1.2 MB, which fits
# a 2 MB L2, and a set of at most 512 rows is evaluated in one product. Each
# evaluation thread holds one block per layer.
EVAL_BLOCK_ROWS = 512
# a call of this many blocks or more spreads them over one thread per core; a
# 512 x 300 x 300 product runs ~2 ms with the GIL released, but below this the
# threads' start-up costs more CPU than the overlap saves
_THREADED_BLOCKS = 8
# Adam's decay rates and denominator guard: Kingma & Ba's (2015) defaults
ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON = 0.9, 0.999, 1e-8


@dataclass(frozen=True)
class TrainConfig:
    """Learning rate, schedule and seed for :func:`train`. Each field declares
    its rule (see :func:`~errortail.rng.check_fields`)."""

    epochs: int = field(default=20, metadata={"minimum": 1})
    batch_size: int = field(default=100, metadata={"minimum": 1})
    validation_fraction: float = field(default=0.2, metadata={"interval": (0, 1)})
    learning_rate: float = field(default=1e-3, metadata={"interval": (0, math.inf)})
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
    """Training and validation row counts; rejects an empty validation split
    and fewer training rows than a batch."""
    val_size = round(config.validation_fraction * size)
    if val_size < 1:
        raise ValueError(
            f"validation_fraction {config.validation_fraction} of a dataset of size "
            f"{size} holds out no validation rows; need at least 1"
        )
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


@cache
def _openblas():
    """The thread-count getter and setter of the loaded scipy-openblas
    library numpy ships, or None where it or either symbol is missing."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            path = next(
                line.split(maxsplit=5)[5].strip()
                for line in maps
                if "libscipy_openblas" in line
            )
        lib = ctypes.CDLL(path)
        get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except (OSError, StopIteration, IndexError, AttributeError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


# the BLAS thread count is one per process, and so is the pin's state: the
# number of pinned calls running and the count to restore after the last
_pin_lock = threading.Lock()
_pin_depth = 0
_pin_saved = 1


@contextmanager
def _one_blas_thread():
    """Run the body with the BLAS on one thread; yields whether it is pinned.
    Reentrant: the outermost entry saves the caller's count and the last
    exit restores it."""
    global _pin_depth, _pin_saved
    blas = _openblas()
    if blas is None:
        yield False
        return
    get, set_ = blas
    with _pin_lock:
        if _pin_depth == 0:
            _pin_saved = get()
            set_(1)
        _pin_depth += 1
    try:
        yield True
    finally:
        with _pin_lock:
            _pin_depth -= 1
            if _pin_depth == 0:
                set_(_pin_saved)


def forward_batch(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """Predicted prices in USD for an (n, d) input matrix, evaluated in
    blocks of ``EVAL_BLOCK_ROWS`` rows from row 0, on one thread per core
    for a long call (see the module notes)."""
    x, d = np.asarray(x, dtype=float), len(model.input_lower)
    if not (x.ndim == 2 and x.shape[1] == d):
        raise ValueError(f"inputs must be an (n, {d}) array, got shape {x.shape}")
    raw = np.empty(len(x))
    starts = range(0, len(x), EVAL_BLOCK_ROWS)

    def block(start: int) -> None:
        stop = start + EVAL_BLOCK_ROWS
        raw[start:stop] = _forward_raw(model, x[start:stop])[0]

    with _one_blas_thread() as pinned:
        threads = usable_cores() if pinned and len(starts) >= _THREADED_BLOCKS else 1
        if threads > 1:
            # opened per call, so no thread outlives it into a pricing fork
            with ThreadPoolExecutor(threads) as pool:
                list(pool.map(block, starts))
        else:
            for start in starts:
                block(start)
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
    """Bias-corrected Adam update number ``step`` (counted from 1) at
    ``config.learning_rate``, in place on the parameter arrays ``params`` and
    their first and second moments ``moments``, one (m, v) pair per parameter
    array. The shapes are checked before any array changes."""
    if len(grads) != len(params):
        raise ValueError("gradient list does not match the parameter list")
    for theta, g in zip(params, grads):
        if g.shape != theta.shape:
            raise ValueError(
                f"gradient shape {g.shape} does not match parameter shape {theta.shape}"
            )
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    c1 = 1.0 - b1**step
    c2 = 1.0 - b2**step
    for theta, (m, v), g in zip(params, moments, grads):
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        theta -= config.learning_rate * ((m / c1) / (np.sqrt(v / c2) + ADAM_EPSILON))


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


@_one_blas_thread()
def train(
    x,
    prices,
    widths: Sequence[int],
    config: TrainConfig,
    input_box: DomainBox = C_TRAIN,
    target_scale: float = DEFAULT_TARGET_SCALE,
) -> tuple[MlpModel, TrainingReport]:
    """Train a network on contracts ``x`` and their oracle ``prices``.

    The validation split holds out round(validation_fraction * size) points,
    at least one, chosen by a seeded shuffle; every epoch reshuffles the remaining
    training rows and walks them in mini-batches (the final batch may be
    short). Fully deterministic given (x, prices, widths, config), on one
    BLAS thread (see the module notes).
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
    with replacing(path) as fh:
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
        (_numbers(layer["weights"], 2), _numbers(layer["bias"], 1)) for layer in layers
    ])
    lower = doc_field("input_lower", lambda values: _numbers(values, 1))
    upper = doc_field("input_upper", lambda values: _numbers(values, 1))
    target_scale = doc_field("target_scale", lambda value: _numbers(value, 0))
    try:
        return MlpModel(
            widths, [w for w, _ in layers], [b for _, b in layers], lower, upper, target_scale
        )
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _numbers(value, ndim: int) -> np.ndarray:
    """JSON numbers in lists nested ``ndim`` deep (a lone number at 0) as a
    float array. Each element's type is checked once: true, a string, null
    or a list is no number, and a ragged list is no array."""
    items = [value]
    for _ in range(ndim):
        others = [item for item in items if type(item) is not list]
        if others:
            raise ValueError(f"expected a list of numbers, got {others[0]!r}")
        items = list(chain.from_iterable(items))
    if not {float, int}.issuperset(map(type, items)):
        bad = next(item for item in items if type(item) not in (float, int))
        raise ValueError(f"expected a number, got {bad!r}")
    return np.asarray(value, dtype=float)
