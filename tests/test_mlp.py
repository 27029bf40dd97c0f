import io
import json
import math
import re
import tracemalloc
from collections import namedtuple

import numpy as np
import pytest

from errortail.mlp import (
    EVAL_BLOCK_ROWS,
    TrainConfig,
    _forward_raw,
    adam_step,
    error_sample,
    forward_batch,
    gradient,
    init_model,
    load_model,
    save_model,
    scale_targets,
    split_sizes,
    train,
)
from errortail.pricing import (
    C_TRAIN,
    DomainBox,
    OptionContract,
    contract_terms,
    price_contracts,
    sample_uniform,
)
from errortail.rng import generator, stage_seed

# toy box keeping every contract field strictly positive
UNIT_BOX = DomainBox(lower=(0.01,) * 5, upper=(1.0,) * 5)


def toy_set(
    count: int, seed: int, box: DomainBox = UNIT_BOX
) -> tuple[np.ndarray, np.ndarray]:
    """Contract terms x with the linear target y = sum of the raw inputs."""
    g = generator(seed)
    lower = np.asarray(box.lower)
    upper = np.asarray(box.upper)
    x = lower + (upper - lower) * g.random((count, 5))
    return x, x.sum(axis=1)


def min_preactivation_magnitude(model, x: np.ndarray) -> float:
    """Smallest |pre-activation| over the hidden layers for a batch."""
    a = (x - model.input_lower) / (model.input_upper - model.input_lower)
    smallest = np.inf
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = a @ w.T + b
        if i == len(model.weights) - 1:
            break
        smallest = min(smallest, float(np.min(np.abs(z))))
        a = np.maximum(z, 0.0)
    return smallest


def finite_difference_cases(count: int, margin: float = 1e-3):
    """Deterministic random (model, x, y) cases safe for the FD oracle.

    Central differences are only a valid derivative oracle away from the
    relu kinks, so configurations with a hidden pre-activation within
    ``margin`` of zero are skipped (the margin is 100x the FD step).
    """
    cases = []
    seed = 0
    while len(cases) < count:
        g = generator(seed)
        widths = [5, int(g.integers(2, 6)), int(g.integers(2, 6)), 1]
        model = init_model(widths, seed=seed, input_box=UNIT_BOX, target_scale=1.0)
        x, y = toy_set(int(g.integers(2, 9)), seed=seed + 100)
        if min_preactivation_magnitude(model, x) > margin:
            cases.append((model, x, y))
        seed += 1
    return cases


class TestInit:
    def test_deterministic(self):
        a = init_model([5, 4, 1], seed=3)
        b = init_model([5, 4, 1], seed=3)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)

    def test_shapes_chain(self):
        model = init_model([5, 7, 3, 1], seed=0)
        assert [w.shape for w in model.weights] == [(7, 5), (3, 7), (1, 3)]
        assert [b.shape for b in model.biases] == [(7,), (3,), (1,)]
        assert all(np.all(b == 0.0) for b in model.biases)

    def test_weight_variance_matches_fan_scaling(self):
        model = init_model([5, 400, 400, 1], seed=1)
        for w in model.weights[:2]:
            fan_out, fan_in = w.shape
            expected = 2.0 / (fan_in + fan_out)
            assert np.var(w) == pytest.approx(expected, rel=0.2)

    def test_rejects_bad_widths(self):
        with pytest.raises(ValueError, match="input dimension"):
            init_model([4, 4, 1], seed=0)
        with pytest.raises(ValueError, match="last width"):
            init_model([5, 4, 2], seed=0)
        with pytest.raises(ValueError, match="at least"):
            init_model([5], seed=0)
        with pytest.raises(TypeError, match="integer, got True"):
            init_model([5, 4, True], seed=0)
        with pytest.raises(TypeError, match="^a width must be an integer, got 4.5$"):
            init_model([5, 4.5, 1], seed=0)
        with pytest.raises(ValueError, match="^a width must be >= 1, got 0$"):
            init_model([5, 0, 1], seed=0)


class TestForward:
    def test_zero_model_outputs_target_offset(self):
        # the target offset is fixed at 0
        model = init_model([5, 4, 1], seed=0)
        for w in model.weights:
            w[:] = 0.0
        contract = OptionContract(1.0, 12.0, 0.02, 0.01, 0.2)
        assert forward_batch(model, contract_terms([contract]))[0] == 0.0

    def test_output_bias_scales_to_target_units(self):
        model = init_model([5, 4, 1], seed=0, target_scale=100.0)
        for w in model.weights:
            w[:] = 0.0
        model.biases[-1][:] = 0.25
        contract = OptionContract(1.0, 12.0, 0.02, 0.01, 0.2)
        assert forward_batch(model, contract_terms([contract]))[0] == 25.0

    def test_single_chain_composes_affine_maps(self):
        # 1-wide relu chain with positive signals reduces to a product of maps
        model = init_model([5, 1, 1], seed=0, input_box=UNIT_BOX, target_scale=2.0)
        model.weights[0][:] = np.array([[1.0, 1.0, 1.0, 1.0, 1.0]])
        model.biases[0][:] = 0.5
        model.weights[1][:] = np.array([[3.0]])
        model.biases[1][:] = 1.0
        contract = OptionContract(0.5, 0.5, 0.5, 0.5, 0.5)
        z = (0.5 - 0.01) / 0.99
        expected = ((z * 5 + 0.5) * 3.0 + 1.0) * 2.0
        got = forward_batch(model, contract_terms([contract]))[0]
        assert got == pytest.approx(expected, rel=1e-15)

    def test_matches_per_neuron_recomputation(self):
        model = init_model([5, 4, 1], seed=9, input_box=UNIT_BOX)
        x, _ = toy_set(6, seed=10)
        batch_out = forward_batch(model, x)
        for row, want in zip(x, batch_out):
            z = (row - model.input_lower) / (model.input_upper - model.input_lower)
            hidden = [
                max(0.0, float(np.dot(model.weights[0][j], z)) + model.biases[0][j])
                for j in range(4)
            ]
            raw = float(np.dot(model.weights[1][0], hidden)) + model.biases[1][0]
            assert raw * model.target_scale == pytest.approx(
                float(want), abs=1e-12
            )

    def test_normalizer_round_trip_on_box_corners(self):
        model = init_model([5, 4, 1], seed=0)
        lower = np.asarray(C_TRAIN.lower)
        upper = np.asarray(C_TRAIN.upper)
        for corner in (lower, upper, (lower + upper) / 2):
            z = (corner - model.input_lower) / (model.input_upper - model.input_lower)
            back = model.input_lower + z * (model.input_upper - model.input_lower)
            assert np.max(np.abs(back - corner)) <= 1e-12
        z_low = (lower - model.input_lower) / (model.input_upper - model.input_lower)
        z_high = (upper - model.input_lower) / (model.input_upper - model.input_lower)
        assert np.array_equal(z_low, np.zeros(5))
        assert np.array_equal(z_high, np.ones(5))


class TestBlockedEvaluation:
    """forward_batch evaluates fixed blocks of EVAL_BLOCK_ROWS rows from row 0."""

    WIDTHS = [5, 32, 32, 1]

    def model_and_rows(self, rows: int):
        model = init_model(self.WIDTHS, seed=21)
        for i, b in enumerate(model.biases):
            b[:] = generator(22 + i).normal(scale=0.1, size=b.shape)
        return model, contract_terms(sample_uniform(C_TRAIN, rows, seed=23))

    def test_equals_the_blocks_concatenated_bitwise(self):
        model, x = self.model_and_rows(2 * EVAL_BLOCK_ROWS + 37)
        blocks = [
            _forward_raw(model, x[s : s + EVAL_BLOCK_ROWS])[0] * model.target_scale
            for s in range(0, len(x), EVAL_BLOCK_ROWS)
        ]
        assert [len(b) for b in blocks] == [EVAL_BLOCK_ROWS, EVAL_BLOCK_ROWS, 37]
        assert np.array_equal(forward_batch(model, x), np.concatenate(blocks))

    @pytest.mark.parametrize("rows", [1, 37, 300, EVAL_BLOCK_ROWS])
    def test_one_block_is_the_whole_call_bitwise(self, rows):
        model, x = self.model_and_rows(rows)
        whole = _forward_raw(model, x)[0] * model.target_scale
        assert np.array_equal(forward_batch(model, x), whole)

    def test_two_calls_give_the_same_bits(self):
        model, x = self.model_and_rows(3 * EVAL_BLOCK_ROWS + 5)
        first = forward_batch(model, x)
        assert np.array_equal(forward_batch(model, x), first)
        assert np.array_equal(error_sample(model, x, first).values, np.zeros(len(x)))

    def test_empty_input_gives_empty_output(self):
        model, x = self.model_and_rows(1)
        assert forward_batch(model, x[:0]).shape == (0,)

    def test_memory_is_bounded_by_the_block(self):
        # a whole-call pass over 20,000 rows at width 300 holds two
        # (20,000 x 300) activations, about 96 MB
        rows, width = 20_000, 300
        model = init_model([5, width, width, width, 1], seed=24)
        x = contract_terms(sample_uniform(C_TRAIN, rows, seed=25))
        tracemalloc.start()
        try:
            out = forward_batch(model, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == (rows,)
        assert peak < 4 * EVAL_BLOCK_ROWS * width * 8 + rows * 8


class TestGradient:
    def test_zero_at_perfect_fit(self):
        model = init_model([5, 3, 1], seed=2, input_box=UNIT_BOX)
        x, _ = toy_set(8, seed=3)
        grads = gradient(model, x, forward_batch(model, x))
        assert all(np.all(g == 0.0) for g in grads)

    def test_residual_doubling_doubles_output_bias_gradient(self):
        model = init_model([5, 3, 1], seed=2, input_box=UNIT_BOX)
        x, y = toy_set(8, seed=3)
        pred = forward_batch(model, x)
        residual = y - pred
        once = gradient(model, x, pred + residual)
        twice = gradient(model, x, pred + 2.0 * residual)
        np.testing.assert_allclose(twice[-1], 2.0 * once[-1], rtol=1e-12)

    def test_matches_central_finite_differences(self):
        step = 1e-5
        for model, x, y in finite_difference_cases(count=6):
            grads = gradient(model, x, y)
            y_scaled = scale_targets(model, y)

            def loss() -> float:
                from errortail.mlp import _forward_raw

                raw, _ = _forward_raw(model, x)
                return float(np.mean((raw - y_scaled) ** 2))

            params = model.parameters()
            worst = 0.0
            for tensor, grad in zip(params, grads):
                flat = tensor.reshape(-1)
                grad_flat = grad.reshape(-1)
                for idx in range(flat.size):
                    keep = flat[idx]
                    flat[idx] = keep + step
                    up = loss()
                    flat[idx] = keep - step
                    down = loss()
                    flat[idx] = keep
                    fd = (up - down) / (2.0 * step)
                    denom = max(abs(fd), abs(grad_flat[idx]), 1e-8)
                    worst = max(worst, abs(fd - grad_flat[idx]) / denom)
            assert worst <= 1e-4

    def test_rejects_empty_batch(self):
        model = init_model([5, 3, 1], seed=2)
        with pytest.raises(ValueError, match="equal length"):
            gradient(model, np.empty((0, 5)), np.array([1.0]))
        with pytest.raises(ValueError, match="nonempty"):
            gradient(model, np.empty((0, 5)), np.empty(0))


class TestAdam:
    def config(self, **kw):
        return TrainConfig(seed=0, **kw)

    def moments(self, params):
        return [(np.zeros_like(p), np.zeros_like(p)) for p in params]

    def test_first_step_is_signed_learning_rate(self):
        config = self.config(learning_rate=0.01)
        start = np.array([1.0, -2.0, 3.0])
        params = [start.copy()]
        grads = [np.array([0.5, -0.25, 1.0])]
        adam_step(params, self.moments(params), grads, 1, config)
        expected = start - config.learning_rate * grads[0] / (
            np.abs(grads[0]) + config.adam_epsilon
        )
        np.testing.assert_allclose(params[0], expected, rtol=1e-12)

    def test_zero_gradient_is_fixed_point(self):
        config = self.config()
        params = [np.array([1.0, 2.0])]
        moments = self.moments(params)
        for step in range(1, 6):
            adam_step(params, moments, [np.zeros(2)], step, config)
        assert np.array_equal(params[0], np.array([1.0, 2.0]))

    def test_two_steps_match_scalar_recurrence(self):
        config = self.config(learning_rate=0.1)
        grad_value = 0.7
        params = [np.array([1.0])]
        moments = self.moments(params)
        for step in (1, 2):
            adam_step(params, moments, [np.array([grad_value])], step, config)

        theta, m, v = 1.0, 0.0, 0.0
        b1, b2, eps, lr = (
            config.adam_beta1,
            config.adam_beta2,
            config.adam_epsilon,
            config.learning_rate,
        )
        for t in (1, 2):
            m = b1 * m + (1 - b1) * grad_value
            v = b2 * v + (1 - b2) * grad_value**2
            theta -= lr * (m / (1 - b1**t)) / ((v / (1 - b2**t)) ** 0.5 + eps)
        assert params[0][0] == pytest.approx(theta, abs=1e-12)
        assert moments[0][0][0] == pytest.approx(m, abs=1e-15)
        assert moments[0][1][0] == pytest.approx(v, abs=1e-15)

    def test_rejects_mismatched_shapes(self):
        params = [np.ones(3), np.zeros((2, 2))]
        moments = self.moments(params)
        with pytest.raises(ValueError, match="shape"):
            adam_step(params, moments, [np.ones(3), np.zeros(3)], 1, self.config())
        assert np.array_equal(params[0], np.ones(3))
        assert not moments[0][0].any()


FrozenAdamState = namedtuple("FrozenAdamState", "tensors m v step")


def frozen_adam_step(state, grads, config):
    """The functional Adam step train ran before its update went in place:
    every step returns new arrays. Kept unchanged as the trainer's
    bit-identity oracle."""
    b1, b2 = config.adam_beta1, config.adam_beta2
    t = state.step + 1
    c1 = 1.0 - b1**t
    c2 = 1.0 - b2**t
    tensors, ms, vs = [], [], []
    for theta, m, v, g in zip(state.tensors, state.m, state.v, grads):
        m_new = b1 * m + (1.0 - b1) * g
        v_new = b2 * v + (1.0 - b2) * (g * g)
        update = (m_new / c1) / (np.sqrt(v_new / c2) + config.adam_epsilon)
        tensors.append(theta - config.learning_rate * update)
        ms.append(m_new)
        vs.append(v_new)
    return FrozenAdamState(tensors, ms, vs, t)


def frozen_train(x, prices, widths, config, input_box):
    """train's split, shuffles and batches on frozen_adam_step, which hands
    the model new arrays after every step."""
    train_size, val_size = split_sizes(len(prices), config)
    model = init_model(widths, stage_seed(config.seed, "init"), input_box=input_box)
    shuffle_rng = generator(stage_seed(config.seed, "shuffle"))
    train_idx = shuffle_rng.permutation(len(prices))[val_size:]
    x_train, y_train = x[train_idx], prices[train_idx]
    params = model.parameters()
    zeros = [np.zeros_like(p) for p in params]
    state = FrozenAdamState([p.copy() for p in params], zeros, zeros, 0)
    for _ in range(config.epochs):
        epoch_order = shuffle_rng.permutation(train_size)
        for start in range(0, train_size, config.batch_size):
            rows = epoch_order[start : start + config.batch_size]
            state = frozen_adam_step(state, gradient(model, x_train[rows], y_train[rows]), config)
            model.weights[:] = state.tensors[0::2]
            model.biases[:] = state.tensors[1::2]
    return model


def test_train_matches_the_frozen_functional_step_bitwise():
    # 103 rows: 21 held out, 82 trained in batches of 20, the last one of 2
    x, y = toy_set(103, seed=15)
    config = TrainConfig(epochs=3, batch_size=20, seed=4)
    assert split_sizes(len(y), config) == (82, 21)
    model, _ = train(x, y, [5, 8, 8, 1], config, input_box=UNIT_BOX)
    oracle = frozen_train(x, y, [5, 8, 8, 1], config, UNIT_BOX)
    for got, want in zip(model.parameters(), oracle.parameters(), strict=True):
        assert np.array_equal(got, want)


# inputs rejected by name before any work: a NaN or inf real, and a
# non-finite price (a NaN one would train an all-NaN model)
def _toy_with_price(row, price):
    x, y = toy_set(60, seed=9)
    y[row] = price
    return x, y


NEWLY_REJECTED = [
    *(
        pytest.param(
            lambda name=name, value=value: TrainConfig(**{name: value}),
            f"{name} must be in (0, inf), got {value}", id=f"{name}-{value}",
        )
        for name in ("learning_rate", "adam_epsilon")
        for value in (math.nan, math.inf)
    ),
    pytest.param(
        lambda: train(*_toy_with_price(3, math.nan), [5, 4, 1], TrainConfig(batch_size=10),
                      input_box=UNIT_BOX),
        "row 3: price must be finite, got nan", id="train-nan-price",
    ),
    pytest.param(
        lambda: error_sample(init_model([5, 4, 1], 0, UNIT_BOX), *_toy_with_price(7, math.inf)),
        "row 7: price must be finite, got inf", id="errors-inf-price",
    ),
]


@pytest.mark.parametrize("call, message", NEWLY_REJECTED)
def test_rejected_by_name(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


class TestTrainConfigValidation:
    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError, match="epochs"):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError, match="validation_fraction"):
            TrainConfig(validation_fraction=1.0)
        with pytest.raises(ValueError, match="adam_beta1"):
            TrainConfig(adam_beta1=1.0)

    @pytest.mark.parametrize("value", [True, 2.5, 2.0])
    @pytest.mark.parametrize("name", ["epochs", "batch_size", "seed"])
    def test_counts_and_seed_must_be_integers(self, name, value):
        message = re.escape(f"{name} must be an integer, got {value!r}")
        with pytest.raises(TypeError, match=f"^{message}$"):
            TrainConfig(**{name: value})

    def test_numpy_integers_are_stored_as_int(self):
        config = TrainConfig(epochs=np.int64(3), batch_size=np.int64(7), seed=np.int64(-2))
        values = (config.epochs, config.batch_size, config.seed)
        assert values == (3, 7, -2)
        assert {type(v) for v in values} == {int}


class TestTrain:
    def config(self, **kw):
        defaults = dict(epochs=5, batch_size=50, validation_fraction=0.2, seed=1)
        defaults.update(kw)
        return TrainConfig(**defaults)

    def test_learns_linear_target(self):
        data = toy_set(1000, seed=4)
        config = self.config(epochs=60)
        model, report = train(*data, [5, 16, 16, 16, 1], config, input_box=UNIT_BOX,
                              target_scale=1.0)
        assert report.train_mse[-1] < 1e-3

    def test_deterministic_weights(self):
        data = toy_set(400, seed=5)
        config = self.config(epochs=3)
        model_a, _ = train(*data, [5, 8, 8, 8, 1], config, input_box=UNIT_BOX)
        model_b, _ = train(*data, [5, 8, 8, 8, 1], config, input_box=UNIT_BOX)
        for wa, wb in zip(model_a.weights, model_b.weights):
            assert np.array_equal(wa, wb)
        for ba, bb in zip(model_a.biases, model_b.biases):
            assert np.array_equal(ba, bb)

    def test_validation_split_size(self):
        data = toy_set(403, seed=6)
        _, report = train(*data, [5, 4, 1], self.config(epochs=1), input_box=UNIT_BOX)
        assert report.validation_size == round(0.2 * 403)
        assert report.train_size == 403 - round(0.2 * 403)

    def test_learning_improves_over_epochs(self):
        data = toy_set(1000, seed=7)
        _, report = train(
            *data, [5, 16, 16, 1], self.config(epochs=10), input_box=UNIT_BOX,
            target_scale=1.0,
        )
        assert report.train_mse[9] < report.train_mse[0]

    def test_rejects_undersized_dataset(self):
        data = toy_set(50, seed=8)
        with pytest.raises(ValueError, match="training"):
            train(*data, [5, 4, 1], self.config(batch_size=50), input_box=UNIT_BOX)


class TestErrorSampleFromModel:
    def test_perfect_model_gives_zero_errors(self):
        model = init_model([5, 4, 1], seed=0, input_box=UNIT_BOX)
        x, _ = toy_set(20, seed=9)
        sample = error_sample(model, x, forward_batch(model, x))
        assert np.all(sample.values == 0.0)

    def test_single_pair(self):
        model = init_model([5, 4, 1], seed=0, input_box=UNIT_BOX)
        contract = OptionContract(0.5, 0.5, 0.5, 0.5, 0.5)
        pred = forward_batch(model, contract_terms([contract]))[0]
        sample = error_sample(model, [contract], [pred + 0.1])
        assert sample.values[0] == pytest.approx(0.1, abs=1e-12)

    def test_elementwise_definition(self):
        model = init_model([5, 6, 1], seed=3, input_box=UNIT_BOX)
        x, y = toy_set(100, seed=10)
        sample = error_sample(model, x, y)
        direct = np.abs(y - forward_batch(model, x))
        assert np.array_equal(sample.values, np.sort(direct))


def test_contract_list_and_array_agree_bitwise():
    contracts = sample_uniform(C_TRAIN, 200, seed=14)
    x = contract_terms(contracts)
    prices = price_contracts(contracts, steps=20)
    assert np.array_equal(price_contracts(x, steps=20), prices)
    config = TrainConfig(epochs=2, batch_size=40, seed=3)
    from_list, _ = train(contracts, prices, [5, 8, 1], config)
    from_array, _ = train(x, prices, [5, 8, 1], config)
    for a, b in zip(from_list.parameters(), from_array.parameters()):
        assert np.array_equal(a, b)
    assert np.array_equal(
        error_sample(from_list, contracts, prices).values,
        error_sample(from_list, x, prices).values,
    )


class TestPersistence:
    def test_round_trip_bitwise(self, tmp_path):
        model = init_model([5, 4, 3, 1], seed=12)
        model.biases[0][:] = generator(1).random(4)
        path = tmp_path / "model.json"
        save_model(model, path)
        back = load_model(path)
        assert back.layer_widths == model.layer_widths
        assert back.target_scale == model.target_scale
        for wa, wb in zip(model.weights, back.weights):
            assert np.array_equal(wa, wb)
        for ba, bb in zip(model.biases, back.biases):
            assert np.array_equal(ba, bb)
        assert np.array_equal(back.input_lower, model.input_lower)

    def test_loaded_model_predicts_identically(self, tmp_path):
        model = init_model([5, 8, 1], seed=13)
        path = tmp_path / "model.json"
        save_model(model, path)
        back = load_model(path)
        x = contract_terms([OptionContract(1.0, 11.5, 0.02, 0.01, 0.3)])
        assert forward_batch(back, x)[0] == forward_batch(model, x)[0]

    def test_saved_bytes_match_the_streaming_encoder(self, tmp_path):
        model = init_model([5, 8, 1], seed=14)
        model.biases[0][:] = generator(2).random(8)
        path = tmp_path / "model.json"
        save_model(model, path)
        text = path.read_text()
        streamed = io.StringIO()
        json.dump(json.loads(text), streamed)
        assert text == streamed.getvalue() + "\n"

    def test_version_guard(self, tmp_path):
        model = init_model([5, 4, 1], seed=0)
        path = tmp_path / "model.json"
        save_model(model, path)
        text = path.read_text().replace('"format_version": 1', '"format_version": 99')
        path.write_text(text)
        with pytest.raises(ValueError, match="format_version"):
            load_model(path)


def _three_outputs(doc):
    layers = [doc["layers"][0], {"weights": [[0.1] * 4] * 3, "bias": [0.0] * 3}]
    return {**doc, "layer_widths": [5, 4, 3], "layers": layers}


def _with_layer(index, **arrays):
    def edit(doc):
        layers = list(doc["layers"])
        layers[index] = {**layers[index], **arrays}
        return {**doc, "layers": layers}

    return edit


# model-file edits (each returns the document to write) that break the model
# rule, and the message naming it
BROKEN_MODEL_FILES = [
    pytest.param(
        lambda doc: {**doc, "layer_widths": [5, 4, 1, 7]}, "last width must be 1, got 7",
        id="widths-beyond-layers",
    ),
    pytest.param(
        lambda doc: {**doc, "layer_widths": [5, 4, 4, 1]}, "4 layer widths need 3 layers, got 2",
        id="missing-layer",
    ),
    pytest.param(_three_outputs, "last width must be 1, got 3", id="three-outputs"),
    pytest.param(
        lambda doc: {**doc, "target_scale": 0.0}, "target_scale must be finite and nonzero",
        id="zero-target-scale",
    ),
    pytest.param(
        lambda doc: {**doc, "input_upper": doc["input_lower"]}, "need lower < upper",
        id="flat-input-box",
    ),
    pytest.param(
        lambda doc: {**doc, "target_offset": 3.5}, "unsupported target_offset 3.5",
        id="target-offset",
    ),
    pytest.param(
        lambda doc: {key: doc[key] for key in doc if key != "target_scale"},
        "missing field 'target_scale'",
        id="missing-field",
    ),
    pytest.param(lambda doc: [doc], "expected a JSON object, got list", id="not-an-object"),
    # a field of the wrong JSON type: the file and the field are named
    pytest.param(
        lambda doc: {**doc, "layer_widths": 5}, "field 'layer_widths': 'int' object is not",
        id="int-widths",
    ),
    pytest.param(
        lambda doc: {**doc, "layer_widths": [5.5, 4, 1]},
        "field 'layer_widths': a width must be an integer, got 5.5",
        id="fractional-width",
    ),
    # a JSON true is no width and no number
    pytest.param(
        lambda doc: {**doc, "layer_widths": [5, 4, True]},
        "field 'layer_widths': a width must be an integer, got True", id="bool-width",
    ),
    pytest.param(
        lambda doc: {**doc, "input_lower": [True, *doc["input_lower"][1:]]},
        "field 'input_lower': expected a number, got True", id="bool-input-lower",
    ),
    pytest.param(
        lambda doc: {**doc, "target_scale": True},
        "field 'target_scale': expected a number, got True", id="bool-target-scale",
    ),
    pytest.param(
        lambda doc: {**doc, "target_scale": "100"},
        "field 'target_scale': expected a number, got '100'", id="string-target-scale",
    ),
    pytest.param(
        lambda doc: {**doc, "layers": 3}, "field 'layers': 'int' object is not", id="int-layers"
    ),
    pytest.param(
        lambda doc: {**doc, "layers": [{"bias": [0.0]}]}, "field 'layers': missing 'weights'",
        id="layer-without-weights",
    ),
    pytest.param(
        lambda doc: {**doc, "target_scale": None}, "field 'target_scale': ",
        id="null-target-scale",
    ),
    pytest.param(
        lambda doc: {**doc, "input_lower": None},
        "field 'input_lower': expected a list of numbers, got None", id="null-input-lower",
    ),
    pytest.param(
        _with_layer(0, bias=[float("nan")] * 4), "layer 0 weights and biases must be finite",
        id="nan-bias",
    ),
    pytest.param(
        _with_layer(1, weights=[[float("inf")] * 4]), "layer 1 weights and biases must be finite",
        id="inf-weight",
    ),
    # a layer element that is no JSON number is not read as one
    pytest.param(
        _with_layer(1, bias=[True]),
        "field 'layers': layer 1 holds an element that is not a number", id="bool-bias",
    ),
    pytest.param(
        lambda doc: _with_layer(1, weights=[["0.5", *doc["layers"][1]["weights"][0][1:]]])(doc),
        "field 'layers': layer 1 holds an element that is not a number", id="string-weight",
    ),
    # a JSON integer beyond the float range
    pytest.param(
        _with_layer(1, bias=[10**400]), "field 'layers': int too large to convert to float",
        id="huge-int-bias",
    ),
    pytest.param(
        lambda doc: {**doc, "target_scale": 10**400},
        "field 'target_scale': int too large to convert to float", id="huge-int-target-scale",
    ),
]


@pytest.mark.parametrize("edit, message", BROKEN_MODEL_FILES)
def test_load_model_applies_the_model_rule(tmp_path, edit, message):
    path = tmp_path / "model.json"
    save_model(init_model([5, 4, 1], seed=0), path)
    doc = json.loads(path.read_text())
    path.write_text(json.dumps(edit(doc)))
    with pytest.raises(ValueError, match=f"^{path}: {message}"):
        load_model(path)
