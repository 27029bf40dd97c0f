"""The benchmark's tracer finds every function at the name its caller uses.

``perfbench/tracer.py`` wraps each traced call at its lookup name, such as
``experiment.sample_uniform`` or ``cli.gpd_sample``. A cleanup that drops one
of those imports would otherwise fail only a traced benchmark run. The
sampler likewise keeps the return type the workloads use.
"""

import importlib.util
from pathlib import Path

import pytest

from errortail.pricing import C_TEST, OptionContract, sample_uniform

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module._targets()


@pytest.mark.parametrize(
    "owner, attribute",
    [(owner, attribute) for owner, attribute, *_ in _targets()],
    ids=lambda value: getattr(value, "__name__", value),
)
def test_traced_name_resolves(owner, attribute):
    assert callable(getattr(owner, attribute, None))


def test_sample_uniform_returns_contracts_with_as_array():
    # perfbench/workloads.py calls .as_array() on the sampler's items and
    # the tests concatenate its result with another list
    contracts = sample_uniform(C_TEST, 3, seed=1)
    assert type(contracts) is list
    assert all(type(c) is OptionContract for c in contracts)
    assert [c.as_array().tolist() for c in contracts] == [list(c) for c in contracts]
