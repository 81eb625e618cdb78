import numpy as np
import pytest

from mflab.errors import ValidationError
from mflab.operators import DensityMatrix, pauli
from mflab.results import PropagationResult


def sample_result():
    times = np.array([0.0, 0.5, 1.0])
    states = tuple(DensityMatrix(np.array([[p, 0], [0, 1 - p]], dtype=complex), (2,))
                   for p in (1.0, 0.75, 0.5))
    return PropagationResult(times, states, {"run": 1})


def test_purity_and_expectations():
    res = sample_result()
    assert np.allclose(np.array([s.purity() for s in res.states]), [1.0, 0.625, 0.5])
    z = pauli("z").data
    assert np.allclose([np.trace(s.data @ z).real for s in res.states],
                       [1.0, 0.5, 0.0])
    assert np.max(np.array([abs(complex(np.trace(s.data)) - 1.0) for s in res.states])) < 1e-15
    assert res.states[-1].purity() == pytest.approx(0.5)


def test_shape_validation():
    times = np.array([0.0, 1.0])
    one = (DensityMatrix(np.eye(2) / 2, (2,)),)
    with pytest.raises(ValidationError):
        PropagationResult(times, one)
