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


def good_stack(n=5):
    ps = np.linspace(0.9, 0.5, n)
    return np.array([[[p, 0.1], [0.1, 1 - p]] for p in ps], dtype=complex)


def test_from_stack_keeps_the_stack_and_builds_the_states():
    times = np.linspace(0.0, 1.0, 5)
    stack = good_stack()
    res = PropagationResult.from_stack(times, stack, (2,), {"run": 1})
    assert res.dims == (2,)
    assert res.diagnostics == {"run": 1}
    assert not res.stack.flags.writeable and not res.times.flags.writeable
    # the caller's arrays are copied, not frozen in place
    assert times.flags.writeable and stack.flags.writeable
    assert np.array_equal(res.stack, stack)
    for k, s in enumerate(res.states):
        assert s.dims == (2,)
        assert np.array_equal(s.data, stack[k])


def test_from_stack_builds_no_density_matrix_until_states_is_read(monkeypatch):
    built = []
    post_init = DensityMatrix.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(DensityMatrix, "__post_init__", counting)
    stack = np.tile(good_stack(1), (201, 1, 1))
    res = PropagationResult.from_stack(np.linspace(0.0, 1.0, 201), stack, (2,))
    assert built == []
    states = res.states
    assert len(built) == 201 and res.states is states
    for k, s in enumerate(states):
        assert s.dims == (2,)
        assert np.array_equal(s.data, res.stack[k])


def test_direct_construction_keeps_its_states_unvalidated():
    bad = DensityMatrix(np.diag([1.2, -0.2]).astype(complex), (2,),
                        validate=False)
    res = PropagationResult(np.array([0.0]), (bad,), {"run": 2})
    assert res.dims == (2,) and len(res.states) == 1
    assert np.array_equal(res.stack[0], bad.data)
    assert np.array_equal(res.states[0].data, bad.data)
    assert res.diagnostics == {"run": 2}


# Each bad state fails exactly one of the four density-matrix checks, so a
# stacked validator that skipped any of them would let its stack through.
BAD_STATES = {
    "non_finite": np.full((2, 2), np.nan),
    "non_hermitian": [[0.5, 0.1], [0.0, 0.5]],
    "wrong_trace": [[0.6, 0.0], [0.0, 0.6]],
    "negative_eigenvalue": [[1.2, 0.0], [0.0, -0.2]],
}


@pytest.mark.parametrize("kind", sorted(BAD_STATES))
def test_from_stack_raises_the_single_state_message(kind):
    bad = np.array(BAD_STATES[kind], dtype=complex)
    with pytest.raises(ValidationError) as alone:
        DensityMatrix(bad, (2,))
    stack = good_stack()
    stack[2] = bad
    with pytest.raises(ValidationError) as stacked:
        PropagationResult.from_stack(np.linspace(0.0, 1.0, 5), stack, (2,))
    assert str(stacked.value) == str(alone.value)


def test_from_stack_reports_the_first_failing_state():
    stack = good_stack()
    stack[1] = BAD_STATES["negative_eigenvalue"]
    stack[3] = BAD_STATES["non_hermitian"]
    with pytest.raises(ValidationError, match="eigenvalue -2.00e-01"):
        PropagationResult.from_stack(np.linspace(0.0, 1.0, 5), stack, (2,))


def test_from_stack_shape_checks():
    with pytest.raises(ValidationError, match="stack of states"):
        PropagationResult.from_stack(np.array([0.0]), np.eye(2) / 2, (2,))
    with pytest.raises(ValidationError, match="3 times for 5 states"):
        PropagationResult.from_stack(np.linspace(0.0, 1.0, 3), good_stack(),
                                     (2,))
