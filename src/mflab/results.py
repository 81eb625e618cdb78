"""Trajectory container shared by the effective and finite-size solvers.

Both solvers emit a time grid, one reduced density matrix per grid point and
run diagnostics, through from_stack, which checks the whole (T, d, d) array
of states at once (operators.check_density_stack). That read-only stack is
the one copy of the trajectory; states, the same matrices as DensityMatrix
objects, is built from it on first read.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import ValidationError
from .operators import DensityMatrix, check_density_stack


class PropagationResult:
    """Direct construction stacks DensityMatrix states as given, unvalidated.
    A limit trajectory sets orbits, the (T, d, d) orbit per atom it mixes."""

    orbits: tuple = ()

    def __init__(self, times, states, diagnostics: dict | None = None):
        states = tuple(states)
        self._hold(times, np.array([s.data for s in states]),
                   states[0].dims if states else (), diagnostics)

    def _hold(self, times, stack: np.ndarray, dims, diagnostics) -> None:
        times = np.array(times, dtype=float)
        if times.ndim != 1 or len(times) != len(stack):
            raise ValidationError(f"{len(times)} times for {len(stack)} states")
        if len(stack) == 0:
            raise ValidationError("empty trajectory")
        times.setflags(write=False)
        stack.setflags(write=False)
        self.times, self.stack, self.dims = times, stack, tuple(dims)
        self.diagnostics = {} if diagnostics is None else diagnostics

    @cached_property
    def states(self) -> tuple[DensityMatrix, ...]:
        return tuple(DensityMatrix(s, self.dims, validate=False)
                     for s in self.stack)

    @classmethod
    def from_stack(cls, times, stack, dims,
                   diagnostics: dict | None = None) -> "PropagationResult":
        """The trajectory whose state at times[k] is stack[k].

        Every state gets the checks a validated DensityMatrix gets, run over
        the whole stack at once; the first failing state raises the same
        ValidationError it would raise alone.
        """
        stack = np.array(stack, dtype=complex)
        if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
            raise ValidationError(
                f"expected a (T, d, d) stack of states, got shape {stack.shape}")
        check_density_stack(stack)
        result = cls.__new__(cls)
        result._hold(times, stack, dims, diagnostics)
        return result
