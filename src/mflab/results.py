"""Trajectory container shared by the effective and finite-size solvers.

Both solvers emit the same shape of data: a time grid, one reduced density
matrix per grid point, and run diagnostics. The solvers build their results
with from_stack, which checks the whole (T, d, d) array of states at once
(see operators.check_density_stack). The result keeps that array read-only
as stack, for readers that work on every grid point at once, and states
holds the same matrices as DensityMatrix objects, one per grid point.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .operators import DensityMatrix, check_density_stack


@dataclass(frozen=True)
class PropagationResult:
    times: np.ndarray
    states: tuple[DensityMatrix, ...]
    diagnostics: dict = field(default_factory=dict, compare=False)
    stack: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        if times.ndim != 1 or len(times) != len(self.states):
            raise ValidationError(
                f"{len(times)} times for {len(self.states)} states")
        if len(self.states) == 0:
            raise ValidationError("empty trajectory")
        dims = {s.dims for s in self.states}
        if len(dims) != 1:
            raise ValidationError("trajectory states have mixed factor shapes")
        times.setflags(write=False)
        stack = np.stack([s.data for s in self.states])
        stack.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", tuple(self.states))
        object.__setattr__(self, "stack", stack)

    @property
    def dims(self) -> tuple[int, ...]:
        return self.states[0].dims

    @classmethod
    def from_stack(cls, times, stack, dims,
                   diagnostics: dict | None = None) -> "PropagationResult":
        """The trajectory whose state at times[k] is stack[k].

        Every state gets the checks a validated DensityMatrix gets, run over
        the whole stack at once; the first failing state raises the same
        ValidationError it would raise alone.
        """
        stack = np.asarray(stack, dtype=complex)
        if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
            raise ValidationError(
                f"expected a (T, d, d) stack of states, got shape {stack.shape}")
        check_density_stack(stack)
        states = tuple(DensityMatrix(s, dims, validate=False) for s in stack)
        return cls(times, states, {} if diagnostics is None else diagnostics)
