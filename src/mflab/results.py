"""Trajectory container shared by the effective and finite-size solvers.

Both solvers emit the same shape of data: a time grid, one reduced density
matrix per grid point, and run diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .operators import DensityMatrix


@dataclass(frozen=True)
class PropagationResult:
    times: np.ndarray
    states: tuple[DensityMatrix, ...]
    diagnostics: dict = field(default_factory=dict, compare=False)

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
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", tuple(self.states))
