"""Nonincreasing rearrangements of grid functions, exactly.

A sampled function is a step function taking each cell value on a cell of
measure h^n, so its nonincreasing rearrangement is again a step function: sort
the absolute cell values in descending order.  All level-set bookkeeping is
done with integer cell counts multiplied by the cell volume, which makes the
distribution function of the sample and the level measures of its profile
agree bit for bit, not just to rounding.

The iterated variant rearranges along the distinguished axis 0 first (per
slice), then along the flattened complement (per level), producing a table
that is nonincreasing in both indices and equimeasurable with the input.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .gridfn import GridFunction

__all__ = [
    "DecreasingProfile",
    "IteratedProfile",
    "decreasing_rearrangement",
    "double_star",
    "iterated_rearrangement",
    "distribution_function",
]


@dataclass(frozen=True)
class DecreasingProfile:
    """Step profile v_1 > v_2 > ... on runs of integer cell counts.

    values are strictly decreasing and positive; counts are the run lengths in
    cells; cell_volume converts counts to measure.  The profile is 0 beyond
    its total support measure.  The zero function gives the empty profile.
    """

    values: np.ndarray
    counts: np.ndarray
    cell_volume: float
    _cum_counts: np.ndarray = field(init=False, repr=False, compare=False)
    _cum_integral: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        counts = np.asarray(self.counts, dtype=np.int64)
        if values.shape != counts.shape or values.ndim != 1:
            raise ValueError("values and counts must be 1-d arrays of equal length")
        if values.size:
            if not (np.all(values > 0) and np.all(np.diff(values) < 0)):
                raise ValueError("values must be positive and strictly decreasing")
            if not np.all(counts > 0):
                raise ValueError("counts must be positive")
        if not self.cell_volume > 0:
            raise ValueError("cell_volume must be positive")
        values.setflags(write=False)
        counts.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "_cum_counts", np.cumsum(counts))
        object.__setattr__(self, "_cum_integral",
                           np.cumsum(values * counts) * self.cell_volume)

    @property
    def breakpoints(self) -> np.ndarray:
        """Right endpoints of the runs, as measures."""
        return self._cum_counts * self.cell_volume

    @property
    def support_measure(self) -> float:
        return float(self.breakpoints[-1]) if self.values.size else 0.0

    @property
    def total_mass(self) -> float:
        """Integral of the profile over (0, oo)."""
        return float(self._cum_integral[-1]) if self.values.size else 0.0

    def value_at(self, t):
        """Profile values at the measures t >= 0 (right-continuous), an array of t's shape."""
        t = np.asarray(t, dtype=float)
        if np.any(t < 0):
            raise ValueError("t must be nonnegative")
        if not self.values.size:
            return np.zeros(t.shape)
        idx = np.searchsorted(self.breakpoints, t, side="right")
        return np.append(self.values, 0.0)[idx]

    def integral_up_to(self, t):
        """Exact integrals of the profile over (0, t], an array of t's shape."""
        t = np.asarray(t, dtype=float)
        if np.any(t < 0):
            raise ValueError("t must be nonnegative")
        if not self.values.size:
            return np.zeros(t.shape)
        breaks = self.breakpoints
        idx = np.searchsorted(breaks, t, side="right")
        full = np.concatenate(([0.0], self._cum_integral))[idx]
        prev_break = np.concatenate(([0.0], breaks))[idx]
        padded_vals = np.append(self.values, 0.0)
        # past the support the partial run is empty, also at t = inf (no 0 * inf)
        partial = padded_vals[idx] * np.clip(np.minimum(t, breaks[-1]) - prev_break, 0.0, None)
        return full + partial

    def level_measure(self, y) -> float:
        """Measure of {profile > y}; exact (integer count times cell volume)."""
        if y < 0:
            raise ValueError("y must be nonnegative")
        if not self.values.size:
            return 0.0
        n_runs = int(np.searchsorted(-self.values, -y, side="left"))
        if n_runs == 0:
            return 0.0
        return int(self._cum_counts[n_runs - 1]) * self.cell_volume

def decreasing_rearrangement(f: GridFunction) -> DecreasingProfile:
    """Nonincreasing rearrangement of |f| as a merged-run step profile."""
    a = np.abs(f.values).ravel()
    a = a[a > 0]
    vals, counts = np.unique(a, return_counts=True)  # ascending
    return DecreasingProfile(vals[::-1].copy(), counts[::-1].copy(), f.cell_volume)


def double_star(profile: DecreasingProfile, t):
    """Running averages (1/t) * integral_0^t of the profile at t > 0, an array of t's shape."""
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0):
        raise ValueError("t must be positive")
    return profile.integral_up_to(t) / t


def distribution_function(f: GridFunction, y) -> float:
    """Measure of {|f| > y}; exact cell count times cell volume."""
    if y < 0:
        raise ValueError("y must be nonnegative")
    return int(np.count_nonzero(np.abs(f.values) > y)) * f.cell_volume


@dataclass(frozen=True)
class IteratedProfile:
    """Order-2 rearrangement table, nonincreasing in both indices.

    Row i corresponds to the measure interval [i, i+1) * row_step along the
    distinguished axis, column j to [j, j+1) * col_step over the flattened
    complement.  The table is a permutation of the input cell values, so it is
    equimeasurable with the input under the product measure.
    """

    table: np.ndarray
    row_step: float
    col_step: float

    def __post_init__(self):
        table = np.asarray(self.table, dtype=float)
        if table.ndim != 2:
            raise ValueError("table must be 2-d")
        if np.any(table < 0):
            raise ValueError("table must be nonnegative")
        if np.any(np.diff(table, axis=0) > 0) or np.any(np.diff(table, axis=1) > 0):
            raise ValueError("table must be nonincreasing along both axes")
        if not (self.row_step > 0 and self.col_step > 0):
            raise ValueError("steps must be positive")
        table.setflags(write=False)
        object.__setattr__(self, "table", table)


def iterated_rearrangement(f: GridFunction) -> IteratedProfile:
    """Rearrange |f| along axis 0 per complement slice, then along the complement.

    Sorting the complement (rows) after the per-slice sort preserves the
    monotonicity in the first index, so the result decreases in both.
    """
    spec = f.spec
    if spec.dim < 2:
        raise ValueError("iterated rearrangement needs dim >= 2")
    a = np.abs(f.values).reshape(spec.points[0], -1)
    a = np.sort(a, axis=0)[::-1]   # per complement slice, along the distinguished axis
    a = np.sort(a, axis=1)[:, ::-1]  # per level, along the flattened complement
    row_step = spec.spacing[0]
    col_step = spec.cell_volume / row_step
    return IteratedProfile(a.copy(), row_step, col_step)
