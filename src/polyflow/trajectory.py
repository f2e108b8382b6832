"""Time-stamped trajectories with scalar diagnostics."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Any


@dataclass
class Trajectory:
    """Sampled states along a run plus per-sample diagnostic columns.

    ``diagnostics`` maps column name -> list of floats, one per sample;
    ``meta`` holds run-level information (segments, parameters, notes).
    """

    times: list[float]
    states: list[Any]
    diagnostics: dict[str, list[float]] = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        n = len(self.times)
        if len(self.states) != n:
            raise ValueError("times and states must have equal length")
        for name, col in self.diagnostics.items():
            if len(col) != n:
                raise ValueError(f"diagnostic column '{name}' has wrong length")

    def column(self, name: str) -> list[float]:
        return self.diagnostics[name]

    def write_csv(self, path) -> None:
        """Write ``t, <diagnostic columns>`` rows."""
        cols = self.diagnostics
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["t", *cols.keys()])
            for i, t in enumerate(self.times):
                w.writerow([repr(float(t))]
                           + [repr(float(c[i])) for c in cols.values()])
