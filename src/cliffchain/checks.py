"""Result record and eigenvalue clustering shared by the verification layers."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class VerificationReport:
    name: str
    passed: bool
    numbers: dict = field(default_factory=dict)
    notes: str = ""

    def summary(self) -> str:
        status = "pass" if self.passed else "FAIL"
        nums = ", ".join(f"{k}={v:.6g}" for k, v in sorted(self.numbers.items()))
        tail = f" ({self.notes})" if self.notes else ""
        return f"[{status}] {self.name}: {nums}{tail}"


def cluster_degeneracies(vals, tol: float = 1e-9) -> list[tuple[float, int]]:
    """(mean, multiplicity) clusters of vals, ascending.

    The values are sorted and split wherever consecutive ones differ by more
    than tol.
    """
    vals = np.sort(np.asarray(vals, dtype=float))
    out = []
    start = 0
    for k in range(1, len(vals) + 1):
        if k == len(vals) or vals[k] - vals[k - 1] > tol:
            chunk = vals[start:k]
            out.append((float(chunk.mean()), len(chunk)))
            start = k
    return out
