"""Correctness gate: input digest and oracle comparisons.

Every check raises :class:`GateError` on a mismatch; the runner turns
that into a nonzero exit without printing any numbers.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

#: Recorded digest of the generated input series.
INPUTS_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "inputs.json")


class GateError(Exception):
    """An output or input did not match its oracle."""


def series_digest(values: np.ndarray) -> str:
    """sha256 of the series as little-endian float64 bytes."""
    return hashlib.sha256(np.ascontiguousarray(values, dtype="<f8").tobytes()).hexdigest()


def check_series(values: np.ndarray, expected: dict | None = None) -> None:
    """The generated series must be the one the baselines were measured on."""
    if expected is None:
        with open(INPUTS_FILE, encoding="utf-8") as handle:
            expected = json.load(handle)
    if values.size != expected["points"]:
        raise GateError(
            f"input series has {values.size} points, expected {expected['points']}"
        )
    digest = series_digest(values)
    if digest != expected["sha256"]:
        raise GateError(f"input series sha256 {digest} != recorded {expected['sha256']}")


def same_positions(got: np.ndarray, want: np.ndarray) -> bool:
    """Byte-identical position arrays (dtype, shape and values)."""
    return (
        got.dtype == want.dtype
        and got.shape == want.shape
        and got.tobytes() == want.tobytes()
    )


def check_positions(what: str, got: np.ndarray, want: np.ndarray) -> None:
    if not same_positions(got, want):
        raise GateError(
            f"{what}: {got.size} positions differ from the oracle's {want.size}"
        )


def check_distances(what: str, got: np.ndarray, want: np.ndarray) -> None:
    if not np.array_equal(got, want):
        raise GateError(f"{what}: k-NN distances {got} != oracle {want}")
