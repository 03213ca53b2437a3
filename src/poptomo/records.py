"""Measurement records: validated population time series plus file I/O.

A record holds the mean relative populations ``means[i, j]`` (sublevel i,
time j) and their shot-to-shot standard deviations, as obtained from
repeated destructive measurements.  On disk a record is a plain CSV
(``time_s, p_1..p_n, sigma_1..sigma_n``) with a JSON sidecar
(``<stem>.meta.json``) carrying repeats, generator configuration and any
ingestion warnings; the CSV itself is deterministic byte-for-byte for a
fixed config and seed.
"""

import csv
import json
import logging
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import ParseError, SchemaError

log = logging.getLogger(__name__)

# Measured populations are normalized per shot, but imaging losses leave
# some slack in how exactly the columns sum to one.
COLUMN_SUM_SLACK = 0.02

SIGMA_ABS_FLOOR = 1e-4


def shot_noise_floor(repeats=None, atoms_per_shot=None):
    """Smallest believable sigma for averaged destructive counting.

    With N atoms per shot and r repeats the binomial spread cannot fall
    below ~0.5/sqrt(r*N); without atom-count metadata an absolute floor
    applies.
    """
    floor = SIGMA_ABS_FLOOR
    if repeats and atoms_per_shot:
        floor = max(floor, 0.5 / math.sqrt(repeats * atoms_per_shot))
    return floor


@dataclass(eq=False)
class MeasurementRecord:
    """Times, mean populations and standard deviations for one experiment."""

    times: np.ndarray
    means: np.ndarray
    sigmas: np.ndarray
    repeats: int = 1
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float).ravel()
        # one layout for every record: reductions along time (the cost's
        # weight sums) round differently for C- and F-ordered arrays
        means = np.asarray(self.means, dtype=float, order="F")
        sigmas = np.asarray(self.sigmas, dtype=float, order="F")
        if times.size < 1 or not np.all(np.isfinite(times)):
            raise SchemaError("times", "must be a non-empty finite vector")
        if times[0] < 0.0 or np.any(np.diff(times) <= 0.0):
            raise SchemaError("times", "must be non-negative and strictly increasing")
        if means.ndim != 2 or means.shape[1] != times.size:
            raise SchemaError("means", f"expected (n, {times.size}) matrix, got {means.shape}")
        if not np.all(np.isfinite(means)):
            raise SchemaError("means", "contains non-finite entries")
        column_sums = means.sum(axis=0)
        worst = np.abs(column_sums - 1.0).max()
        if worst > COLUMN_SUM_SLACK:
            raise SchemaError("means", f"population columns must sum to 1 within {COLUMN_SUM_SLACK}, worst defect {worst:.3f}")
        if sigmas.shape != means.shape:
            raise SchemaError("sigmas", f"shape {sigmas.shape} != means shape {means.shape}")
        if not np.all(np.isfinite(sigmas)) or np.any(sigmas <= 0.0):
            raise SchemaError("sigmas", "must be strictly positive and finite")
        if self.repeats < 1:
            raise SchemaError("repeats", "must be at least 1")
        self.times = times
        self.means = means
        self.sigmas = sigmas

    @property
    def dim(self):
        return self.means.shape[0]

    @property
    def n_times(self):
        return self.times.size

    @property
    def span(self):
        return float(self.times[-1])


def floor_sigmas(sigmas, repeats=None, atoms_per_shot=None):
    """Apply the shot-noise floor; returns (floored, n_raised)."""
    floor = shot_noise_floor(repeats, atoms_per_shot)
    raised = int(np.count_nonzero(sigmas < floor))
    return np.maximum(sigmas, floor), raised


def sidecar_path(path):
    base, _ = os.path.splitext(os.fspath(path))
    return base + ".meta.json"


def atomic_write(path, text):
    """Write text to path through a sibling temporary file and a rename."""
    path = os.fspath(path)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def save_record(record, path):
    """Write the CSV and its JSON sidecar; floats round-trip exactly."""
    n = record.dim
    header = ["time_s"]
    header += [f"p_{i + 1}" for i in range(n)]
    header += [f"sigma_{i + 1}" for i in range(n)]
    lines = [",".join(header)]
    for j in range(record.n_times):
        row = [repr(float(record.times[j]))]
        row += [repr(float(v)) for v in record.means[:, j]]
        row += [repr(float(v)) for v in record.sigmas[:, j]]
        lines.append(",".join(row))
    atomic_write(path, "\n".join(lines) + "\n")
    sidecar = {"dim": n, "repeats": record.repeats, "meta": record.meta}
    atomic_write(sidecar_path(path), json.dumps(sidecar, indent=2) + "\n")


def _parse_float(text, line, column):
    try:
        return float(text)
    except ValueError:
        raise ParseError(f"expected a number, got {text!r}", line=line, column=column) from None


def load_record(path):
    """Read a record CSV (and sidecar, if present) back with validation.

    Zero sigma entries are raised to the shot-noise floor with a warning
    recorded in the metadata; negative sigmas are a schema error.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    rows = [r for r in rows if r and any(cell.strip() for cell in r)]
    if not rows:
        raise ParseError("empty record file", line=1)
    header = [c.strip() for c in rows[0]]
    if not header or header[0] != "time_s" or (len(header) - 1) % 2 != 0:
        raise ParseError(
            "header must be time_s, p_1..p_n, sigma_1..sigma_n", line=1
        )
    n = (len(header) - 1) // 2
    expected = ["time_s"] + [f"p_{i + 1}" for i in range(n)] + [f"sigma_{i + 1}" for i in range(n)]
    if header != expected:
        raise ParseError(f"unexpected header {header!r}", line=1)
    times, means, sigmas = [], [], []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise ParseError(
                f"expected {len(header)} columns, got {len(row)}", line=lineno
            )
        values = [_parse_float(cell, lineno, col + 1) for col, cell in enumerate(row)]
        times.append(values[0])
        means.append(values[1 : 1 + n])
        sigmas.append(values[1 + n :])
    times = np.array(times)
    means = np.array(means).T
    sigmas = np.array(sigmas).T

    repeats = 1
    meta = {}
    side = sidecar_path(path)
    if os.path.exists(side):
        with open(side, "r", encoding="utf-8") as fh:
            try:
                sidecar = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ParseError(f"sidecar is not valid JSON: {exc}", line=exc.lineno, column=exc.colno) from None
        if not isinstance(sidecar, dict) or not isinstance(sidecar.get("meta", {}), dict):
            raise SchemaError("sidecar", "expected an object whose 'meta' is an object")
        repeats = sidecar.get("repeats", 1)
        try:
            repeats = int(repeats)
        except (TypeError, ValueError, OverflowError):
            raise SchemaError("repeats", f"expected an integer, got {repeats!r}") from None
        meta = dict(sidecar.get("meta", {}))

    if np.any(sigmas < 0.0):
        raise SchemaError("sigmas", "negative standard deviation")
    atoms = meta.get("config", {}).get("atoms_per_shot")
    floored, raised = floor_sigmas(sigmas, repeats, atoms)
    if raised:
        message = f"{raised} sigma entries raised to the shot-noise floor"
        log.warning("%s: %s", path, message)
        meta.setdefault("warnings", []).append(message)
    return MeasurementRecord(
        times=times, means=means, sigmas=floored, repeats=repeats, meta=meta
    )
