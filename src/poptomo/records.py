"""Measurement records, and the one file layer every poptomo file goes through.

A record holds the mean relative populations ``means[i, j]`` (sublevel i,
time j) and their shot-to-shot standard deviations, as obtained from
repeated destructive measurements.  ``sigmas`` are per-shot sample
standard deviations over the repeats (``ddof=1``), not standard errors of
the mean, while ``shot_noise_floor``, which bounds them from below, is on
the standard-error scale 0.5/sqrt(repeats * atoms_per_shot).  On disk a
record is a plain CSV (``time_s, p_1..p_n, sigma_1..sigma_n``) with a JSON
sidecar (``<stem>.meta.json``) carrying repeats, generator configuration
and any ingestion warnings; the CSV itself is deterministic byte-for-byte
for a fixed config and seed.

Every rule on a record's times and sidecar is stated here: the grid
tolerances ``GRID_ATOL``/``GRID_RTOL`` that ``infer_grid_step`` and
``load_record`` apply, and the sidecar's ``config.n_samples``, which
``load_record`` checks against the CSV and ``truncate_record`` rewrites.

Every JSON file (records' sidecars, states, models, configs, schedules,
results) is read by ``read_json`` and written by ``write_json``; every CSV
by ``write_csv``.  Fields are read through ``json_number`` and
``json_field``, so a value of the wrong JSON type is a ``SchemaError``
naming the field, and ``json_keys`` rejects a key its reader does not name.
"""

import copy
import csv
import io
import json
import logging
import math
import os
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import EmptyWindow, GridMismatch, ParseError, SchemaError, ValidationError

log = logging.getLogger(__name__)

# Measured populations are normalized per shot, but imaging losses leave
# some slack in how exactly the columns sum to one.
COLUMN_SUM_SLACK = 0.02

SIGMA_ABS_FLOOR = 1e-4

GRID_ATOL = 1e-12
GRID_RTOL = 1e-12
MAX_GRID_STEPS = 1_000_000


def shot_noise_floor(repeats=None, atoms_per_shot=None):
    """Smallest believable sigma for averaged destructive counting.

    With N atoms per shot and r repeats the binomial spread cannot fall
    below ~0.5/sqrt(r*N); without atom-count metadata an absolute floor
    applies.  ``None`` means a count is absent; a given count is at least 1.
    """
    if any(count is not None and not count >= 1 for count in (repeats, atoms_per_shot)):
        raise ValidationError(
            f"repeats and atoms_per_shot must be at least 1, got {repeats!r} and {atoms_per_shot!r}"
        )
    floor = SIGMA_ABS_FLOOR
    if repeats and atoms_per_shot:
        # a float product: a huge count gives an infinite root, not OverflowError
        floor = max(floor, 0.5 / math.sqrt(float(repeats) * atoms_per_shot))
    return floor


@dataclass(frozen=True, eq=False)
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
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "sigmas", sigmas)

    @property
    def dim(self):
        return self.means.shape[0]

    @property
    def n_times(self):
        return self.times.size

    @property
    def span(self):
        return float(self.times[-1])


def infer_grid_step(times):
    """Largest dt such that every time is an integer multiple of it.

    dt is the first positive time over the least common denominator of
    every positive time's ratio to it (the nearest fraction with a
    denominator up to MAX_GRID_STEPS), so a uniform grid reproduces its
    spacing bit-for-bit.  Each time t must lie within max(GRID_ATOL,
    GRID_RTOL * t) of a multiple of dt: a summed grid's rounding grows with t.
    A negative or non-finite time raises GridMismatch.
    """
    times = np.asarray(times, dtype=float)
    bad = ~((times >= 0.0) & (times < math.inf))
    if bad.any():
        raise GridMismatch(f"time {float(times[bad.argmax()])!r} is negative or not finite")
    positive = times[times > 0.0]
    if not positive.size:
        raise GridMismatch("no positive time in the record")
    first = positive[0]
    # more than MAX_GRID_STEPS steps; checked first so t / first stays finite
    if positive.max() / MAX_GRID_STEPS > first:
        raise GridMismatch("times do not share a reasonable uniform grid")
    # a ratio nearer than 0.5 / MAX_GRID_STEPS to an integer has that integer
    # as its limit fraction (any other p/q with q <= MAX_GRID_STEPS is at
    # least 1 / MAX_GRID_STEPS from it), so only the others can raise divisor
    ratios = positive / first
    divisor = 1
    for ratio in ratios[np.abs(ratios - np.rint(ratios)) >= 0.5 / MAX_GRID_STEPS]:
        divisor = math.lcm(divisor, Fraction(ratio).limit_denominator(MAX_GRID_STEPS).denominator)
        if divisor > MAX_GRID_STEPS:
            raise GridMismatch("times do not share a reasonable uniform grid")
    dt = first / divisor
    k = np.rint(times / dt)  # ties to even, as round does
    off_grid = np.abs(times - k * dt) > np.maximum(GRID_ATOL, GRID_RTOL * times)
    offending = off_grid | (k > MAX_GRID_STEPS)
    if offending.any():
        i = offending.argmax()
        if off_grid[i]:
            raise GridMismatch(
                f"time {float(times[i])!r} is not a multiple of the grid step {float(dt)!r}"
            )
        raise GridMismatch("times do not share a reasonable uniform grid")
    return dt


def truncate_record(record, window):
    """Restrict a record to times in [0, window]."""
    mask = record.times <= window + 1e-15
    kept = int(np.count_nonzero(mask))
    if kept < 2:
        raise EmptyWindow(
            f"window {float(window)!r} keeps {kept} time points, need at least 2"
        )
    meta = copy.deepcopy(record.meta)
    if isinstance(meta.get("config"), dict) and "n_samples" in meta["config"]:
        meta["config"]["n_samples"] = kept  # the sidecar's count stays the CSV's row count
    return MeasurementRecord(
        times=record.times[mask],
        means=record.means[:, mask],
        sigmas=record.sigmas[:, mask],
        repeats=record.repeats,
        meta=meta,
    )


def record_header(n):
    """CSV header of an n-level record."""
    return ["time_s"] + [f"p_{i + 1}" for i in range(n)] + [f"sigma_{i + 1}" for i in range(n)]


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


def write_json(path, obj):
    atomic_write(path, json.dumps(obj, indent=2) + "\n")


def write_csv(path, header, rows):
    """One line per row: ``repr(float(v))`` per value, an empty cell for None.

    ``float`` first: numpy 2 reprs a scalar as ``np.float64(...)``.
    """
    lines = [",".join(header)]
    lines += [",".join("" if v is None else repr(float(v)) for v in row) for row in rows]
    atomic_write(path, "\n".join(lines) + "\n")


def _read_text(path):
    """The file's UTF-8 text, newlines untranslated; ParseError naming the path otherwise."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"{path}: cannot read: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from None


def read_json(path):
    """Parse a JSON file whose top level must be an object."""
    text = _read_text(path)
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{path}: invalid JSON: {exc.msg}", line=exc.lineno, column=exc.colno
        ) from None
    except (RecursionError, ValueError) as exc:  # nested too deeply, or an over-long integer
        raise ParseError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise SchemaError(str(path), "expected a JSON object")
    return obj


def matrix_to_parts(matrix):
    """A complex matrix as JSON: separate real and imag nested lists."""
    m = np.asarray(matrix)
    return {"real": m.real.tolist(), "imag": m.imag.tolist()}


def parts_to_matrix(obj, what, extra=()):
    """The complex matrix ``matrix_to_parts`` wrote, bit for bit; a missing ``imag`` reads as zeros."""
    if not isinstance(obj, dict) or "real" not in obj:
        raise SchemaError(what, "expected 'real'/'imag' nested lists")
    json_keys(obj, what, ("real", "imag", "dim", *extra))
    real = _number_array(obj, "real", what)
    imag = _number_array(obj, "imag", what) if "imag" in obj else np.zeros_like(real)
    if real.shape != imag.shape:
        raise SchemaError(what, "real and imag parts differ in shape")
    if "dim" in obj:
        key = f"{what}.dim"
        # a scalar part has no rows: the state's or Hamiltonian's shape check names it
        if real.shape[:1] not in ((), (json_number({key: obj["dim"]}, key, None, int),)):
            raise SchemaError(key, f"says {obj['dim']!r} levels, the matrix has {len(real)} rows")
    # filled part by part: real + 1j * imag would turn a -0.0 into +0.0
    matrix = np.empty(real.shape, dtype=complex)
    matrix.real = real
    matrix.imag = imag
    return matrix


def _number_array(obj, part, what):
    """obj[part] as a float array; each entry is read by ``json_number`` as ``what.part``."""
    entries = np.asarray(obj[part], dtype=object)
    key = f"{what}.{part}"
    return np.array([json_number({key: v}, key, None) for v in entries.ravel()]).reshape(entries.shape)


def save_record(record, path):
    """Write the CSV and its JSON sidecar; floats round-trip exactly."""
    table = np.vstack([record.times, record.means, record.sigmas]).T
    write_csv(path, record_header(record.dim), table.tolist())
    write_json(sidecar_path(path), {"dim": record.dim, "repeats": record.repeats, "meta": record.meta})


def json_number(obj, key, default, kind=float):
    """obj[key] (or the default) as a finite number; SchemaError names a bad field.

    A JSON boolean or string is not a number, and an integer field rejects
    a fractional value instead of truncating it.
    """
    value = obj.get(key, default)
    fractional = kind is int and isinstance(value, float) and not value.is_integer()
    if not isinstance(value, (bool, str)) and not fractional:
        try:
            number = kind(value)
            if math.isfinite(number):
                return number
        except (TypeError, ValueError, OverflowError):
            pass
    what = "an integer" if kind is int else "a number"
    raise SchemaError(key, f"expected {what}, got {value!r}")


def json_keys(obj, what, keys):
    """SchemaError ``<what>.<key>`` for the first key of obj that is not among ``keys``."""
    for key in obj:
        if key not in keys:
            raise SchemaError(f"{what}.{key}", "unknown key")


_JSON_KINDS = {dict: "an object", list: "a list", bool: "a boolean"}


def json_field(obj, key, default, kind):
    """obj[key] (or the default), which must be a JSON object, list or boolean."""
    value = obj.get(key, default)
    if not isinstance(value, kind):
        raise SchemaError(key, f"expected {_JSON_KINDS[kind]}, got {value!r}")
    return value


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
    reader = csv.reader(io.StringIO(_read_text(path), newline=""))
    try:
        # (line of the row's end, row) for every row with a non-blank cell
        rows = [(reader.line_num, r) for r in reader if any(cell.strip() for cell in r)]
    except csv.Error as exc:
        raise ParseError(str(exc), line=reader.line_num) from None
    if not rows:
        raise ParseError("empty record file", line=1)
    header_line, header = rows[0][0], [c.strip() for c in rows[0][1]]
    n = (len(header) - 1) // 2
    if header != record_header(n):
        raise ParseError(
            f"header must be time_s, p_1..p_n, sigma_1..sigma_n, got {header!r}", line=header_line
        )
    table = np.empty((len(rows) - 1, len(header)))
    for k, (lineno, row) in enumerate(rows[1:]):
        if len(row) != len(header):
            raise ParseError(
                f"expected {len(header)} columns, got {len(row)}", line=lineno
            )
        table[k] = [_parse_float(cell, lineno, col + 1) for col, cell in enumerate(row)]
    times, means, sigmas = table[:, 0], table[:, 1 : 1 + n].T, table[:, 1 + n :].T

    repeats = 1
    meta = {}
    side = sidecar_path(path)
    if os.path.exists(side):
        sidecar = read_json(side)
        json_keys(sidecar, "sidecar", ("dim", "repeats", "meta"))
        if json_number(sidecar, "dim", n, int) != n:
            raise SchemaError("dim", f"sidecar says {sidecar['dim']!r} levels, the CSV has {n}")
        repeats = json_number(sidecar, "repeats", 1, int)
        meta = dict(json_field(sidecar, "meta", {}, dict))
    warnings = json_field(meta, "warnings", [], list)
    config = json_field(meta, "config", {}, dict)
    atoms = json_number(config, "atoms_per_shot", None, int) if "atoms_per_shot" in config else None
    if "n_samples" in config and json_number(config, "n_samples", None, int) != times.size:
        raise SchemaError("n_samples", f"sidecar says {config['n_samples']!r}, the CSV has {times.size}")
    if "sample_interval_s" in config:
        interval = json_number(config, "sample_interval_s", None)
        with np.errstate(over="ignore"):  # a grid past the largest float misses every time
            miss = np.abs(times - np.arange(times.size) * interval)
        if np.any(miss > np.maximum(GRID_ATOL, GRID_RTOL * times)):
            raise SchemaError("sample_interval_s", f"sidecar says {interval!r}, the CSV times are not its multiples")
    if repeats < 1 or (atoms is not None and atoms < 1):
        raise SchemaError("sidecar", "repeats and atoms_per_shot must be at least 1")

    if np.any(sigmas < 0.0):
        raise SchemaError("sigmas", "negative standard deviation")
    floor = shot_noise_floor(repeats, atoms)
    raised = int(np.count_nonzero(sigmas < floor))
    if raised:
        message = f"{raised} sigma entries raised to the shot-noise floor"
        log.warning("%s: %s", path, message)
        meta["warnings"] = warnings + [message]
    return MeasurementRecord(
        times=times, means=means, sigmas=np.maximum(sigmas, floor), repeats=repeats, meta=meta
    )
