"""File formats: count data, zero-set constraint files, coefficient matrices.

Count data comes in two CSV shapes: ``cases`` (one row per observation,
one 0/1 column per response and covariate) and ``counts`` (one row per
cell with a trailing ``count`` column).  Zero-set files list one
constrained coefficient per line as ``D;E`` in brace notation, with ``#``
comments.  Coefficient matrices are CSV with a ``D`` label column and one
column per covariate subset.
"""

from __future__ import annotations

import csv
import io as _io
from typing import IO, Iterable

import numpy as np

from .inference import CountTable, DataError
from .lattice import SubsetLattice
from .params import KINDS, ParamMatrix


class ConfigError(ValueError):
    """Invalid run configuration (labels, flags, unsupported sizes)."""


def parse_labels(text: str, what: str) -> tuple[str, ...]:
    labels = tuple(part.strip() for part in text.split(","))
    if any(not lab for lab in labels):
        raise ConfigError(f"empty label in {what} list {text!r}")
    return labels


def _open_read(source: str | IO[str]) -> tuple[IO[str], bool]:
    if isinstance(source, str):
        return open(source, "r", encoding="utf-8", newline=""), True
    return source, False


# ---------------------------------------------------------------------------
# count data

def read_count_data(source: str | IO[str], responses: SubsetLattice,
                    covariates: SubsetLattice, fmt: str = "cases") -> CountTable:
    """Read a cases or counts CSV into a complete cell-count table."""
    if fmt not in ("cases", "counts"):
        raise ConfigError(f"unknown input format {fmt!r} (expected 'cases' or 'counts')")
    stream, close = _open_read(source)
    try:
        reader = csv.DictReader(stream)
        if reader.fieldnames is None:
            raise DataError("input file is empty (no header row)")
        # rows are keyed by these names, so a spaced header reads like a plain one
        reader.fieldnames = header = [name.strip() for name in reader.fieldnames]
        needed = list(responses.labels) + list(covariates.labels)
        if fmt == "counts":
            needed.append("count")
        missing = [name for name in needed if name not in header]
        if missing:
            raise DataError(f"input is missing columns: {', '.join(missing)}")

        counts = np.zeros((responses.size, covariates.size), dtype=np.int64)
        for row in reader:
            line = reader.line_num
            y_mask = _mask_from_row(row, responses, line)
            x_mask = _mask_from_row(row, covariates, line)
            if fmt == "counts":
                counts[y_mask, x_mask] += _count_from_row(row, line)
            else:
                counts[y_mask, x_mask] += 1
        return CountTable(responses, covariates, counts)
    finally:
        if close:
            stream.close()


def _mask_from_row(row: dict, lattice: SubsetLattice, line: int) -> int:
    mask = 0
    for i, lab in enumerate(lattice.labels):
        raw = (row.get(lab) or "").strip()
        if raw == "1":
            mask |= 1 << i
        elif raw != "0":
            raise DataError(f"line {line}: column {lab!r} must be 0 or 1, got {raw!r}")
    return mask


def _count_from_row(row: dict, line: int) -> int:
    raw = (row.get("count") or "").strip()
    try:
        value = int(raw)
    except ValueError:
        raise DataError(f"line {line}: count must be an integer, got {raw!r}") from None
    if value < 0:
        raise DataError(f"line {line}: count must be non-negative, got {value}")
    return value


def write_count_data(table: CountTable, stream: IO[str], fmt: str = "counts") -> None:
    """Write a count table as CSV; ``counts`` lists every cell, ``cases`` repeats rows."""
    if fmt not in ("cases", "counts"):
        raise ConfigError(f"unknown output format {fmt!r} (expected 'cases' or 'counts')")
    writer = csv.writer(stream, lineterminator="\n")
    header = list(table.responses.labels) + list(table.covariates.labels)
    if fmt == "counts":
        header.append("count")
    writer.writerow(header)
    for y in range(table.responses.size):
        y_bits = [(y >> i) & 1 for i in range(table.responses.ground_size)]
        for x in range(table.covariates.size):
            x_bits = [(x >> i) & 1 for i in range(table.covariates.ground_size)]
            n = int(table.counts[y, x])
            if fmt == "counts":
                writer.writerow(y_bits + x_bits + [n])
            else:
                for _ in range(n):
                    writer.writerow(y_bits + x_bits)


# ---------------------------------------------------------------------------
# zero-set files

def read_zero_set(source: str | IO[str], responses: SubsetLattice,
                  covariates: SubsetLattice) -> frozenset[tuple[int, int]]:
    """Parse ``D;E`` constraint lines (brace notation, # comments) into masks."""
    stream, close = _open_read(source)
    pairs: set[tuple[int, int]] = set()
    try:
        for line_no, raw in enumerate(stream, start=1):
            text = raw.split("#", 1)[0].strip()
            if not text:
                continue
            if ";" not in text:
                raise DataError(f"line {line_no}: expected 'D;E', got {text!r}")
            d_text, e_text = text.split(";", 1)
            try:
                d = responses.parse_subset(d_text)
                e = covariates.parse_subset(e_text)
            except ValueError as exc:
                raise DataError(f"line {line_no}: {exc}") from None
            if d == 0:
                raise DataError(f"line {line_no}: the empty response row cannot be constrained")
            pairs.add((d, e))
    finally:
        if close:
            stream.close()
    return frozenset(pairs)


def write_zero_set(zero_set: Iterable[tuple[int, int]], responses: SubsetLattice,
                   covariates: SubsetLattice, stream: IO[str]) -> None:
    ordered = sorted(zero_set, key=lambda de: (de[0].bit_count(), de[0], de[1].bit_count(), de[1]))
    for d, e in ordered:
        stream.write(f"{responses.format_mask(d)};{covariates.format_mask(e)}\n")


# ---------------------------------------------------------------------------
# coefficient / probability matrices

def read_param_matrix(source: str | IO[str], responses: SubsetLattice,
                      covariates: SubsetLattice, kind: str) -> ParamMatrix:
    """Read a matrix CSV: a ``D`` column plus one value column per covariate subset."""
    if kind not in KINDS:
        raise ConfigError(f"unknown parameter kind {kind!r} (expected one of {', '.join(KINDS)})")
    stream, close = _open_read(source)
    try:
        reader = csv.reader(stream)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError("matrix file is empty") from None
        if not header or header[0].strip() != "D":
            raise DataError("matrix header must start with a 'D' column")
        col_masks = []
        for name in header[1:]:
            try:
                col_masks.append(covariates.parse_subset(name))
            except ValueError as exc:
                raise DataError(f"matrix header: {exc}") from None
        if sorted(col_masks) != list(range(covariates.size)):
            raise DataError("matrix header must list every covariate subset exactly once")

        values = np.full((responses.size, covariates.size), np.nan)
        for row in reader:
            line = reader.line_num
            if not row or not any(cell.strip() for cell in row):
                continue
            try:
                d = responses.parse_subset(row[0])
            except ValueError as exc:
                raise DataError(f"line {line}: {exc}") from None
            if len(row) != len(header):
                raise DataError(f"line {line}: expected {len(header)} fields, got {len(row)}")
            if not np.all(np.isnan(values[d])):
                raise DataError(f"line {line}: duplicate row for {responses.format_mask(d)}")
            for e, cell in zip(col_masks, row[1:]):
                try:
                    values[d, e] = float(cell)
                except ValueError:
                    raise DataError(f"line {line}: not a number: {cell!r}") from None
        bad = np.isnan(values)
        if bad.any():
            d = int(np.argmax(bad.any(axis=1)))
            raise DataError(f"matrix is missing a row for {responses.format_mask(d)}")
        return ParamMatrix(kind, responses, covariates, values)
    finally:
        if close:
            stream.close()


def write_param_matrix(pm: ParamMatrix, stream: IO[str], decimals: int | None = None) -> None:
    """Write a matrix CSV; full precision by default so it can be read back."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["D"] + [pm.cols.format_mask(e) for e in range(pm.cols.size)])
    for d in range(pm.rows.size):
        row = [pm.rows.format_mask(d)]
        for e in range(pm.cols.size):
            x = float(pm.values[d, e])
            row.append(fmt_num(x, decimals) if decimals is not None else f"{x:.17g}")
        writer.writerow(row)


# ---------------------------------------------------------------------------
# number formatting shared by the CLI renderers

def fmt_num(x: float, decimals: int) -> str:
    """Fixed-point text with -0 normalized away; NaN prints as ``nan``."""
    if x is None or np.isnan(x):
        return "nan"
    text = f"{float(x):.{decimals}f}"
    if float(text) == 0.0:
        text = f"{0.0:.{decimals}f}"
    return text


def json_num(x: float | None, decimals: int = 6):
    """Round for JSON output; NaN and infinities become null."""
    if x is None:
        return None
    x = float(x)
    if np.isnan(x) or np.isinf(x):
        return None
    r = round(x, decimals)
    return 0.0 if r == 0 else r


def render_to_string(write_fn) -> str:
    buf = _io.StringIO()
    write_fn(buf)
    return buf.getvalue()
