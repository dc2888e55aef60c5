"""File formats: count data, zero-set constraint files, coefficient matrices.

Count data comes in two CSV shapes: ``cases`` (one row per observation,
one 0/1 column per response and covariate) and ``counts`` (one row per
cell with a trailing ``count`` column).  A cases body in the layout the
writers emit (one-character fields, ``\\n`` after every row) is read as a
byte matrix, checked by one vector test; any other body is parsed by
numpy's C tokenizer.  Either way the rows become cell indices for one
scatter; only when the parse refuses the input is the text, held in
memory, rescanned to name the bad line.
Zero-set files list one constrained coefficient per line as ``D;E`` in
brace notation, with ``#`` comments.  Coefficient matrices are CSV with a
``D`` label column and one column per covariate subset.

Output is written from encoded columns: numbers and labels become text a
column at a time, one encoder per format.  TSV tables and matrix files
take fixed-point text from :func:`fixed_floats`.  JSON documents (the
CLI's ``--out json``) take tokens from :func:`json_floats` and
:func:`json_strings` and are written by :func:`write_json` in the layout of
``json.dumps(indent=2)``, byte for byte; a list of records sharing their
keys (:class:`Records`) is printed through one template per record.
"""

from __future__ import annotations

import csv
import json
import math
import re
import warnings
from dataclasses import dataclass
from io import StringIO
from itertools import islice, repeat
from json.encoder import encode_basestring_ascii
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

from .inference import CountTable, DataError, sorted_pairs
from .lattice import SubsetLattice
from .params import KINDS, ParamMatrix


class ConfigError(ValueError):
    """Invalid run configuration (labels, flags, unsupported sizes)."""


def parse_labels(text: str, what: str) -> tuple[str, ...]:
    labels = tuple(part.strip() for part in text.split(","))
    if any(not lab for lab in labels):
        raise ConfigError(f"empty label in {what} list {text!r}")
    return labels


def _read_text(source: str | IO[str]) -> str:
    """The text of a path, or of a text stream from where it stands, less one leading BOM.

    Every reader parses this one string.  A path is read whole and decoded
    as UTF-8 in one call, so an undecodable byte is reported with its line;
    line ends are kept as they are.  A stream decodes as it reads, so its
    undecodable byte is reported without one.
    """
    if not isinstance(source, str):
        try:
            return source.read().removeprefix("\ufeff")
        except UnicodeDecodeError:
            raise DataError("input is not UTF-8 text") from None
    with open(source, "rb") as f:
        data = f.read()
    try:
        return data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        line = len(re.findall(rb"\r\n?|\n", data[:exc.start])) + 1
        raise DataError(f"line {line}: byte {data[exc.start]:#04x} is not UTF-8 text") from None


def _lines(text: str) -> Iterator[str]:
    """``StringIO(text, newline="")``'s lines, without its 4-byte-per-character copy."""
    return (m[0] for m in re.finditer(r"[^\r\n]*(?:\r\n?|\n)|[^\r\n]+", text))


# ---------------------------------------------------------------------------
# count data

def read_count_data(source: str | IO[str], responses: SubsetLattice,
                    covariates: SubsetLattice, fmt: str = "cases") -> CountTable:
    """Read a cases or counts CSV into a complete cell-count table."""
    if fmt not in ("cases", "counts"):
        raise ConfigError(f"unknown input format {fmt!r} (expected 'cases' or 'counts')")
    counted = fmt == "counts"
    text = _read_text(source)
    reader = csv.reader(_lines(text))
    header = next(reader, None)
    if header is None:
        raise DataError("input file is empty (no header row)")
    column = {name.strip(): i for i, name in enumerate(header)}   # last duplicate wins
    needed = list(responses.labels) + list(covariates.labels) + ["count"] * counted
    missing = [name for name in needed if name not in column]
    if missing:
        raise DataError(f"input is missing columns: {', '.join(missing)}")

    # covariate columns first: bit j of a row's cell index is column j, so
    # the index is y * 2**q + x, the row-major position in the table
    bits = list(covariates.labels) + list(responses.labels)
    usecols = [column[name] for name in bits + ["count"] * counted]
    head = "".join(islice(_lines(text), reader.line_num))   # the header's lines
    values = None if counted else _fixed_layout_values(text, head, len(header), usecols)
    if values is None:
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)   # loadtxt on a header-only file
                values = np.loadtxt(StringIO(text[len(head):]), delimiter=",",
                                    dtype=np.int64 if counted else np.int8, comments=None,
                                    quotechar='"', usecols=usecols, ndmin=2)
            if np.any(values < 0) or np.any(values[:, :len(bits)] > 1):
                raise ValueError("a value is out of range")
        except ValueError as exc:
            raise _bad_row(text, needed, counted, str(exc)) from None
    cell = sum(np.left_shift(values[:, j], j, dtype=np.intp) for j in range(len(bits)))
    counts = np.zeros(responses.size * covariates.size, dtype=np.int64)
    np.add.at(counts, cell, values[:, -1] if counted else 1)
    return CountTable(responses, covariates, counts.reshape(responses.size, covariates.size))


def _fixed_layout_values(text: str, head: str, width: int, usecols: list[int]) -> np.ndarray | None:
    """The ``usecols`` values of a cases text in the layout the writers emit, else None.

    In that layout every row after the ``head`` lines is ``width``
    one-character fields, commas between them and ``\\n`` after the last,
    so the body is a byte matrix with a digit in every even column, a comma
    in every odd one and the newline last; the used fields must also be 0
    or 1.  Any other body, which the general parse reads (or rejects with
    its line number), gives None.
    """
    row_bytes = 2 * width
    data, start = text.encode(), len(head.encode())
    if (len(data) - start) % row_bytes:
        return None
    rows = np.frombuffer(data, dtype=np.uint8, offset=start).reshape(-1, row_bytes)
    # byte k of a row lies in low[k] .. low[k] + span[k]; a byte below low[k]
    # wraps round to a large uint8, so one comparison tests every byte
    low = np.full(row_bytes, ord(","), dtype=np.uint8)
    low[0::2] = ord("0")
    low[-1] = ord("\n")
    span = np.zeros(row_bytes, dtype=np.uint8)
    span[0::2] = 9
    if np.any(rows - low > span):
        return None
    values = rows[:, 2 * np.array(usecols, dtype=np.intp)] - ord("0")
    return None if np.any(values > 1) else values


def _bad_row(text: str, needed: list[str], counted: bool, detail: str) -> DataError:
    """The error for the first row the parse refused, with its physical line number.

    Runs only after the parse has failed: it rescans ``text`` from the
    header, row by row, and applies the parse's rules to the needed columns.
    """
    reader = csv.reader(_lines(text))
    column = {name.strip(): i for i, name in enumerate(next(reader))}
    for row in filter(None, reader):
        for k, name in enumerate(needed):
            raw = row[column[name]].strip() if column[name] < len(row) else ""
            value = int(raw) if re.fullmatch(r"[+-]?[0-9]+", raw) else None   # as the parse
            where = f"line {reader.line_num}"
            if counted and k == len(needed) - 1:
                if value is None or value >= 2**63:
                    return DataError(f"{where}: count must be an integer, got {raw!r}")
                if value < 0:
                    return DataError(f"{where}: count must be non-negative, got {value}")
            elif value not in (0, 1):
                return DataError(f"{where}: column {name!r} must be 0 or 1, got {raw!r}")
    return DataError(f"input could not be parsed: {detail}")


def write_count_data(table: CountTable, stream: IO[str], fmt: str = "counts") -> None:
    """Write a count table as CSV; ``counts`` lists every cell, ``cases`` repeats rows."""
    if fmt not in ("cases", "counts"):
        raise ConfigError(f"unknown output format {fmt!r} (expected 'cases' or 'counts')")
    header = list(table.responses.labels) + list(table.covariates.labels)
    if fmt == "counts":
        header.append("count")
    csv.writer(stream, lineterminator="\n").writerow(header)
    # the text of every cell once, in row-major (y, x) order like the counts
    y_text = [",".join(str(y >> i & 1) for i in range(table.responses.ground_size))
              for y in range(table.responses.size)]
    x_text = [",".join(str(x >> i & 1) for i in range(table.covariates.ground_size))
              for x in range(table.covariates.size)]
    cells = zip([f"{y},{x}" for y in y_text for x in x_text], table.counts.ravel().tolist())
    if fmt == "counts":
        stream.writelines(f"{cell},{n}\n" for cell, n in cells)
    else:
        stream.writelines(f"{cell}\n" * n for cell, n in cells)


# ---------------------------------------------------------------------------
# zero-set files

def read_zero_set(source: str | IO[str], responses: SubsetLattice,
                  covariates: SubsetLattice) -> frozenset[tuple[int, int]]:
    """Parse ``D;E`` constraint lines (brace notation, # comments) into masks."""
    pairs: set[tuple[int, int]] = set()
    by_d, by_e = responses._mask_by_label.get, covariates._mask_by_label.get
    for line_no, raw in enumerate(StringIO(_read_text(source), newline=""), start=1):
        # write_zero_set's layout is two labels; a '#' (a label may hold one) cuts a comment
        d_text, _, e_text = raw.rstrip("\r\n").partition(";")
        d, e = by_d(d_text), by_e(e_text)
        if d is None or e is None or "#" in raw:
            text = raw.partition("#")[0].strip()
            if not text:
                continue
            d_text, sep, e_text = text.partition(";")
            if not sep:
                raise DataError(f"line {line_no}: expected 'D;E', got {text!r}")
            try:
                d, e = responses.parse_subset(d_text), covariates.parse_subset(e_text)
            except ValueError as exc:
                raise DataError(f"line {line_no}: {exc}") from None
        if d == 0:
            raise DataError(f"line {line_no}: the empty response row cannot be constrained")
        pairs.add((d, e))
    return frozenset(pairs)


def write_zero_set(zero_set: Iterable[tuple[int, int]], responses: SubsetLattice,
                   covariates: SubsetLattice, stream: IO[str]) -> None:
    for d, e in sorted_pairs(zero_set):
        stream.write(f"{responses.format_mask(d)};{covariates.format_mask(e)}\n")


# ---------------------------------------------------------------------------
# coefficient / probability matrices

def read_param_matrix(source: str | IO[str], responses: SubsetLattice,
                      covariates: SubsetLattice, kind: str) -> ParamMatrix:
    """Read a matrix CSV: a ``D`` column plus one value column per covariate subset."""
    if kind not in KINDS:
        raise ConfigError(f"unknown parameter kind {kind!r} (expected one of {', '.join(KINDS)})")
    reader = csv.reader(StringIO(_read_text(source), newline=""))
    header = next(reader, None)
    if header is None:
        raise DataError("matrix file is empty")
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

    values = np.empty((responses.size, covariates.size))
    seen: set[int] = set()
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
        if d in seen:
            raise DataError(f"line {line}: duplicate row for {responses.format_mask(d)}")
        seen.add(d)
        for e, cell in zip(col_masks, row[1:]):
            try:
                value = float(cell)
            except ValueError:
                raise DataError(f"line {line}: not a number: {cell!r}") from None
            if not math.isfinite(value):
                raise DataError(f"line {line}: not a finite number: {cell!r}")
            values[d, e] = value
    if len(seen) < responses.size:
        d = min(set(range(responses.size)) - seen)
        raise DataError(f"matrix is missing a row for {responses.format_mask(d)}")
    return ParamMatrix(kind, responses, covariates, values)


def write_param_matrix(pm: ParamMatrix, stream: IO[str], decimals: int | None = None) -> None:
    """Write a matrix CSV; full precision by default so it can be read back."""
    if decimals is None:
        cells = list(map("{:.17g}".format, pm.values.ravel().tolist()))
    else:
        cells = fixed_floats(pm.values, decimals)
    width = pm.cols.size
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["D", *pm.cols.mask_labels])
    writer.writerows([label, *cells[i * width:(i + 1) * width]]
                     for i, label in enumerate(pm.rows.mask_labels))


# ---------------------------------------------------------------------------
# fixed-point columns for TSV output and matrix files

def fixed_floats(values, decimals: int) -> list[str]:
    """Fixed-point text of a numeric column, ``decimals`` places after the point.

    A value that rounds to zero prints without a sign, and NaN and None
    print as ``nan``.
    """
    col = np.asarray(values, dtype=float).ravel().tolist()
    tokens = list(map(f"{{:.{decimals}f}}".format, col))
    zero = f"{0.0:.{decimals}f}"
    return [zero if token == "-" + zero else token for token in tokens]


# ---------------------------------------------------------------------------
# JSON documents, written from encoded columns

class Raw(str):
    """A JSON value already encoded; :func:`write_json` copies it as it is."""


class Tokens(list):
    """A JSON array of values already encoded, copied as they are."""


@dataclass(frozen=True)
class Records:
    """A JSON array of objects with the same keys, held as one column of
    encoded tokens per key (all of one length)."""

    columns: dict[str, Sequence[str]]

    def __post_init__(self) -> None:
        if not self.columns or len({len(col) for col in self.columns.values()}) != 1:
            raise ValueError("a record table needs at least one column, all of one length")


# texts of a rounded value that JSON spells otherwise
_FLOAT_TOKENS = {"nan": "null", "inf": "null", "-inf": "null", "-0.0": "0.0"}


def json_floats(values, decimals: int = 6) -> list[str]:
    """JSON tokens of a numeric column, each value rounded to ``decimals`` places.

    Each token is what ``json.dumps`` prints for Python's correctly rounded
    ``round(x, decimals)`` (not ``np.round``, which scales by 10**decimals
    and can move the last digit), that is ``float.__repr__`` of it; zero of
    either sign is ``0.0``, and NaN, infinities and None are ``null``.

    It is computed as fixed-point text, ``'{:.Nf}'`` with N = ``decimals``
    (at least 1), with trailing zeros stripped down to one digit after the
    point: both round by the same correctly rounded conversion, and where
    that text has at most 15 significant digits it is the shortest text of
    the rounded value, which ``repr`` writes in fixed notation for
    magnitudes from 1e-4 up to 1e16.  Values outside those limits,
    0 < |x| < 1e-4 and |x| >= 10**(15 - N), take ``repr(round(x, N))``.
    """
    if decimals < 1:
        raise ValueError(f"decimals must be at least 1, got {decimals}")
    arr = np.asarray(values, dtype=float).ravel()
    mag = np.abs(arr)
    exact = (mag < 1e-4) & (mag > 0) | (mag >= 10.0 ** (15 - decimals))
    # each value takes one encoding, not both: probability tables and their
    # transforms hold many values below 1e-4
    tokens = np.empty(arr.size, dtype=object)
    tokens[~exact] = [token + "0" if token[-1] == "." else token
                      for token in map(str.rstrip, map(f"{{:.{decimals}f}}".format,
                                                        arr[~exact].tolist()), repeat("0"))]
    tokens[exact] = list(map(float.__repr__, map(round, arr[exact].tolist(), repeat(decimals))))
    tokens = tokens.tolist()
    return list(map(_FLOAT_TOKENS.get, tokens, tokens))


def json_strings(values: Iterable[str]) -> list[str]:
    """JSON tokens of strings, non-ASCII characters escaped."""
    return list(map(encode_basestring_ascii, values))


def write_json(doc, stream: IO[str]) -> None:
    """Write ``doc`` and a newline, byte for byte as ``print(json.dumps(doc, indent=2))``.

    ``doc`` nests dicts, lists and JSON scalars, with leaves encoded
    beforehand: :class:`Raw` values, :class:`Tokens` arrays and
    :class:`Records` tables.
    """
    stream.write(_render(doc, 0))
    stream.write("\n")   # a second write, as print makes: no copy of the document


def _render(value, level: int) -> str:
    if isinstance(value, Raw):
        return value
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, Tokens):
        return _bracket("[", value, "]", level)
    if isinstance(value, Records):
        return _render_records(value, level)
    if isinstance(value, dict):
        return _bracket("{", [f"{encode_basestring_ascii(key)}: {_render(item, level + 1)}"
                              for key, item in value.items()], "}", level)
    if isinstance(value, (list, tuple)):
        return _bracket("[", [_render(item, level + 1) for item in value], "]", level)
    return json.dumps(value)


def _render_records(table: Records, level: int) -> str:
    """Every record through one ``%``-template for its nesting depth."""
    pad = "  " * (level + 2)
    fields = ",\n".join(f"{pad}{encode_basestring_ascii(key).replace('%', '%%')}: %s"
                        for key in table.columns)
    template = "{\n" + fields + "\n" + "  " * (level + 1) + "}"
    return _bracket("[", list(map(template.__mod__, zip(*table.columns.values()))), "]", level)


def _bracket(open_: str, items: list[str], close: str, level: int) -> str:
    """``json.dumps`` layout with ``indent=2``: one item per line, ``[]``/``{}`` when empty."""
    if not items:
        return open_ + close
    pad = "\n" + "  " * (level + 1)
    return open_ + pad + ("," + pad).join(items) + "\n" + "  " * level + close
