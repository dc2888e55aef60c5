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
brace notation, with ``#`` comments; the labels of all lines are looked up
in one pass, and only the lines it misses are parsed one at a time.
Coefficient matrices are CSV with a ``D`` label column and one column per
covariate subset; each row's label and width are checked one row at a
time, and the cells of all rows are converted and tested in one block.

Output is written from encoded columns: numbers and labels become text a
column at a time, one encoder per format.  Both float encoders,
:func:`fixed_floats` for TSV tables and matrix files and
:func:`json_floats` for JSON, round each value exactly in integer
arithmetic on numpy arrays and write its digits from a table, four at a
time, into one row of bytes; only values of 10**(15 - decimals) or more in
magnitude are formatted one at a time.  JSON documents (the CLI's ``--out
json``) take tokens from :func:`json_floats` and :func:`json_strings`;
:func:`write_json` walks a document once, in the layout of
``json.dumps(indent=2)`` byte for byte, appending its text piece by piece
to one list that is written once.  Rows of cells, the records of a
:class:`Records` table, the rows of a :class:`TokenRows` matrix and the
lines of a TSV table, are interleaved from their columns and joined once
(:func:`join_rows`).
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
from operator import itemgetter
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
                values = np.loadtxt(StringIO(text[len(head):], newline=None), delimiter=",",
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
    """Parse ``D;E`` constraint lines (brace notation, # comments) into masks.

    Every line's two sides are first looked up at once as the labels
    :func:`write_zero_set` prints.  Only the lines that lookup misses, and
    any holding a ``#`` (a label may hold one; otherwise it cuts a
    comment), are parsed one by one: blank and comment lines, other
    spellings, and bad lines, which are reported with their line number.
    """
    text = _read_text(source)
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    # each side's mask, -1 where it is not a printed label; the partitions
    # are made once per side and not kept, so the collector never scans them
    d, e = (np.fromiter(map(lattice._mask_by_label.get,
                            map(itemgetter(side), map(str.partition, lines, repeat(";"))),
                            repeat(-1)), np.intp, len(lines))
            for lattice, side in ((responses, 0), (covariates, 2)))
    parse = (d < 0) | (e < 0)
    if "#" in text:
        parse |= np.fromiter(("#" in line for line in lines), bool, len(lines))
    keep = np.ones(len(lines), dtype=bool)
    for i in np.flatnonzero(parse | (d == 0)).tolist():
        line_no = i + 1
        if parse[i]:
            line = lines[i].partition("#")[0].strip()
            if not line:
                keep[i] = False
                continue
            d_side, sep, e_side = line.partition(";")
            if not sep:
                raise DataError(f"line {line_no}: expected 'D;E', got {line!r}")
            try:
                d[i], e[i] = responses.parse_subset(d_side), covariates.parse_subset(e_side)
            except ValueError as exc:
                raise DataError(f"line {line_no}: {exc}") from None
        if d[i] == 0:
            raise DataError(f"line {line_no}: the empty response row cannot be constrained")
    return frozenset(zip(d[keep].tolist(), e[keep].tolist()))


def write_zero_set(zero_set: Iterable[tuple[int, int]], responses: SubsetLattice,
                   covariates: SubsetLattice, stream: IO[str]) -> None:
    for d, e in sorted_pairs(zero_set):
        stream.write(f"{responses.format_mask(d)};{covariates.format_mask(e)}\n")


# ---------------------------------------------------------------------------
# coefficient / probability matrices

def read_param_matrix(source: str | IO[str], responses: SubsetLattice,
                      covariates: SubsetLattice, kind: str) -> ParamMatrix:
    """Read a matrix CSV: a ``D`` column plus one value column per covariate subset.

    The header and then each row's label, width and uniqueness are checked
    one row at a time, in file order; the rows up to the first bad one keep
    their cells as text.  Those cells are converted by one
    ``np.array(cells, dtype=float)``, which takes the spellings ``float()``
    takes, and tested by one ``isfinite``.  Only when that conversion fails
    are the cells converted again one at a time, to name the first bad
    cell; a bad cell on an earlier line than the bad row is reported first.
    """
    if kind not in KINDS:
        raise ConfigError(f"unknown parameter kind {kind!r} (expected one of {', '.join(KINDS)})")
    reader = csv.reader(_lines(_read_text(source)))
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

    # up to the first bad row: each row's mask -> its line, and all its cells in one list
    seen: dict[int, int] = {}
    cells: list[str] = []
    bad_row = None
    for row in reader:
        line = reader.line_num
        if not row or not any(cell.strip() for cell in row):
            continue
        try:
            d = responses.parse_subset(row[0])
        except ValueError as exc:
            bad_row = DataError(f"line {line}: {exc}")
            break
        if len(row) != len(header):
            bad_row = DataError(f"line {line}: expected {len(header)} fields, got {len(row)}")
            break
        if d in seen:
            bad_row = DataError(f"line {line}: duplicate row for {responses.format_mask(d)}")
            break
        seen[d] = line
        cells += row[1:]

    values = np.empty((responses.size, covariates.size))
    try:
        block = np.array(cells, dtype=float)
    except ValueError:                      # a cell float() refuses: the scan below names it
        block = None
    if block is not None and np.isfinite(block).all():
        rows = np.fromiter(seen, dtype=np.intp, count=len(seen))
        values[rows[:, None], col_masks] = block.reshape(len(seen), len(col_masks))
    else:
        width = len(col_masks)
        for k, (d, line) in enumerate(seen.items()):
            for e, text in zip(col_masks, cells[k * width:(k + 1) * width]):
                try:
                    value = float(text)
                except ValueError:
                    raise DataError(f"line {line}: not a number: {text!r}") from None
                if not math.isfinite(value):
                    raise DataError(f"line {line}: not a finite number: {text!r}")
                values[d, e] = value
    if bad_row is not None:
        raise bad_row
    if len(seen) < responses.size:
        d = min(set(range(responses.size)).difference(seen))
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
# float columns as text: one correctly rounded conversion, a column at a time

_FILL = 0   # the byte of an unused place in a row; dropped before the rows are decoded
_ALL, _LEADING, _TRAILING = range(3)


def _digit_table() -> np.ndarray:
    """The four ASCII digits of 0 .. 9999 as little-endian uint32, three ways.

    Row ``_ALL`` holds every digit; row ``_LEADING`` writes the filler byte
    for the zeros before the first nonzero digit and row ``_TRAILING`` for
    those after the last, so all four are filler for 0 in either.
    """
    n = np.arange(10_000, dtype=np.int32)[:, None]
    place = np.array([1000, 100, 10, 1], dtype=np.int32)
    text = (n // place % 10 + ord("0")).astype(np.uint8)
    # a nonzero digit at or before the place, and at or after it; text * False is _FILL
    kept = (True, n >= place, n % (10 * place) != 0)
    return np.stack([(text * keep).view("<u4").ravel() for keep in kept])


_DIGITS4 = _digit_table().ravel()   # row r of the table starts at 10_000 * r
_POW10 = 10 ** np.arange(19, dtype=np.int64)


def _digit_block(v: np.ndarray, chunks: int, drop: int = _ALL) -> np.ndarray:
    """The 4 * ``chunks`` decimal digits of each v < 10**(4 * chunks), one uint8 row each.

    With ``drop`` ``_LEADING`` the zeros before a value's first nonzero
    digit are the filler byte, with ``_TRAILING`` those after its last;
    either way v = 0 is filler only.
    """
    words = np.empty((v.size, chunks), dtype="<u4")
    bare = np.ones(v.size, dtype=bool)     # the chunk takes row ``drop`` of the table
    for j in reversed(range(chunks)):      # least significant first
        rest = v // 10_000
        chunk = v - rest * 10_000
        if drop == _LEADING:
            bare = rest == 0               # no nonzero digit before the chunk
        words[:, j] = _DIGITS4[chunk + 10_000 * drop * bare if drop else chunk]
        if drop == _TRAILING:
            bare = bare & (chunk == 0)     # none after the next chunk
        v = rest
    return words.view(np.uint8)


def _round_scaled(x: np.ndarray, decimals: int) -> np.ndarray:
    """x * 10**decimals rounded half to even, exactly, as int64 (all |x| < 10**(15 - decimals)).

    ``p = x * 10**decimals`` is rounded, and Dekker's product gives the
    exact remainder ``err = x * 10**decimals - p``.  ``p`` lies within
    10**15 of zero, so ``f = p - rint(p)`` is exact; the rounded ``p``
    is then off by one only at a tie ``|f| = 1/2`` that the remainder
    moves off the tie, towards the other neighbour.
    """
    scale = 10.0 ** decimals               # exact up to 10**22
    p = x * scale
    split = 134217729.0                    # 2**27 + 1: Veltkamp's split into 26-bit halves
    s = split * scale
    s_hi = s - (s - scale)
    s_lo = scale - s_hi
    hi = split * x
    hi = hi - (hi - x)
    lo = x - hi
    err = hi * s_hi - p + hi * s_lo + lo * s_hi + lo * s_lo
    r = np.rint(p)
    f = p - r
    k = r.astype(np.int64)
    k += (f == 0.5) & (err > 0)
    k -= (f == -0.5) & (err < 0)
    return k


def _float_texts(values, decimals: int, as_json: bool) -> list[str]:
    """The text of each value of a numeric column at ``decimals`` places.

    The digits are those of ``'{:.Nf}'`` with N = ``decimals``: k, the
    exact value times 10**N rounded half to even (:func:`_round_scaled`),
    written with N digits after the point and a sign only when k < 0.
    With ``as_json`` the trailing zeros of the fraction go down to one digit,
    a nonzero k below 10**(N - 4) is written in ``repr``'s exponent form
    and NaN and infinities are ``null``; without it they are ``nan``,
    ``inf`` and ``-inf``.

    Every value is one fixed-width row of bytes, its digits taken four at
    a time from :data:`_DIGITS4` and the places it does not use holding
    the filler byte; one ``translate`` drops the filler and one ``split``
    cuts the rows.  Only finite |x| >= 10**(15 - N), whose k may pass
    10**15, are formatted one at a time.
    """
    if not 0 <= decimals <= 22:            # 10**decimals must be a double
        raise ValueError(f"decimals must be from 0 to 22, got {decimals}")
    x = np.asarray(values, dtype=float).ravel()
    finite = np.isfinite(x)
    fast = np.abs(x) < 10.0 ** (15 - decimals)          # False for NaN and infinities
    k = _round_scaled(np.where(fast, x, 0.0), decimals)
    mag = np.abs(k)
    unit = _POW10[min(decimals, 16)]                    # |k| < 10**16
    whole = mag // unit
    frac = mag - whole * unit
    # row: sign, integer digits, point, fraction digits, newline; 4 bytes before it fit -inf
    point = max(1 + len(str(whole.max(initial=0))), 3 - decimals)
    row = np.empty((x.size, point + decimals + 2), dtype=np.uint8)
    np.multiply(k < 0, np.uint8(ord("-")), out=row[:, 0])
    row[:, 1:point] = _digit_block(whole, (point + 2) // 4, _LEADING)[:, 1 - point:]
    # filler, below every digit, stands as the units digit and first fraction digit only of 0
    np.maximum(row[:, point - 1], ord("0"), out=row[:, point - 1])
    row[:, point] = ord(".") if decimals else _FILL
    if decimals:
        row[:, point + 1:-1] = _digit_block(frac, (decimals + 3) // 4,
                                            _TRAILING if as_json else _ALL)[:, -decimals:]
    if as_json:
        np.maximum(row[:, point + 1], ord("0"), out=row[:, point + 1])
    row[:, -1] = ord("\n")
    if as_json and decimals >= 5:
        sci = np.flatnonzero((mag > 0) & (mag < 10 ** (decimals - 4)))
        if sci.size:
            row[sci, 1:-1] = _exponent_rows(mag[sci], decimals, row.shape[1] - 2)
    special = np.flatnonzero(~finite)
    if special.size:
        texts = (b"null",) * 3 if as_json else (b"nan", b"inf", b"-inf")
        rows = np.frombuffer(b"".join(text.ljust(row.shape[1] - 1, bytes([_FILL])) + b"\n"
                                      for text in texts), dtype=np.uint8).reshape(3, -1)
        signed = x[special]
        row[special] = rows[(signed > 0) + 2 * (signed < 0)]
    tokens = row.tobytes().translate(None, bytes([_FILL])).decode("ascii").split("\n")
    tokens.pop()                           # after the last newline
    slow = np.flatnonzero(finite & ~fast)
    exact = (lambda v: repr(round(v, decimals))) if as_json else f"{{:.{decimals}f}}".format
    for i, v in zip(slow.tolist(), x[slow].tolist()):
        tokens[i] = exact(v)
    return tokens


def _exponent_rows(mag: np.ndarray, decimals: int, width: int) -> np.ndarray:
    """``repr``'s exponent form, ``d.ddde-XX``, of mag / 10**decimals, 0 < mag < 10**(decimals - 4).

    ``width`` bytes a row: the leading digit, the point if a nonzero digit
    follows it, the digits up to the last nonzero one, filler, and the
    exponent last.  The sign is not written.
    """
    places = decimals - 4
    ndig = np.searchsorted(_POW10, mag, side="right")
    top = mag * _POW10[places - ndig]      # the leading digit in the top place
    digits = _digit_block(top, (places + 3) // 4, _TRAILING)[:, -places:]
    rows = np.zeros((mag.size, width), dtype=np.uint8)
    rows[:, 0] = digits[:, 0]
    rows[:, 1] = np.where(top % _POW10[places - 1] != 0, ord("."), _FILL)
    rows[:, 2:places + 1] = digits[:, 1:]
    exponent = decimals + 1 - ndig
    rows[:, -4:-2] = np.frombuffer(b"e-", dtype=np.uint8)
    rows[:, -2:] = exponent[:, None] // [10, 1] % 10 + ord("0")
    return rows


def fixed_floats(values, decimals: int) -> list[str]:
    """Fixed-point text of a numeric column, ``'{:.Nf}'`` with N = ``decimals``.

    A value that rounds to zero prints without a sign; NaN and None print
    as ``nan``, and infinities as ``inf`` and ``-inf``.
    """
    return _float_texts(values, decimals, as_json=False)


# ---------------------------------------------------------------------------
# JSON documents, written from encoded columns

class Raw(str):
    """A JSON value already encoded; :func:`write_json` copies it as it is."""


class Tokens(list):
    """A JSON array of values already encoded, copied as they are."""


@dataclass(frozen=True)
class TokenRows:
    """A JSON array of rows of ``width`` encoded tokens each, held as one
    flat list of the tokens row by row (an array of :class:`Tokens` arrays
    of one length)."""

    tokens: Sequence[str]
    width: int

    def __post_init__(self) -> None:
        if self.width < 0 or (self.tokens and (not self.width or len(self.tokens) % self.width)):
            raise ValueError("the tokens must fill rows of a nonnegative width")


@dataclass(frozen=True)
class Records:
    """A JSON array of objects with the same keys, held as one column of
    encoded tokens per key (all of one length)."""

    columns: dict[str, Sequence[str]]

    def __post_init__(self) -> None:
        if not self.columns or len({len(col) for col in self.columns.values()}) != 1:
            raise ValueError("a record table needs at least one column, all of one length")


def json_floats(values, decimals: int = 6) -> list[str]:
    """JSON tokens of a numeric column, each value rounded to ``decimals`` places.

    Each token is what ``json.dumps`` prints for Python's correctly rounded
    ``round(x, decimals)`` (not ``np.round``, which scales by 10**decimals
    and can move the last digit), that is ``float.__repr__`` of it; zero of
    either sign is ``0.0``, and NaN, infinities and None are ``null``.

    The rounded value is k / 10**N with N = ``decimals`` (from 1 to 22)
    and k the exact x * 10**N rounded half to even, the rounding ``round``
    makes.  For |x| < 10**(15 - N), |k| <= 10**15 has at most 15
    significant digits (or is 10**15), so the shortest text of the rounded
    value, which ``repr`` prints, is the digits of k: in fixed notation
    with trailing zeros cut down to one fraction digit from 1e-4 up, and in
    exponent form below.  :func:`_float_texts` writes every such token
    from k a column at a time; only finite |x| >= 10**(15 - N) take
    ``repr(round(x, N))`` one value at a time.
    """
    if decimals < 1:
        raise ValueError(f"decimals must be at least 1, got {decimals}")
    return _float_texts(values, decimals, as_json=True)


def json_strings(values: Iterable[str]) -> list[str]:
    """JSON tokens of strings, non-ASCII characters escaped."""
    return list(map(encode_basestring_ascii, values))


def write_json(doc, stream: IO[str]) -> None:
    """Write ``doc`` and a newline, byte for byte as ``print(json.dumps(doc, indent=2))``.

    ``doc`` nests dicts, lists and JSON scalars, with leaves encoded
    beforehand: :class:`Raw` values, :class:`Tokens` arrays,
    :class:`TokenRows` matrices and :class:`Records` tables.  One walk
    appends the text to one list, written once, so no nested value is
    copied into its parent's text.
    """
    parts: list[str] = []
    _emit(doc, "\n", parts)
    parts.append("\n")
    stream.writelines(parts)


def _emit(value, pad: str, parts: list[str]) -> None:
    """Append the text of ``value`` to ``parts``; ``pad``, a newline and two spaces a level,
    opens the line of its closing bracket."""
    if isinstance(value, Raw):
        parts.append(value)
    elif isinstance(value, str):
        parts.append(encode_basestring_ascii(value))
    elif isinstance(value, Records):
        row, field = pad + "  ", pad + "    "
        first, *keys = [f"{field}{encode_basestring_ascii(key)}: " for key in value.columns]
        parts.append(join_rows(list(value.columns.values()), ["," + key for key in keys],
                               f"[{row}{{{first}", f"{row}}},{row}{{{first}",
                               f"{row}}}{pad}]") or "[]")
    elif isinstance(value, TokenRows):
        width, row, cell = value.width, pad + "  ", pad + "    "
        parts.append(join_rows([value.tokens[j::width] for j in range(width)],
                               ["," + cell] * (width - 1), f"[{row}[{cell}",
                               f"{row}],{row}[{cell}", f"{row}]{pad}]") if value.tokens else "[]")
    elif not value or not isinstance(value, (dict, list, tuple)):
        parts.append(json.dumps(value))    # scalars and empty containers
    elif isinstance(value, Tokens):
        inner = pad + "  "
        parts.append(f"[{inner}{(',' + inner).join(value)}{pad}]")
    else:
        keyed, inner = isinstance(value, dict), pad + "  "
        sep = "{" if keyed else "["
        for item in value:
            parts.append(f"{sep}{inner}{encode_basestring_ascii(item)}: " if keyed else sep + inner)
            _emit(value[item] if keyed else item, inner, parts)
            sep = ","
        parts.append(pad + ("}" if keyed else "]"))


def join_rows(columns: Sequence[Sequence[str]], seps: Sequence[str], start: str, between: str,
              end: str) -> str:
    """The text of rows of cells, one cell from each column a row.

    It is ``start``, the rows parted by ``between``, and ``end``; a row is
    its cells with ``seps[j - 1]`` before cell j.  No rows give "".  The
    parts are laid out in one list, a column at a time by slice
    assignment, and joined once.
    """
    n = len(columns[0])
    if not n:
        return ""
    stride = 2 * len(columns)
    parts = [between] * (n * stride + 1)
    parts[0], parts[-1] = start, end
    for j, column in enumerate(columns):
        if j:
            parts[2 * j::stride] = [seps[j - 1]] * n
        parts[2 * j + 1::stride] = column
    return "".join(parts)

