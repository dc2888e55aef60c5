"""File formats and the command-line interface."""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import os
import re
import subprocess
import sys
import warnings
from fractions import Fraction
from itertools import count, permutations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lmlreg
import lmlreg.inference
import lmlreg.selection
from lmlreg import cli
from lmlreg import io as lio
from lmlreg.cli import main
from lmlreg.inference import (CountTable, DataError, FitOptions, ModelSpec, fit, simulate,
                              sorted_pairs)
from lmlreg.io import (ConfigError, Raw, Records, Tokens, fixed_floats, json_floats, json_matrix,
                       json_strings, parse_labels)
from lmlreg.lattice import SubsetLattice
from lmlreg.params import (ParamMatrix, beta_from_pi, gamma_from_mu, mu_from_gamma, mu_from_pi,
                           pi_from_beta, pi_from_mu)
from lmlreg.risk import risk_report
from lmlreg.selection import (average_effects, backward_staged_selection,
                              forward_margin_selection)

from oracles import (_oracle_fmt_num, _oracle_json_num, oracle_fit_stdout,
                     oracle_plot_data_json_stdout, oracle_read_count_data,
                     oracle_read_param_matrix, oracle_read_zero_set, oracle_risk_stdout,
                     oracle_select_json_stdout, oracle_select_tsv_stdout,
                     oracle_transform_json_stdout, oracle_transform_tsv_stdout,
                     oracle_write_count_data, render_to_string)
from test_golden import CASES, COMMANDS, cap_argvs, run as run_main
from test_lattice import LABEL


def lattices(p: int, q: int) -> tuple[SubsetLattice, SubsetLattice]:
    return (SubsetLattice(tuple(f"y{i}" for i in range(p))),
            SubsetLattice(tuple(f"x{i}" for i in range(q))))


def small_table(seed: int = 0) -> CountTable:
    V, U = lattices(2, 1)
    rng = np.random.default_rng(seed)
    counts = rng.integers(1, 60, size=(4, 2)).astype(np.int64)
    return CountTable(V, U, counts)


class TestLabels:
    def test_parse(self):
        assert parse_labels("a, b ,c", "x") == ("a", "b", "c")

    def test_empty_label_rejected(self):
        with pytest.raises(ConfigError, match="empty label"):
            parse_labels("a,,c", "--responses")


class TestCountDataIO:
    @pytest.mark.parametrize("fmt", ["counts", "cases"])
    def test_round_trip(self, fmt):
        t = small_table()
        text = render_to_string(lambda s: lio.write_count_data(t, s, fmt))
        back = lio.read_count_data(io.StringIO(text), t.responses, t.covariates, fmt)
        assert np.array_equal(back.counts, t.counts)

    @pytest.mark.parametrize("fmt", ["counts", "cases"])
    def test_spaced_header_names(self, fmt):
        t = small_table(3)
        text = render_to_string(lambda s: lio.write_count_data(t, s, fmt))
        header, body = text.split("\n", 1)
        assert header.count(",") >= 2
        spaced = header.replace(",", ", ") + " \n" + body
        back = lio.read_count_data(io.StringIO(spaced), t.responses, t.covariates, fmt)
        assert np.array_equal(back.counts, t.counts)

    def test_row_order_is_irrelevant(self):
        t = small_table(1)
        text = render_to_string(lambda s: lio.write_count_data(t, s, "counts"))
        lines = text.strip().split("\n")
        shuffled = [lines[0]] + list(np.random.default_rng(2).permutation(lines[1:]))
        back = lio.read_count_data(io.StringIO("\n".join(shuffled) + "\n"),
                                   t.responses, t.covariates, "counts")
        assert np.array_equal(back.counts, t.counts)

    def test_extra_columns_are_ignored(self):
        V, U = lattices(1, 1)
        text = "y0,x0,junk\n1,0,zzz\n0,1,7\n"
        t = lio.read_count_data(io.StringIO(text), V, U, "cases")
        assert t.counts[1, 0] == 1 and t.counts[0, 1] == 1

    def test_missing_column_named(self):
        V, U = lattices(2, 1)
        with pytest.raises(DataError, match="y1"):
            lio.read_count_data(io.StringIO("y0,x0\n0,0\n"), V, U, "cases")

    def test_bad_cell_value_reports_line(self):
        V, U = lattices(1, 1)
        text = "y0,x0\n1,0\n2,0\n"
        with pytest.raises(DataError, match="line 3"):
            lio.read_count_data(io.StringIO(text), V, U, "cases")

    def test_bad_count_reports_line(self):
        V, U = lattices(1, 1)
        text = "y0,x0,count\n1,0,three\n"
        with pytest.raises(DataError, match="line 2"):
            lio.read_count_data(io.StringIO(text), V, U, "counts")

    def test_negative_count_rejected(self):
        V, U = lattices(1, 1)
        text = "y0,x0,count\n1,0,-4\n"
        with pytest.raises(DataError, match="non-negative"):
            lio.read_count_data(io.StringIO(text), V, U, "counts")

    def test_empty_file_rejected(self):
        V, U = lattices(1, 1)
        with pytest.raises(DataError, match="empty"):
            lio.read_count_data(io.StringIO(""), V, U, "cases")

    def test_unknown_format_rejected(self):
        V, U = lattices(1, 1)
        with pytest.raises(ConfigError, match="format"):
            lio.read_count_data(io.StringIO("y0,x0\n"), V, U, "wide")

    def test_unknown_output_format_rejected(self):
        with pytest.raises(ConfigError, match="^unknown output format 'wide'"):
            lio.write_count_data(small_table(), io.StringIO(), "wide")

    def test_counts_accumulate_duplicate_cells(self):
        V, U = lattices(1, 1)
        text = "y0,x0,count\n1,0,3\n1,0,4\n"
        t = lio.read_count_data(io.StringIO(text), V, U, "counts")
        assert t.counts[1, 0] == 7


class TestCountWriterAgainstRowByRowOracle:
    """The columnar writer prints what one ``csv.writer`` row per cell or case prints."""

    @pytest.mark.parametrize("fmt", ["counts", "cases"])
    @pytest.mark.parametrize("labels", [(("y0", "y1", "y2"), ("x0", "x1")),
                                        (('r"1', "r2"), ('c"',)),
                                        (tuple(f"y{i}" for i in range(8)),
                                         tuple(f"x{i}" for i in range(4)))],
                             ids=["3x2", "quoted", "cap"])
    @pytest.mark.parametrize("fill", ["dense", "sparse", "empty"])
    def test_same_bytes(self, fmt, labels, fill):
        V, U = SubsetLattice(labels[0]), SubsetLattice(labels[1])
        rng = np.random.default_rng(4)
        counts = rng.integers(1, 9, size=(V.size, U.size))
        if fill == "sparse":
            counts[rng.random(counts.shape) < 0.6] = 0
        elif fill == "empty":
            counts[:] = 0
        table = CountTable(V, U, counts)
        want = render_to_string(lambda s: oracle_write_count_data(table, s, fmt))
        assert render_to_string(lambda s: lio.write_count_data(table, s, fmt)) == want
        if labels[1] == ('c"',):
            assert want.split("\n")[0].endswith(',"c"""' + (",count" if fmt == "counts" else ""))


@st.composite
def messy_csv(draw):
    """A valid table written with the variations both readers must read alike:
    spaced and quoted values, spaced header names, CRLF endings, blank lines,
    junk extra columns (quoted commas included) and any column order; or, as
    often, in the layout ``write_count_data`` emits (bare values, ``\\n`` after
    every row, none blank), in any column order and with one-digit junk."""
    p, q = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    V, U = lattices(p, q)
    fmt = draw(st.sampled_from(["cases", "counts"]))
    canonical = draw(st.booleans())
    names = list(V.labels) + list(U.labels) + ["count"] * (fmt == "counts")
    columns = draw(st.permutations(names + [f"junk{i}" for i in range(draw(st.integers(0, 2)))]))
    if canonical:
        eol, styles, header_styles = "\n", st.just("{}"), st.just("{}")
        junk, blanks, ends = ["0", "1", "7"], st.just(0), st.just("\n")
    else:
        eol = draw(st.sampled_from(["\n", "\r\n"]))
        styles = st.sampled_from(["{}", " {}", "{} ", " {} ", "\t{}", '"{}"', '" {} "'])
        header_styles = st.sampled_from(["{}", " {} "])
        junk, blanks = ["", "zz", '"a,b"', "7", '"q""q"', "1.5"], st.integers(0, 2)
        ends = st.sampled_from(["", eol, eol + eol])
    lines = [",".join(draw(header_styles).format(c) for c in columns)]
    for _ in range(draw(st.integers(0, 12))):
        lines += [""] * draw(blanks)
        cells = []
        for c in columns:
            if c.startswith("junk"):
                cells.append(draw(st.sampled_from(junk)))
            else:
                value = draw(st.integers(0, 40)) if c == "count" else draw(st.integers(0, 1))
                cells.append(draw(styles).format(value))
        lines.append(",".join(cells))
    return eol.join(lines) + draw(ends), V, U, fmt


# the kinds of input every reader takes: a path, a StringIO, a text stream
# that cannot seek (a pipe) and the /dev/fd path of a pipe
SOURCES = ["path", "stringio", "pipe", "dev-fd"]


@pytest.fixture()
def source_of(tmp_path):
    """``source_of(kind, text, data=None)``: an input of one of the SOURCES kinds holding
    ``text``; a path or pipe holds the bytes ``data`` instead, when given."""
    closers, names = [], count()

    def make(kind: str, text: str, data: bytes | None = None):
        data = text.encode() if data is None else data
        if kind == "path":
            path = tmp_path / f"input{next(names)}"
            path.write_bytes(data)
            return str(path)
        if kind == "stringio":
            return io.StringIO(text)
        read_end, write_end = os.pipe()
        os.write(write_end, data)
        os.close(write_end)
        if kind == "pipe":
            stream = open(read_end, encoding="utf-8", newline="")
            closers.append(stream.close)
            return stream
        closers.append(lambda: os.close(read_end))
        return f"/dev/fd/{read_end}"

    yield make
    for close in closers:
        close()


def read_both(text: str, V, U, fmt: str):
    """(outcome of the package reader, outcome of the row-by-row oracle)."""
    out = []
    for reader in (lio.read_count_data, oracle_read_count_data):
        try:
            out.append(reader(io.StringIO(text), V, U, fmt).counts.tolist())
        except DataError as exc:
            out.append(f"DataError: {exc}")
    return out


class TestReaderAgainstRowByRowOracle:
    @settings(max_examples=80, deadline=None)
    @given(messy_csv())
    def test_same_counts(self, case):
        text, V, U, fmt = case
        got, want = read_both(text, V, U, fmt)
        assert isinstance(want, list)
        assert got == want

    @pytest.mark.parametrize("text, fmt, line", [
        ("y0,x0\n1,0\n\n\n0,1\n\n1,2\n", "cases", 7),
        ("y0,x0\r\n\r\n1,0\r\n\r\n1.0,1\r\n", "cases", 5),
        ("y0,x0\n\n1,\n", "cases", 3),
        ("y0,x0\n1,0\n\nthree,0\n", "cases", 4),
        ("y0,x0\n1,0\n\n   \n", "cases", 4),
        ("y0,x0,count\n1,0,3\n\n\n1,0,-4\n", "counts", 5),
        ("y0,x0,count\n\n1,0,three\n", "counts", 3),
        ("y0,x0,count\n1,0,1.5\n", "counts", 2),
        ("y0,x0,count\n1,0,3\n\n1,2,3\n", "counts", 4),
    ])
    def test_bad_row_reports_physical_line(self, text, fmt, line):
        V, U = lattices(1, 1)
        got, want = read_both(text, V, U, fmt)
        assert got == want
        assert got.startswith(f"DataError: line {line}: ")

    def test_short_row_rejected(self):
        V, U = lattices(2, 1)
        got, want = read_both("y0,y1,x0\n1,0,1\n\n1,0\n", V, U, "cases")
        assert got == want == "DataError: line 4: column 'x0' must be 0 or 1, got ''"

    @pytest.mark.parametrize("text", ["", "x0\n0\n", "y0,x0\n2,0\n"])
    def test_other_rejections_unchanged(self, text):
        V, U = lattices(1, 1)
        got, want = read_both(text, V, U, "cases")
        assert got == want and got.startswith("DataError")

    # three rows in the layout write_count_data emits
    CANONICAL = "y0,y1,x0\n1,0,1\n0,1,0\n1,1,1\n"

    def test_canonical_layout_skips_the_general_parse(self, monkeypatch):
        t = small_table(5)
        text = render_to_string(lambda s: lio.write_count_data(t, s, "cases"))

        def refuse(*args, **kwargs):
            raise AssertionError("np.loadtxt called on the canonical layout")

        monkeypatch.setattr(np, "loadtxt", refuse)
        back = lio.read_count_data(io.StringIO(text), t.responses, t.covariates, "cases")
        assert np.array_equal(back.counts, t.counts)
        junk = self.CANONICAL.replace("\n", ",7\n").replace("x0,7", "x0,junk")
        back = lio.read_count_data(io.StringIO(junk), *lattices(2, 1), "cases")
        assert back.counts.tolist() == [[0, 0], [0, 1], [1, 0], [0, 1]]

    @pytest.mark.parametrize("text", [
        CANONICAL.replace("1,0,1\n", "1,0,1\r\n"),                           # one CRLF row
        CANONICAL.replace("0,1,0", "0.1,0"),                                 # a decimal point
        CANONICAL[:-1],                                                      # no final newline
        CANONICAL.replace("0,1,0", "0,2,0"),                                 # a 2
        CANONICAL.replace("0,1,0", "0,1,7"),                                 # a 7
        CANONICAL.replace("0,1,0\n", "0,1,0\n\n"),                           # a blank line
        CANONICAL.replace("\n", ",0\n").replace("x0,0", "x0,junk"),          # a 0/1 junk column
        CANONICAL.replace("\n", ",x\n").replace("x0,x", "x0,junk"),          # a letter junk column
        CANONICAL.replace("0,1,0", '0,"1",0'),                               # a quoted value
        CANONICAL.replace("0,1,0", "0,+,0"),                                 # a sign
        CANONICAL.replace("0,1,0", "0,1,\u00e9"),                            # a non-ASCII value
        CANONICAL.replace("\n", ",\u00e9\n").replace("x0,\u00e9", "x0,j"),   # ... in junk
        CANONICAL.replace("0,1,0\n", "0,1\n"),                               # one field short
        CANONICAL.replace("0,1,0\n", "0,1,0,1\n"),                           # one field long
        CANONICAL.replace("0,1,0\n1,1,1\n", "0,1\n1,1,1,1\n"),               # both: the size fits
        CANONICAL.replace("\n", ",0\n").replace("x0,0", 'x0,"j\nk"'),      # a header of two lines
    ])
    def test_near_misses_of_the_canonical_layout(self, text):
        got, want = read_both(text, *lattices(2, 1), "cases")
        assert got == want

    @pytest.mark.parametrize("fmt", ["cases", "counts"])
    @pytest.mark.parametrize("eol", ["\n", "\r\n", "\r"], ids=["LF", "CRLF", "CR"])
    def test_header_name_holding_a_newline(self, eol, fmt):
        # the junk column's quoted name spans two physical lines, so every
        # row sits one line further down than under the plain header
        count = ",count" if fmt == "counts" else ""
        body = [f"1,0,1{count and ',3'},7", f"0,1,0{count and ',2'},7", f"1,1,1{count and ',4'},7"]
        plain = eol.join([f"y0,y1,x0{count},jk", *body, ""])
        split = eol.join([f'y0,y1,x0{count},"j{eol}k"', *body, ""])
        V, U = lattices(2, 1)
        table = [[0, 0], [0, 3], [2, 0], [0, 4]] if count else [[0, 0], [0, 1], [1, 0], [0, 1]]
        for text, line in ((plain, 3), (split, 4)):
            assert lio.read_count_data(io.StringIO(text), V, U, fmt).counts.tolist() == table
            bad = io.StringIO(text.replace(f"{eol}0,1,0", f"{eol}0,2,0"))
            with pytest.raises(DataError, match=f"^line {line}: column 'y1' must be 0 or 1, got '2'$"):
                lio.read_count_data(bad, V, U, fmt)

    def test_other_integer_spellings_accepted(self):
        V, U = lattices(1, 1)
        t = lio.read_count_data(io.StringIO("y0,x0\n01,0\n+1,-0\n0,+01\n"), V, U, "cases")
        assert t.counts.tolist() == [[0, 1], [2, 0]]
        # an accepted spelling is not taken for the bad row
        with pytest.raises(DataError, match="^line 4: column 'y0' must be 0 or 1, got '2'$"):
            lio.read_count_data(io.StringIO("y0,x0\n+1,0\n\n2,0\n"), V, U, "cases")
        t = lio.read_count_data(io.StringIO("y0,x0,count\n+1,00,+7\n"), V, U, "counts")
        assert t.counts.tolist() == [[0, 0], [7, 0]]

    @pytest.mark.parametrize("kind", SOURCES)
    @pytest.mark.parametrize("fmt", ["counts", "cases"])
    def test_path_and_stream_agree(self, source_of, fmt, kind):
        t = small_table(4)
        text = render_to_string(lambda s: lio.write_count_data(t, s, fmt))
        text = text.replace("\n", "\r\n\r\n")
        got = lio.read_count_data(source_of(kind, text), t.responses, t.covariates, fmt)
        assert np.array_equal(got.counts, t.counts)

    @pytest.mark.parametrize("kind", SOURCES)
    @pytest.mark.parametrize("text, message", [
        ("y0,x0\n1,0\n\n0,5\n", "line 4: column 'x0' must be 0 or 1, got '5'"),
        ("y0,x0,count\n1,0,3\n\n\n1,0,-4\n", "line 5: count must be non-negative, got -4"),
    ], ids=["cases", "counts"])
    def test_path_error_reports_line(self, source_of, kind, text, message):
        V, U = lattices(1, 1)
        fmt = "counts" if "count" in text else "cases"
        with pytest.raises(DataError, match=f"^{message}$"):
            lio.read_count_data(source_of(kind, text), V, U, fmt)

    @pytest.mark.parametrize("kind", SOURCES)
    def test_lone_cr_ends_the_header(self, source_of, kind):
        got = lio.read_count_data(source_of(kind, "y0,y1,x0\r1,0,1\n0,1,0\n"), *lattices(2, 1),
                                  "cases")
        assert got.counts.tolist() == [[0, 0], [0, 1], [1, 0], [0, 0]]

    @pytest.mark.parametrize("kind", SOURCES)
    def test_lone_cr_ends_a_body_row(self, source_of, kind):
        got = lio.read_count_data(source_of(kind, "y0,y1,x0\n1,0,1\r0,1,0\n"), *lattices(2, 1),
                                  "cases")
        assert got.counts.tolist() == [[0, 0], [0, 1], [1, 0], [0, 0]]

    @pytest.mark.parametrize("text", ["y0,x0\n", "y0,x0", "y0,x0\n\n\n", "y0,x0,count\n"])
    def test_header_only_gives_empty_table(self, text):
        V, U = lattices(1, 1)
        fmt = "counts" if "count" in text else "cases"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            t = lio.read_count_data(io.StringIO(text), V, U, fmt)
        assert t.counts.shape == (2, 2) and t.total == 0

    def test_blank_lines_emit_no_warning(self):
        V, U = lattices(1, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            t = lio.read_count_data(io.StringIO("y0,x0\n\n1,0\n\n\n0,1\n\n"), V, U, "cases")
        assert t.counts.tolist() == [[0, 1], [1, 0]]


class TestZeroSetIO:
    def test_round_trip_with_comments(self):
        V, U = lattices(2, 2)
        zeros = {(3, 0), (1, 2), (3, 3)}
        text = render_to_string(lambda s: lio.write_zero_set(zeros, V, U, s))
        text = "# header comment\n\n" + text
        assert lio.read_zero_set(io.StringIO(text), V, U).tolist() == [[1, 2], [3, 0], [3, 3]]

    def test_sorted_by_size_then_mask(self):
        V, U = lattices(2, 2)
        text = render_to_string(
            lambda s: lio.write_zero_set({(3, 0), (1, 2), (3, 3)}, V, U, s))
        assert text.splitlines() == ["{y0};{x1}", "{y0,y1};{}", "{y0,y1};{x0,x1}"]

    def test_missing_separator_reports_line(self):
        V, U = lattices(2, 1)
        with pytest.raises(DataError, match="line 2"):
            lio.read_zero_set(io.StringIO("{y0};{}\n{y1}{x0}\n"), V, U)

    def test_unknown_member_reports_line(self):
        V, U = lattices(2, 1)
        with pytest.raises(DataError, match="line 1"):
            lio.read_zero_set(io.StringIO("{bogus};{}\n"), V, U)

    def test_empty_response_row_rejected(self):
        V, U = lattices(2, 1)
        with pytest.raises(DataError, match="empty response"):
            lio.read_zero_set(io.StringIO("{};{x0}\n"), V, U)
        with pytest.raises(DataError, match="^line 3: the empty response row cannot be constrained$"):
            lio.read_zero_set(io.StringIO("{y0};{}\r\n\r\n{};{}\r\n"), V, U)

    @pytest.mark.parametrize("eol", ["\n", "\r\n", "\r"])
    def test_printed_and_respelled_lines_agree(self, eol):
        V, U = lattices(3, 2)
        zeros = {(3, 0), (1, 2), (7, 3), (6, 1)}
        printed = render_to_string(lambda s: lio.write_zero_set(zeros, V, U, s)).splitlines()
        respelled = [" {y1,y0} ; { } ", "# {y0};{x1}", "y0;x1  # a comment", "",
                     "{y2,y0,y1};{x1,x0}", "{y1,y2};x0"]
        for lines in (printed, respelled):
            got = lio.read_zero_set(io.StringIO(eol.join(lines)), V, U)
            assert set(map(tuple, got.tolist())) == zeros and got.shape == (4, 2)

    def test_hash_is_a_reserved_label_character(self, tmp_path, capsys):
        """No label holds the '#' that starts a comment: the lattice refuses
        one, and so does the CLI, with exit 2 before it reads any file."""
        with pytest.raises(ValueError, match="reserved character"):
            SubsetLattice(("a#b", "c"))
        assert main(["fit", "--input", str(tmp_path / "missing.csv"), "--zeros",
                     str(tmp_path / "missing.txt"), "--responses", "a#b,c",
                     "--covariates", "x"]) == 2
        assert capsys.readouterr().err == (
            "error: label 'a#b' is empty or contains a reserved character\n")


# a lattice, and every kind of line a zero-set file may hold, '#' comments
# among them; '{a#b}' is the label 'a' cut by a comment
HASH_V, HASH_U = SubsetLattice(("a", "c", "d")), SubsetLattice(("x", "y"))
ZERO_LINES = ["{c};{x}", "", "# a comment", "   ", "{c,d};{x,y}  # then {a#b};{}",
              " { d , c } ; { y } ", "{c};{x}", "{d,c};{x,y}", "{d};{}", "{d};{ }", "c;x,y",
              "#{a#b};{}"]
BAD_ZERO_LINES = ["{c}{x}", "{};{x}", " {} ; {}", "{bogus};{}", "{c};{z}", "{c};{x};{y}",
                  "{a#b};{x}", "{a#b,c};{}#"]


def read_zero_both(text: str, V, U):
    """(outcome of the package reader, outcome of the per-line oracle) on ``text``."""
    out = []
    for reader in (lio.read_zero_set, oracle_read_zero_set):
        try:
            out.append(reader(io.StringIO(text), V, U).tolist())
        except DataError as exc:
            out.append(f"DataError: {exc}")
    return out


class TestZeroSetReader:
    """The batched zero-set reader reads every file as the per-line oracle does."""

    @pytest.mark.parametrize("kind", ["path", "stringio"])
    @pytest.mark.parametrize("final_eol", [True, False])
    @pytest.mark.parametrize("bom", ["", "\ufeff"])
    @pytest.mark.parametrize("eol", ["\n", "\r\n", "\r"])
    def test_every_kind_of_line(self, source_of, kind, eol, bom, final_eol):
        text = bom + eol.join(ZERO_LINES) + eol * final_eol
        got = lio.read_zero_set(source_of(kind, text), HASH_V, HASH_U)
        assert got.dtype == np.intp
        assert np.array_equal(got, oracle_read_zero_set(source_of(kind, text), HASH_V, HASH_U))
        # one row per constraint line, in file order, repeats kept
        assert got.tolist() == [[2, 1], [6, 3], [6, 2], [2, 1], [6, 3], [4, 0], [4, 0], [2, 3]]

    @pytest.mark.parametrize("eol", ["\n", "\r\n", "\r"])
    @pytest.mark.parametrize("lines, message", [
        (["{c};{x}", "", "{c}{x}"], "line 3: expected 'D;E', got '{c}{x}'"),
        (["# c", "{c};{x}", "{bogus};{}"],
         "line 3: unknown label 'bogus'; expected one of ('a', 'c', 'd')"),
        (["{c};{x}", "{};{x}"], "line 2: the empty response row cannot be constrained"),
        (["{c};{x}", " { } ; {x}"], "line 2: the empty response row cannot be constrained"),
        (["{c};{x}", "{a#b};{}"], "line 2: expected 'D;E', got '{a'"),
        (["{};{}", "{c}{x}"], "line 1: the empty response row cannot be constrained"),
        (["{c}{x}", "{};{}"], "line 1: expected 'D;E', got '{c}{x}'"),
        (["{c};{bogus}", "{};{}"],
         "line 1: unknown label 'bogus'; expected one of ('x', 'y')"),
    ])
    def test_errors_keep_their_message_and_line(self, eol, lines, message):
        got, want = read_zero_both(eol.join(lines) + eol, HASH_V, HASH_U)
        assert got == want == f"DataError: {message}"

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_write_then_read_round_trips(self, data):
        """On labels drawn from every character no lattice reserves."""
        V, U = (SubsetLattice(tuple(data.draw(st.lists(LABEL, min_size=n, max_size=n,
                                                       unique=True))))
                for n in (data.draw(st.integers(1, 4)), data.draw(st.integers(1, 3))))
        zeros = data.draw(st.frozensets(st.tuples(st.integers(1, V.size - 1),
                                                  st.integers(0, U.size - 1))))
        eol = data.draw(st.sampled_from(["\n", "\r\n", "\r"]))
        text = render_to_string(lambda s: lio.write_zero_set(zeros, V, U, s)).replace("\n", eol)
        want = [[d, e] for d, e in sorted_pairs(zeros)]
        assert read_zero_both(text, V, U) == [want, want]

    @settings(max_examples=200, deadline=None)
    @given(lines=st.lists(st.sampled_from(ZERO_LINES + BAD_ZERO_LINES), max_size=8),
           eol=st.sampled_from(["\n", "\r\n", "\r"]), final_eol=st.booleans())
    def test_mixed_lines_read_as_the_oracle_reads_them(self, lines, eol, final_eol):
        got, want = read_zero_both(eol.join(lines) + eol * final_eol, HASH_V, HASH_U)
        assert got == want


class TestParamMatrixIO:
    def test_full_precision_round_trip(self):
        V, U = lattices(2, 2)
        rng = np.random.default_rng(3)
        pm = ParamMatrix("gamma", V, U, rng.normal(size=(4, 4)))
        text = render_to_string(lambda s: lio.write_param_matrix(pm, s))
        back = lio.read_param_matrix(io.StringIO(text), V, U, "gamma")
        assert np.array_equal(back.values, pm.values)
        assert back.kind == "gamma"

    def test_column_order_is_irrelevant(self):
        V, U = lattices(1, 1)
        text = "D,{x0},{}\n{},5,1\n{y0},6,2\n"
        pm = lio.read_param_matrix(io.StringIO(text), V, U, "mu")
        assert pm.values[0, 0] == 1 and pm.values[0, 1] == 5
        assert pm.values[1, 0] == 2 and pm.values[1, 1] == 6

    def test_header_must_start_with_d(self):
        V, U = lattices(1, 1)
        with pytest.raises(DataError, match="'D'"):
            lio.read_param_matrix(io.StringIO("row,{}\n"), V, U, "mu")

    def test_header_must_cover_all_subsets(self):
        V, U = lattices(1, 2)
        with pytest.raises(DataError, match="every covariate subset"):
            lio.read_param_matrix(io.StringIO("D,{},{x0}\n{},1,1\n{y0},.5,.5\n"), V, U, "mu")

    def test_duplicate_row_reports_line(self):
        V, U = lattices(1, 1)
        text = "D,{},{x0}\n{},1,1\n{y0},.5,.5\n{y0},.4,.4\n"
        with pytest.raises(DataError, match="line 4"):
            lio.read_param_matrix(io.StringIO(text), V, U, "mu")

    def test_missing_row_named(self):
        V, U = lattices(1, 1)
        with pytest.raises(DataError, match=r"\{y0\}"):
            lio.read_param_matrix(io.StringIO("D,{},{x0}\n{},1,1\n"), V, U, "mu")
        # the first of several missing rows
        with pytest.raises(DataError, match=r"^matrix is missing a row for \{y0\}$"):
            lio.read_param_matrix(io.StringIO("D,{},{x0}\n{},1,1\n{y1},1,1\n"),
                                  *lattices(2, 1), "mu")

    def test_non_number_reports_line(self):
        V, U = lattices(1, 1)
        text = "D,{},{x0}\n{},1,1\n{y0},.5,many\n"
        with pytest.raises(DataError, match="line 3"):
            lio.read_param_matrix(io.StringIO(text), V, U, "mu")

    def test_unknown_kind_rejected(self):
        V, U = lattices(1, 1)
        with pytest.raises(ConfigError, match="kind"):
            lio.read_param_matrix(io.StringIO("D,{}\n"), V, U, "theta")

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", " NaN", "1e999"])
    def test_non_finite_number_reports_line(self, cell):
        V, U = lattices(1, 1)
        text = f"D,{{}},{{x0}}\n{{}},0,0\n{{y0}},-1.0,{cell}\n"
        with pytest.raises(DataError, match=f"^line 3: not a finite number: '{cell}'$"):
            lio.read_param_matrix(io.StringIO(text), V, U, "beta_gamma")


def read_matrix_both(text: str, V, U, kind: str = "beta_gamma") -> list:
    """(outcome of the package reader, outcome of the per-cell oracle) on ``text``:
    the values' bytes, or the error's type and message."""
    out = []
    for reader in (lio.read_param_matrix, oracle_read_param_matrix):
        try:
            out.append(reader(io.StringIO(text), V, U, kind).values.tobytes())
        except ValueError as exc:              # DataError and ConfigError
            out.append(f"{type(exc).__name__}: {exc}")
    return out


# a matrix for lattices(2, 1): header columns and rows out of order
MATRIX_LINES = ["D,{x0},{}", "{y1},0.25,-1.5", "{},0,0", '"{y0,y1}",1e-300,3', "{y0},-2,0.5"]
MATRIX_VALUES = np.array([[0, 0], [0.5, -2], [-1.5, 0.25], [3, 1e-300]]).tobytes()

# lines for a lattices(2, 1) matrix after the header "D,{},{x0}", good and bad
GOOD_MATRIX_LINES = ["{},0,0", "{y0},-1,0.5", "{y1},-2,0.25", '"{y0,y1}",0.1,0.2', "",
                     "  ", " , ", '" {y1} ",0.5,1', '"{ y1 , y0 }",-1e-5,5.', "y0, .5 ,+1e5"]
BAD_MATRIX_LINES = ["{q},1,1", "{y0},1", "{y0},1,2,3", "{y0},nan,1", "{y0},1,many",
                    "{y1},-inf,1", "{y1},1e999,1", "{y1},1,1 1", "{y0};{x0},1,1"]


class TestParamMatrixReader:
    """The block reader reads what the per-cell oracle reads, bit for bit, and
    fails where it fails, with the same message and line."""

    @pytest.mark.parametrize("final_eol", [True, False])
    @pytest.mark.parametrize("bom", ["", "\ufeff"], ids=["no-bom", "bom"])
    @pytest.mark.parametrize("eol", ["\n", "\r\n", "\r"], ids=["LF", "CRLF", "CR"])
    def test_line_ends_bom_and_final_newline(self, eol, bom, final_eol):
        text = bom + eol.join(MATRIX_LINES) + eol * final_eol
        assert read_matrix_both(text, *lattices(2, 1)) == [MATRIX_VALUES] * 2

    def test_blank_rows_and_label_spellings(self):
        lines = [MATRIX_LINES[0], "", MATRIX_LINES[1], "   ", " , ", MATRIX_LINES[2],
                 '"{y1, y0}",1e-300,3', "", ' {y0} ,-2,0.5', " \t"]
        assert read_matrix_both("\n".join(lines) + "\n", *lattices(2, 1)) == [MATRIX_VALUES] * 2
        quoted = ('"D","{x0}","{}"\n"y1",0.25,-1.5\n"{ }",0,0\n" y0 , y1 ",1e-300,3\n'
                  '"{y0}",-2,0.5\n')
        assert read_matrix_both(quoted, *lattices(2, 1)) == [MATRIX_VALUES] * 2

    @pytest.mark.parametrize("cell", [
        # read by float()
        " 0.5 ", "1_0", "+1e5", ".5", "5.", "-0", "1E-3", "\t2\t", "1e-400", "4.9e-324",
        "1.7976931348623157e308", "0.30000000000000004", "123456789012345678901234567890",
        "1_000.000_1", "\u0661\u0662", "\uff11",
        # refused by float()
        "1__0", "_1", "1_", "1e1_0", "0x10", "0b1", "1j", "1e", ".e5", "e5", "--1", "+-1",
        "1 2", "", "infinit", "nan(1)", "\u0661\u066b\u0665",
        # read by float(), not finite
        "inf", "-Infinity", "nan", "-nan", "1e999",
    ])
    def test_cell_spellings_read_as_float_reads_them(self, cell):
        text = f"D,{{}},{{x0}}\n{{}},0,0\n{{y0}},-1,{cell}\n"
        got, want = read_matrix_both(text, *lattices(1, 1))
        assert got == want
        try:
            value = float(cell)
        except ValueError:
            assert got == f"DataError: line 3: not a number: {cell!r}"
        else:
            assert got == (np.array([[0, 0], [-1, value]]).tobytes() if np.isfinite(value) else
                           f"DataError: line 3: not a finite number: {cell!r}")

    @pytest.mark.parametrize("text, message", [
        ("", "matrix file is empty"),
        ("\ufeff", "matrix file is empty"),
        ("row,{},{x0}\n{},0,0\n", "matrix header must start with a 'D' column"),
        ("\n{},0,0\n", "matrix header must start with a 'D' column"),
        ("D,{}\n{},0\n", "matrix header must list every covariate subset exactly once"),
        ("D,{},{x0},{}\n", "matrix header must list every covariate subset exactly once"),
        ("D,{},{z}\n", "matrix header: unknown label 'z'; expected one of ('x0',)"),
        ("D,{},{x0}\n{},0,0\n\n{q},1,1\n",
         "line 4: unknown label 'q'; expected one of ('y0', 'y1')"),
        ("D,{},{x0}\n{},0,0\n{y0},1\n", "line 3: expected 3 fields, got 2"),
        ("D,{},{x0}\n{},0,0\n{y0},1,2,3\n", "line 3: expected 3 fields, got 4"),
        ("D,{},{x0}\n{},0,0\n{y0},1,1\n{ y0 },1,1\n", "line 4: duplicate row for {y0}"),
        ("D,{},{x0}\r\n{},0,0\r\n{y0},1,1 1\r\n", "line 3: not a number: '1 1'"),
        ("D,{},{x0}\r{},0,0\r{y0},1,\r", "line 3: not a number: ''"),
        ("D,{},{x0}\n{},0,0\n{y0},1,1\n{y1},-inf,1\n", "line 4: not a finite number: '-inf'"),
        ("D,{},{x0}\n{},0,0\n{y1},1,1\n", "matrix is missing a row for {y0}"),
        ("D,{},{x0}\n", "matrix is missing a row for {}"),
    ])
    def test_errors_name_the_same_line(self, text, message):
        assert read_matrix_both(text, *lattices(2, 1)) == [f"DataError: {message}"] * 2

    def test_unknown_kind_is_a_config_error(self):
        got, want = read_matrix_both("D,{},{x0}\n", *lattices(1, 1), kind="theta")
        assert got == want and got.startswith("ConfigError: unknown parameter kind 'theta'")

    @pytest.mark.parametrize("first, second", list(permutations(
        ["{q},1,1", "{y0},1", "{},1,1", "{y0},nan,1", "{y0},1,many"], 2)))
    def test_the_earlier_of_two_bad_lines_is_reported(self, first, second):
        text = "\n".join(["D,{},{x0}", "{},0,0", first, second, "{y1},1,1", '"{y0,y1}",1,1', ""])
        got, want = read_matrix_both(text, *lattices(2, 1))
        assert got == want
        assert got.startswith("DataError: line 3: ")

    @settings(max_examples=200, deadline=None)
    @given(lines=st.lists(st.sampled_from(GOOD_MATRIX_LINES + BAD_MATRIX_LINES), max_size=8),
           eol=st.sampled_from(["\n", "\r\n", "\r"]), final_eol=st.booleans())
    def test_mixed_lines_read_as_the_oracle_reads_them(self, lines, eol, final_eol):
        text = eol.join(["D,{},{x0}", *lines]) + eol * final_eol
        got, want = read_matrix_both(text, *lattices(2, 1))
        assert got == want

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_written_matrix_reads_back_bitwise(self, data):
        p, q = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 2))
        V, U = lattices(p, q)
        values = data.draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                    min_size=V.size * U.size, max_size=V.size * U.size))
        pm = ParamMatrix("gamma", V, U, np.reshape(values, (V.size, U.size)))
        text = render_to_string(lambda s: lio.write_param_matrix(pm, s))
        eol = data.draw(st.sampled_from(["\n", "\r\n", "\r"]))
        assert read_matrix_both(text.replace("\n", eol), V, U, "gamma") == [pm.values.tobytes()] * 2


# one file of each kind the readers take, for lattices(1, 1)
READER_INPUTS = {
    "cases": ("y0,x0\n1,0\n0,1\n1,1\n",
              lambda src: lio.read_count_data(src, *lattices(1, 1), "cases").counts.tolist()),
    "counts": ("y0,x0,count\n1,0,3\n0,1,2\n1,1,5\n",
               lambda src: lio.read_count_data(src, *lattices(1, 1), "counts").counts.tolist()),
    "zeros": ("{y0};{}\n# a comment\n{y0};{x0}\n",
              lambda src: lio.read_zero_set(src, *lattices(1, 1)).tolist()),
    "matrix": ("D,{},{x0}\n{},0,0\n{y0},-1.5,0.25\n",
               lambda src: lio.read_param_matrix(src, *lattices(1, 1), "beta_gamma").values.tolist()),
}


class TestEncoding:
    @pytest.mark.parametrize("kind", SOURCES)
    @pytest.mark.parametrize("what", READER_INPUTS)
    def test_leading_bom_is_dropped(self, source_of, what, kind):
        text, read = READER_INPUTS[what]
        assert read(source_of(kind, "\ufeff" + text)) == read(io.StringIO(text))

    @pytest.mark.parametrize("kind", ["path", "dev-fd"])
    @pytest.mark.parametrize("what", READER_INPUTS)
    def test_undecodable_byte_reports_line(self, source_of, what, kind):
        text, read = READER_INPUTS[what]
        lines = text.encode().splitlines(keepends=True)
        data = b"".join(lines[:2]) + b"\r\n\r" + b"\xff" + b"".join(lines[2:])
        with pytest.raises(DataError, match="^line 5: byte 0xff is not UTF-8 text$"):
            read(source_of(kind, text, data))

    @pytest.mark.parametrize("end", ["\r", "\r\n"], ids=["CR", "CRLF"])
    @pytest.mark.parametrize("kind", SOURCES)
    @pytest.mark.parametrize("what", READER_INPUTS)
    def test_cr_and_crlf_line_ends_read_alike(self, source_of, what, kind, end):
        text, read = READER_INPUTS[what]
        assert read(source_of(kind, "\ufeff" + text.replace("\n", end))) == read(io.StringIO(text))

    @pytest.mark.parametrize("what, text, message", [
        ("cases", "y0,x0\r1,0\r\n\r2,1\n", "line 4: column 'y0' must be 0 or 1, got '2'"),
        ("counts", "y0,x0,count\r\n1,0,3\r\r0,1,-2\n", "line 4: count must be non-negative, got -2"),
        ("zeros", "{y0};{}\r# a comment\r\n\r\n{y0};{x0}\r{q};{}\n",
         "line 5: unknown label 'q'; expected one of ('y0',)"),
        ("matrix", "D,{},{x0}\r{},0,0\r\n\r{y0},-1.5,many\r\n", "line 4: not a number: 'many'"),
    ])
    def test_line_numbers_count_cr_and_crlf_ends(self, source_of, what, text, message):
        read = READER_INPUTS[what][1]
        for kind in SOURCES:
            with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
                read(source_of(kind, text))

    @pytest.mark.parametrize("what", READER_INPUTS)
    def test_undecodable_stream_byte_is_a_data_error(self, source_of, what):
        text, read = READER_INPUTS[what]
        data = text.encode().replace(b"\n", b"\n\xff", 1)
        with pytest.raises(DataError, match="^input is not UTF-8 text$"):
            read(source_of("pipe", text, data))


class TestNumberFormatting:
    def test_fixed_point_and_negative_zero(self):
        values = [1.23456, -0.00004, float("nan"), 0.0, -0.0, -4e-4, 5e-4, -5e-4,
                  float("nan"), float("inf"), float("-inf"), None, 1e16]
        for decimals in (3, 6):
            tokens = fixed_floats(values, decimals)
            assert tokens == [_oracle_fmt_num(x, decimals) for x in values]
            assert fixed_floats(np.array(values, dtype=float), decimals) == tokens
        assert fixed_floats(values[:3], 3) == ["1.235", "0.000", "nan"]

    def test_json_rounding(self):
        values = [1.23456789, float("nan"), float("inf"), -1e-12, None,
                  -4e-7, 5e-7, 1e-05, 1.5e-05, 1e16, -0.0, float("nan")]
        tokens = json_floats(values)
        assert tokens == [json.dumps(_oracle_json_num(x)) for x in values]
        assert tokens[:5] == ["1.234568", "null", "null", "0.0", "null"]
        assert tokens[5:11] == ["0.0", "0.0", "1e-05", "1.5e-05", "1e+16", "0.0"]


def scale_values(decimals: int) -> list:
    """Over 10**5 values where rounding to ``decimals`` places or printing is delicate."""
    rng = np.random.default_rng(decimals)
    k = np.concatenate([rng.integers(-10**6, 10**6, 10_000),
                        rng.integers(-10**14, 10**14, 5_000)])
    ties = (k + 0.5) * 10.0 ** -decimals          # nearest doubles to decimal ties
    # exact binary ties: (2j + 1) / 2**(N + 1) times 10**N is (2j + 1) * 5**N / 2
    binary = (2 * rng.integers(-10**6, 10**6, 5_000) + 1) / 2.0 ** (decimals + 1)
    edges = np.array([10.0 ** (15 - decimals), 1e-4, 5.0 * 10.0 ** -(decimals + 1)])
    center = np.concatenate([ties, binary, edges])
    near = np.concatenate([center, np.nextafter(center, np.inf), np.nextafter(center, -np.inf)])
    spread = rng.normal(size=40_000) * 10.0 ** rng.uniform(-20, 18, 40_000)
    tiny = np.array([5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, -1e-310])
    values = np.concatenate([near, -edges, spread, tiny]).tolist()
    return values + [0.0, -0.0, float("nan"), float("inf"), float("-inf"), None]


@pytest.mark.parametrize("decimals", [1, 3, 6, 12])
def test_encoders_at_scale(decimals):
    values = scale_values(decimals)
    assert len(values) > 10**5
    want_json = [json.dumps(_oracle_json_num(x, decimals)) for x in values]
    want_fixed = [_oracle_fmt_num(x, decimals) for x in values]
    assert json_floats(values, decimals) == want_json
    assert fixed_floats(values, decimals) == want_fixed
    as_array = np.array(values, dtype=float)
    assert json_floats(as_array, decimals) == want_json
    assert fixed_floats(as_array, decimals) == want_fixed


def test_encoders_take_decimals_while_ten_to_the_power_is_exact():
    assert fixed_floats([2.5, -0.4, 1e300], 0) == ["2", "0", f"{1e300:.0f}"]
    assert fixed_floats([float("nan"), 1.0, float("-inf"), float("inf")], 0) == \
        ["nan", "1", "-inf", "inf"]
    values = [1.5e-20, 2.5e-22, -3e-9, 0.1 + 0.2]
    assert json_floats(values, 22) == [json.dumps(_oracle_json_num(x, 22)) for x in values]
    assert json_floats(values, 22)[:3] == ["1.5e-20", "2e-22", "-3e-09"]
    with pytest.raises(ValueError, match="decimals"):
        fixed_floats([1.0], 23)
    assert json_floats([], 6) == [] and fixed_floats(np.empty((0, 3)), 3) == []


@pytest.mark.parametrize("decimals", [1, 6, 12, 15])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_round_scaled_is_exact_half_even_rounding(decimals, data):
    """``_round_scaled`` gives x * 10**N rounded half to even in exact rational
    arithmetic, on random values, on binary ties and on each tie's neighbours."""
    bound = 10.0 ** (15 - decimals)
    # (2j + 1) / 2**(N + 1) times 10**N is (2j + 1) * 5**N / 2, a tie below 10**15
    odd = int(bound) * 2 ** decimals
    ties = data.draw(st.lists(st.integers(-odd, odd - 1).map(
        lambda j: (2 * j + 1) / 2.0 ** (decimals + 1)), max_size=20))
    floats = data.draw(st.lists(st.floats(-bound, bound, exclude_min=True, exclude_max=True),
                                max_size=20))
    decimal_ties = data.draw(st.lists(st.integers(-10**6, 10**6).map(
        lambda k: (k + 0.5) / 10.0 ** decimals), max_size=10))
    center = np.array(ties + decimal_ties, dtype=float)
    x = np.concatenate([floats, center, np.nextafter(center, np.inf),
                        np.nextafter(center, -np.inf)])
    x = x[np.abs(x) < bound]
    assert lio._round_scaled(x, decimals).tolist() == \
        [round(Fraction(v) * 10**decimals) for v in x.tolist()]


def test_join_rows_interleaves_columns():
    columns = [["a", "b"], ["1", "2"], ["x", "y"]]
    assert lio.join_rows(columns, ["=", ";"], "<", "|", ">") == "<a=1;x|b=2;y>"
    assert lio.join_rows([["a"]], [], "", "\n", "\n") == "a\n"
    assert lio.join_rows([[], []], ["\t"], "head", "\n", "\n") == ""


# float values where rounding and printing are delicate
DELICATE_FLOATS = st.one_of(
    st.sampled_from([float("nan"), float("inf"), float("-inf"), 0.0, -0.0, 5e-324, -5e-324,
                     2.2250738585072014e-308, 1e16, -1e16, 5e-7, -5e-7, 1e-5, -1e-5, 1.5e-5,
                     0.5, 2.5]),
    st.floats(4.9e-7, 5.1e-7), st.floats(-5.1e-7, -4.9e-7),
    st.floats(0.99e-5, 1.01e-5), st.floats(-1.01e-5, -0.99e-5),
    st.floats(allow_nan=True, allow_infinity=True),
)


@st.composite
def record_tables(draw):
    """(Records, the list of dicts json.dumps is given) with float, string and flag columns."""
    keys = draw(st.lists(st.text(max_size=5), min_size=1, max_size=4, unique=True))
    n = draw(st.integers(0, 50))
    columns, values = {}, {}
    for key in keys:
        kind = draw(st.sampled_from(["float6", "float12", "str", "flag"]))
        if kind.startswith("float"):
            decimals = int(kind[5:])
            col = draw(st.lists(st.one_of(st.none(), DELICATE_FLOATS), min_size=n, max_size=n))
            columns[key] = json_floats(col, decimals)
            values[key] = [_oracle_json_num(x, decimals) for x in col]
        elif kind == "str":
            col = draw(st.lists(st.text(max_size=6), min_size=n, max_size=n))
            columns[key], values[key] = json_strings(col), col
        else:
            col = draw(st.lists(st.sampled_from([True, False, None]), min_size=n, max_size=n))
            columns[key], values[key] = [json.dumps(v) for v in col], col
    return Records(columns), [{key: values[key][i] for key in keys} for i in range(n)]


SCALARS = st.one_of(
    st.text(max_size=6).map(lambda v: (v, v)),
    st.integers(-10**6, 10**6).map(lambda v: (v, v)),
    st.sampled_from([True, False, None]).map(lambda v: (v, v)),
    DELICATE_FLOATS.map(lambda x: (Raw(json_floats([x])[0]), _oracle_json_num(x))),
    st.lists(DELICATE_FLOATS, max_size=3).map(
        lambda xs: (Tokens(json_floats(xs)), [_oracle_json_num(x) for x in xs])),
    st.integers(1, 3).flatmap(lambda w: st.lists(st.lists(
        DELICATE_FLOATS, min_size=w, max_size=w), max_size=3).map(
        lambda rows: (json_matrix(np.reshape(rows, (len(rows), w))),
                      [[_oracle_json_num(x) for x in row] for row in rows]))),
)


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=3).map(
            lambda items: ([w for w, _ in items], [o for _, o in items])),
        st.dictionaries(st.text(max_size=4), children, max_size=3).map(
            lambda d: ({k: w for k, (w, _) in d.items()}, {k: o for k, (_, o) in d.items()})),
    )


class TestJsonWriter:
    """``write_json`` prints what ``print(json.dumps(obj, indent=2))`` prints."""

    @settings(max_examples=200, deadline=None)
    @given(st.recursive(st.one_of(SCALARS, record_tables()), _containers, max_leaves=8))
    @example(({"steps": [{"label": "drop", "fit": {   # select --out json, empty values at depth 4
        "coefficients": Records({"D": ['"a"', '"b"'], "se": ["0.5", "null"]}),
        "notes": [], "none": Tokens(), "rows": Records({"D": []}), "extra": {}}}]},
        {"steps": [{"label": "drop", "fit": {
            "coefficients": [{"D": "a", "se": 0.5}, {"D": "b", "se": None}],
            "notes": [], "none": [], "rows": [], "extra": {}}}]}))
    def test_matches_json_dumps(self, doc):
        written, obj = doc
        assert render_to_string(lambda s: lio.write_json(written, s)) == \
            json.dumps(obj, indent=2) + "\n"

    def test_float_tokens_match_rounded_dumps(self):
        rng = np.random.default_rng(8)
        values = (rng.normal(size=2000) * 10.0 ** np.repeat(np.arange(-8, 12), 100)).tolist()
        for decimals in (6, 12):
            want = [json.dumps(_oracle_json_num(x, decimals)) for x in values]
            assert json_floats(values, decimals) == want
            assert json_floats(np.array(values), decimals) == want

    @pytest.mark.parametrize("decimals", [6, 12])
    def test_float_tokens_at_the_fixed_point_limits(self, decimals):
        # where repr turns to exponent form, where a value rounds to zero, where
        # the fixed-point text passes 15 significant digits, and exact binary ties
        edges = [1e-4, 5e-7, 5.0 * 10.0 ** -(decimals + 1), 10.0 ** (15 - decimals),
                 1e8, 1e15, 1e16]
        near = [float(v) for x in edges
                for v in (np.nextafter(x, 0.0), x, np.nextafter(x, np.inf))]
        ties = [2.0 ** -7, 3 / 128, 2.0 ** -13]
        # past 10**(15 - N), '{:.Nf}' of these is not repr(round(x, N))
        past_bound = [8673695546.32591, 9293.07170958056]
        values = [sign * x for x in near + ties + past_bound for sign in (1.0, -1.0)]
        values += [0.0, -0.0, float("nan"), float("inf"), float("-inf"), None]
        want = [json.dumps(_oracle_json_num(x, decimals)) for x in values]
        assert json_floats(values, decimals) == want
        assert json_floats(np.array(values, dtype=float), decimals) == want

    def test_ties_round_half_even_on_the_binary_value(self):
        assert json_floats([2.0 ** -7, 3 / 128, -3 / 128]) == ["0.007812", "0.023438", "-0.023438"]
        assert json_floats([2.0 ** -13], 12) == ["0.000122070312"]

    def test_decimals_must_be_positive(self):
        with pytest.raises(ValueError, match="decimals"):
            json_floats([1.5], 0)

    def test_keys_need_no_escaping(self):
        records = Records({"a%s": ["1"], "%%": ["2"], '"q"': ["3"], "ü": ["4"]})
        want = [{"a%s": 1, "%%": 2, '"q"': 3, "ü": 4}]
        assert render_to_string(lambda s: lio.write_json({"t": records}, s)) == \
            json.dumps({"t": want}, indent=2) + "\n"

    # the values the encoder writes apart: the per-value path (|x| >= 1e9 at
    # 6 places), infinities and NaN (null), and negative zero (0.0)
    RARE = [8673695546.32591, 1e16, -1e16, np.inf, -np.inf, np.nan, -0.0]

    @pytest.mark.parametrize("depth", [0, 1, 3])
    @pytest.mark.parametrize("shape", [(0, 0), (0, 3), (1, 1), (1, 5), (5, 1), (256, 16),
                                       (1, 7), (7, 1)])
    def test_matrix_prints_as_rows_of_tokens(self, shape, depth):
        rng = np.random.default_rng(shape[0] + shape[1])
        values = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 8, size=shape)
        values[rng.random(shape) < 0.1] = np.nan             # printed as null
        rare = rng.permutation(self.RARE)[:values.size]
        values.flat[rng.choice(values.size, rare.size, replace=False)] = rare
        tokens = json_floats(values)
        rows = [Tokens(tokens[i * shape[1]:(i + 1) * shape[1]]) for i in range(shape[0])]
        plain = [[_oracle_json_num(x) for x in row] for row in values.tolist()]

        def nest(leaf):     # the leaf inside ``depth`` containers
            return {0: leaf, 1: {"values": leaf}, 3: {"pi": [{"values": leaf}]}}[depth]

        got = render_to_string(lambda s: lio.write_json(nest(json_matrix(values)), s))
        assert got == render_to_string(lambda s: lio.write_json(nest(rows), s))
        assert got == json.dumps(nest(plain), indent=2) + "\n"

    def test_matrix_text_holds_the_column_tokens(self):
        values = np.array([self.RARE[:4], self.RARE[3:], [0.5, 1e-7, -2.5e-5, 3.0]])
        text = json_matrix(values, 12)
        assert text.split(";") == ["\n".join(row) for row in
                                   (json_floats(v, 12) for v in values)]
        assert text.split(";")[0] == "8673695546.32591\n1e+16\n-1e+16\nnull"

    def test_matrix_needs_two_axes_and_a_value_a_row(self):
        for values in (1.0, np.ones(3), np.ones((2, 0)), np.ones((1, 2, 2))):
            with pytest.raises(ValueError, match="matrix"):
                json_matrix(values)
        with pytest.raises(ValueError, match="decimals"):
            json_matrix(np.ones((1, 1)), 0)
        assert json_matrix(np.ones((0, 3))) == "" == json_matrix(np.empty((0, 0)))

    def test_record_table_needs_equal_columns(self):
        with pytest.raises(ValueError):
            Records({"a": ["1"], "b": []})
        with pytest.raises(ValueError):
            Records({})


@pytest.fixture()
def workdir(tmp_path):
    """A beta_gamma matrix file and a simulated counts file for CLI runs."""
    V, U = SubsetLattice(("b", "c")), SubsetLattice(("h",))
    bg = np.zeros((4, 2))
    bg[1] = [-1.6, 0.7]
    bg[2] = [-1.3, 0.4]
    bg[3] = [0.8, -0.3]
    beta = ParamMatrix("beta_gamma", V, U, bg)
    beta_path = tmp_path / "beta.csv"
    with beta_path.open("w") as f:
        lio.write_param_matrix(beta, f)
    data = simulate(beta, "lml", (5000, 4000), seed=5)
    data_path = tmp_path / "data.csv"
    with data_path.open("w") as f:
        lio.write_count_data(data, f, "counts")
    return tmp_path, str(beta_path), str(data_path)


def base_args(data_path: str) -> list[str]:
    return ["--input", data_path, "--format", "counts",
            "--responses", "b,c", "--covariates", "h"]


class TestCliFit:
    def test_tsv_output(self, workdir, capsys):
        _, _, data_path = workdir
        assert main(["fit", *base_args(data_path)]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0] == "# link: lml"
        assert lines[1].startswith("# deviance:")
        assert lines[2].split("\t")[:4] == ["D", "est{}", "se{}", "p{}"]
        assert "mu_est{h}" in lines[2]
        assert lines[3].startswith("{b}\t")

    def test_deterministic_output(self, workdir, capsys):
        _, _, data_path = workdir
        main(["fit", *base_args(data_path)])
        first = capsys.readouterr().out
        main(["fit", *base_args(data_path)])
        assert capsys.readouterr().out == first

    def test_json_output(self, workdir, capsys):
        _, _, data_path = workdir
        assert main(["fit", *base_args(data_path), "--out", "json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["link"] == "lml"
        assert obj["deviance"] == 0.0
        assert obj["df"] == 0
        keys = [(row["D"], row["E"]) for row in obj["coefficients"]]
        assert keys == [("{b}", "{}"), ("{b}", "{h}"), ("{c}", "{}"),
                        ("{c}", "{h}"), ("{b,c}", "{}"), ("{b,c}", "{h}")]
        assert not any(row["constrained"] for row in obj["coefficients"])

    def test_zeros_file_constrains_and_renders_dots(self, workdir, capsys):
        tmp_path, _, data_path = workdir
        zeros = tmp_path / "zeros.txt"
        zeros.write_text("{b,c};{h}\n")
        assert main(["fit", *base_args(data_path), "--zeros", str(zeros)]) == 0
        out = capsys.readouterr().out
        pair_line = [ln for ln in out.splitlines() if ln.startswith("{b,c}")][0]
        fields = pair_line.split("\t")
        assert fields[4:7] == ["·", "·", "·"]
        assert "df: 1" in out

    def test_lm_link_omits_induced_columns(self, workdir, capsys):
        _, _, data_path = workdir
        assert main(["fit", *base_args(data_path), "--link", "lm"]) == 0
        out = capsys.readouterr().out
        assert "# link: lm" in out
        assert "mu_est" not in out


class TestCliTransform:
    def test_emits_all_scales(self, workdir, capsys):
        _, beta_path, _ = workdir
        argv = ["transform", "--input", beta_path, "--kind", "beta_gamma",
                "--responses", "b,c", "--covariates", "h"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        for name in ("pi", "mu", "gamma", "beta_mu", "beta_gamma"):
            assert f"# kind: {name}" in out

    def test_round_trips_the_input_values(self, workdir, capsys):
        _, beta_path, _ = workdir
        argv = ["transform", "--input", beta_path, "--kind", "beta_gamma",
                "--responses", "b,c", "--covariates", "h"]
        main(argv)
        out = capsys.readouterr().out
        section = out.split("# kind: beta_gamma\n")[1]
        pair = [ln for ln in section.splitlines() if ln.startswith('"{b,c}"')][0]
        assert pair.split('",')[1] == "0.800000,-0.300000"

    def test_json_structure(self, workdir, capsys):
        _, beta_path, _ = workdir
        argv = ["transform", "--input", beta_path, "--kind", "beta_gamma",
                "--responses", "b,c", "--covariates", "h", "--out", "json"]
        assert main(argv) == 0
        obj = json.loads(capsys.readouterr().out)
        assert set(obj) == {"pi", "mu", "gamma", "beta_mu", "beta_gamma"}
        assert obj["mu"]["values"][0] == [1.0, 1.0]


class TestCliSelect:
    @pytest.mark.parametrize("method", ["forward", "backward"])
    def test_runs_and_reports_steps(self, workdir, capsys, method):
        _, _, data_path = workdir
        assert main(["select", *base_args(data_path), "--method", method]) == 0
        out = capsys.readouterr().out
        assert "# step 1:" in out
        assert "# dropped:" in out

    def test_json_lists_final_zero_set(self, workdir, capsys):
        _, _, data_path = workdir
        assert main(["select", *base_args(data_path), "--out", "json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert "steps" in obj and "final_fit" in obj
        assert isinstance(obj["final_zero_set"], list)
        assert obj["steps"][0]["label"] == "margin {b}"


    def test_a_failed_margin_prints_its_error(self, workdir, capsys, monkeypatch):
        _, _, data_path = workdir
        real_fit = lmlreg.selection.fit

        def failing_fit(spec, data, options=None):
            if data.responses.labels == ("c",):
                raise DataError("zero observed cell in a saturated fit")
            return real_fit(spec, data, options)

        monkeypatch.setattr(lmlreg.selection, "fit", failing_fit)
        assert main(["select", *base_args(data_path), "--method", "forward"]) == 0
        out = capsys.readouterr().out
        assert ("\n# step 2: margin {c}\n# error: zero observed cell in a saturated fit\n"
                "# dropped: (none)\n\n# step 3: margin {b,c}\n") in out


class TestCliRisk:
    def test_table_shape(self, workdir, capsys):
        _, _, data_path = workdir
        assert main(["risk", *base_args(data_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        header = lines[1].split("\t")
        assert header == ["D", "u", "E", "log_rr", "rr", "log_ref_rr", "ref_rr",
                          "log_ratio", "ratio", "constrained"]
        singles = [ln for ln in lines if ln.startswith("{b}\t")]
        assert all("·" in ln for ln in singles)

    def test_constrained_rows_marked(self, workdir, capsys):
        tmp_path, _, data_path = workdir
        zeros = tmp_path / "zeros.txt"
        zeros.write_text("{b,c};{h}\n")
        main(["risk", *base_args(data_path), "--zeros", str(zeros)])
        out = capsys.readouterr().out
        pair = [ln for ln in out.splitlines() if ln.startswith("{b,c}")][0]
        assert pair.split("\t")[-1] == "yes"

    @pytest.mark.parametrize("out", ["tsv", "json"])
    def test_writes_without_risk_entries(self, workdir, capsys, monkeypatch, out):
        def no_entry(*fields):
            raise AssertionError("cmd_risk built a RiskEntry")

        monkeypatch.setattr("lmlreg.risk.RiskEntry", no_entry)
        tmp_path, _, data_path = workdir
        zeros = tmp_path / "zeros.txt"
        zeros.write_text("{b,c};{h}\n")
        assert main(["risk", *base_args(data_path), "--zeros", str(zeros), "--out", out]) == 0
        assert capsys.readouterr().out.count("{b,c}") == 1

    def test_spec_validated_once(self, workdir, capsys, monkeypatch):
        tmp_path, _, data_path = workdir
        zeros = tmp_path / "zeros.txt"
        zeros.write_text("{b,c};{h}\n")
        calls = []
        validate_for = ModelSpec.validate_for

        def counted_validate_for(self, responses, covariates):
            calls.append(self)
            return validate_for(self, responses, covariates)

        monkeypatch.setattr(ModelSpec, "validate_for", counted_validate_for)
        assert main(["risk", *base_args(data_path), "--zeros", str(zeros)]) == 0
        assert len(calls) == 1


class TestCliSimulate:
    def test_deterministic_counts_output(self, workdir, capsys):
        _, beta_path, _ = workdir
        argv = ["simulate", "--input", beta_path, "--responses", "b,c",
                "--covariates", "h", "--totals", "1000,800", "--seed", "9",
                "--format", "counts"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        main(argv)
        assert capsys.readouterr().out == first
        rows = first.strip().splitlines()
        assert rows[0] == "b,c,h,count"
        totals = {}
        for row in rows[1:]:
            *_bits, h, n = row.split(",")
            totals[h] = totals.get(h, 0) + int(n)
        assert totals == {"0": 1000, "1": 800}

    def test_single_total_applies_to_every_cell(self, workdir, capsys):
        _, beta_path, _ = workdir
        argv = ["simulate", "--input", beta_path, "--responses", "b,c",
                "--covariates", "h", "--totals", "500", "--seed", "1",
                "--format", "counts"]
        assert main(argv) == 0
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        per_cell = {}
        for row in rows:
            *_bits, h, n = row.split(",")
            per_cell[h] = per_cell.get(h, 0) + int(n)
        assert per_cell == {"0": 500, "1": 500}

    def test_cases_format(self, workdir, capsys):
        _, beta_path, _ = workdir
        argv = ["simulate", "--input", beta_path, "--responses", "b,c",
                "--covariates", "h", "--totals", "40", "--seed", "2",
                "--format", "cases"]
        assert main(argv) == 0
        rows = capsys.readouterr().out.strip().splitlines()
        assert rows[0] == "b,c,h"
        assert len(rows) == 1 + 80

    def test_bad_totals_is_config_error(self, workdir, capsys):
        _, beta_path, _ = workdir
        argv = ["simulate", "--input", beta_path, "--responses", "b,c",
                "--covariates", "h", "--totals", "10,20,30"]
        assert main(argv) == 2

    def test_samples_the_pi_it_reads(self, tmp_path, capsys):
        # a cell of 1e-20 is valid; mapped to coefficients and back, it
        # rounds to 0 and the matrix would be refused
        path = tmp_path / "pi.csv"
        path.write_text('D,{},{h}\n{},0.4,0.4\n{b},0.3,0.35\n{c},1e-20,1e-20\n"{b,c}",0.3,0.25\n')
        argv = ["simulate", "--input", str(path), "--responses", "b,c", "--covariates", "h",
                "--kind", "pi", "--totals", "1000,800", "--seed", "9", "--format", "counts"]
        assert main(argv) == 0
        V, U = SubsetLattice(("b", "c")), SubsetLattice(("h",))
        got = lio.read_count_data(io.StringIO(capsys.readouterr().out), V, U, "counts").counts
        pi = lio.read_param_matrix(str(path), V, U, "pi").values
        rng = np.random.default_rng(9)
        want = np.stack([rng.multinomial(n, pi[:, j]) for j, n in enumerate((1000, 800))], axis=1)
        assert np.array_equal(got, want)


class TestCliPlotData:
    def test_csv_series(self, workdir, capsys):
        _, _, data_path = workdir
        assert main(["plot-data", *base_args(data_path)]) == 0
        rows = capsys.readouterr().out.strip().splitlines()
        assert rows[0] == "link,k,estimate,se,ci_lo,ci_hi"
        body = [r.split(",") for r in rows[1:]]
        assert [(r[0], r[1]) for r in body] == [
            ("lm", "1"), ("lm", "2"), ("lml", "1"), ("lml", "2")]
        for r in body:
            est, se, lo, hi = (float(x) for x in r[2:])
            assert lo == pytest.approx(est - 1.96 * se, abs=1e-9)
            assert hi == pytest.approx(est + 1.96 * se, abs=1e-9)

    def test_unknown_effect_rejected(self, workdir):
        _, _, data_path = workdir
        assert main(["plot-data", *base_args(data_path), "--effect", "zz"]) == 2


# Config errors by case: argv ({data}, {beta} and {pair} name input files)
# and the message main prints before exiting 2
CONFIG_ERRORS = {
    "responses": (["fit", "--input", "{data}", "--format", "counts", "--covariates", "h"],
                  "--responses is required"),
    "covariates": (["fit", "--input", "{data}", "--format", "counts", "--responses", "b,c"],
                   "--covariates is required"),
    "input": (["fit", "--responses", "b,c", "--covariates", "h"],
              "--input is required for this command"),
    "five-covariates": (["fit", "--input", "{data}", "--format", "counts", "--responses", "b,c",
                         "--covariates", "h,k,l,m,n"],
                        "at most 4 covariates are supported, got 5"),
    "smooth-zero": (["fit", "--input", "{data}", "--format", "counts", "--responses", "b,c",
                     "--covariates", "h", "--smooth", "0"], "--smooth must be positive, got 0.0"),
    "smooth-nan": (["fit", "--input", "{data}", "--format", "counts", "--responses", "b,c",
                    "--covariates", "h", "--smooth", "nan"], "--smooth must be positive, got nan"),
    "smooth-inf": (["fit", "--input", "{data}", "--format", "counts", "--responses", "b,c",
                    "--covariates", "h", "--smooth", "inf"], "--smooth must be finite, got inf"),
    "totals-not-integers": (["simulate", "--input", "{beta}", "--responses", "b,c",
                             "--covariates", "h", "--totals", "10,x"],
                            "--totals must be integers, got '10,x'"),
    "totals-negative": (["simulate", "--input", "{beta}", "--responses", "b,c",
                         "--covariates", "h", "--totals", "10,-1"],
                        "--totals must be nonnegative"),
    "effect": (["plot-data", "--input", "{pair}", "--responses", "b", "--covariates", "h,k"],
               "--effect is required when there is more than one covariate"),
    "forward-lm": (["select", "--input", "{data}", "--format", "counts", "--responses", "b,c",
                    "--covariates", "h", "--method", "forward", "--link", "lm"],
                   "forward margin selection requires the lml link (margin-consistent terms)"),
    "alpha": (["select", "--input", "{data}", "--format", "counts", "--responses", "b,c",
               "--covariates", "h", "--alpha", "7"], "--alpha must be in (0, 1], got 7.0"),
    # just above the bound, which a bound of 2 would let through
    "alpha-above-one": (["select", "--input", "{data}", "--format", "counts", "--responses", "b,c",
                         "--covariates", "h", "--alpha", "1.5"],
                        "--alpha must be in (0, 1], got 1.5"),
    "reserved-label": (["fit", "--input", "{data}", "--format", "counts", "--responses", "a b",
                        "--covariates", "h"],
                       "label 'a b' is empty or contains a reserved character"),
}


# The flags a command does not read, and a value to pass each one
UNREAD_FLAGS = {
    "fit": ["--alpha", "--seed"],
    "risk": ["--alpha", "--seed"],
    "select": ["--zeros", "--seed"],
    "transform": ["--format", "--link", "--alpha", "--smooth", "--zeros", "--seed",
                  "--allow-missing-cells"],
    "simulate": ["--alpha", "--smooth", "--zeros", "--out", "--allow-missing-cells"],
    "plot-data": ["--link", "--alpha", "--zeros", "--seed"],
}
FLAG_VALUES = {"--format": ["counts"], "--link": ["lm"], "--alpha": ["0.5"], "--smooth": [],
               "--zeros": ["missing.txt"], "--seed": ["9"], "--out": ["json"],
               "--allow-missing-cells": []}
# the flags each command requires besides --input, --responses and --covariates
REQUIRED_FLAGS = {"transform": ["--kind", "beta_gamma"], "simulate": ["--totals", "10"]}


class TestExitCodes:
    def test_config_errors(self, workdir, capsys):
        _, _, data_path = workdir
        assert main(["select", *base_args(data_path), "--alpha", "7"]) == 2
        assert capsys.readouterr().err == "error: --alpha must be in (0, 1], got 7.0\n"
        assert main(["fit", "--input", data_path, "--format", "counts",
                     "--responses", "b,c", "--covariates", "b"]) == 2
        many = ",".join(f"r{i}" for i in range(9))
        assert main(["fit", "--input", data_path, "--format", "counts",
                     "--responses", many, "--covariates", "h"]) == 2

    def test_missing_input_file_is_a_data_error(self, tmp_path):
        missing = str(tmp_path / "nope.csv")
        assert main(["fit", "--input", missing, "--responses", "b,c",
                     "--covariates", "h"]) == 3

    def test_malformed_data_is_a_data_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("b,c,h\n1,0,2\n")
        assert main(["fit", "--input", str(bad), "--responses", "b,c",
                     "--covariates", "h"]) == 3

    def test_pipe_input_reports_bad_line(self, source_of, capsys):
        path = source_of("dev-fd", "b,c,h\n1,0,1\n2,0,0\n")
        assert main(["fit", "--input", path, "--responses", "b,c", "--covariates", "h"]) == 3
        assert capsys.readouterr().err == "error: line 3: column 'b' must be 0 or 1, got '2'\n"

    @pytest.mark.parametrize("flag, data, line", [
        ("--input", b"b,c,h\n1,0,1\n\xff,0,0\n", 3),
        ("--zeros", b"{b};{}\n\xff\n", 2),
        ("--kind", b"D,{},{h}\n\xff\n", 2),
    ], ids=["cases", "zeros", "matrix"])
    def test_undecodable_input_is_a_data_error(self, workdir, capsys, flag, data, line):
        tmp_path, _, data_path = workdir
        bad = tmp_path / "bad"
        bad.write_bytes(data)
        argv = {"--input": ["fit", "--input", str(bad), "--responses", "b,c", "--covariates", "h"],
                "--zeros": ["fit", *base_args(data_path), "--zeros", str(bad)],
                "--kind": ["transform", "--input", str(bad), "--responses", "b,c",
                           "--covariates", "h", "--kind", "beta_gamma"]}[flag]
        assert main(argv) == 3
        assert capsys.readouterr().err == f"error: line {line}: byte 0xff is not UTF-8 text\n"

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_non_finite_matrix_cell_is_a_data_error(self, tmp_path, capsys, cell):
        path = tmp_path / "beta.csv"
        path.write_text(f'D,{{}},{{h}}\n{{}},0,0\n{{b}},-1.0,{cell}\n{{c}},-1.3,0.4\n'
                        f'"{{b,c}}",0.8,-0.3\n')
        argv = ["simulate", "--input", str(path), "--responses", "b,c", "--covariates", "h",
                "--totals", "100", "--seed", "1"]
        assert main(argv) == 3
        assert capsys.readouterr() == ("", f"error: line 3: not a finite number: '{cell}'\n")

    def test_infeasible_constraint_is_a_numerical_error(self, workdir):
        tmp_path, _, data_path = workdir
        zeros = tmp_path / "bad_zeros.txt"
        zeros.write_text("{b};{}\n{b};{h}\n")
        assert main(["fit", *base_args(data_path), "--zeros", str(zeros)]) == 4

    def test_empty_covariate_cell_recovers_with_flag(self, tmp_path, capsys):
        V, U = SubsetLattice(("b",)), SubsetLattice(("h",))
        counts = np.array([[30, 0], [20, 0]], dtype=np.int64)
        path = tmp_path / "partial.csv"
        with path.open("w") as f:
            lio.write_count_data(CountTable(V, U, counts), f, "counts")
        args = ["fit", "--input", str(path), "--format", "counts",
                "--responses", "b", "--covariates", "h"]
        assert main(args) == 3
        capsys.readouterr()
        assert main([*args, "--allow-missing-cells"]) == 0
        captured = capsys.readouterr()
        assert "warning: no observations" in captured.err

    def test_header_only_input_warns_once_and_nothing_else(self, tmp_path):
        # every coefficient is unidentified; a process with the default
        # warning filters shows whatever numpy would print
        path = tmp_path / "empty.csv"
        path.write_text("a,b,x\n")
        env = {**os.environ, "PYTHONPATH": str(Path(lmlreg.__file__).parents[1])}
        proc = subprocess.run([sys.executable, "-m", "lmlreg.cli", "fit", "--input", str(path),
                               "--responses", "a,b", "--covariates", "x",
                               "--allow-missing-cells"],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0
        assert proc.stderr == "warning: no observations in covariate cells: {}, {x}\n"
        assert "unidentified coefficients forced to zero" in proc.stdout

    @pytest.mark.parametrize("argv, message", CONFIG_ERRORS.values(), ids=CONFIG_ERRORS.keys())
    def test_config_error_messages(self, workdir, capsys, argv, message):
        tmp_path, beta_path, data_path = workdir
        pair = tmp_path / "pair.csv"
        pair.write_text("b,h,k\n" + "".join(f"{b},{e & 1},{e >> 1}\n"
                                             for b in (0, 1) for e in range(4)))
        files = {"{data}": data_path, "{beta}": beta_path, "{pair}": str(pair)}
        assert main([files.get(arg, arg) for arg in argv]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("argv, message", CONFIG_ERRORS.values(), ids=CONFIG_ERRORS.keys())
    @pytest.mark.parametrize("source", ["missing", "malformed", "empty-cell"])
    def test_config_errors_come_before_any_read(self, tmp_path, capsys, argv, message, source):
        """An input that would fail to read (exit 3) or warn does not precede a config error."""
        path = tmp_path / "input.csv"
        if source == "malformed":
            path.write_text("b,c,h\n1,0,2\n")
        elif source == "empty-cell":
            path.write_text("b,h,k\n0,0,0\n1,1,0\n0,0,1\n")   # no case in cell {h,k}
        assert main([str(path) if arg.startswith("{") else arg for arg in argv]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @staticmethod
    def chest_fit_argv(tmp_path) -> list[str]:
        """README's chest table with one zero constraint, so the start is not the optimum."""
        (tmp_path / "chest.csv").write_text(
            "cough,fever,exposed,count\n0,0,0,610\n1,0,0,180\n0,1,0,140\n1,1,0,70\n"
            "0,0,1,350\n1,0,1,240\n0,1,1,210\n1,1,1,200\n")
        (tmp_path / "zeros.txt").write_text("{cough,fever};{exposed}\n")
        return ["fit", "--input", str(tmp_path / "chest.csv"), "--format", "counts",
                "--responses", "cough,fever", "--covariates", "exposed",
                "--zeros", str(tmp_path / "zeros.txt")]

    def test_non_convergence_is_a_numerical_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(lmlreg.inference, "MAX_ITER", 1)
        assert main(self.chest_fit_argv(tmp_path)) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: fit did not converge in 1 iterations "
                                       "(gradient norm ")

    def test_non_finite_hessian_is_a_numerical_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(lmlreg.inference.LogLikelihood, "fd_hessian",
                            lambda self, x: np.full((x.size, x.size), np.nan))
        assert main(self.chest_fit_argv(tmp_path)) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: fit did not converge in 1 iterations "
                                       "(gradient norm ")

    def test_singular_information_is_a_note(self, tmp_path, capsys, monkeypatch):
        def no_inverse(a):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(lmlreg.inference.np.linalg, "inv", no_inverse)
        assert main(self.chest_fit_argv(tmp_path)) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        notes = [ln for ln in captured.out.splitlines() if ln.startswith("# note:")]
        assert notes == ["# note: observed information is singular; standard errors unavailable"]

    @pytest.mark.parametrize("command, inverses", [("fit", 1), ("risk", 0)])
    def test_only_fit_inverts_the_information(self, tmp_path, capsys, monkeypatch, command,
                                              inverses):
        """risk reads only the coefficients, so its fit never inverts the information."""
        calls = []
        real_inv = np.linalg.inv
        monkeypatch.setattr(lmlreg.inference.np.linalg, "inv",
                            lambda a: calls.append(a.shape) or real_inv(a))
        assert main([command, *self.chest_fit_argv(tmp_path)[1:]]) == 0
        assert capsys.readouterr().out
        assert len(calls) == inverses

    def test_closed_output_exits_1_silently(self, workdir, capsys, monkeypatch):
        tmp_path, beta_path, _ = workdir
        sink = (tmp_path / "sink").open("wb")

        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def fileno(self):
                return sink.fileno()

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert main(["transform", "--input", beta_path, "--kind", "beta_gamma",
                     "--responses", "b,c", "--covariates", "h"]) == 1
        assert capsys.readouterr().err == ""
        # the stream's descriptor now writes to os.devnull
        os.write(sink.fileno(), b"late flush")
        sink.close()
        assert (tmp_path / "sink").read_bytes() == b""

    def test_closed_pipe_ends_the_process_silently(self, workdir):
        """A reader that stops after one line (``| head -1``) gets exit code 1, no message."""
        _, beta_path, _ = workdir
        argv = ["simulate", "--input", beta_path, "--responses", "b,c", "--covariates", "h",
                "--totals", "200000", "--seed", "1", "--format", "cases"]
        env = {**os.environ, "PYTHONPATH": str(Path(lmlreg.__file__).parents[1])}
        proc = subprocess.Popen([sys.executable, "-m", "lmlreg.cli", *argv], env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert proc.stdout.readline() == b"b,c,h\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 1
        assert err == b""

    def test_argparse_usage_error_exits_2(self, workdir):
        _, beta_path, data_path = workdir
        matrix_args = ["--input", beta_path, "--responses", "b,c", "--covariates", "h"]
        for argv in (["fit", *base_args(data_path), "--link", "probit"],
                     ["transform", *matrix_args, "--kind", "theta"],
                     ["simulate", *matrix_args, "--kind", "theta", "--totals", "10"],
                     ["select", *base_args(data_path), "--method", "sideways"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2

    @pytest.mark.parametrize("command, flag", [(command, flag)
                                               for command, flags in UNREAD_FLAGS.items()
                                               for flag in flags])
    def test_unread_flag_is_a_usage_error(self, tmp_path, capsys, command, flag):
        """A flag the command does not read exits 2 through argparse, before any read."""
        argv = [command, "--input", str(tmp_path / "missing.csv"), "--responses", "b,c",
                "--covariates", "h", *REQUIRED_FLAGS.get(command, [])]
        assert main(argv) == 3   # without the flag, the missing input is the error
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main([*argv, flag, *FLAG_VALUES[flag]])
        assert exc.value.code == 2
        assert f"error: unrecognized arguments: {flag}" in capsys.readouterr().err


def _parse(parser, argv: list[str]):
    """``vars`` of the namespace, or the exit code, stdout and stderr of argparse's exit.

    The namespace is compared as its ``repr``, so a NaN value (``--smooth
    nan``) equals itself."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return repr(vars(parser.parse_args(argv)))
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()


def _minimal_argv(command: str) -> list[str]:
    """An argv that parses for ``command``: the three common flags and its required ones."""
    return [command, "--input", "in.csv", "--responses", "b,c", "--covariates", "h",
            *REQUIRED_FLAGS.get(command, [])]


def _parser_argvs() -> list[list[str]]:
    """Every argv the goldens, the cap and the usage-error tests give ``main``."""
    argvs = [*CASES.values(), *cap_argvs().values(), *(argv for argv, _ in CONFIG_ERRORS.values())]
    for command, flags in UNREAD_FLAGS.items():
        argv = _minimal_argv(command)
        argvs += [argv, *([*argv, flag, *FLAG_VALUES[flag]] for flag in flags)]
    return argvs


class TestParserPerCommand:
    """``main`` builds the flags of the command it runs and no other's."""

    @pytest.mark.parametrize("argv", _parser_argvs(), ids=" ".join)
    def test_same_parse_as_the_full_parser(self, argv, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        command = argv[0] if argv else None
        assert _parse(cli.build_parser(command), argv) == _parse(cli.build_parser(), argv)

    def test_argvs_cover_every_command(self):
        assert {argv[0] for argv in _parser_argvs() if argv} >= set(COMMANDS)

    @pytest.mark.parametrize("command", COMMANDS)
    def test_only_the_named_command_is_registered(self, command):
        def subparsers(parser):
            return next(action.choices for action in parser._actions
                        if isinstance(action, argparse._SubParsersAction))

        full, one = subparsers(cli.build_parser()), subparsers(cli.build_parser(command))
        assert list(full) == list(COMMANDS)
        assert list(one) == [command]
        assert ([action.dest for action in one[command]._actions]
                == [action.dest for action in full[command]._actions])

    @pytest.mark.parametrize("columns", ["30", "80"])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_same_usage_as_the_full_parser(self, command, columns, monkeypatch):
        """The top-level usage, which "unrecognized arguments" errors print,
        lists all six commands however the terminal wraps it."""
        monkeypatch.setenv("COLUMNS", columns)
        assert cli.build_parser(command).format_usage() == cli.build_parser().format_usage()

    @pytest.mark.parametrize("command", COMMANDS)
    def test_unknown_flag_fails_as_under_the_full_parser(self, command, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        argv = [*_minimal_argv(command), "--bogus"]
        one = run_main(argv)
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda command=None: build())
        assert one == run_main(argv)
        assert one[0] == 2 and "unrecognized arguments: --bogus" in one[2]

    @pytest.mark.parametrize("command", COMMANDS)
    def test_runs_the_function_bound_on_the_module(self, command, monkeypatch):
        """A ``cmd_*`` rebound on the module, as the traced benchmark wraps
        them, is the one ``main`` runs."""
        calls = []
        name = f"cmd_{command.replace('-', '_')}"
        monkeypatch.setattr(cli, name, lambda args, V, U: calls.append(args.command) or 0)
        assert main(_minimal_argv(command)) == 0
        assert calls == [command]


class TestCliMatchesEntryByEntryRenderers:
    """``fit`` and ``risk`` print byte for byte what the former renderers print."""

    @pytest.fixture(scope="class")
    def sparse_case(self, tmp_path_factory):
        """A p=4, q=2 cases file with empty cells, and a zero set over effect columns."""
        V, U = SubsetLattice(("a", "b", "c", "d")), SubsetLattice(("s", "t"))
        rng = np.random.default_rng(0)
        bg = np.zeros((16, 4))
        for d in range(1, 16):
            if d.bit_count() == 1:
                bg[d] = [-1.2 + 0.2 * rng.normal(), 0.3 * rng.normal(), 0.3 * rng.normal(), 0.0]
            elif d.bit_count() == 2:
                bg[d, 0] = 0.3 * rng.normal()
        data = simulate(ParamMatrix("beta_gamma", V, U, bg), "lml", [150] * 4, seed=0)
        assert np.any(data.counts == 0)
        zeros = frozenset((d, e) for d in range(1, 16) for e in range(1, 4)
                          if d.bit_count() >= 2 or e == 3)
        tmp = tmp_path_factory.mktemp("sparse")
        with (tmp / "cases.csv").open("w") as f:
            lio.write_count_data(data, f, "cases")
        with (tmp / "zeros.txt").open("w") as f:
            lio.write_zero_set(zeros, V, U, f)
        args = ["--input", str(tmp / "cases.csv"), "--responses", "a,b,c,d",
                "--covariates", "s,t", "--zeros", str(tmp / "zeros.txt")]
        return data, ModelSpec("lml", zeros), FitOptions(), args

    @pytest.fixture(scope="class")
    def missing_case(self, tmp_path_factory):
        """A counts file with an empty covariate cell, fitted with --allow-missing-cells."""
        V, U = SubsetLattice(("b", "c")), SubsetLattice(("h", "k"))
        counts = np.array([[40, 30, 25, 0], [12, 20, 9, 0], [8, 11, 14, 0], [5, 9, 12, 0]])
        data = CountTable(V, U, counts)
        path = tmp_path_factory.mktemp("missing") / "counts.csv"
        with path.open("w") as f:
            lio.write_count_data(data, f, "counts")
        args = ["--input", str(path), "--format", "counts", "--responses", "b,c",
                "--covariates", "h,k", "--allow-missing-cells"]
        return data, ModelSpec("lml"), FitOptions(allow_missing_cells=True), args

    @pytest.mark.parametrize("case", ["sparse_case", "missing_case"])
    @pytest.mark.parametrize("link", ["lm", "lml"])
    @pytest.mark.parametrize("command", ["fit", "risk"])
    @pytest.mark.parametrize("out", ["tsv", "json"])
    def test_stdout_bytes(self, request, capsys, case, link, command, out):
        data, spec, options, args = request.getfixturevalue(case)
        result = fit(ModelSpec(link, spec.zero_set), data, options)
        assert result.converged
        if case == "missing_case":
            assert result.missing_cells and result.unidentified
        want = (oracle_fit_stdout(result, out) if command == "fit"
                else oracle_risk_stdout(result, risk_report(result), out))
        assert main([command, *args, "--link", link, "--out", out]) == 0
        assert capsys.readouterr().out.encode() == want.encode()


class TestJsonCommandsMatchPerValueRenderers:
    """Every ``--out json`` command prints byte for byte what per-value renderers
    print, and so do the TSV renderings of ``transform`` and ``select``."""

    @pytest.fixture(scope="class")
    def uni_case(self, tmp_path_factory):
        """A p=2, q=3 counts file and its beta_gamma matrix, with non-ASCII labels;
        with three covariates the cardinality order of the columns is not mask order."""
        V, U = SubsetLattice(("tôux", "fièvre")), SubsetLattice(("âge", 'e"x', "z"))
        rng = np.random.default_rng(3)
        bg = np.zeros((4, 8))
        for d in range(1, 4):
            if d.bit_count() == 1:
                bg[d, 0] = -1.2 + 0.1 * rng.normal()
                bg[d, [1, 2, 4]] = 0.15 * rng.normal(size=3)
            else:
                bg[d, 0] = 0.1 * rng.normal()
        beta = ParamMatrix("beta_gamma", V, U, bg)
        data = simulate(beta, "lml", [2000] * 8, seed=3)
        assert np.all(data.counts > 0)
        tmp = tmp_path_factory.mktemp("uni")
        with (tmp / "counts.csv").open("w", encoding="utf-8") as f:
            lio.write_count_data(data, f, "counts")
        with (tmp / "beta.csv").open("w", encoding="utf-8") as f:
            lio.write_param_matrix(beta, f)
        args = ["--responses", ",".join(V.labels), "--covariates", ",".join(U.labels)]
        data_args = ["--input", str(tmp / "counts.csv"), "--format", "counts", *args]
        return V, U, beta, data, tmp, args, data_args

    @staticmethod
    def derived(pi: ParamMatrix) -> dict:
        mu = mu_from_pi(pi)
        return {"pi": pi, "mu": mu, "gamma": gamma_from_mu(mu),
                "beta_mu": beta_from_pi(pi, "lm"), "beta_gamma": beta_from_pi(pi, "lml")}

    @staticmethod
    def trace(data: CountTable, method: str, link: str):
        if method == "forward":
            return forward_margin_selection(data, 0.05, FitOptions())
        return backward_staged_selection(data, link, 0.05, options=FitOptions())

    def test_transform(self, uni_case, capsys):
        V, U, beta, _, tmp, args, _ = uni_case
        assert main(["transform", "--input", str(tmp / "beta.csv"), *args,
                     "--kind", "beta_gamma", "--out", "json"]) == 0
        want = oracle_transform_json_stdout(self.derived(pi_from_beta(beta, "lml")))
        assert capsys.readouterr().out.encode() == want.encode()

    def test_transform_tsv(self, uni_case, capsys):
        V, U, beta, _, tmp, args, _ = uni_case
        assert main(["transform", "--input", str(tmp / "beta.csv"), *args,
                     "--kind", "beta_gamma"]) == 0
        want = oracle_transform_tsv_stdout(self.derived(pi_from_beta(beta, "lml")))
        assert capsys.readouterr().out.encode() == want.encode()

    @pytest.mark.parametrize("out", ["tsv", "json"])
    @pytest.mark.parametrize("kind", ["pi", "mu", "gamma"])
    def test_transform_from_kind(self, uni_case, capsys, kind, out):
        """The other input scales reach pi by their own route, then print alike."""
        V, U, beta, _, tmp, args, _ = uni_case
        given = self.derived(pi_from_beta(beta, "lml"))[kind]
        path = tmp / f"{kind}.csv"
        with path.open("w", encoding="utf-8") as f:
            lio.write_param_matrix(given, f)
        if kind == "pi":
            pi = given
        else:
            pi = pi_from_mu(given if kind == "mu" else mu_from_gamma(given))
        oracle = oracle_transform_json_stdout if out == "json" else oracle_transform_tsv_stdout
        assert main(["transform", "--input", str(path), *args, "--kind", kind,
                     "--out", out]) == 0
        assert capsys.readouterr().out.encode() == oracle(self.derived(pi)).encode()

    @pytest.mark.parametrize("method,link", [("forward", "lml"), ("backward", "lml"),
                                             ("backward", "lm")])
    def test_select(self, uni_case, capsys, method, link):
        V, U, _, data, _, _, data_args = uni_case
        trace = self.trace(data, method, link)
        assert main(["select", *data_args, "--method", method, "--link", link,
                     "--out", "json"]) == 0
        got = capsys.readouterr().out
        assert got.encode() == oracle_select_json_stdout(trace, V, U).encode()
        assert "\\u00f4" in got

    @pytest.mark.parametrize("method,link", [("forward", "lml"), ("backward", "lml"),
                                             ("backward", "lm")])
    def test_select_tsv(self, uni_case, capsys, method, link):
        V, U, _, data, _, _, data_args = uni_case
        trace = self.trace(data, method, link)
        assert main(["select", *data_args, "--method", method, "--link", link]) == 0
        got = capsys.readouterr().out
        assert got.encode() == oracle_select_tsv_stdout(trace, V, U).encode()
        assert "tôux" in got and "# dropped: {" in got

    def test_plot_data(self, uni_case, capsys):
        _, _, _, data, _, _, data_args = uni_case
        series = [(link, eff) for link in ("lm", "lml")
                  for eff in average_effects(fit(ModelSpec(link), data), data, "âge")]
        assert main(["plot-data", *data_args, "--effect", "âge", "--out", "json"]) == 0
        assert capsys.readouterr().out.encode() == oracle_plot_data_json_stdout(series).encode()

    @pytest.mark.parametrize("link", ["lm", "lml"])
    @pytest.mark.parametrize("command", ["fit", "risk"])
    def test_fit_and_risk(self, uni_case, capsys, command, link):
        _, _, _, data, _, _, data_args = uni_case
        result = fit(ModelSpec(link), data)
        want = (oracle_fit_stdout(result, "json") if command == "fit"
                else oracle_risk_stdout(result, risk_report(result), "json"))
        assert main([command, *data_args, "--link", link, "--out", "json"]) == 0
        assert capsys.readouterr().out.encode() == want.encode()

    @pytest.mark.parametrize("out", ["tsv", "json"])
    def test_singular_information_fit(self, uni_case, capsys, monkeypatch, out):
        """A fit without standard errors prints null (nan in TSV) for every SE and p."""
        _, _, _, data, _, _, data_args = uni_case

        def singular_fit(spec, data, options=None):
            # a zero information matrix has no inverse, so no covariance
            result = fit(spec, data, options)
            return dataclasses.replace(result, information=np.zeros_like(result.information))

        monkeypatch.setattr(cli, "fit", singular_fit)
        assert main(["fit", *data_args, "--out", out]) == 0
        got = capsys.readouterr().out
        want = singular_fit(ModelSpec("lml"), data)
        assert np.isnan(want.std_errors).all() and np.isnan(want.wald_p).all()
        assert got.encode() == oracle_fit_stdout(want, out).encode()
        assert "observed information is singular" in got
        if out == "json":
            assert '"se": null' in got and '"se": 0.' not in got
