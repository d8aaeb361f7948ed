import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from ctcdec import (
    Alphabet,
    ConfidenceMatrix,
    CtcDecError,
    InvariantViolation,
    NAC_CHAR,
    ParseError,
    load_matrix,
    store_matrix,
)

from oracles import random_matrix, reference_load_text_matrix

DATA = Path(__file__).parent / "data"
AB = Alphabet.with_nac("ab ", separator=" ")


def test_text_round_trip_is_exact(tmp_path):
    m = random_matrix(np.random.default_rng(0), AB, 7)
    path = tmp_path / "m.ctcmat"
    store_matrix(m, path)
    again = load_matrix(path)
    assert np.array_equal(again.probs, m.probs)
    assert again.alphabet.symbols == AB.symbols
    assert again.alphabet.separator == " "


def test_binary_round_trip_is_bit_exact(tmp_path):
    m = random_matrix(np.random.default_rng(1), AB, 5)
    first = tmp_path / "a.ctcmat"
    second = tmp_path / "b.ctcmat"
    store_matrix(m, first, binary=True)
    loaded = load_matrix(first)
    store_matrix(loaded, second, binary=True)
    assert first.read_bytes() == second.read_bytes()
    # float32 payload: loading back gives exactly the stored float32 values
    assert np.array_equal(loaded.probs, m.probs.astype("<f4").astype(np.float64))


def test_default_alphabet_round_trip(tmp_path):
    from ctcdec import default_alphabet

    alphabet = default_alphabet()
    m = random_matrix(np.random.default_rng(4), alphabet, 3)
    for binary in (False, True):
        path = tmp_path / f"full-{binary}.ctcmat"
        store_matrix(m, path, binary=binary)
        again = load_matrix(path)
        assert again.alphabet.symbols == alphabet.symbols
        assert again.alphabet.separator == " "
        if not binary:
            assert np.array_equal(again.probs, m.probs)


def test_golden_file_parses_to_known_values():
    m = load_matrix(DATA / "golden.ctcmat")
    assert m.alphabet.symbols == ("a", "b", " ", NAC_CHAR)
    assert m.alphabet.nac_index == 3
    assert m.alphabet.separator == " "
    assert m.num_frames == 4
    expected = np.array(
        [
            [0.7, 0.1, 0.1, 0.1],
            [0.1, 0.7, 0.1, 0.1],
            [0.25, 0.25, 0.25, 0.25],
            [0.05, 0.05, 0.2, 0.7],
        ]
    )
    assert np.array_equal(m.probs, expected)


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.ctcmat"
    path.write_text("CTCMAT v9\na\t<NaC>\nT=1\n1.0\t0.0\n", encoding="utf-8")
    with pytest.raises(ParseError) as exc:
        load_matrix(path)
    assert exc.value.line == 1


def test_missing_nac_token(tmp_path):
    path = tmp_path / "bad.ctcmat"
    path.write_text("CTCMAT v1\na\tb\nT=1\n0.5\t0.5\n", encoding="utf-8")
    with pytest.raises(ParseError):
        load_matrix(path)


def test_bad_frame_count(tmp_path):
    path = tmp_path / "bad.ctcmat"
    for line in ("T=zero", "T=0", "frames=1"):
        path.write_text(f"CTCMAT v1\na\t<NaC>\n{line}\n0.5\t0.5\n", encoding="utf-8")
        with pytest.raises(ParseError, match="line 3: "):
            load_matrix(path)


def test_wrong_column_count(tmp_path):
    path = tmp_path / "bad.ctcmat"
    path.write_text("CTCMAT v1\na\t<NaC>\nT=1\n0.5\t0.25\t0.25\n", encoding="utf-8")
    with pytest.raises(ParseError):
        load_matrix(path)
    with pytest.raises(InvariantViolation, match="3 columns"):
        ConfidenceMatrix([[0.5, 0.25, 0.25]], Alphabet.with_nac("a"))


def test_truncated_rows(tmp_path):
    path = tmp_path / "bad.ctcmat"
    path.write_text("CTCMAT v1\na\t<NaC>\nT=2\n0.5\t0.5\n", encoding="utf-8")
    with pytest.raises(ParseError):
        load_matrix(path)


def test_row_sum_far_off_rejected(tmp_path):
    path = tmp_path / "bad.ctcmat"
    path.write_text("CTCMAT v1\na\t<NaC>\nT=1\n0.45\t0.45\n", encoding="utf-8")
    with pytest.raises(InvariantViolation):
        load_matrix(path)
    with pytest.raises(InvariantViolation, match="row 1 sums to 0.9"):
        ConfidenceMatrix([[0.5, 0.5], [0.45, 0.45]], Alphabet.with_nac("a"))


def test_row_sum_rejection_boundary(tmp_path):
    # 1e-3 over: rejected; just inside: renormalized with a warning.
    over = tmp_path / "over.ctcmat"
    over.write_text("CTCMAT v1\na\t<NaC>\nT=1\n0.5\t0.5011\n", encoding="utf-8")
    with pytest.raises(InvariantViolation):
        load_matrix(over)
    inside = tmp_path / "inside.ctcmat"
    inside.write_text("CTCMAT v1\na\t<NaC>\nT=1\n0.5\t0.5009\n", encoding="utf-8")
    with pytest.warns(UserWarning):
        m = load_matrix(inside)
    assert m.probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_tiny_deviation_passes_silently(tmp_path):
    import warnings

    path = tmp_path / "ok.ctcmat"
    path.write_text("CTCMAT v1\na\t<NaC>\nT=1\n0.5\t0.5000000001\n", encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        load_matrix(path)


def test_expected_alphabet_must_match(tmp_path):
    m = random_matrix(np.random.default_rng(2), AB, 3)
    path = tmp_path / "m.ctcmat"
    store_matrix(m, path)
    other = Alphabet.with_nac("xy")
    with pytest.raises(ParseError):
        load_matrix(path, alphabet=other)
    # A matching alphabet is adopted wholesale (keeping its mappings).
    again = load_matrix(path, alphabet=AB)
    assert again.alphabet is AB


def test_binary_payload_size_checked(tmp_path):
    path = tmp_path / "bad.ctcmat"
    with open(path, "wb") as fh:
        fh.write(b"CTCMAT b1\na\t<NaC>\nT=2\n")
        fh.write(b"\x00" * 10)
    with pytest.raises(ParseError):
        load_matrix(path)


def test_negative_entries_rejected(tmp_path):
    path = tmp_path / "bad.ctcmat"
    path.write_text("CTCMAT v1\na\t<NaC>\nT=1\n1.5\t-0.5\n", encoding="utf-8")
    with pytest.raises(InvariantViolation):
        load_matrix(path)


def test_invalid_utf8_is_a_parse_error_naming_the_line(tmp_path):
    path = tmp_path / "bad.ctcmat"
    path.write_bytes(b"CTCMAT v1\na\xff\t<NaC>\nT=1\n0.5\t0.5\n")
    with pytest.raises(ParseError) as err:
        load_matrix(path)
    assert err.value.line == 2
    path.write_bytes(b"CTCMAT v1\na\t<NaC>\nT=2\n0.5\t0.5\n0.5\xc3\t0.5\n")
    with pytest.raises(ParseError) as err:
        load_matrix(path)
    assert err.value.line == 5


def test_huge_frame_count_fails_where_the_file_ends(tmp_path):
    path = tmp_path / "bad.ctcmat"
    path.write_text("CTCMAT v1\na\t<NaC>\nT=1000000000000000\n0.5\t0.5\n", encoding="utf-8")
    with pytest.raises(ParseError) as err:
        load_matrix(path)
    assert err.value.line == 5


_edits = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=200),  # position (wrapped to the file size)
        st.integers(min_value=0, max_value=3),  # bytes removed there
        st.binary(max_size=3),  # bytes inserted there
    ),
    min_size=1,
    max_size=4,
)
#: Bytes at which a text parse may split, strip or read a field otherwise
#: than the reference: tab, the line ends, whitespace, the separators
#: \x1c-\x1f, \x85 and \xa0, digits, "." and "e".
_EDGE_BYTES = list(b"\t\n\r \x0b\x0c\x1c\x1d\x1e\x1f\x85\xa00123456789.e")
#: Edits whose inserted bytes are, half the time, drawn from ``_EDGE_BYTES``.
_text_edits = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=200),
        st.integers(min_value=0, max_value=3),
        st.one_of(st.binary(max_size=3), st.lists(st.sampled_from(_EDGE_BYTES), max_size=3).map(bytes)),
    ),
    min_size=1,
    max_size=4,
)


@settings(max_examples=300, deadline=None)
@given(binary=st.booleans(), edits=_edits)
def test_mutated_bytes_raise_only_ctcdec_errors(tmp_path_factory, binary, edits):
    path = tmp_path_factory.mktemp("fuzz") / "m.ctcmat"
    store_matrix(random_matrix(np.random.default_rng(0), AB, 3), path, binary=binary)
    data = bytearray(path.read_bytes())
    for pos, removed, inserted in edits:
        pos %= len(data) + 1
        data[pos : pos + removed] = inserted
    path.write_bytes(bytes(data))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            load_matrix(path)
        except CtcDecError:
            pass


@pytest.mark.parametrize(
    "rest, line",
    [
        ("\ngarbage\n", 6),
        ("\n0.5\t0.5\n", 6),
        (" \r\n\t\n\n0", 8),
    ],
)
def test_content_after_blank_lines_is_trailing_content(tmp_path, rest, line):
    path = tmp_path / "bad.ctcmat"
    path.write_bytes(b"CTCMAT v1\na\t<NaC>\nT=1\n0.5\t0.5\n" + rest.encode())
    with pytest.raises(ParseError, match="trailing content") as err:
        load_matrix(path)
    assert err.value.line == line


def test_whitespace_after_the_last_row_is_allowed(tmp_path):
    path = tmp_path / "ok.ctcmat"
    path.write_bytes(b"CTCMAT v1\na\t<NaC>\nT=1\n0.5\t0.5\n\n \r\n\t\x0b\x0c\n")
    assert np.array_equal(load_matrix(path).probs, [[0.5, 0.5]])


def _outcome(load, path):
    """A loader's result: the matrix's float64 bits, or the error's type,
    line and message."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            probs = load(path).probs
        except CtcDecError as exc:
            return type(exc), getattr(exc, "line", None), str(exc)
    return probs.shape, probs.view(np.uint64).tolist()


@settings(max_examples=300, deadline=None)
@given(edits=_text_edits)
def test_mutated_text_parses_as_the_row_by_row_reference(tmp_path_factory, edits):
    path = tmp_path_factory.mktemp("fuzz") / "m.ctcmat"
    store_matrix(random_matrix(np.random.default_rng(0), AB, 3), path)
    data = bytearray(path.read_bytes())
    for pos, removed, inserted in edits:
        pos %= len(data) + 1
        data[pos : pos + removed] = inserted
    # The reference reads text files only.
    assume(not data.startswith(b"CTCMAT b1\n"))
    path.write_bytes(bytes(data))
    assert _outcome(load_matrix, path) == _outcome(reference_load_text_matrix, path)


@pytest.mark.parametrize(
    "frames, rows",
    [
        ("2", "0.5\t0.5\r\n0.25\t0.75\r\n"),  # CRLF rows
        ("2", "0.5\t0.5\n0.25\t0.75"),  # no final newline
        ("1", "1_0e-1\t0.9"),
        ("1", "inf\t0"),
        ("1", "nan\t1"),
        ("1", "\u0661\t0"),  # ARABIC-INDIC DIGIT ONE: float() reads it, numpy does not
        ("1", "\u00a00.5\t0.5"),  # leading NBSP: likewise
        ("2", "0.5\t0.5\n\n0.5\t0.5\n"),  # an empty row
        ("1000000000000000", "0.5\t0.5\n"),  # a huge T
        ("1" + "0" * 30, "0.5\t0.5\n"),  # a T beyond any split limit
        ("1", "0.5\t0.5\x00"),
        ("1", " 0.5 \t\x0b0.5\x0c"),
        # Rows np.loadtxt skips, reads as comments or quotes, or splits at a \r.
        ("3", "0.5\t0.5\n \n0.5\t0.5\n"),  # a whitespace-only row
        ("3", "0.5\t0.5\n\r\n0.5\t0.5\n"),  # a \r-only row
        ("3", "0.5\t0.5\n\t\n0.5\t0.5\n"),  # a tabs-only row
        ("1", "#0.5\t0.5"),
        ("1", "0.5\t0.5 # c"),
        ("1", '"0.5"\t0.5'),
        ("1", "0.5\r0.5\t0.5"),
        ("1", "0.5\t\r0.5"),
        ("2", "0.5\t0.5\r0.5\t0.5\n"),  # a \r splits a row; a blank row follows
        ("3", "0.5\t0.5\r0.5\t0.5\n\r\n0.5\t0.5\n"),  # a \r splits a row; a blank row among them
        ("2", "0.5\t0.5\r\t\n0.5\t0.5\n"),  # a \r splits off a tabs-only piece
        ("2", "\r0.5\t0.5\n0.5\t0.5\r \n"),  # lone \r that float() strips
        ("1", "0x1p-1\t0x1p-1"),  # hex, which only numpy < 1.23 reads
        # Separators np.loadtxt strips as whitespace and float() does not.
        ("1", "0.5\x1c\t0.5"),
        ("1", "0.5\t\x1f0.5"),
    ],
)
def test_fixed_text_cases_parse_as_the_reference(tmp_path, frames, rows):
    path = tmp_path / "m.ctcmat"
    path.write_bytes(f"CTCMAT v1\na\t<NaC>\nT={frames}\n{rows}".encode())
    assert _outcome(load_matrix, path) == _outcome(reference_load_text_matrix, path)


@pytest.mark.parametrize("rows", [b"\xa00.5\t0.5", b"0.5\t0.5\x85"])
def test_lone_latin1_spaces_are_invalid_utf8(tmp_path, rows):
    """Read as Latin-1, these bytes are whitespace to np.loadtxt."""
    path = tmp_path / "m.ctcmat"
    path.write_bytes(b"CTCMAT v1\na\t<NaC>\nT=1\n" + rows)
    assert _outcome(load_matrix, path) == _outcome(reference_load_text_matrix, path)
    with pytest.raises(ParseError, match="invalid UTF-8"):
        load_matrix(path)


def test_a_blank_first_row_fails_without_a_numpy_warning(tmp_path):
    path = tmp_path / "m.ctcmat"
    path.write_bytes(b"CTCMAT v1\na\t<NaC>\nT=1\n\r\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParseError, match="expected 2 values") as err:
            load_matrix(path)
    assert err.value.line == 4


def _with_row_ends(path, ending):
    """The matrix file at ``path`` with its rows rewritten: LF, CRLF, no
    final newline, or blank lines after the last row."""
    magic, header, frames, *rows = path.read_bytes().decode().splitlines()
    body = {
        "lf": "\n".join(rows) + "\n",
        "crlf": "\r\n".join(rows) + "\r\n",
        "no final newline": "\n".join(rows),
        "trailing blank lines": "\n".join(rows) + "\n\n \r\n\t\n",
    }[ending]
    path.write_bytes(f"{magic}\n{header}\n{frames}\n{body}".encode())


@pytest.mark.parametrize("ending", ["lf", "crlf", "no final newline", "trailing blank lines"])
def test_well_formed_text_never_falls_back_to_the_row_parse(tmp_path, monkeypatch, ending):
    from ctcdec import default_alphabet, matio

    stored = tmp_path / "stored.ctcmat"
    store_matrix(random_matrix(np.random.default_rng(6), default_alphabet(), 40), stored)
    golden = tmp_path / "golden.ctcmat"
    golden.write_bytes((DATA / "golden.ctcmat").read_bytes())

    def row_parse(*args):
        raise AssertionError("a well-formed matrix reached the row-by-row parse")

    monkeypatch.setattr(matio, "_parse_rows_one_by_one", row_parse)
    for path in (golden, stored):
        _with_row_ends(path, ending)
        loaded = load_matrix(path).probs
        assert loaded.view(np.uint64).tolist() == reference_load_text_matrix(path).probs.view(np.uint64).tolist()


@pytest.mark.parametrize("rows", [[[0.5, 0.5], [1.0]], [["x", "y"]], [[{}, 0.5]], np.array([[0.5 + 1j, 0.5]])])
@pytest.mark.parametrize("build", [ConfidenceMatrix, ConfidenceMatrix.from_rows])
def test_ragged_or_non_numeric_rows_are_an_invariant_violation(build, rows):
    with pytest.raises(InvariantViolation, match="T x S matrix of numbers"):
        build(rows, AB)


@pytest.mark.parametrize("build", [ConfidenceMatrix, ConfidenceMatrix.from_rows])
def test_a_scalar_reports_its_own_shape(build):
    with pytest.raises(InvariantViolation, match=r"got shape \(\)"):
        build(0.5, AB)


def test_unicode_digits_and_nbsp_still_load(tmp_path):
    path = tmp_path / "m.ctcmat"
    path.write_bytes("CTCMAT v1\na\t<NaC>\nT=2\n\u0661\t0\n\u00a00.5\t0.5\n".encode())
    assert np.array_equal(load_matrix(path).probs, [[1.0, 0.0], [0.5, 0.5]])


_free_entry = st.one_of(
    st.floats(min_value=0.0, max_value=0.3),
    st.floats(min_value=0.0, max_value=np.finfo(np.float64).tiny, exclude_max=True),  # subnormals
    st.sampled_from([5e-324, 2.225073858507201e-308, 0.1 + 0.2 - 0.1]),
)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(_free_entry, min_size=len(AB) - 1, max_size=len(AB) - 1), min_size=1, max_size=4))
def test_text_round_trip_keeps_subnormals_and_17_digit_values(tmp_path_factory, free):
    probs = np.array([row + [1.0 - sum(row)] for row in free])
    path = tmp_path_factory.mktemp("trip") / "m.ctcmat"
    store_matrix(ConfidenceMatrix(probs, AB), path)
    again = load_matrix(path).probs
    assert again.view(np.uint64).tolist() == probs.view(np.uint64).tolist()


@pytest.mark.parametrize(
    "header",
    ["a\t<NaC>\t<NaC>", "ab\t<NaC>", "a\t\t<NaC>", "<NaC>\t<NaC>"],
)
def test_header_alphabet_follows_the_token_rule(tmp_path, header):
    """Exactly one ``<NaC>``; every other symbol one character."""
    width = len(header.split("\t"))
    path = tmp_path / "bad.ctcmat"
    path.write_text(f"CTCMAT v1\n{header}\nT=1\n" + "\t".join(["0.0"] * (width - 1) + ["1.0"]) + "\n", encoding="utf-8")
    with pytest.raises(ParseError) as exc:
        load_matrix(path)
    assert exc.value.line == 2
