import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ctcdec import (
    Alphabet,
    CtcDecError,
    InvariantViolation,
    NAC_CHAR,
    ParseError,
    load_matrix,
    store_matrix,
)

from oracles import random_matrix

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
    path.write_text("CTCMAT v1\na\t<NaC>\nT=zero\n", encoding="utf-8")
    with pytest.raises(ParseError):
        load_matrix(path)


def test_wrong_column_count(tmp_path):
    path = tmp_path / "bad.ctcmat"
    path.write_text("CTCMAT v1\na\t<NaC>\nT=1\n0.5\t0.25\t0.25\n", encoding="utf-8")
    with pytest.raises(ParseError):
        load_matrix(path)


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
