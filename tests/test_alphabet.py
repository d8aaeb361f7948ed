import pytest
from hypothesis import given, strategies as st

from ctcdec import Alphabet, NAC_CHAR, UnmappableCharacter, default_alphabet, normalize_transcript


def test_normalize_applies_mapping():
    ab = Alphabet.with_nac("dont'", {"’": "'"})
    assert normalize_transcript("don’t", ab) == "don't"


def test_normalize_identity_without_map():
    ab = Alphabet.with_nac("abc")
    assert normalize_transcript("abc", ab) == "abc"


def test_normalize_unifies_hyphens():
    ab = Alphabet.with_nac("ab-", {"–": "-"})
    assert normalize_transcript("a–b", ab) == "a-b"


def test_normalize_unmappable_reports_position():
    ab = Alphabet.with_nac("ab")
    with pytest.raises(UnmappableCharacter) as exc:
        normalize_transcript("ab@", ab)
    assert exc.value.position == 2
    assert exc.value.char == "@"


def test_nac_char_is_rejected_in_transcripts():
    ab = Alphabet.with_nac("ab")
    with pytest.raises(UnmappableCharacter):
        normalize_transcript("a" + NAC_CHAR, ab)


def test_symbols_must_be_distinct():
    with pytest.raises(ValueError):
        Alphabet(symbols=("a", "a", NAC_CHAR), nac_index=2)


def test_nac_must_not_be_printable():
    with pytest.raises(ValueError):
        Alphabet(symbols=("a", "b"), nac_index=1)
    with pytest.raises(ValueError, match="nac_index 2 out of range"):
        Alphabet(symbols=("a", NAC_CHAR), nac_index=2)


def test_map_target_must_be_printable_symbol():
    with pytest.raises(ValueError):
        Alphabet(symbols=("a", NAC_CHAR), nac_index=1, normalization_map={"x": "z"})
    with pytest.raises(ValueError):
        Alphabet(symbols=("a", NAC_CHAR), nac_index=1, normalization_map={"x": NAC_CHAR})


def test_separator_must_be_a_symbol():
    with pytest.raises(ValueError):
        Alphabet.with_nac("ab", separator=" ")


def test_needs_at_least_two_symbols():
    with pytest.raises(ValueError):
        Alphabet(symbols=(NAC_CHAR,), nac_index=0)


def test_default_alphabet_contents():
    ab = default_alphabet()
    for ch in "0aZ£&(] '\"":
        assert ch in ab.printable_symbols
    assert ab.separator == " "
    assert not ab.nac.isprintable()
    assert ab.index(ab.nac) == ab.nac_index
    assert normalize_transcript("it’s “done” — ok", ab) == "it's \"done\" - ok"


@given(st.text(alphabet="abc ", max_size=30))
def test_normalize_is_identity_on_alphabet_text(text):
    ab = Alphabet.with_nac("abc ", separator=" ")
    assert normalize_transcript(text, ab) == text
