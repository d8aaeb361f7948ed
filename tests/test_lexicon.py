import math

import pytest
from hypothesis import example, given, settings, strategies as st

from ctcdec import (
    InvalidSymbol,
    Lexicon,
    ParseError,
    build_lexicon,
    default_alphabet,
    load_lexicon,
    save_lexicon,
)
from ctcdec.lexicon import strip_attached

from oracles import log_unigram, reference_trie

ALPHA = default_alphabet()


def test_build_counts_words():
    lex = build_lexicon(["the cat", "the hat"], ALPHA)
    assert lex.counts == {"the": 2, "cat": 1, "hat": 1}
    assert lex.total_count == 4


def test_build_empty_corpus():
    lex = build_lexicon([], ALPHA)
    assert len(lex) == 0
    assert lex.total_count == 0


def test_build_strips_attached_punctuation():
    lex = build_lexicon(["Hello, world."], ALPHA)
    assert lex.counts == {"Hello": 1, "world": 1}


def test_build_keeps_internal_punctuation():
    lex = build_lexicon(["don't (really)"], ALPHA)
    assert lex.counts == {"don't": 1, "really": 1}


def test_build_drops_pure_punctuation_tokens():
    lex = build_lexicon(["... yes"], ALPHA)
    assert lex.counts == {"yes": 1}


def test_build_rejects_out_of_alphabet():
    with pytest.raises(InvalidSymbol):
        build_lexicon(["café"], ALPHA)


def test_strip_attached():
    attach = frozenset('.,"')
    assert strip_attached('"word,"', attach) == "word"
    assert strip_attached("...", attach) == ""
    assert strip_attached("a.b", attach) == "a.b"


def test_words_validate():
    with pytest.raises(ValueError):
        Lexicon({"": 1})
    with pytest.raises(ValueError):
        Lexicon({"ok": 0})
    with pytest.raises(ValueError):
        Lexicon({"two words": 1}, separator=" ")


def test_log_unigram():
    lex = Lexicon({"the": 3, "cat": 1})
    assert log_unigram(lex, "the") == pytest.approx(math.log(0.75))
    assert log_unigram(lex, "dog") == float("-inf")


def child(lex, node, ch):
    """The child of trie ``node`` by ``ch``, or None."""
    for kid in range(1, lex.parent.size):
        if lex.parent[kid] == node and lex.char[kid] == ord(ch):
            return kid
    return None


def test_trie_children_and_word_counts():
    lex = Lexicon({"ab": 2, "abc": 1, "b": 1})
    node = child(lex, 0, "a")
    assert lex.word_count[node] == 0
    node = child(lex, node, "b")
    assert lex.word_count[node] == 2
    assert child(lex, node, "z") is None


def test_best_count_below_each_node():
    lex = Lexicon({"ab": 9, "abc": 1})
    a = child(lex, 0, "a")
    # Best count below "a" is the frequent "ab".
    assert lex.best_count[a] == 9
    abc = child(lex, child(lex, a, "b"), "c")
    assert lex.best_count[abc] == 1
    assert lex.best_count[0] == 9


@given(
    st.dictionaries(
        st.text("ab\x00\ud800\U0001F600", min_size=1, max_size=5),
        st.one_of(st.integers(1, 50), st.integers(1, 10**30)),
        min_size=1,
        max_size=12,
    )
)
@example({"a": 1, "ab": 2})
@example({"a": 1, "aa": 2})
@example({"a": 3, "a\x00": 1, "a\x00b": 2})
@example({"\U0001F600": 2, "a\U0001F600b": 5})
@example({"word": 7})
@example({"a": 2**63, "ab": 10**30})
@settings(max_examples=200, deadline=None)
def test_trie_arrays_equal_the_dict_trie(counts):
    """Node ids, parents, characters, word counts and best counts equal
    those of the dict trie built word by word, with the counts exact.
    Parents and characters over preorder ids fix each node's children."""
    lex = Lexicon(counts, separator=None, attach_chars=frozenset())
    children, word_count, best_count = reference_trie(counts)
    parent, char = [0] * len(children), [0] * len(children)
    for node, kids in enumerate(children):
        for ch, kid in kids.items():
            parent[kid], char[kid] = node, ord(ch)
    assert lex.parent.tolist() == parent
    assert lex.char.tolist() == char
    assert lex.word_count.tolist() == word_count
    assert lex.best_count.tolist() == best_count


def test_save_load_round_trip(tmp_path):
    lex = build_lexicon(["the cat sat", "the hat"], ALPHA)
    path = tmp_path / "words.tsv"
    save_lexicon(lex, path)
    again = load_lexicon(path, separator=" ")
    assert again.counts == lex.counts
    assert path.read_text(encoding="utf-8").splitlines()[0] == "2\tthe"


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("notanumber\tword\n", encoding="utf-8")
    with pytest.raises(ParseError):
        load_lexicon(path)
    path.write_text("0\tword\n", encoding="utf-8")
    with pytest.raises(ParseError):
        load_lexicon(path)


def test_load_rejects_word_containing_separator(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("3\tcat\n2\tnew york\n", encoding="utf-8")
    with pytest.raises(ParseError, match="line 2"):
        load_lexicon(path)
    # Without a separator the same entry is an ordinary word.
    assert "new york" in load_lexicon(path, separator=None)


def test_load_rejects_bytes_that_are_not_utf8(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_bytes(b"3\tcat\n2\tc\xffat\n")
    with pytest.raises(ParseError, match="line 2: invalid UTF-8"):
        load_lexicon(path)


def test_load_accepts_crlf_line_ends(tmp_path):
    path = tmp_path / "words.tsv"
    path.write_bytes(b"3\tcat\r\n2\that\r\n")
    assert load_lexicon(path).counts == {"cat": 3, "hat": 2}


def test_default_attach_chars_are_the_stock_rule_attach_class():
    from ctcdec.expressions import CLASS_ATTACH, default_rule_config
    from ctcdec.lexicon import DEFAULT_ATTACH_CHARS

    assert DEFAULT_ATTACH_CHARS == default_rule_config(ALPHA).classes[CLASS_ATTACH]
    assert DEFAULT_ATTACH_CHARS == frozenset('.,:;!?"()[]£$')
