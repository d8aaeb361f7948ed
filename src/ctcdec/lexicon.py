"""Word lexicons: a prefix trie with unigram frequencies."""

from __future__ import annotations

from collections import Counter
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from .alphabet import Alphabet, default_alphabet
from .ctc import _text_to_indices, split_words
from .errors import ParseError
from .expressions import CLASS_ATTACH, default_rule_config
from .matio import read_text

#: Punctuation that may attach to word boundaries without dictionary
#: membership: the stock expression rules' attach class.
DEFAULT_ATTACH_CHARS = default_rule_config(default_alphabet()).classes[CLASS_ATTACH]


class Lexicon:
    """Prefix trie over words with occurrence counts.

    ``separator`` is the symbol permitted between words; ``attach_chars``
    are the punctuation symbols that may wrap a word without being part of
    it. Immutable after construction.

    The trie is read-only numpy arrays over nodes numbered in preorder
    (the root is 0; children in character order): ``parent``, ``char``
    (the code point on the arc into the node), ``word_count`` (of the word
    ending at the node; 0: none) and ``best_count`` (the largest count at
    or below the node). Counts past int64 keep numpy's object dtype, so
    they stay exact.
    """

    def __init__(
        self,
        counts: Mapping[str, int],
        separator: str | None = " ",
        attach_chars: frozenset[str] = DEFAULT_ATTACH_CHARS,
    ):
        for word, count in counts.items():
            if not word:
                raise ValueError("lexicon words must be non-empty")
            if count < 1:
                raise ValueError(f"count for {word!r} must be >= 1, got {count}")
            if separator is not None and separator in word:
                raise ValueError(f"word {word!r} contains the separator symbol")
        self._counts = dict(sorted(counts.items()))
        self.separator = separator
        self.attach_chars = frozenset(attach_chars)
        self._total = sum(self._counts.values())
        # The dictionary search's compiled tables (``dictionary._table``),
        # one per alphabet and params, and under the rules one product per
        # rules' table as well, made on the first decode that needs each.
        self._tables: dict = {}

        # Words are sorted, so the prefix a word shares with the word before
        # it is the longest it shares with any earlier word, and each of its
        # other characters is a new node, numbered in order. Characters are
        # compared up to the shorter word's length: past it, the text holds
        # the next word.
        words = list(self._counts)
        size = np.array([len(w) for w in words], dtype=np.intp)
        begin = np.cumsum(size) - size
        text = np.frombuffer("".join(words).encode("utf-32-le", "surrogatepass"), dtype=np.uint32)
        shared = np.zeros(len(words), dtype=np.intp)
        shared[1:] = np.minimum(size[:-1], size[1:])
        pair = np.repeat(np.arange(len(words)), shared)
        at = np.arange(pair.size) + np.repeat(shared - np.cumsum(shared), shared)
        differ = text[begin[pair] + at] != text[begin[pair - 1] + at]
        np.minimum.at(shared, pair[differ], at[differ])
        new = size - shared
        word = np.repeat(np.arange(len(words)), new)
        at = np.arange(word.size) + np.repeat(shared + new - np.cumsum(new), new)
        self.char = np.append(np.uint32(0), text[begin[word] + at])
        # The nodes of each depth in order; a node's parent is the last node
        # before it one level up.
        depth = np.append(0, at + 1)
        levels = np.split(np.argsort(depth, kind="stable"), np.cumsum(np.bincount(depth))[:-1])
        self.parent = np.zeros(depth.size, dtype=np.intp)
        for up, level in zip(levels, levels[1:]):
            self.parent[level] = up[np.searchsorted(up, level) - 1]
        counts = np.array([0, *self._counts.values()])  # the 0 keeps an empty lexicon's dtype integer
        self.word_count = np.zeros(depth.size, dtype=counts.dtype)
        self.word_count[np.cumsum(new)] = counts[1:]
        self.best_count = self.word_count.copy()
        for level in levels[:0:-1]:  # deepest first; the root has no parent
            np.maximum.at(self.best_count, self.parent[level], self.best_count[level])
        for array in (self.parent, self.char, self.word_count, self.best_count):
            array.flags.writeable = False

    def __len__(self) -> int:
        return len(self._counts)

    def __contains__(self, word: str) -> bool:
        return word in self._counts

    @property
    def total_count(self) -> int:
        return self._total

    @property
    def counts(self) -> Mapping[str, int]:
        return dict(self._counts)


def strip_attached(token: str, attach_chars: frozenset[str]) -> str:
    """Remove attaching punctuation from both ends of a token."""
    start, end = 0, len(token)
    while start < end and token[start] in attach_chars:
        start += 1
    while end > start and token[end - 1] in attach_chars:
        end -= 1
    return token[start:end]


def build_lexicon(corpus: Iterable[str], alphabet: Alphabet) -> Lexicon:
    """Count word occurrences in normalized transcripts.

    Transcripts are split into words (:func:`split_words`) and
    attaching punctuation is stripped from token edges; empty cores (pure
    punctuation tokens) are dropped. Transcripts must already be
    normalized; an out-of-alphabet character raises
    :class:`InvalidSymbol`.
    """
    attach = DEFAULT_ATTACH_CHARS & alphabet.printable_symbols
    counts: Counter[str] = Counter()
    for line in corpus:
        _text_to_indices(line, alphabet)
        for token in split_words(line, alphabet.separator):
            core = strip_attached(token, attach)
            if core:
                counts[core] += 1
    return Lexicon(counts, separator=alphabet.separator, attach_chars=attach)


def save_lexicon(lexicon: Lexicon, path: str | Path) -> None:
    """Write ``<count>\\t<word>`` lines, most frequent first."""
    items = sorted(lexicon.counts.items(), key=lambda kv: (-kv[1], kv[0]))
    with open(path, "w", encoding="utf-8") as fh:
        for word, count in items:
            fh.write(f"{count}\t{word}\n")


def load_lexicon(path: str | Path, separator: str | None = " ") -> Lexicon:
    """Read ``<count>\\t<word>`` lines."""
    counts: dict[str, int] = {}
    for lineno, line in enumerate(read_text(path).split("\n"), start=1):
        if not line:
            continue
        try:
            count_str, word = line.split("\t", 1)
            count = int(count_str)
        except ValueError:
            raise ParseError(lineno, f"expected '<count>\\t<word>', got {line!r}") from None
        if not word or count < 1:
            raise ParseError(lineno, f"invalid lexicon entry {line!r}")
        if separator is not None and separator in word:
            raise ParseError(lineno, f"word {word!r} contains the separator {separator!r}")
        counts[word] = counts.get(word, 0) + count
    return Lexicon(counts, separator=separator)
