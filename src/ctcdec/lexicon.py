"""Word lexicons: a prefix trie with unigram frequencies."""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from pathlib import Path
from typing import Iterable, Mapping

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
        # The dictionary search's compiled transition tables, one per
        # alphabet and params, made on the first decode that needs each.
        self._tables: dict = {}

        # Trie (nodes are ints, the root is 0): ``children[node]`` maps a
        # character to its child node, and ``word_count[node]`` is the count
        # of the word ending at the node (0: none). Read-only.
        self.children: list[dict[str, int]] = [{}]
        self.word_count: list[int] = [0]
        for word, count in self._counts.items():
            node = 0
            for ch in word:
                nxt = self.children[node].get(ch)
                if nxt is None:
                    nxt = len(self.children)
                    self.children[node][ch] = nxt
                    self.children.append({})
                    self.word_count.append(0)
                node = nxt
            self.word_count[node] = count

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

    @cached_property
    def best_count(self) -> list[int]:
        """Per trie node, the largest count of a word at or below it.

        Computed on first use (the first decode), not on construction.
        """
        best = self.word_count.copy()
        # Children always have larger ids than their parent, so a reverse
        # sweep propagates bottom-up.
        for node in range(len(best) - 1, -1, -1):
            for child in self.children[node].values():
                if best[child] > best[node]:
                    best[node] = best[child]
        return best


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
