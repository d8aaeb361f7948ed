"""Alphabets with a distinguished non-character (NaC) symbol.

The NaC symbol plays the role of the CTC blank: it never occurs in decoded
text, separates genuine character repetitions, and marks "no character
here" frames.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping

from .errors import UnmappableCharacter

#: In-memory representation of the NaC symbol. Serialized as the literal
#: token ``<NaC>`` in matrix files; never a printable character.
NAC_CHAR = "\x00"


@dataclass(frozen=True)
class Alphabet:
    """Ordered symbol set including the NaC symbol.

    ``normalization_map`` sends raw transcript characters (e.g. typographic
    quotes) to their canonical alphabet symbol; it is many-to-one and never
    maps to NaC. ``separator`` names the word-separator symbol, if any.
    """

    symbols: tuple[str, ...]
    nac_index: int
    normalization_map: Mapping[str, str] = field(default_factory=dict)
    separator: str | None = None

    def __post_init__(self) -> None:
        if len(self.symbols) < 2:
            raise ValueError("alphabet needs at least one printable symbol plus NaC")
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError("alphabet symbols must be distinct")
        if not 0 <= self.nac_index < len(self.symbols):
            raise ValueError(f"nac_index {self.nac_index} out of range")
        nac = self.symbols[self.nac_index]
        if nac.isprintable():
            raise ValueError(f"NaC symbol {nac!r} must not be printable")
        for raw, canon in self.normalization_map.items():
            if canon not in self.symbols or canon == nac:
                raise ValueError(f"normalization target {canon!r} for {raw!r} is not a printable symbol")
        if self.separator is not None and self.separator not in self.symbols:
            raise ValueError(f"separator {self.separator!r} is not an alphabet symbol")

    @classmethod
    def with_nac(
        cls,
        printable: str,
        normalization_map: Mapping[str, str] | None = None,
        separator: str | None = None,
    ) -> "Alphabet":
        """Build an alphabet from printable symbols, appending NaC last."""
        return cls(
            symbols=tuple(printable) + (NAC_CHAR,),
            nac_index=len(printable),
            normalization_map=dict(normalization_map or {}),
            separator=separator,
        )

    def __len__(self) -> int:
        return len(self.symbols)

    @cached_property
    def index_of(self) -> Mapping[str, int]:
        return {s: i for i, s in enumerate(self.symbols)}

    @property
    def nac(self) -> str:
        return self.symbols[self.nac_index]

    @cached_property
    def printable_indices(self) -> tuple[int, ...]:
        return tuple(i for i in range(len(self.symbols)) if i != self.nac_index)

    @cached_property
    def printable_symbols(self) -> frozenset[str]:
        return frozenset(self.symbols[i] for i in self.printable_indices)

    def index(self, symbol: str) -> int:
        return self.index_of[symbol]


def file_separator(symbols: tuple[str, ...]) -> str | None:
    """The separator of an alphabet read from a file (a matrix header or an
    alphabet JSON): the space symbol if present, else none."""
    return " " if " " in symbols else None


def normalize_transcript(raw: str, alphabet: Alphabet) -> str:
    """Map a raw transcript onto canonical alphabet symbols.

    Characters with a normalization mapping are replaced by their canonical
    symbol; characters already in the printable alphabet pass through;
    anything else raises :class:`UnmappableCharacter`.
    """
    out = []
    for pos, ch in enumerate(raw):
        mapped = alphabet.normalization_map.get(ch)
        if mapped is not None:
            out.append(mapped)
        elif ch in alphabet.printable_symbols:
            out.append(ch)
        else:
            raise UnmappableCharacter(pos, ch)
    return "".join(out)


#: Canonicalization of typographic variants onto the plain ASCII symbols.
DEFAULT_NORMALIZATION = {
    "’": "'",   # right single quote
    "‘": "'",   # left single quote
    "‚": "'",
    "′": "'",
    "´": "'",
    "`": "'",
    "“": '"',   # left double quote
    "”": '"',   # right double quote
    "„": '"',
    "″": '"',
    "–": "-",   # en dash
    "—": "-",   # em dash
    "‐": "-",
    "‑": "-",
    "−": "-",   # minus sign
    " ": " ",   # no-break space
}

_DIGITS = "0123456789"
_UPPER = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
_LOWER = "abcdefghijklmnopqrstuvwxyz"
_SPECIALS = "/&£$+-_.,:;!?'\"=[]()"


def default_alphabet() -> Alphabet:
    """Digits, Latin letters, common punctuation, a space separator, and NaC.

    The space symbol doubles as the word separator. Typographic quote and
    hyphen variants are normalized onto the plain symbols.
    """
    printable = _DIGITS + _UPPER + _LOWER + _SPECIALS + " "
    return Alphabet.with_nac(printable, DEFAULT_NORMALIZATION, separator=" ")
