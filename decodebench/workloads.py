"""Workload definitions, seeded input generation and output checks.

Every workload writes its inputs to disk the way a user would hand them to
``ctcdec decode``: confidence-matrix files, a JSON manifest, a ``refs.tsv``
of reference lines and, for the lexicon schemes, a lexicon TSV. The same
seed always gives byte-identical inputs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from ctcdec.alphabet import Alphabet, default_alphabet
from ctcdec.batch import LineRecord, Manifest, save_manifest
from ctcdec.ctc import collapse
from ctcdec.experiment import _experiment_alphabet, _make_vocabulary, _sample_lines
from ctcdec.lexicon import Lexicon, save_lexicon, strip_attached
from ctcdec.matio import store_matrix
from ctcdec.synthetic import generate_synthetic

_LOWER = "abcdefghijklmnopqrstuvwxyz"
_DIGITS = "0123456789"


@dataclass(frozen=True)
class Workload:
    name: str
    scheme: str
    lines: int
    alphabet: str  # "default" (84 symbols) or "experiment" (16 printable + NaC)
    binary: bool
    beam: int | None = 64
    experts: int = 1
    min_symbol_prob: float = 0.0
    vote_lambda: float = 0.5
    words_per_line: int = 8
    lexicon_size: int = 0
    #: Lines are held to this character band so that per-line cost, which
    #: grows with the frame count, varies little between seeds.
    chars: tuple[int, int] = (38, 42)
    frames_per_char: int = 3
    noise: float = 0.25


# Sized for a 20-s run at the reference host speed (see hostclock.py): a
# dm-b64 or ce-b64 line takes about 1.4 s, so their runs are one pass over
# 12 lines; committee-e5 (about 90 ms a line) and bp-text (about 5 ms)
# repeat passes.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("dm-b64", "dec-dm", lines=12, alphabet="default", binary=True, lexicon_size=2000),
        Workload("ce-b64", "dec-ce", lines=12, alphabet="default", binary=True),
        Workload(
            "committee-e5", "dec-e", lines=100, alphabet="experiment", binary=False,
            beam=8, experts=5, min_symbol_prob=1e-3, vote_lambda=1.0,
            words_per_line=6, lexicon_size=50, chars=(27, 31),
        ),
        Workload("bp-text", "dec-bp", lines=200, alphabet="default", binary=False, beam=None),
    )
}


@dataclass(frozen=True)
class Inputs:
    manifest_path: Path
    lexicon_path: Path | None
    alphabet: Alphabet
    ids: tuple[str, ...]
    refs: tuple[str, ...]
    vocabulary: frozenset[str]
    #: dec-bp only: collapse of each line's per-frame argmax.
    best_paths: tuple[str, ...]
    mean_frames: float


def _zipf_vocabulary(rng: np.random.Generator, size: int) -> dict[str, int]:
    """Distinct lowercase words of 2-7 letters with Zipf counts over a random rank."""
    words: set[str] = set()
    while len(words) < size:
        words.add("".join(rng.choice(list(_LOWER), size=int(rng.integers(2, 8)))))
    ordered = sorted(words)
    rng.shuffle(ordered)
    return {w: max(1, round(10_000 / (rank + 1))) for rank, w in enumerate(ordered)}


def _decorate(rng: np.random.Generator, tokens: list[str]) -> list[str]:
    """One capitalised word, one digit group, one trailing and one wrapping
    punctuation mark at random positions, as the stock rules allow. A fixed
    mix keeps the per-line cost of the FSA-constrained search alike."""
    cap, digits, trail, wrap = (int(i) for i in rng.permutation(len(tokens))[:4])
    out = list(tokens)
    out[cap] = out[cap].upper() if len(out[cap]) <= 3 else out[cap].capitalize()
    out[digits] = "".join(rng.choice(list(_DIGITS), size=int(rng.integers(1, 5))))
    out[trail] += str(rng.choice(list(",.;:!?")))
    out[wrap] = f"({out[wrap]})" if rng.random() < 0.5 else f'"{out[wrap]}"'
    return out


def _line(
    rng: np.random.Generator, pool: list[str], weights: np.ndarray, words: int, mixed: bool
) -> str:
    """One line of ``words`` Zipf-sampled tokens on the 84-symbol alphabet."""
    tokens = [str(w) for w in rng.choice(pool, size=words, p=weights)]
    if mixed:
        tokens = _decorate(rng, tokens)
    else:
        if rng.random() < 0.3:
            tokens[int(rng.integers(0, words - 1))] += ","
        if rng.random() < 0.5:
            tokens[-1] += "."
    return " ".join(tokens)


def _banded(sample: Callable[[], str], count: int, chars: tuple[int, int]) -> list[str]:
    """``count`` sampled lines whose length falls within ``chars``."""
    lines: list[str] = []
    while len(lines) < count:
        line = sample()
        if chars[0] <= len(line) <= chars[1]:
            lines.append(line)
    return lines


def generate(workload: Workload, seed: int, workdir: Path, lines: int | None = None) -> Inputs:
    """Write the workload's inputs under ``workdir`` and describe them.

    ``lines`` overrides the workload's line count (used by the smoke test).
    """
    count = lines or workload.lines
    (workdir / "m").mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(np.random.SeedSequence([seed, _name_key(workload.name)]))
    lexicon_path = None
    if workload.alphabet == "experiment":
        alphabet = _experiment_alphabet()
        vocab = _make_vocabulary(rng, workload.lexicon_size)

        def sample() -> str:
            return _sample_lines(rng, vocab, 1, workload.words_per_line)[0]
    else:
        alphabet = default_alphabet()
        vocab = _zipf_vocabulary(rng, workload.lexicon_size or 2000)
        pool = list(vocab)
        weights = np.array([vocab[w] for w in pool], dtype=np.float64)
        weights /= weights.sum()
        mixed = workload.scheme in ("dec-ce", "dec-bp")

        def sample() -> str:
            return _line(rng, pool, weights, workload.words_per_line, mixed)

    refs = _banded(sample, count, workload.chars)
    if workload.lexicon_size:
        lexicon_path = workdir / "lexicon.tsv"
        save_lexicon(Lexicon(vocab, separator=alphabet.separator), lexicon_path)

    ids = tuple(f"l{i:04d}" for i in range(count))
    records = []
    best_paths = []
    frames = 0
    for i, (line_id, text) in enumerate(zip(ids, refs)):
        paths = []
        for expert in range(workload.experts):
            mseed = int(np.random.SeedSequence([seed, expert, i]).generate_state(1)[0])
            matrix = generate_synthetic(
                text, alphabet, workload.frames_per_char, workload.noise, seed=mseed
            )
            path = workdir / "m" / f"e{expert}_{line_id}.ctcmat"
            store_matrix(matrix, path, binary=workload.binary)
            paths.append(str(path))
            frames += matrix.num_frames
            if workload.scheme == "dec-bp":
                best_paths.append(collapse(np.argmax(matrix.probs, axis=1), alphabet))
        records.append(LineRecord(line_id=line_id, matrix_paths=tuple(paths)))
    manifest_path = workdir / "manifest.json"
    save_manifest(Manifest(records=tuple(records)), manifest_path)
    with open(workdir / "refs.tsv", "w", encoding="utf-8") as fh:
        for line_id, text in zip(ids, refs):
            fh.write(f"{line_id}\t{text}\n")
    return Inputs(
        manifest_path=manifest_path,
        lexicon_path=lexicon_path,
        alphabet=alphabet,
        ids=ids,
        refs=tuple(refs),
        vocabulary=frozenset(vocab),
        best_paths=tuple(best_paths),
        mean_frames=frames / (count * workload.experts),
    )


def _name_key(name: str) -> int:
    return int.from_bytes(hashlib.sha256(name.encode()).digest()[:4], "little")


def check_output(
    workload: Workload,
    inputs: Inputs,
    out_path: Path,
    attach_chars: frozenset[str],
    accepts=None,
) -> list[str]:
    """Violations of the workload's output invariant in a ``run_batch`` output file.

    dec-dm and dec-e: every word is a lexicon word, allowing for attaching
    punctuation. dec-ce: every line is accepted by ``accepts`` (the
    compiled rule set). dec-bp: every line equals the collapse of the
    per-frame argmax. Lines reported as ``ERROR:<code>`` are failures,
    counted elsewhere, not violations.
    """
    with open(out_path, encoding="utf-8") as fh:
        rows = [raw.rstrip("\n").partition("\t")[::2] for raw in fh]
    problems: list[str] = []
    if [r[0] for r in rows] != list(inputs.ids):
        return [f"output ids do not match the manifest ({len(rows)} lines)"]
    for i, (line_id, text) in enumerate(rows):
        if text.startswith("ERROR:"):
            continue
        if workload.scheme in ("dec-dm", "dec-e"):
            # An empty line is a valid decode: the empty string is accepted.
            for token in text.split(inputs.alphabet.separator) if text else ():
                core = strip_attached(token, attach_chars)
                if core not in inputs.vocabulary:
                    problems.append(f"{line_id}: {token!r} is not a lexicon word")
        elif workload.scheme == "dec-ce":
            if not accepts(text):
                problems.append(f"{line_id}: {text!r} is rejected by the rule set")
        elif text != inputs.best_paths[i]:
            problems.append(f"{line_id}: {text!r} is not the collapsed argmax path")
    return problems
