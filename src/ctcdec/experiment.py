"""Multi-expert synthetic benchmark.

Generates noisy synthetic lines for several simulated experts, decodes
them with best-path and dictionary decoding, forms committees of the
top-ranked experts, and scores everything against the ground truth. Used
to check the expected quality ordering

    committee of 5  <=  committee of 2  <=  best single dictionary decode,
    dictionary decode  <=  best-path decode   (mean over experts)

holds on a majority of independent trials.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .alphabet import Alphabet
from .bestpath import decode_best_path
from .committee import CommitteeConfig, combine_hypotheses
from .dictionary import DecodeParams, _decode_dictionary_many
from .errors import NoAcceptedString
from .evaluate import EvalReport, evaluate, rank_experts
from .lexicon import Lexicon
from .synthetic import generate_synthetic

_LETTERS = "abcdefghijklmno"


@dataclass(frozen=True)
class ExperimentConfig:
    trials: int = 10
    lines_per_trial: int = 50
    vocab_size: int = 50
    experts: int = 5
    words_per_line: int = 4
    frames_per_char: int = 3
    noise: float = 0.25
    seed: int = 0
    beam_width: int = 8
    # Pure frequency voting: the robust setting for equal-quality experts
    # (confidence voting lets a confidently wrong expert override the
    # committee at n=2). Confidence voting is exercised in unit tests.
    vote_lambda: float = 1.0
    committee_sizes: tuple[int, ...] = (2, 5)


@dataclass(frozen=True)
class TrialResult:
    wer_best_path_mean: float
    wer_dictionary_mean: float
    wer_dictionary_best: float
    wer_committee: dict[int, float]

    @property
    def ordering_holds(self) -> bool:
        chain = [self.wer_committee[n] for n in sorted(self.wer_committee, reverse=True)]
        chain.append(self.wer_dictionary_best)
        committees_ok = all(a <= b for a, b in zip(chain, chain[1:]))
        return committees_ok and self.wer_dictionary_mean <= self.wer_best_path_mean


@dataclass(frozen=True)
class ExperimentResult:
    trials: tuple[TrialResult, ...]

    @property
    def passes(self) -> int:
        return sum(t.ordering_holds for t in self.trials)

    @property
    def majority_holds(self) -> bool:
        return self.passes * 2 > len(self.trials)


def _experiment_alphabet() -> Alphabet:
    return Alphabet.with_nac(_LETTERS + " ", separator=" ")


def _make_vocabulary(rng: np.random.Generator, size: int) -> dict[str, int]:
    """Random words, half of them one-letter variants of the other half.

    The minimal pairs make words confusable under noise, as in real
    language, so the dictionary constraint alone cannot fix everything
    and committees have room to help.
    """
    words: set[str] = set()
    while len(words) < size:
        length = int(rng.integers(3, 6))
        base = "".join(rng.choice(list(_LETTERS), size=length))
        if base in words:
            continue
        words.add(base)
        if len(words) < size:
            pos = int(rng.integers(0, length))
            variant = base[:pos] + str(rng.choice(list(_LETTERS))) + base[pos + 1 :]
            if variant != base:
                words.add(variant)
    # Zipf-flavored counts over a fixed word order.
    ordered = sorted(words)
    rng.shuffle(ordered)
    return {w: max(1, round(100 / (i + 1))) for i, w in enumerate(ordered)}


def _sample_lines(
    rng: np.random.Generator, vocab: dict[str, int], lines: int, words_per_line: int
) -> list[str]:
    words = list(vocab)
    weights = np.array([vocab[w] for w in words], dtype=np.float64)
    weights /= weights.sum()
    return [
        " ".join(rng.choice(words, size=words_per_line, p=weights))
        for _ in range(lines)
    ]


def run_trial(config: ExperimentConfig, trial: int) -> TrialResult:
    alphabet = _experiment_alphabet()
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, trial]))
    vocab = _make_vocabulary(rng, config.vocab_size)
    refs = _sample_lines(rng, vocab, config.lines_per_trial, config.words_per_line)
    lexicon = Lexicon(vocab, separator=" ")
    # Alpha, beta and the NULL confidence are the DecodeParams and CommitteeConfig defaults.
    params = DecodeParams(beam_width=config.beam_width, min_symbol_prob=1e-3)

    # Each line's expert matrices, decoded in one search per line.
    lines = [
        [
            generate_synthetic(
                text,
                alphabet,
                frames_per_char=config.frames_per_char,
                noise=config.noise,
                seed=int(
                    np.random.SeedSequence([config.seed, trial, expert, i]).generate_state(1)[0]
                ),
            )
            for expert in range(config.experts)
        ]
        for i, text in enumerate(refs)
    ]
    # At vote_lambda 1 no confidence reaches a result: the votes count words.
    confidences = config.vote_lambda < 1.0
    decoded = [_decode_dictionary_many(matrices, lexicon, params, word_confidences=confidences) for matrices in lines]

    bp_reports: list[EvalReport] = []
    dm_reports: list[EvalReport] = []
    dm_hyps_per_expert = []
    for expert in range(config.experts):
        dm_hyps = [line[expert] for line in decoded]
        for hyp in dm_hyps:
            # A failed decode ends the trial.
            if isinstance(hyp, NoAcceptedString):
                raise hyp
        bp_hyps = [decode_best_path(matrices[expert]) for matrices in lines]
        bp_reports.append(evaluate(bp_hyps, refs, alphabet))
        dm_reports.append(evaluate(dm_hyps, refs, alphabet))
        dm_hyps_per_expert.append(dm_hyps)

    ranking = rank_experts(dm_reports)
    committee_wer: dict[int, float] = {}
    for n in config.committee_sizes:
        top = ranking[:n]
        cfg = CommitteeConfig(n=len(top), vote_lambda=config.vote_lambda)
        combined = [
            combine_hypotheses([dm_hyps_per_expert[e][i] for e in top], cfg, " ")
            for i in range(len(refs))
        ]
        committee_wer[n] = evaluate(combined, refs, alphabet).wer

    return TrialResult(
        wer_best_path_mean=float(np.mean([r.wer for r in bp_reports])),
        wer_dictionary_mean=float(np.mean([r.wer for r in dm_reports])),
        wer_dictionary_best=dm_reports[ranking[0]].wer,
        wer_committee=committee_wer,
    )


def run_experiment(config: ExperimentConfig = ExperimentConfig()) -> ExperimentResult:
    return ExperimentResult(
        trials=tuple(run_trial(config, t) for t in range(config.trials))
    )
