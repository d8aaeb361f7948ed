"""Decoding toolkit for CTC confidence matrices.

Decoding schemes, in increasing order of constraint strength:

- ``dec-bp``: best-path (greedy per-frame argmax, then collapse);
- ``dec-ce``: most confident string accepted by an expression FSA;
- ``dec-dm``: most confident string of lexicon words, weighted by
  unigram word frequencies;
- ``dec-e<n>``: ROVER committee over n experts' dictionary decodes.

Plus CER/WER evaluation with expert ranking, synthetic test data, matrix
file formats, and a manifest-driven batch CLI.
"""

from .alphabet import NAC_CHAR, Alphabet, default_alphabet, normalize_transcript
from .batch import LineRecord, Manifest, load_manifest, run_batch, save_manifest
from .bestpath import decode_best_path
from .committee import CommitteeConfig, combine_hypotheses, committee_decode
from .ctc import collapse, force_align, string_log_score
from .dictionary import DecodeParams, decode_dictionary
from .errors import (
    CtcDecError,
    EmptyLanguage,
    EmptyLexicon,
    InvalidRule,
    InvalidSymbol,
    InvariantViolation,
    LengthMismatch,
    NoAcceptedString,
    ParseError,
    UnmappableCharacter,
)
from .evaluate import EvalReport, edit_distance, evaluate, rank_experts
from .expressions import (
    ExpressionModel,
    RuleConfig,
    compile_rules,
    decode_expression,
    default_rule_config,
    parse_rules,
)
from .lexicon import Lexicon, build_lexicon, load_lexicon, save_lexicon
from .matio import load_matrix, store_matrix
from .matrix import ConfidenceMatrix, detect_boundaries
from .synthetic import generate_synthetic
from .types import Hypothesis

__version__ = "0.1.0"

__all__ = [
    "Alphabet",
    "CommitteeConfig",
    "ConfidenceMatrix",
    "CtcDecError",
    "DecodeParams",
    "EmptyLanguage",
    "EmptyLexicon",
    "EvalReport",
    "ExpressionModel",
    "Hypothesis",
    "InvalidRule",
    "InvalidSymbol",
    "InvariantViolation",
    "LengthMismatch",
    "LineRecord",
    "Lexicon",
    "Manifest",
    "NAC_CHAR",
    "NoAcceptedString",
    "ParseError",
    "RuleConfig",
    "UnmappableCharacter",
    "build_lexicon",
    "collapse",
    "combine_hypotheses",
    "committee_decode",
    "compile_rules",
    "decode_best_path",
    "decode_dictionary",
    "decode_expression",
    "default_alphabet",
    "default_rule_config",
    "detect_boundaries",
    "edit_distance",
    "evaluate",
    "force_align",
    "generate_synthetic",
    "load_lexicon",
    "load_manifest",
    "load_matrix",
    "normalize_transcript",
    "parse_rules",
    "rank_experts",
    "run_batch",
    "save_lexicon",
    "save_manifest",
    "store_matrix",
    "string_log_score",
]
