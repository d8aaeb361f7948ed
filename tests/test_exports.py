"""The package root exports the decoders, their result and error types,
file I/O and what the CLI and scripts need; internals stay in their modules."""
import importlib
import math

import pytest

import ctcdec

EXPORTS = [
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

#: Names the package root no longer exports, and the module each lives in.
MODULE_ONLY = {
    "WordTransitionNetwork": "ctcdec.committee",
    "align_into_wtn": "ctcdec.committee",
    "vote": "ctcdec.committee",
    "format_rules": "ctcdec.expressions",
    "Path": "ctcdec.ctc",
}


def test_all_is_the_kept_list_and_resolves():
    assert ctcdec.__all__ == EXPORTS
    for name in EXPORTS:
        assert getattr(ctcdec, name) is not None


@pytest.mark.parametrize("name, module", sorted(MODULE_ONLY.items()))
def test_dropped_name_imports_from_its_module(name, module):
    assert not hasattr(ctcdec, name)
    assert hasattr(importlib.import_module(module), name)


def test_accept_all_model_lives_in_the_test_oracles():
    import ctcdec.expressions
    from oracles import accept_all_model

    assert not hasattr(ctcdec.expressions, "accept_all_model")
    assert accept_all_model(ctcdec.default_alphabet()).accepts("any text")


def test_path_log_score_lives_in_the_test_oracles():
    import ctcdec.ctc
    from oracles import path_log_score

    assert not hasattr(ctcdec.ctc, "path_log_score")
    matrix = ctcdec.ConfidenceMatrix([[0.5, 0.5]], ctcdec.Alphabet.with_nac("a"))
    assert path_log_score(matrix, [0]) == math.log(0.5)
