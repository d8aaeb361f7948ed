import json

import pytest

from ctcdec.cli import main


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


@pytest.fixture()
def workspace(tmp_path):
    lines = tmp_path / "lines.txt"
    lines.write_text("the cat\nthe hat\ncat sat\n", encoding="utf-8")
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "train.txt").write_text(
        "the cat sat\nthe hat\nthe cat\n", encoding="utf-8"
    )
    return tmp_path


def test_synth_decode_eval_pipeline(workspace, capsys):
    out_dir = workspace / "synth"
    assert run_cli(
        "synth", "--lines", workspace / "lines.txt", "--out-dir", out_dir,
        "--fpc", 3, "--noise", 0.0, "--experts", 2,
    ) == 0
    manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    assert len(manifest["lines"]) == 3
    assert len(manifest["lines"][0]["matrices"]) == 2

    hyp = workspace / "hyp.tsv"
    assert run_cli(
        "decode", "--manifest", out_dir / "manifest.json",
        "--scheme", "dec-bp", "--out", hyp,
    ) == 0
    rows = dict(
        line.split("\t", 1)
        for line in hyp.read_text(encoding="utf-8").splitlines()
    )
    assert rows["l0000"] == "the cat"

    capsys.readouterr()
    assert run_cli("eval", "--hyp", hyp, "--ref", out_dir / "refs.tsv") == 0
    output = capsys.readouterr().out
    assert "cer=0.0" in output
    assert "wer=0.0" in output


def test_lexicon_build_and_dictionary_decode(workspace, capsys):
    lex_path = workspace / "words.tsv"
    assert run_cli(
        "lexicon", "build", "--corpus", workspace / "corpus", "--out", lex_path
    ) == 0
    content = lex_path.read_text(encoding="utf-8")
    assert "3\tthe" in content

    out_dir = workspace / "synth"
    run_cli(
        "synth", "--lines", workspace / "lines.txt", "--out-dir", out_dir,
        "--noise", 0.15, "--seed", 3,
    )
    hyp = workspace / "hyp.tsv"
    assert run_cli(
        "decode", "--manifest", out_dir / "manifest.json", "--scheme", "dec-dm",
        "--lexicon", lex_path, "--out", hyp, "--beam", 8,
    ) == 0
    assert len(hyp.read_text(encoding="utf-8").splitlines()) == 3


def test_dictionary_scheme_requires_lexicon(workspace):
    out_dir = workspace / "synth"
    run_cli("synth", "--lines", workspace / "lines.txt", "--out-dir", out_dir)
    code = run_cli(
        "decode", "--manifest", out_dir / "manifest.json",
        "--scheme", "dec-dm", "--out", workspace / "x.tsv",
    )
    assert code == 2


def test_expression_decode_with_rules_file(workspace):
    out_dir = workspace / "synth"
    run_cli("synth", "--lines", workspace / "lines.txt", "--out-dir", out_dir)
    rules = workspace / "rules.txt"
    rules.write_text(
        "class lowercase abcdefghijklmnopqrstuvwxyz\n"
        "class uppercase ABCDEFGHIJKLMNOPQRSTUVWXYZ\n"
        "class digit 0123456789\n"
        "class punct_attach .,:;!?\"()[]£$\n"
        "class punct_inword '-\n"
        "class punct_standalone &+=/_\n"
        "class separator \\s\n"
        "rule line_start_capital lenient\n",
        encoding="utf-8",
    )
    hyp = workspace / "hyp.tsv"
    assert run_cli(
        "decode", "--manifest", out_dir / "manifest.json", "--scheme", "dec-ce",
        "--rules", rules, "--out", hyp, "--beam", 16,
    ) == 0
    rows = dict(
        line.split("\t", 1) for line in hyp.read_text(encoding="utf-8").splitlines()
    )
    assert rows["l0000"] == "the cat"


def test_committee_decode(workspace):
    lex_path = workspace / "words.tsv"
    run_cli("lexicon", "build", "--corpus", workspace / "corpus", "--out", lex_path)
    out_dir = workspace / "synth"
    run_cli(
        "synth", "--lines", workspace / "lines.txt", "--out-dir", out_dir,
        "--noise", 0.2, "--experts", 3, "--seed", 5,
    )
    hyp = workspace / "hyp.tsv"
    assert run_cli(
        "decode", "--manifest", out_dir / "manifest.json", "--scheme", "dec-e",
        "--lexicon", lex_path, "--out", hyp, "--beam", 8, "--experts", 3,
    ) == 0
    assert len(hyp.read_text(encoding="utf-8").splitlines()) == 3


def test_committee_too_many_experts(workspace):
    lex_path = workspace / "words.tsv"
    run_cli("lexicon", "build", "--corpus", workspace / "corpus", "--out", lex_path)
    out_dir = workspace / "synth"
    run_cli("synth", "--lines", workspace / "lines.txt", "--out-dir", out_dir)
    code = run_cli(
        "decode", "--manifest", out_dir / "manifest.json", "--scheme", "dec-e",
        "--lexicon", lex_path, "--out", workspace / "x.tsv", "--experts", 5,
    )
    assert code == 2


def test_inspect(workspace, capsys):
    out_dir = workspace / "synth"
    run_cli("synth", "--lines", workspace / "lines.txt", "--out-dir", out_dir)
    manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    matrix_path = out_dir / manifest["lines"][0]["matrices"][0]
    capsys.readouterr()
    assert run_cli("inspect", "--matrix", matrix_path) == 0
    output = capsys.readouterr().out
    assert "frames" in output
    assert "boundaries" in output
    assert "the cat" in output


def test_binary_synth_round_trip(workspace):
    out_dir = workspace / "synth"
    assert run_cli(
        "synth", "--lines", workspace / "lines.txt", "--out-dir", out_dir, "--binary"
    ) == 0
    hyp = workspace / "hyp.tsv"
    assert run_cli(
        "decode", "--manifest", out_dir / "manifest.json",
        "--scheme", "dec-bp", "--out", hyp,
    ) == 0
    assert "the cat" in hyp.read_text(encoding="utf-8")


def test_eval_pairs_by_order_for_bare_files(tmp_path, capsys):
    hyp = tmp_path / "h.txt"
    ref = tmp_path / "r.txt"
    hyp.write_text("the cat\n", encoding="utf-8")
    ref.write_text("the bat\n", encoding="utf-8")
    capsys.readouterr()
    assert run_cli("eval", "--hyp", hyp, "--ref", ref) == 0
    out = capsys.readouterr().out
    assert "wer=0.5" in out


def test_bad_alphabet_file_fails_cleanly(tmp_path):
    bad = tmp_path / "alphabet.json"
    bad.write_text(json.dumps({"symbols": ["a", "b"]}), encoding="utf-8")  # no NaC
    lines = tmp_path / "lines.txt"
    lines.write_text("ab\n", encoding="utf-8")
    code = run_cli(
        "synth", "--lines", lines, "--out-dir", tmp_path / "out", "--alphabet", bad
    )
    assert code == 1


def test_manifest_error_aborts_with_nonzero_exit(tmp_path):
    bad = tmp_path / "manifest.json"
    bad.write_text("{broken", encoding="utf-8")
    code = run_cli(
        "decode", "--manifest", bad, "--scheme", "dec-bp", "--out", tmp_path / "x.tsv"
    )
    assert code == 1


def test_unlimited_beam_flag(workspace):
    out_dir = workspace / "synth"
    run_cli("synth", "--lines", workspace / "lines.txt", "--out-dir", out_dir)
    hyp = workspace / "hyp.tsv"
    assert run_cli(
        "decode", "--manifest", out_dir / "manifest.json", "--scheme", "dec-ce",
        "--beam", "inf", "--out", hyp,
    ) == 0
    rows = dict(
        line.split("\t", 1) for line in hyp.read_text(encoding="utf-8").splitlines()
    )
    assert rows["l0001"] == "the hat"


def test_rules_overlay_on_dictionary_scheme(workspace):
    # Strict capitalization rules exclude every lowercase lexicon word, so
    # stacking them onto dec-dm leaves only the empty line; on clean
    # matrices the empty line has zero mass, so each line reports
    # NoAcceptedString without failing the batch.
    lex_path = workspace / "words.tsv"
    run_cli("lexicon", "build", "--corpus", workspace / "corpus", "--out", lex_path)
    out_dir = workspace / "synth"
    run_cli("synth", "--lines", workspace / "lines.txt", "--out-dir", out_dir)
    rules = workspace / "strict.rules"
    rules.write_text(
        "class lowercase abcdefghijklmnopqrstuvwxyz\n"
        "class uppercase ABCDEFGHIJKLMNOPQRSTUVWXYZ\n"
        "class digit 0123456789\n"
        "class punct_attach .,:;!?\"()[]£$\n"
        "class punct_inword '-\n"
        "class punct_standalone &+=/_\n"
        "class separator \\s\n"
        "rule line_start_capital strict\n",
        encoding="utf-8",
    )
    hyp = workspace / "hyp.tsv"
    assert run_cli(
        "decode", "--manifest", out_dir / "manifest.json", "--scheme", "dec-dm",
        "--lexicon", lex_path, "--rules", rules, "--beam", 16, "--out", hyp,
    ) == 0
    rows = dict(
        line.split("\t", 1) for line in hyp.read_text(encoding="utf-8").splitlines()
    )
    assert rows["l0000"] == "ERROR:NoAcceptedString"
    # Without the overlay the same lines decode fine.
    assert run_cli(
        "decode", "--manifest", out_dir / "manifest.json", "--scheme", "dec-dm",
        "--lexicon", lex_path, "--beam", 16, "--out", hyp,
    ) == 0
    rows = dict(
        line.split("\t", 1) for line in hyp.read_text(encoding="utf-8").splitlines()
    )
    assert rows["l0000"] == "the cat"


def test_custom_alphabet_json(tmp_path, capsys):
    alphabet_json = tmp_path / "alphabet.json"
    alphabet_json.write_text(
        json.dumps({"symbols": ["x", "y", " ", "<NaC>"], "separator": " "}),
        encoding="utf-8",
    )
    lines = tmp_path / "lines.txt"
    lines.write_text("xy yx\n", encoding="utf-8")
    out_dir = tmp_path / "synth"
    assert run_cli(
        "synth", "--lines", lines, "--out-dir", out_dir, "--alphabet", alphabet_json
    ) == 0
    hyp = tmp_path / "hyp.tsv"
    assert run_cli(
        "decode", "--manifest", out_dir / "manifest.json",
        "--scheme", "dec-bp", "--out", hyp,
    ) == 0
    assert hyp.read_text(encoding="utf-8") == "l0000\txy yx\n"


def test_per_line_errors_still_exit_zero(workspace):
    out_dir = workspace / "synth"
    run_cli("synth", "--lines", workspace / "lines.txt", "--out-dir", out_dir)
    manifest_path = out_dir / "manifest.json"
    doc = json.loads(manifest_path.read_text(encoding="utf-8"))
    corrupt = out_dir / doc["lines"][1]["matrices"][0]
    corrupt.write_text("CTCMAT v1\na\t<NaC>\nT=1\n0.2\t0.2\n", encoding="utf-8")
    hyp = workspace / "hyp.tsv"
    assert run_cli(
        "decode", "--manifest", manifest_path, "--scheme", "dec-bp", "--out", hyp
    ) == 0
    lines = hyp.read_text(encoding="utf-8").splitlines()
    assert lines[1] == "l0001\tERROR:InvariantViolation"
    assert len(lines) == 3


@pytest.mark.parametrize(
    "scheme, flags",
    [
        ("dec-bp", ("--beam", 0)),
        ("dec-e", ("--lambda", 1.5)),
        ("dec-e", ("--experts", -1)),
        ("dec-dm", ("--min-symbol-prob", 2)),
        ("dec-ce", ("--min-symbol-prob", -0.1)),
        ("dec-ce", ("--min-symbol-prob", "nan")),
    ],
)
def test_bad_decode_numbers_exit_2_with_one_line(workspace, capsys, scheme, flags):
    lex_path = workspace / "words.tsv"
    run_cli("lexicon", "build", "--corpus", workspace / "corpus", "--out", lex_path)
    out_dir = workspace / "synth"
    run_cli("synth", "--lines", workspace / "lines.txt", "--out-dir", out_dir)
    capsys.readouterr()
    code = run_cli(
        "decode", "--manifest", out_dir / "manifest.json", "--scheme", scheme,
        "--lexicon", lex_path, "--out", workspace / "x.tsv", *flags,
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (workspace / "x.tsv").exists()


def _decode_inputs(workspace):
    lex_path = workspace / "words.tsv"
    run_cli("lexicon", "build", "--corpus", workspace / "corpus", "--out", lex_path)
    out_dir = workspace / "synth"
    run_cli("synth", "--lines", workspace / "lines.txt", "--out-dir", out_dir)
    return out_dir / "manifest.json", lex_path


def test_rules_file_not_utf8_exits_1_with_one_line(workspace, capsys):
    manifest, _ = _decode_inputs(workspace)
    rules = workspace / "bad.rules"
    rules.write_bytes(b"# rules\nrule line_start_capital str\xffict\n")
    capsys.readouterr()
    code = run_cli(
        "decode", "--manifest", manifest, "--scheme", "dec-ce", "--rules", rules,
        "--out", workspace / "x.tsv",
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: line 2: invalid UTF-8") and err.count("\n") == 1


@pytest.mark.parametrize("missing", ["manifest", "lexicon"])
def test_missing_input_file_exits_1_with_one_line(workspace, capsys, missing):
    manifest, lex_path = _decode_inputs(workspace)
    if missing == "manifest":
        manifest = workspace / "nope.json"
    else:
        lex_path = workspace / "nope.tsv"
    capsys.readouterr()
    code = run_cli(
        "decode", "--manifest", manifest, "--scheme", "dec-dm", "--lexicon", lex_path,
        "--out", workspace / "x.tsv",
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "nope" in err
    assert not (workspace / "x.tsv").exists()


def test_eval_file_not_utf8_exits_1_with_one_line(tmp_path, capsys):
    hyp = tmp_path / "hyp.tsv"
    hyp.write_bytes(b"l0\tthe cat\nl1\tthe h\xffat\n")
    ref = tmp_path / "ref.tsv"
    ref.write_text("l0\tthe cat\nl1\tthe hat\n", encoding="utf-8")
    capsys.readouterr()
    assert run_cli("eval", "--hyp", hyp, "--ref", ref) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: line 2: invalid UTF-8") and err.count("\n") == 1


def test_lexicon_corpus_not_utf8_exits_1_with_one_line(workspace, capsys):
    (workspace / "corpus" / "bad.txt").write_bytes(b"the cat\n\xff\n")
    out = workspace / "words.tsv"
    capsys.readouterr()
    assert run_cli("lexicon", "build", "--corpus", workspace / "corpus", "--out", out) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: line 2: invalid UTF-8") and err.count("\n") == 1
    assert not out.exists()


def test_eval_reads_lines_as_text_mode_does(tmp_path, capsys):
    """CRLF and a missing final newline read as before; a trailing blank
    line still counts as a line."""
    hyp = tmp_path / "hyp.txt"
    hyp.write_bytes(b"the cat\r\nthe hat\r\n\n")
    ref = tmp_path / "ref.txt"
    ref.write_bytes(b"the cat\nthe hat\n")
    capsys.readouterr()
    assert run_cli("eval", "--hyp", hyp, "--ref", ref) == 2
    assert "cannot pair 3 hypotheses with 2 references" in capsys.readouterr().err
    hyp.write_bytes(b"the cat\r\nthe hat")
    assert run_cli("eval", "--hyp", hyp, "--ref", ref) == 0
    assert "cer=0.0" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ("inspect", "--threshold", 2),
        ("synth", "--fpc", 1),
        ("synth", "--noise", 1.5),
        ("synth", "--experts", 0),
    ],
)
def test_bad_numbers_exit_2_with_one_line(workspace, capsys, argv):
    out_dir = workspace / "synth"
    run_cli("synth", "--lines", workspace / "lines.txt", "--out-dir", out_dir)
    matrix = out_dir / "e0_l0000.ctcmat"
    inputs = {
        "inspect": ("--matrix", matrix),
        "synth": ("--lines", workspace / "lines.txt", "--out-dir", workspace / "again"),
    }
    capsys.readouterr()
    assert run_cli(argv[0], *inputs[argv[0]], *argv[1:]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    # synth checks everything before it writes a file.
    assert not (workspace / "again").exists()
    assert argv[1] != "--experts" or "--experts" in err


def test_alphabet_json_separator_must_follow_the_file_rule(tmp_path, capsys):
    """Matrix files take the space symbol as the separator if present, else
    none; an alphabet file declaring another one would decode silently
    wrong against the matrices written with it, so it is refused."""
    alphabet_json = tmp_path / "alphabet.json"
    alphabet_json.write_text(
        json.dumps({"symbols": ["a", "b", "|", "<NaC>"], "separator": "|"}), encoding="utf-8"
    )
    lines = tmp_path / "lines.txt"
    lines.write_text("ab|ba\nba|ab|ab\n", encoding="utf-8")
    capsys.readouterr()
    assert run_cli("synth", "--lines", lines, "--out-dir", tmp_path / "x", "--alphabet", alphabet_json) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "separator" in err and err.count("\n") == 1

    # Without the entry the alphabet has no separator, as its matrices do,
    # so every line is one lexicon word and decodes back as written.
    alphabet_json.write_text(json.dumps({"symbols": ["a", "b", "|", "<NaC>"]}), encoding="utf-8")
    out_dir = tmp_path / "synth"
    assert run_cli("synth", "--lines", lines, "--out-dir", out_dir, "--alphabet", alphabet_json) == 0
    lex_path = tmp_path / "words.tsv"
    assert run_cli(
        "lexicon", "build", "--corpus", out_dir / "refs", "--out", lex_path, "--alphabet", alphabet_json
    ) == 0
    hyp = tmp_path / "hyp.tsv"
    assert run_cli(
        "decode", "--manifest", out_dir / "manifest.json", "--scheme", "dec-dm",
        "--lexicon", lex_path, "--out", hyp,
    ) == 0
    assert hyp.read_text(encoding="utf-8") == "l0000\tab|ba\nl0001\tba|ab|ab\n"
    capsys.readouterr()
    assert run_cli("inspect", "--matrix", out_dir / "e0_l0000.ctcmat") == 0
    assert "separator   None" in capsys.readouterr().out


def test_single_matrix_scheme_ignores_other_experts(workspace):
    out_dir = workspace / "synth"
    run_cli("synth", "--lines", workspace / "lines.txt", "--out-dir", out_dir, "--experts", 2)
    doc = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    (out_dir / doc["lines"][0]["matrices"][1]).unlink()
    hyp = workspace / "hyp.tsv"
    assert run_cli(
        "decode", "--manifest", out_dir / "manifest.json", "--scheme", "dec-bp", "--out", hyp
    ) == 0
    assert hyp.read_text(encoding="utf-8").splitlines()[0] == "l0000\tthe cat"


@pytest.mark.parametrize("scheme", ["dec-bp", "dec-ce", "dec-dm"])
def test_single_matrix_scheme_loads_one_matrix_per_line(workspace, monkeypatch, scheme):
    import ctcdec.batch

    lex_path = workspace / "words.tsv"
    run_cli("lexicon", "build", "--corpus", workspace / "corpus", "--out", lex_path)
    out_dir = workspace / "synth"
    run_cli("synth", "--lines", workspace / "lines.txt", "--out-dir", out_dir, "--experts", 3)
    loaded = []

    def counting_load(path, *args, **kwargs):
        loaded.append(path)
        return load_matrix(path, *args, **kwargs)

    load_matrix = ctcdec.batch.load_matrix
    monkeypatch.setattr(ctcdec.batch, "load_matrix", counting_load)
    assert run_cli(
        "decode", "--manifest", out_dir / "manifest.json", "--scheme", scheme,
        "--lexicon", lex_path, "--out", workspace / "hyp.tsv",
    ) == 0
    assert len(loaded) == 3
    assert all("/e0_" in p for p in loaded)


def test_synth_with_an_unmappable_line_writes_nothing(workspace):
    lines = workspace / "lines.txt"
    lines.write_text("the cat\nthe ~ hat\n", encoding="utf-8")
    out_dir = workspace / "out"
    assert run_cli("synth", "--lines", lines, "--out-dir", out_dir) == 1
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "doc",
    [
        {"symbols": ["ab", "c", "<NaC>"]},
        {"symbols": ["a", "\t", "<NaC>"]},
        {"symbols": ["a", "\n", "<NaC>"]},
        {"symbols": ["a", "", "<NaC>"]},
        {"symbols": ["a", 1, "<NaC>"]},
        {"symbols": ["a", "<NaC>", "<NaC>"]},
        ["a", "<NaC>"],
        {"symbols": 5},
        {"symbols": "a<NaC>"},
        {"normalization": {}},
        {"symbols": ["a", "<NaC>"], "normalization": ["a"]},
        {"symbols": ["a", "<NaC>"], "normalization": {"b": "c"}},
    ],
    ids=[
        "two-chars", "tab", "newline", "empty", "number", "two-nac", "top-level-array",
        "symbols-number", "symbols-string", "no-symbols", "normalization-list", "normalization-target",
    ],
)
def test_bad_alphabet_json_exits_1_with_one_line(tmp_path, capsys, doc):
    """Every alphabet JSON that matrix files could not carry, or that is
    not shaped like one, is refused before anything is written."""
    alphabet_json = tmp_path / "alphabet.json"
    alphabet_json.write_text(json.dumps(doc), encoding="utf-8")
    lines = tmp_path / "lines.txt"
    lines.write_text("a\n", encoding="utf-8")
    capsys.readouterr()
    out_dir = tmp_path / "out"
    assert run_cli("synth", "--lines", lines, "--out-dir", out_dir, "--alphabet", alphabet_json) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "bad alphabet file" in err and err.count("\n") == 1
    assert not out_dir.exists()


@pytest.mark.parametrize("scheme", ["dec-dm", "dec-e"])
def test_empty_lexicon_exits_1_with_one_line(workspace, capsys, scheme):
    manifest, _ = _decode_inputs(workspace)
    lex_path = workspace / "empty.tsv"
    lex_path.write_text("", encoding="utf-8")
    capsys.readouterr()
    out = workspace / "x.tsv"
    assert run_cli("decode", "--manifest", manifest, "--scheme", scheme, "--lexicon", lex_path, "--out", out) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "empty.tsv" in err and err.count("\n") == 1
    assert not out.exists()
