from ctcdec.experiment import ExperimentConfig, TrialResult, run_experiment

from test_committee import count_confidence_passes


def test_small_experiment_runs_end_to_end():
    config = ExperimentConfig(
        trials=2,
        lines_per_trial=5,
        vocab_size=12,
        experts=2,
        words_per_line=3,
        committee_sizes=(2,),
        seed=99,
    )
    result = run_experiment(config)
    assert len(result.trials) == 2
    for trial in result.trials:
        assert 0.0 <= trial.wer_dictionary_best <= trial.wer_best_path_mean + 1.0
        assert set(trial.wer_committee) == {2}
    assert 0 <= result.passes <= 2


def test_ordering_predicate():
    good = TrialResult(
        wer_best_path_mean=0.3,
        wer_dictionary_mean=0.1,
        wer_dictionary_best=0.08,
        wer_committee={2: 0.08, 5: 0.05},
    )
    assert good.ordering_holds
    bad = TrialResult(
        wer_best_path_mean=0.3,
        wer_dictionary_mean=0.1,
        wer_dictionary_best=0.08,
        wer_committee={2: 0.2, 5: 0.05},
    )
    assert not bad.ordering_holds
    regression = TrialResult(
        wer_best_path_mean=0.05,
        wer_dictionary_mean=0.1,
        wer_dictionary_best=0.08,
        wer_committee={2: 0.08, 5: 0.08},
    )
    assert not regression.ordering_holds


def test_small_experiment_gives_pinned_results():
    """Exact results of a small noisy run, as the line-by-line decode
    before batching gave them; decoding a line's experts in one search
    must not change a single error count."""
    config = ExperimentConfig(
        trials=2,
        lines_per_trial=6,
        vocab_size=12,
        experts=3,
        words_per_line=3,
        committee_sizes=(2, 3),
        seed=7,
        noise=0.9,
    )
    assert run_experiment(config).trials == (
        TrialResult(
            wer_best_path_mean=1.037037037037037,
            wer_dictionary_mean=0.4444444444444445,
            wer_dictionary_best=0.2777777777777778,
            wer_committee={2: 0.2777777777777778, 3: 0.2222222222222222},
        ),
        TrialResult(
            wer_best_path_mean=1.2037037037037035,
            wer_dictionary_mean=0.5185185185185185,
            wer_dictionary_best=0.5,
            wer_committee={2: 0.5, 3: 0.4444444444444444},
        ),
    )


def test_a_count_vote_experiment_computes_no_word_confidences(monkeypatch):
    """At vote_lambda 1 no word confidence reaches a result, so none is computed."""
    counted = count_confidence_passes(monkeypatch)
    config = ExperimentConfig(
        trials=1, lines_per_trial=3, vocab_size=12, experts=3, words_per_line=3, committee_sizes=(2, 3), seed=5
    )
    assert config.vote_lambda == 1.0
    run_experiment(config)
    assert counted == []
