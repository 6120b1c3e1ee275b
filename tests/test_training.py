import gc
import math
import tracemalloc

import numpy as np
import pytest

from hanst import models as md
from hanst import synth
from hanst import training as tr
from hanst.autodiff import Adam, Tensor
from hanst.errors import ConfigurationError, DegenerateInputError, TrainingAbortedError
from hanst.evalstats import PredictionRecord
from hanst.textprep import CharacterLimit, TaggedDocument, prepare_corpus


def tagged_doc(doc_id, sentences, label):
    return TaggedDocument(id=doc_id, sentences=sentences,
                          roles=["BODY_TEXT"] * len(sentences), label=label)


def classify_corpus(n_pos=8, n_neg=8, marker=5, vocab=12, seed=0):
    """Separable toy task: positive docs contain the marker token."""
    rng = np.random.default_rng(seed)
    docs = []
    for i in range(n_pos + n_neg):
        positive = i < n_pos
        tokens = [int(t) for t in rng.integers(6, vocab, size=4)]
        if positive:
            tokens[int(rng.integers(0, 4))] = marker
        docs.append(tagged_doc(f"d{i}", [tokens], {"accepted": positive}))
    return docs


def tiny_train_config(task="classify", vocab=12, **overrides):
    model = md.ModelConfig(model_kind="awe",
                           head_kind="classify-2" if task == "classify" else "regress-1",
                           vocab_size=vocab, embedding_dim=4, bilstm_hidden=2,
                           dropout_p=0.0)
    base = dict(task=task, model=model, epochs=5, batch_size=4, seeds=(1,),
                resample=False)
    base.update(overrides)
    return tr.TrainConfig(**base)


class TestTrainConfig:
    def test_loss_defaults_match_task(self):
        assert tiny_train_config("classify").loss == "cross-entropy"
        assert tiny_train_config("regress").loss == "mae"

    def test_head_task_mismatch_rejected(self):
        model = md.ModelConfig(model_kind="awe", head_kind="regress-1", vocab_size=12)
        with pytest.raises(ConfigurationError, match="head"):
            tr.TrainConfig(task="classify", model=model, epochs=1, batch_size=1)

    def test_schedule_defaults(self):
        model = md.default_model_config("han", "classify", 10002, tagset="full")
        config = tr.default_train_config("classify", model)
        assert (config.epochs, config.batch_size, config.lr) == (360, 4, 0.005)
        assert config.resample and config.loss == "cross-entropy"
        assert config.seeds == (1, 2, 3)
        rmodel = md.default_model_config("awe", "regress", 10002)
        rconfig = tr.default_train_config("regress", rmodel)
        assert (rconfig.epochs, rconfig.batch_size) == (60, 64)
        assert not rconfig.resample

    def test_invalid_sizes(self):
        with pytest.raises(ConfigurationError):
            tiny_train_config(epochs=0)
        with pytest.raises(ConfigurationError):
            tiny_train_config(batch_size=0)
        with pytest.raises(ConfigurationError):
            tiny_train_config(seeds=())


class TestGoldValue:
    def test_classification_labels(self):
        assert tr.gold_value({"accepted": True}, "classify") == 1.0
        assert tr.gold_value({"accepted": False}, "classify") == 0.0

    def test_regression_target_is_log_citation_score(self):
        assert tr.gold_value({"citation_count": 0}, "regress") == 0.0
        assert tr.gold_value({"citation_count": 1}, "regress") == pytest.approx(math.log(2))

    def test_label_the_task_needs_is_required(self):
        with pytest.raises(ConfigurationError, match="'accepted'"):
            tr.gold_value({"citation_count": 3}, "classify")
        with pytest.raises(ConfigurationError, match="'citation_count'"):
            tr.gold_value({"accepted": True}, "regress")

    def test_uniform_logits_give_half_probabilities(self):
        probs = tr.class_probabilities(np.zeros((3, 2)))
        np.testing.assert_allclose(probs, 0.5, atol=1e-15)


class TestResampleBalanced:
    def test_minority_plus_equal_majority(self):
        examples = list(range(100))
        labels = [1] * 10 + [0] * 90
        out = tr.resample_balanced(examples, labels, np.random.default_rng(0))
        assert len(out) == 20
        assert sum(1 for e in out if e < 10) == 10
        assert sorted(e for e in out if e < 10) == list(range(10))

    def test_balanced_input_keeps_everything(self):
        examples = list(range(100))
        labels = [0] * 50 + [1] * 50
        out = tr.resample_balanced(examples, labels, np.random.default_rng(0))
        assert sorted(out) == examples

    def test_fresh_majority_sample_per_call(self):
        examples = list(range(1003))
        labels = [1] * 3 + [0] * 1000
        a = tr.resample_balanced(examples, labels, np.random.default_rng(1))
        b = tr.resample_balanced(examples, labels, np.random.default_rng(2))
        assert set(e for e in a if e >= 3) != set(e for e in b if e >= 3)

    def test_majority_sample_without_replacement(self):
        examples = list(range(40))
        labels = [1] * 15 + [0] * 25
        out = tr.resample_balanced(examples, labels, np.random.default_rng(3))
        assert len(out) == len(set(out)) == 30

    def test_single_class_rejected(self):
        with pytest.raises(ConfigurationError):
            tr.resample_balanced([1, 2, 3], [0, 0, 0], np.random.default_rng(0))

    def test_output_shuffled(self):
        examples = list(range(100))
        labels = [1] * 50 + [0] * 50
        out = tr.resample_balanced(examples, labels, np.random.default_rng(4))
        assert out != examples


class TestComputeLoss:
    def test_mae_identical(self):
        out = Tensor(np.array([[1.0], [2.0]]))
        loss = tr.compute_loss(out, np.array([1.0, 2.0]), "mae")
        assert float(loss.values) == 0.0

    def test_cross_entropy_uniform(self):
        out = Tensor(np.zeros((3, 2)))
        loss = tr.compute_loss(out, np.array([0, 1, 1]), "cross-entropy")
        assert float(loss.values) == pytest.approx(math.log(2), abs=1e-15)

    def test_mae_example(self):
        out = Tensor(np.array([[0.0], [4.0]]))
        loss = tr.compute_loss(out, np.array([1.0, 1.0]), "mae")
        assert float(loss.values) == 2.0


class TestTrainEpoch:
    def setup_run(self, lr=0.005, seed=0):
        docs = classify_corpus()
        config = tiny_train_config()
        rng = np.random.default_rng(seed)
        model = md.build_model(config.model, rng)
        optimizer = Adam(model.params, lr=lr)
        batches = tr.make_batches(docs, "classify", len(docs))
        return model, optimizer, batches, rng

    def test_zero_lr_is_exact_noop(self):
        model, optimizer, batches, rng = self.setup_run(lr=0.0)
        before = {n: p.values.copy() for n, p in model.params.items()}
        tr.train_epoch(model, batches, optimizer, "cross-entropy", rng)
        for name, prev in before.items():
            np.testing.assert_array_equal(model.params[name].values, prev)

    def test_overfits_single_batch(self):
        model, optimizer, batches, rng = self.setup_run()
        losses = [tr.train_epoch(model, batches, optimizer, "cross-entropy", rng)
                  for _ in range(50)]
        non_increasing = sum(1 for a, b in zip(losses, losses[1:]) if b <= a + 1e-12)
        assert non_increasing >= 0.9 * (len(losses) - 1)
        assert losses[-1] < losses[0]

    def test_deterministic_replay(self):
        def run():
            model, optimizer, batches, rng = self.setup_run(seed=7)
            return [tr.train_epoch(model, batches, optimizer, "cross-entropy", rng)
                    for _ in range(5)]

        assert run() == run()

    def test_non_finite_loss_aborts_with_location(self):
        model, optimizer, batches, rng = self.setup_run()
        model.embedding.values[:] = np.nan
        with pytest.raises(TrainingAbortedError) as exc_info:
            tr.train_epoch(model, batches, optimizer, "cross-entropy", rng, epoch=3)
        assert exc_info.value.epoch == 3
        assert exc_info.value.batch_index == 0

    def test_paper_size_steps_free_their_graphs_without_gc(self):
        # paper-default HAN, 2 steps of 4 documents of 20 sentences x 25 tokens;
        # with the cyclic collector off, each step's graph must be freed by
        # reference counting alone
        config = md.default_model_config("han", "classify", vocab_size=10002)
        rng = np.random.default_rng(0)
        model = md.build_model(config, rng)
        optimizer = Adam(model.params)
        docs = [tagged_doc(f"d{i}", [[int(t) for t in rng.integers(2, 10002, size=25)]
                                     for _ in range(20)], {"accepted": i % 2 == 0})
                for i in range(8)]
        batches = tr.make_batches(docs, "classify", 4)
        mib = 1024.0 * 1024.0
        gc.disable()
        tracemalloc.start()
        try:
            tr.train_epoch(model, batches, optimizer, "cross-entropy", rng)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            gc.enable()
        # what stays is the parameter gradients (about 25 MiB)
        assert peak / mib < 400
        assert held / mib < 64

    def test_ragged_paper_size_step_peak_memory(self):
        # paper-default HAN on 4 documents of 4, 8, 16 and 32 words per
        # sentence cut at 4,000 characters: a (4, 166, 33) batch, 14% real
        # tokens. Only the real sentences run the word level, each for its
        # own length; running every row of the padded batch peaks near 1.3 GiB.
        vocab, docs = prepare_corpus(synth.heterogeneous_length_corpus(n_docs=4), "none",
                                     CharacterLimit(4000), 10000)
        config = md.default_model_config("han", "classify", vocab_size=len(vocab))
        rng = np.random.default_rng(0)
        model = md.build_model(config, rng)
        batches = tr.make_batches(docs, "classify", 4)
        assert batches[0].ids.shape == (4, 166, 33)
        mib = 1024.0 * 1024.0
        gc.disable()
        tracemalloc.start()
        try:
            tr.train_epoch(model, batches, Adam(model.params), "cross-entropy", rng)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            gc.enable()
        assert peak / mib < 1000


class TestSelectBest:
    def test_tie_takes_last(self):
        assert tr.select_best([0.8, 0.9, 0.9]) == 2

    def test_single(self):
        assert tr.select_best([0.9]) == 0

    def test_interior_max(self):
        assert tr.select_best([0.7, 0.9, 0.8]) == 1

    def test_empty(self):
        with pytest.raises(DegenerateInputError):
            tr.select_best([])

    def test_no_later_epoch_matches(self):
        history = [0.1, 0.5, 0.3, 0.5, 0.2]
        chosen = tr.select_best(history)
        assert history[chosen] == max(history)
        assert all(v < history[chosen] for v in history[chosen + 1:])


class TestTrainSingleRun:
    def run_once(self, seed=1, epochs=12):
        docs = classify_corpus(n_pos=8, n_neg=8)
        config = tiny_train_config(epochs=epochs, batch_size=4, resample=True)
        return config, tr.train_single_run(config, docs, docs, docs, seed=seed)

    def test_record_shapes(self):
        config, record = self.run_once()
        assert len(record.train_losses) == config.epochs
        assert len(record.valid_metrics) == config.epochs
        assert record.seed == 1
        assert len(record.test_predictions) == 16
        assert all(r.seed == 1 for r in record.test_predictions)

    def test_selected_epoch_is_last_argmax(self):
        _, record = self.run_once()
        assert record.selected_epoch == tr.select_best(record.valid_metrics)

    def test_learns_separable_task(self):
        _, record = self.run_once(epochs=25)
        assert max(record.valid_metrics) == 1.0

    def test_best_snapshot_reproduces_selection_metric(self):
        docs = classify_corpus(n_pos=8, n_neg=8)
        config = tiny_train_config(epochs=12, batch_size=4, resample=True)
        record = tr.train_single_run(config, docs, docs, docs, seed=3)
        assert all(p.grad is None for p in record.model.params.values())
        metric = tr.validation_metric(
            tr.predict(record.model, docs, "classify", config.batch_size), "classify")
        assert metric == record.valid_metrics[record.selected_epoch]

    def test_deterministic(self):
        _, a = self.run_once(seed=5)
        _, b = self.run_once(seed=5)
        assert a.train_losses == b.train_losses
        assert a.valid_metrics == b.valid_metrics
        assert [r.pred for r in a.test_predictions] == [r.pred for r in b.test_predictions]

    def test_empty_split_rejected(self):
        config = tiny_train_config()
        with pytest.raises(ConfigurationError):
            tr.train_single_run(config, [], classify_corpus(), [], seed=1)


class TestRunExperiment:
    def test_aggregates_and_vote(self):
        docs = classify_corpus(n_pos=10, n_neg=10)
        config = tiny_train_config(epochs=10, batch_size=4, resample=True,
                                   seeds=(1, 2, 3))
        result = tr.run_experiment(config, docs, docs, docs)
        assert len(result.runs) == 3
        assert len(result.per_run_metrics["accuracy"]) == 3
        assert len(result.per_run_metrics["auc"]) == 3
        assert len(result.per_run_metrics["vote_accuracy"]) == 1
        assert len(result.vote_predictions) == 20

    def test_regression_metrics(self):
        rng = np.random.default_rng(0)
        docs = [tagged_doc(f"d{i}", [[int(t) for t in rng.integers(2, 12, size=3)]],
                           {"citation_count": int(rng.integers(0, 50))})
                for i in range(12)]
        config = tiny_train_config("regress", epochs=3, batch_size=4, seeds=(1, 2))
        result = tr.run_experiment(config, docs, docs, docs)
        assert set(result.per_run_metrics) == {"r2", "mse", "mae", "run_mean_mae"}
        assert len(result.per_run_metrics["mae"]) == 2

    def test_rerun_identical(self):
        docs = classify_corpus()
        config = tiny_train_config(epochs=6, seeds=(4, 5, 6), resample=True)
        a = tr.run_experiment(config, docs, docs, docs)
        b = tr.run_experiment(config, docs, docs, docs)
        assert a.per_run_metrics == b.per_run_metrics
        assert [r.pred for r in a.vote_predictions] == [r.pred for r in b.vote_predictions]

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_aborted_run_raises(self):
        # the absurd learning rate overflows the second forward pass
        docs = classify_corpus()
        config = tiny_train_config(epochs=4, seeds=(1, 2, 3), lr=1e200, resample=True)
        with pytest.raises(TrainingAbortedError, match="non-finite loss"):
            tr.run_experiment(config, docs, docs, docs)


class TestSummarizeRuns:
    def records(self, preds, golds=(1.0, 0.0, 1.0, 0.0), probs=None):
        return [PredictionRecord(id=f"d{i}", gold=g, pred=p,
                                 prob=None if probs is None else probs[i], seed=None)
                for i, (g, p) in enumerate(zip(golds, preds))]

    def test_odd_classification_run_count_votes(self):
        runs = [self.records([1.0, 0.0, 0.0, 0.0]), self.records([1.0, 1.0, 1.0, 0.0]),
                self.records([0.0, 0.0, 1.0, 0.0])]
        per_run, vote = tr.summarize_runs(runs, "classify")
        assert per_run["accuracy"] == [0.75, 0.75, 0.75]
        assert [r.pred for r in vote] == [1.0, 0.0, 1.0, 0.0]
        assert per_run["vote_accuracy"] == [1.0]

    def test_even_classification_run_count_does_not_vote(self):
        runs = [self.records([1.0, 0.0, 0.0, 0.0]), self.records([1.0, 1.0, 1.0, 0.0])]
        per_run, vote = tr.summarize_runs(runs, "classify")
        assert set(per_run) == {"accuracy"} and vote == []

    def test_regression_always_averages(self):
        golds = (1.0, 2.0, 3.0, 4.0)
        runs = [self.records([1.0, 2.0, 3.0, 5.0], golds), self.records([1.0, 2.0, 4.0, 5.0], golds)]
        per_run, vote = tr.summarize_runs(runs, "regress")
        assert [r.pred for r in vote] == [1.0, 2.0, 3.5, 5.0]
        assert per_run["run_mean_mae"] == [0.375]
        assert per_run["mae"] == [0.25, 0.5]

    def test_probabilities_give_auc(self):
        runs = [self.records([1.0, 0.0, 1.0, 0.0], probs=[0.9, 0.2, 0.6, 0.4])]
        per_run, _ = tr.summarize_runs(runs, "classify")
        assert per_run["auc"] == [1.0]

    def test_prediction_row(self):
        assert tr.prediction(np.array([0.0, 0.0]), "classify") == (0.0, 0.5)
        pred, prob = tr.prediction(np.array([-1.0, 2.0]), "classify")
        assert pred == 1.0 and prob == pytest.approx(1.0 / (1.0 + math.exp(-3.0)))
        assert tr.prediction(np.array([2.5]), "regress") == (2.5, None)
