import dataclasses
import gc
import io
import json
import math
import multiprocessing
import os
import re
import signal
import sys
import threading
import time
import tracemalloc
import types

import numpy as np
import pytest

from oracles import TwoPassAdam, eager_batches
from hanst import autodiff as ad
from hanst import cli
from hanst import models as md
from hanst import synth
from hanst import training as tr
from hanst.autodiff import Adam, Tensor
from hanst.corpus import SPLITS
from hanst.errors import (ConfigurationError, DegenerateInputError, NonFiniteGradientError,
                          TrainingAbortedError, WorkerDiedError)
from hanst.evalstats import PredictionRecord, mae
from hanst.textprep import TaggedDocument, prepare_corpus


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
    model = md.ModelConfig(model_kind="awe", task=task,
                           vocab_size=vocab, embedding_dim=4, bilstm_hidden=2,
                           dropout_p=0.0)
    base = dict(model=model, epochs=5, batch_size=4, seeds=(1,))
    base.update(overrides)
    return tr.TrainConfig(**base)


class TestTrainConfig:
    def test_loss_defaults_match_task(self):
        assert tiny_train_config("classify").loss == "cross-entropy"
        assert tiny_train_config("regress").loss == "mae"

    def test_head_task_mismatch_rejected(self):
        model = md.ModelConfig(model_kind="awe", task="regress", vocab_size=12)
        assert tiny_train_config("regress").task == "regress"
        with pytest.raises(ConfigurationError,
                           match=r"^task 'classify' does not match the model's task 'regress'$"):
            tr.default_train_config("classify", model)

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

    def test_resample_is_refused_outside_classify(self):
        assert not tiny_train_config("regress").resample
        with pytest.raises(ConfigurationError, match="classify task only, not 'regress'"):
            tiny_train_config("regress", resample=True)

    def test_invalid_sizes(self):
        with pytest.raises(ConfigurationError):
            tiny_train_config(epochs=0)
        with pytest.raises(ConfigurationError):
            tiny_train_config(batch_size=0)
        with pytest.raises(ConfigurationError):
            tiny_train_config(seeds=())

    @pytest.mark.parametrize("lr", [-0.005, 0, 0.0, float("nan"), float("inf")])
    def test_lr_must_be_finite_and_positive(self, lr):
        with pytest.raises(ConfigurationError, match=f"lr must be a finite number > 0, got {lr}$"):
            tiny_train_config(lr=lr)

    def test_repeated_seeds_rejected(self):
        with pytest.raises(ConfigurationError, match=r"seeds must be distinct, got \[1, 2, 1\]"):
            tiny_train_config(seeds=[1, 2, 1])


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


def ragged_docs(n=11, seed=3):
    """Documents of 1-4 sentences of 1-6 tokens, labelled for both tasks."""
    rng = np.random.default_rng(seed)
    return [tagged_doc(f"d{i}", [[int(t) for t in rng.integers(1, 30, size=rng.integers(1, 7))]
                                 for _ in range(rng.integers(1, 5))],
                       {"accepted": i % 3 == 0, "citation_count": int(rng.integers(0, 40))})
            for i in range(n)]


def assert_same_batches(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        for name in ("ids", "token_lengths", "sent_lengths", "labels"):
            x, y = getattr(a, name), getattr(b, name)
            assert x.dtype == y.dtype and x.shape == y.shape, name
            assert x.tobytes() == y.tobytes(), name


def awe_epoch_peak_mib(make_batches, docs, vocab_size):
    """tracemalloc's peak while `make_batches` cuts `docs` and one AWE epoch
    at the classify defaults trains on them, above the documents, model and
    optimizer."""
    config = tr.default_train_config(
        "classify", md.default_model_config("awe", "classify", vocab_size=vocab_size))
    rng = np.random.default_rng(0)
    model = md.build_model(config.model, rng)
    optimizer = Adam(model.params, lr=config.lr)
    gc.disable()
    tracemalloc.start()
    try:
        tr.train_epoch(model, make_batches(docs, config.task, config.batch_size), optimizer,
                       config.loss, rng)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        gc.enable()
    return peak / (1024.0 * 1024.0)


class TestMakeBatches:
    @pytest.mark.parametrize("task", ["classify", "regress"])
    @pytest.mark.parametrize("batch_size", [4, 11, 16])
    def test_equals_eager_oracle_bit_for_bit(self, task, batch_size):
        # 11 documents: a short last batch at 4, one whole batch at 11, one short at 16
        docs = ragged_docs()
        batches = tr.make_batches(docs, task, batch_size)
        want = eager_batches(docs, task, batch_size)
        assert len(batches) == len(want) == -(-len(docs) // batch_size)
        assert_same_batches([batches[i] for i in range(len(batches))], want)
        assert_same_batches(list(batches), want)
        assert_same_batches(list(batches), want)   # a second pass pads them again, the same
        assert_same_batches(list(reversed(batches)), want[::-1])

    def test_index_out_of_range_raises_index_error(self):
        batches = tr.make_batches(ragged_docs(), "classify", 4)
        for index in (3, 4, -4):
            with pytest.raises(IndexError):
                batches[index]
        assert_same_batches([batches[-1]], eager_batches(ragged_docs(), "classify", 4)[-1:])
        assert list(tr.make_batches([], "classify", 4)) == []

    def test_keeps_no_padded_batch(self):
        batches = tr.make_batches(ragged_docs(), "classify", 4)
        assert batches[0] is not batches[0]

    @pytest.mark.parametrize("batch_size", [4, 16])
    @pytest.mark.parametrize("attention", [False, True])
    def test_predict_equals_a_loop_over_the_eager_list(self, attention, batch_size):
        docs = ragged_docs()
        config = md.ModelConfig(model_kind="han", task="classify", vocab_size=30,
                                embedding_dim=6, bilstm_hidden=5, dropout_p=0.3)
        model = md.build_model(config, np.random.default_rng(2))
        records, maps = [], []
        for start, batch in zip(range(0, len(docs), batch_size),
                                eager_batches(docs, "classify", batch_size)):
            result = model.forward(batch, training=False)
            for i, doc in enumerate(docs[start:start + batch_size]):
                pred, prob = tr.prediction(result.output.values[i], "classify")
                records.append(PredictionRecord(id=doc.id, gold=tr.gold_value(doc.label, "classify"),
                                                pred=pred, prob=prob, seed=7))
                maps.append((result.sent_attention[i, :len(doc.sentences)].tolist(),
                             [row[:len(sent)].tolist()
                              for row, sent in zip(result.word_attention[i], doc.sentences)]))
        got = tr.predict(model, docs, "classify", batch_size, seed=7, attention=attention)
        assert got == ((records, maps) if attention else records)
        assert all(type(r.gold) is float for r in (got[0] if attention else got))

    def test_one_epoch_memory_does_not_grow_with_the_documents(self):
        # 40 and 160 heterogeneous documents at 20,000 characters. An eager list
        # holds every padded batch of the epoch at once, 0.216 MiB a document
        # (peaks 93.7 and 119.7 MiB); the sequence pads one batch at a time
        # (85.9 MiB at both sizes)
        vocab, store = prepare_corpus(synth.heterogeneous_length_corpus(n_docs=160), "none",
                                      20000, 10000)
        docs = list(store)
        lazy = [awe_epoch_peak_mib(tr.make_batches, docs[:n], len(vocab)) for n in (40, 160)]
        eager = [awe_epoch_peak_mib(eager_batches, docs[:n], len(vocab)) for n in (40, 160)]
        assert abs(lazy[1] - lazy[0]) < 1, lazy
        assert eager[1] - eager[0] > 10, eager


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
        with pytest.raises(TrainingAbortedError, match=r"at epoch 3, batch 0$"):
            tr.train_epoch(model, batches, optimizer, "cross-entropy", rng, epoch=3)

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
        # nothing of a step stays: the updates are applied inside backward,
        # so no parameter gradient is kept (24.7 MiB stayed while Adam ran
        # after backward; 0.0 since)
        assert peak / mib < 400
        assert held / mib < 1
        assert all(p.grad is None for p in model.params.values())

    def test_paper_size_step_peak_memory(self):
        # one paper-default HAN step on 4 documents of 20 sentences x 25
        # tokens, above the model and optimizer state. Backward frees what
        # each op saved once it has run, the word attention keeps only its
        # tanh projection and weights, and the BPTT writes the gate gradients
        # over the saved gates; keeping all of it peaked at 140 MiB. Each
        # BiLSTM writes one [R,T,2H] output, the BPTT recomputes tanh of the
        # cells, and first gradients are not copied; without those it peaked
        # at 104.6 MiB. Each LSTM direction saves only its gates, written over
        # its input projection, and recomputes its cells in backward, and the
        # attention backward works in place by row blocks; without those it
        # peaked at 81.0 MiB. Each parameter is updated inside backward as
        # soon as its gradient is final, so the word BiLSTM's backward no
        # longer runs beside the other layers' gradients; with Adam after
        # backward it peaked at 73.2 MiB, and since at 58.8 MiB.
        config = md.default_model_config("han", "classify", vocab_size=10002)
        rng = np.random.default_rng(0)
        model = md.build_model(config, rng)
        optimizer = Adam(model.params)
        docs = [tagged_doc(f"d{i}", [[int(t) for t in rng.integers(2, 10002, size=25)]
                                     for _ in range(20)], {"accepted": i % 2 == 0})
                for i in range(4)]
        batches = tr.make_batches(docs, "classify", 4)
        mib = 1024.0 * 1024.0
        gc.disable()
        tracemalloc.start()
        try:
            tr.train_epoch(model, batches, optimizer, "cross-entropy", rng)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            gc.enable()
        assert peak / mib < 65

    def test_ragged_paper_size_step_peak_memory(self):
        # paper-default HAN on 4 documents of 4, 8, 16 and 32 words per
        # sentence cut at 4,000 characters: a (4, 166, 33) batch, 14% real
        # tokens. Only the real sentences run the word level, each for its
        # own length; running every row of the padded batch peaks near 1.3 GiB,
        # holding the word states twice and copying first gradients at
        # 519.4 MiB, and saving the LSTM cells and a separate gates array and
        # allocating whole-array temporaries in the attention backward at
        # 395.0 MiB, and holding every parameter gradient until Adam ran
        # after backward at 340.9 MiB (326.4 MiB with the updates applied
        # inside backward).
        vocab, docs = prepare_corpus(synth.heterogeneous_length_corpus(n_docs=4), "none",
                                     4000, 10000)
        config = md.default_model_config("han", "classify", vocab_size=len(vocab))
        rng = np.random.default_rng(0)
        model = md.build_model(config, rng)
        batches = tr.make_batches(list(docs), "classify", 4)
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
        assert peak / mib < 360


class TestAdamInBackward:
    @pytest.mark.parametrize("task", ["classify", "regress"])
    @pytest.mark.parametrize("kind", ["han", "awe", "sent_avg_bilstm"])
    def test_equals_two_pass_oracle_bit_for_bit(self, kind, task):
        # three steps with dropout: train_epoch, whose backward applies each
        # update, against a plain backward and TwoPassAdam's step after it
        rng = np.random.default_rng(5)
        docs = [tagged_doc(f"d{i}", [[int(t) for t in rng.integers(1, 30, size=rng.integers(1, 7))]
                                     for _ in range(rng.integers(1, 5))],
                           {"accepted": i % 2 == 0, "citation_count": int(rng.integers(0, 40))})
                for i in range(12)]
        config = md.ModelConfig(model_kind=kind, task=task, vocab_size=30,
                                embedding_dim=6, bilstm_hidden=5, dropout_p=0.3)
        loss_kind = "cross-entropy" if task == "classify" else "mae"
        batches = tr.make_batches(docs, task, 4)
        runs = []
        for fused in (True, False):
            rng = np.random.default_rng(1)
            model = md.build_model(config, rng)
            opt = Adam(model.params) if fused else TwoPassAdam(model.params)
            losses = []
            for batch in batches:
                if fused:
                    losses.append(tr.train_epoch(model, [batch], opt, loss_kind, rng))
                    continue
                with ad.Tape():
                    result = model.forward(batch, training=True, rng=rng)
                    loss = tr.compute_loss(result.output, batch.labels, loss_kind)
                    ad.backward(loss)
                opt.step()
                losses.append(float(loss.values))
            assert opt.step_count == 3
            assert all(p.grad is None for p in model.params.values())
            runs.append((losses, model.params, opt))
        (losses, params, opt), (oracle_losses, oracle_params, oracle) = runs
        assert losses == oracle_losses
        for name in params:
            np.testing.assert_array_equal(params[name].values, oracle_params[name].values)
            np.testing.assert_array_equal(opt.m[name], oracle.m[name])
            np.testing.assert_array_equal(opt.v[name], oracle.v[name])


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


class FlushCountingLog(io.StringIO):
    """A text log that records, at each flush, how many lines it holds."""

    def __init__(self):
        super().__init__()
        self.flushed_at: list[int] = []

    def flush(self):
        self.flushed_at.append(self.getvalue().count("\n"))
        super().flush()


def single_run(config, docs, seed, log=None):
    """train_single_run with `docs` as every split: its model, its test
    predictions and the events of the log it wrote, read back."""
    log = io.StringIO() if log is None else log
    model, test_predictions = tr.train_single_run(config, docs, docs, docs, seed, log)
    return types.SimpleNamespace(model=model, test_predictions=test_predictions,
                                 log=[json.loads(line) for line in log.getvalue().splitlines()])


def history(record, key):
    """One value per epoch from a run's log: "train_loss" or "valid_metric"."""
    return [event[key] for event in record.log if key in event]


def selected_epoch(record):
    """The epoch of the run's snapshot, from the last event of its log."""
    assert record.log[-1]["event"] == "selected"
    return record.log[-1]["epoch"]


class TestTrainSingleRun:
    def run_once(self, seed=1, epochs=12, log=None):
        docs = classify_corpus(n_pos=8, n_neg=8)
        config = tiny_train_config(epochs=epochs, batch_size=4, resample=True)
        return config, single_run(config, docs, seed, log)

    def test_record_shapes(self):
        config, record = self.run_once()
        assert len(history(record, "train_loss")) == config.epochs
        assert len(history(record, "valid_metric")) == config.epochs
        assert all(e["seed"] == 1 for e in record.log)
        assert len(record.test_predictions) == 16
        assert all(r.seed == 1 for r in record.test_predictions)

    def test_selected_epoch_is_last_argmax(self):
        _, record = self.run_once()
        assert selected_epoch(record) == tr.select_best(history(record, "valid_metric"))

    def test_learns_separable_task(self):
        _, record = self.run_once(epochs=25)
        assert max(history(record, "valid_metric")) == 1.0

    def test_best_snapshot_reproduces_selection_metric(self):
        docs = classify_corpus(n_pos=8, n_neg=8)
        config = tiny_train_config(epochs=12, batch_size=4, resample=True)
        record = single_run(config, docs, seed=3)
        assert all(p.grad is None for p in record.model.params.values())
        metric = tr.validation_metric(
            tr.predict(record.model, docs, "classify", config.batch_size), "classify")
        assert metric == history(record, "valid_metric")[selected_epoch(record)]

    def test_deterministic(self):
        _, a = self.run_once(seed=5)
        _, b = self.run_once(seed=5)
        for key in ("train_loss", "valid_metric"):
            assert history(a, key) == history(b, key)
        assert [r.pred for r in a.test_predictions] == [r.pred for r in b.test_predictions]

    def test_empty_split_rejected(self):
        config = tiny_train_config()
        with pytest.raises(ConfigurationError):
            tr.train_single_run(config, [], classify_corpus(), [], seed=1, log=io.StringIO())

    def test_regression_selects_on_negated_mae(self):
        rng = np.random.default_rng(0)
        docs = [tagged_doc(f"d{i}", [[int(t) for t in rng.integers(2, 12, size=3)]],
                           {"citation_count": int(rng.integers(0, 50))})
                for i in range(12)]
        config = tiny_train_config("regress", epochs=3, batch_size=4)
        record = single_run(config, docs, seed=2)
        golds = [tr.gold_value(d.label, "regress") for d in docs]
        preds = [r.pred for r in tr.predict(record.model, docs, "regress", 4)]
        assert history(record, "valid_metric")[selected_epoch(record)] == -mae(golds, preds) < 0

    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_non_finite_gradient_names_the_head(self, monkeypatch):
        # a gradient can be non-finite under a finite loss; this one is made so
        # in the head, whose backward hands w over to Adam before b
        linear = ad.linear

        def poisoned(x, w, b, keep=None):
            out = linear(x, w, b, keep)
            backward_fn = out.backward_fn
            out.backward_fn = backward_fn and (lambda g: backward_fn(g * np.inf))
            return out

        monkeypatch.setattr(ad, "linear", poisoned)
        docs = classify_corpus()
        with pytest.raises(NonFiniteGradientError,
                           match=r"^non-finite gradient for parameter 'head\.w'$"):
            single_run(tiny_train_config(), docs, seed=1)

    def test_log_has_one_stamped_event_per_epoch(self):
        log = FlushCountingLog()
        _, record = self.run_once(epochs=3, log=log)
        # then one event naming the selected epoch: the log is the run's whole history
        *epochs, selected = record.log
        assert [(e["seed"], e["epoch"]) for e in epochs] == [(1, 0), (1, 1), (1, 2)]
        assert all(isinstance(e["train_loss"], float) and isinstance(e["valid_metric"], float)
                   for e in epochs)
        assert all(re.fullmatch(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\dZ", e["timestamp"])
                   for e in epochs)
        best = tr.select_best([e["valid_metric"] for e in epochs])
        assert selected == {"seed": 1, "event": "selected", "epoch": best}
        # one sort-keyed line per event, flushed as it is written
        assert log.getvalue() == "".join(json.dumps(e, sort_keys=True) + "\n" for e in record.log)
        assert log.flushed_at == [1, 2, 3, 4]


class ExitsWhenUnpickled:
    """Ends the process that unpickles it: a worker that dies."""

    def __reduce__(self):
        return os._exit, (70,)


class KilledWhenUnpickled:
    """Kills the process that unpickles it by SIGKILL."""

    def __reduce__(self):
        return signal.raise_signal, (signal.SIGKILL,)


@pytest.fixture
def orphan_watch(monkeypatch):
    """A parent sentinel for `_start_worker` in this process: the read end of
    a pipe whose write end the test holds. `os._exit` sets the event instead.
    Teardown closes the write end and waits for the watcher thread to exit."""
    read_end, write_end = os.pipe()
    monkeypatch.setattr(multiprocessing, "parent_process",
                        lambda: types.SimpleNamespace(sentinel=read_end))
    exited = threading.Event()
    monkeypatch.setattr(os, "_exit", lambda code: exited.set())
    closed = []

    def close_write_end():
        if not closed:
            os.close(write_end)
            closed.append(write_end)

    yield close_write_end, exited
    close_write_end()
    assert exited.wait(5)
    os.close(read_end)


class TestRunSeeds:
    def test_results_in_job_order(self):
        labels = [({"citation_count": n}, "regress") for n in (0, 1, 3)]
        assert tr.run_seeds(tr.gold_value, labels) == [tr.gold_value(*job) for job in labels]

    def test_workers_run_one_blas_thread_under_the_callers_errstate(self, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        names = [("OPENBLAS_NUM_THREADS",), ("OMP_NUM_THREADS",), ("MKL_NUM_THREADS",)]
        assert tr.run_seeds(os.getenv, names) == ["1", "1", "1"]
        # this process's environment is left as it was
        assert os.environ["OPENBLAS_NUM_THREADS"] == "2" and "OMP_NUM_THREADS" not in os.environ
        with np.errstate(over="ignore", divide="raise", invalid="warn", under="print"):
            assert tr.run_seeds(np.geterr, [()]) == [np.geterr()]

    def test_worker_start_takes_errstate_and_leaves_ctrl_c_to_the_caller(self, orphan_watch):
        handler, errstate = signal.getsignal(signal.SIGINT), np.geterr()
        try:
            tr._start_worker(dict(errstate, over="raise"))
            assert signal.getsignal(signal.SIGINT) is signal.SIG_IGN
            assert np.geterr() == dict(errstate, over="raise")
        finally:
            signal.signal(signal.SIGINT, handler)
            np.seterr(**errstate)

    def test_worker_exits_once_its_caller_is_gone(self, orphan_watch):
        # the caller holds the write end of the worker's parent sentinel until
        # it exits, however it exits; then the sentinel reads end of file
        close_write_end, exited = orphan_watch
        handler, errstate = signal.getsignal(signal.SIGINT), np.geterr()
        try:
            tr._start_worker(errstate)
        finally:
            signal.signal(signal.SIGINT, handler)
        assert not exited.wait(0.2)
        close_write_end()
        assert exited.wait(5)

    def test_first_failing_job_in_order_raises_and_stops_the_rest(self):
        start = time.monotonic()
        with pytest.raises(ConfigurationError, match="needs the label 'accepted'"):
            tr.run_seeds(tr.gold_value, [({"accepted": True}, "classify"),
                                         ({"citation_count": 1}, "classify"),
                                         ({"accepted": True}, "regress")])
        with pytest.raises(TypeError):
            tr.run_seeds(time.sleep, [("one",), (60,)])
        # the sleeping worker was stopped, not waited for
        assert time.monotonic() - start < 30
        assert multiprocessing.active_children() == []

    def test_main_module_from_stdin_is_refused_before_any_worker(self, monkeypatch):
        # a worker would import it from its file, as `python - <<EOF` has none
        main = types.ModuleType("__main__")
        main.__file__, main.__spec__ = "<stdin>", None
        monkeypatch.setitem(sys.modules, "__main__", main)
        monkeypatch.setattr(tr, "_seed_context", lambda: pytest.fail("a worker was started"))
        with pytest.raises(ConfigurationError, match="^a worker process cannot import the main "
                                                     "module '<stdin>'; run the script from a file$"):
            tr.run_seeds(len, [([1, 2],)])

    def test_dead_worker_raises_worker_died(self):
        # its own code, not training-aborted, with the exit code or signal of the worker that died
        with pytest.raises(WorkerDiedError, match="^a worker process died: exit code 70$"):
            tr.run_seeds(len, [(ExitsWhenUnpickled(),), ([1, 2],)])
        with pytest.raises(WorkerDiedError, match="^a worker process died: signal SIGKILL$"):
            tr.run_seeds(len, [([1, 2],), (KilledWhenUnpickled(),)])
        assert multiprocessing.active_children() == []


def run_experiment(config, docs, data_dir):
    """What `hanst train` runs once its checks pass, with `docs` as every
    split: `docs` written to `data_dir` as a prepared dataset, once a split
    with the split's name before each id, then each seed's `cli._train_seed`
    in a seed worker, which reads that dataset and writes that seed's files
    to `data_dir`, then the per-run metrics and vote of the test predictions
    the workers return."""
    splits = [split for split in SPLITS for _ in docs]
    meta = {"kind": cli.PREPARED_KIND, "format_version": cli.FORMAT_VERSION,
            "tagset": config.model.tagset, "max_chars": config.model.max_chars,
            "vocab_size": config.model.vocab_size, "corpus_sha256": "0" * 64,
            "vocab_sha256": "0" * 64, "n_docs": len(splits)}
    cli.write_prepared(os.path.join(data_dir, cli.PREPARED_NAME), meta,
                       [dataclasses.replace(doc, id=f"{split}/{doc.id}")
                        for split, doc in zip(splits, docs * len(SPLITS))], splits)
    jobs = [(str(data_dir), config, seed, None) for seed in config.seeds]
    runs = tr.run_seeds(cli._train_seed, jobs)
    return (runs, *tr.summarize_runs(runs, config.task))


def seed_files(seeds):
    return {name for s in seeds
            for name in (f"run-{s}.ckpt", f"predictions-{s}.jsonl", f"train-log-{s}.jsonl")}


class TestRunExperiment:
    def test_aggregates_and_vote(self, tmp_path):
        docs = classify_corpus(n_pos=10, n_neg=10)
        config = tiny_train_config(epochs=10, batch_size=4, resample=True,
                                   seeds=(1, 2, 3))
        runs, per_run, vote = run_experiment(config, docs, tmp_path)
        assert len(runs) == 3
        assert len(per_run["accuracy"]) == 3
        assert len(per_run["auc"]) == 3
        assert len(per_run["vote_accuracy"]) == 1
        assert len(vote) == 20
        assert {p.name for p in tmp_path.iterdir()} == seed_files((1, 2, 3)) | {"prepared.jsonl"}

    def test_regression_metrics(self, tmp_path):
        rng = np.random.default_rng(0)
        docs = [tagged_doc(f"d{i}", [[int(t) for t in rng.integers(2, 12, size=3)]],
                           {"citation_count": int(rng.integers(0, 50))})
                for i in range(12)]
        config = tiny_train_config("regress", epochs=3, batch_size=4, seeds=(1, 2))
        _, per_run, _ = run_experiment(config, docs, tmp_path)
        assert set(per_run) == {"r2", "mse", "mae", "run_mean_mae"}
        assert len(per_run["mae"]) == 2

    def test_rerun_identical(self, tmp_path):
        docs = classify_corpus()
        config = tiny_train_config(epochs=6, seeds=(4, 5, 6), resample=True)
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        _, a_metrics, a_vote = run_experiment(config, docs, tmp_path / "a")
        _, b_metrics, b_vote = run_experiment(config, docs, tmp_path / "b")
        assert a_metrics == b_metrics
        assert [r.pred for r in a_vote] == [r.pred for r in b_vote]
        for seed in config.seeds:
            name = f"run-{seed}.ckpt"
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_aborted_run_raises(self, tmp_path):
        # the absurd learning rate overflows the second forward pass
        docs = classify_corpus()
        config = tiny_train_config(epochs=4, seeds=(1, 2, 3), lr=1e200, resample=True)
        with pytest.raises(TrainingAbortedError, match="non-finite loss"):
            run_experiment(config, docs, tmp_path)


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
