"""Acceptance gate: ten end-to-end checks over the whole package.

Each test prints one ``criterion NN PASS/FAIL`` line (visible with
``pytest -s``) and then asserts, so a red run still shows the full
scoreboard position of the failure.
"""

import io
import json
import os
import time

import numpy as np

from gradcheck import fd_grad
from oracles import (auc_brute_force, inject_tags, mcnemar_binomial_oracle,
                     spearman_permutation_oracle, strip_tags, wilcoxon_sign_enumeration)
from hanst import autodiff as ad
from hanst import cli
from hanst import evalstats as es
from hanst import models as md
from hanst import synth
from hanst import training as tr
from hanst.corpus import SPLITS, save_corpus
from hanst.textprep import TaggedDocument, apply_cutoff, encode_document, prepare_corpus, tokenize


def report(num: int, ok: bool, text: str) -> bool:
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {text}")
    return ok


# ---------------------------------------------------------------------------
# shared pipeline helpers
# ---------------------------------------------------------------------------

def encode_splits(docs, tagset, vocab_cap=200):
    vocab, store = prepare_corpus(docs, tagset, 20000, vocab_cap)
    encoded = list(store)
    return vocab, {name: [enc for enc, doc in zip(encoded, docs) if doc.split == name]
                   for name in SPLITS}


def run_classifier(encoded, vocab, *, model_kind, tagset, dim, hidden, dropout,
                   epochs, batch, lr, resample, seed):
    model_cfg = md.ModelConfig(model_kind=model_kind, task="classify",
                               vocab_size=len(vocab), embedding_dim=dim,
                               bilstm_hidden=hidden, dropout_p=dropout,
                               tagset=tagset)
    cfg = tr.TrainConfig(model=model_cfg, epochs=epochs,
                         batch_size=batch, lr=lr, seeds=(seed,), resample=resample)
    _, test_predictions = tr.train_single_run(cfg, encoded["train"], encoded["valid"],
                                              encoded["test"], seed=seed, log=io.StringIO())
    return test_predictions


def accuracy_of(records):
    golds = [r.gold for r in records]
    preds = [r.pred for r in records]
    return es.accuracy(golds, preds)


# ---------------------------------------------------------------------------
# 1. parameter-count identity
# ---------------------------------------------------------------------------

def test_criterion_01_parameter_counts():
    t0 = time.monotonic()
    classify = md.build_model(
        md.ModelConfig(model_kind="awe", task="classify",
                       vocab_size=10002, embedding_dim=50, bilstm_hidden=256, dropout_p=0.5),
        np.random.default_rng(0))
    regress = md.build_model(
        md.ModelConfig(model_kind="awe", task="regress",
                       vocab_size=10002, embedding_dim=300, bilstm_hidden=256, dropout_p=0.5),
        np.random.default_rng(0))
    n_classify = md.count_parameters(classify)
    n_regress = md.count_parameters(regress)
    elapsed = time.monotonic() - t0
    ok = n_classify == 500_202 and n_regress == 3_000_901 and elapsed < 1.0
    assert report(1, ok, f"mean-embedding model parameter counts "
                         f"{n_classify}/{n_regress} in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. gradient fidelity at toy size
# ---------------------------------------------------------------------------

def grad_gap(analytic, numeric):
    # double-precision central differences carry ~1e-11 absolute noise, so
    # elements below 1e-6 are compared absolutely rather than relatively
    scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
    return float((np.abs(analytic - numeric) / scale).max())


def test_criterion_02_gradients_match_finite_differences():
    t0 = time.monotonic()
    rng = np.random.default_rng(11)
    sentences = [[int(i) for i in rng.integers(2, 50, size=5)] for _ in range(2)]
    doc = TaggedDocument(id="d", sentences=sentences,
                         roles=["TITLE", "BODY_TEXT"], label={"accepted": True})
    batch = md.pad_batch([doc], labels=[1.0])
    golds = np.array([1])
    worst = {}
    for kind in md.MODEL_KINDS:
        config = md.ModelConfig(model_kind=kind, task="classify",
                                vocab_size=50, embedding_dim=8, bilstm_hidden=6,
                                dropout_p=0.0)
        model = md.build_model(config, np.random.default_rng(3))

        def loss_of():
            return ad.cross_entropy(model.forward(batch).output, golds)

        with ad.Tape():
            ad.backward(loss_of())
        worst[kind] = 0.0
        for name, param in model.params.items():
            original = param.values.copy()

            def f(x, p=param):
                p.values = x
                value = float(loss_of().values)
                p.values = original
                return value

            numeric = fd_grad(f, original.copy())
            analytic = param.grad if param.grad is not None else np.zeros_like(original)
            worst[kind] = max(worst[kind], grad_gap(analytic, numeric))
    elapsed = time.monotonic() - t0
    ok = all(v < 1e-3 for v in worst.values()) and elapsed < 60.0
    detail = ", ".join(f"{k} {v:.1e}" for k, v in worst.items())
    assert report(2, ok, f"max gradient error vs finite differences: {detail} "
                         f"in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. tagged/untagged model equivalence and input difference
# ---------------------------------------------------------------------------

def test_criterion_03_tagged_untagged_equivalence():
    docs = synth.tag_probe_corpus(n_docs=30)
    vocab, _ = encode_splits(docs, "full")
    kwargs = dict(model_kind="han", task="classify", vocab_size=len(vocab),
                  embedding_dim=8, bilstm_hidden=6, dropout_p=0.0)
    plain = md.build_model(md.ModelConfig(tagset="none", **kwargs),
                           np.random.default_rng(7))
    tagged = md.build_model(md.ModelConfig(tagset="full", **kwargs),
                            np.random.default_rng(7))
    same_counts = md.count_parameters(plain) == md.count_parameters(tagged)

    enc_plain = [encode_document(d, vocab, "none", 20000) for d in docs]
    enc_tagged = [encode_document(d, vocab, "full", 20000) for d in docs]
    batch = md.pad_batch(enc_plain[:4], labels=[1.0, 0.0, 1.0, 0.0])
    same_outputs = np.array_equal(plain.forward(batch).output.values,
                                  tagged.forward(batch).output.values)
    inputs_differ = all(a.sentences != b.sentences
                        for a, b in zip(enc_plain, enc_tagged))

    round_trips = True
    for doc in docs:
        tagged_parts = inject_tags(doc, "full")
        plain_parts = inject_tags(doc, "none")
        round_trips &= len(tagged_parts) == len(plain_parts)
        for (_, tagged_s), (_, plain_s) in zip(tagged_parts, plain_parts):
            round_trips &= tokenize(strip_tags(tagged_s)) == tokenize(plain_s)
            round_trips &= tokenize(tagged_s) != tokenize(plain_s)

    ok = same_counts and same_outputs and inputs_differ and round_trips
    assert report(3, ok, "same seed gives identical models; tags only change "
                         "the token stream and strip away exactly")


# ---------------------------------------------------------------------------
# 4. tag-utility learnability probe
# ---------------------------------------------------------------------------

def test_criterion_04_structure_tags_enable_title_rule():
    t0 = time.monotonic()
    docs = synth.tag_probe_corpus(n_docs=500)
    settings = dict(model_kind="han", dim=16, hidden=16, dropout=0.5,
                    epochs=30, batch=16, lr=0.005, resample=True, seed=1)
    accs = {}
    for tagset in ("full", "none"):
        vocab, encoded = encode_splits(docs, tagset)
        run = run_classifier(encoded, vocab, tagset=tagset, **settings)
        accs[tagset] = accuracy_of(run)
    elapsed = time.monotonic() - t0
    ok = accs["full"] >= 0.95 and accs["none"] <= 0.80 and elapsed < 600.0
    assert report(4, ok, f"title-keyword task: tagged {accs['full']:.3f} vs "
                         f"untagged {accs['none']:.3f} in {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 5. balanced resampling rescues the minority class
# ---------------------------------------------------------------------------

def minority_recall(records):
    recs = [r for r in records if r.gold == 1.0]
    return sum(r.pred == 1.0 for r in recs) / len(recs)


def test_criterion_05_resampling_rescues_minority():
    t0 = time.monotonic()
    docs = synth.imbalanced_corpus(n_docs=500)
    vocab, encoded = encode_splits(docs, "none")
    settings = dict(model_kind="awe", tagset="none", dim=16, hidden=6,
                    dropout=0.0, epochs=18, batch=32, lr=0.002, seed=3)
    recall_plain = minority_recall(run_classifier(encoded, vocab,
                                                  resample=False, **settings))
    recall_balanced = minority_recall(run_classifier(encoded, vocab,
                                                     resample=True, **settings))
    elapsed = time.monotonic() - t0
    ok = recall_plain == 0.0 and recall_balanced >= 0.8 and elapsed < 300.0
    assert report(5, ok, f"8% minority recall: {recall_plain:.2f} natural vs "
                         f"{recall_balanced:.2f} resampled in {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 6. character cutoff equalizes document lengths better
# ---------------------------------------------------------------------------

def test_criterion_06_character_cutoff_lower_variation():
    docs = synth.heterogeneous_length_corpus()
    per_doc_sentences = []
    per_doc_counts = []
    for doc in docs:
        sents = [s for _, s in inject_tags(doc, "none")]
        per_doc_sentences.append(sents)
        per_doc_counts.append(np.array([len(tokenize(s)) for s in sents]))

    char_words = np.array([
        sum(len(tokenize(s)) for s in apply_cutoff(sents, 20000))
        for sents in per_doc_sentences], dtype=float)

    # pick the sentence budget whose mean words matches the character cutoff
    cumsums = np.stack([np.cumsum(c) for c in per_doc_counts])
    mean_by_m = cumsums.mean(axis=0)
    matched_m = int(np.argmin(np.abs(mean_by_m - char_words.mean()))) + 1
    sent_words = np.array([
        sum(len(tokenize(s)) for s in sents[:matched_m])
        for sents in per_doc_sentences], dtype=float)

    cv_char = char_words.std() / char_words.mean()
    cv_sent = sent_words.std() / sent_words.mean()
    means_close = abs(sent_words.mean() - char_words.mean()) / char_words.mean() < 0.05
    ok = means_close and cv_char < cv_sent
    assert report(6, ok, f"words/doc variation: character cutoff {cv_char:.4f} "
                         f"< sentence cutoff {cv_sent:.4f} at {matched_m} sentences")


# ---------------------------------------------------------------------------
# 7. metrics and tests agree with brute-force enumeration
# ---------------------------------------------------------------------------

def mcnemar_from_counts(b, c):
    golds = [1.0] * (b + c)
    preds_a = [1.0] * b + [0.0] * c
    preds_b = [0.0] * b + [1.0] * c
    return es.mcnemar_exact(golds, preds_a, preds_b).p_value


def test_criterion_07_oracle_equivalence():
    rng = np.random.default_rng(202)
    worst = 0.0

    for _ in range(10):
        golds = rng.integers(0, 2, size=50)
        if golds.min() == golds.max():
            golds[0] = 1 - golds[0]
        probs = np.round(rng.random(size=50), 2)  # duplicates force tie handling
        worst = max(worst, abs(es.auc_roc(golds.astype(float), probs)
                               - auc_brute_force(golds, probs)))

    mcnemar_exact_case = abs(mcnemar_from_counts(10, 0) - 1.0 / 512.0)
    for b in range(0, 7):
        for c in range(0, 7):
            worst = max(worst, abs(mcnemar_from_counts(b, c)
                                   - mcnemar_binomial_oracle(b, c)))

    wilcoxon_case = abs(
        es.wilcoxon_signed_rank([1, 2, 3, 4, 5, 6, 7, 8], [0] * 8).p_value
        - 0.0078125)
    for n in (6, 8, 10):
        diffs = np.round(rng.normal(size=n), 1)
        diffs[np.abs(diffs) < 0.1] = 0.5
        worst = max(worst, abs(es.wilcoxon_signed_rank(diffs, [0.0] * n).p_value
                               - wilcoxon_sign_enumeration(diffs)))

    for n in (7, 8):
        x = rng.permutation(n).astype(float)
        y = rng.permutation(n).astype(float)
        worst = max(worst, abs(es.spearman_rho(x, y)[1]
                               - spearman_permutation_oracle(x, y)[1]))

    ok = worst <= 1e-12 and mcnemar_exact_case == 0.0 and wilcoxon_case == 0.0
    assert report(7, ok, f"metrics vs enumeration oracles, worst gap {worst:.2e}")


# ---------------------------------------------------------------------------
# 8. regression identities and citation-score round trip
# ---------------------------------------------------------------------------

def test_criterion_08_regression_identities():
    rng = np.random.default_rng(31)
    golds = list(rng.normal(size=40))
    perfect = es.r2_score(golds, list(golds)) == 1.0
    mean_pred = es.r2_score(golds, [float(np.mean(golds))] * len(golds)) == 0.0
    zero = es.citation_score(0) == 0.0
    round_trip = all(es.inverse_citation_score(es.citation_score(n)) == n
                     for n in range(0, 10 ** 6 + 1))
    ok = perfect and mean_pred and zero and round_trip
    assert report(8, ok, "r2 identities hold and citation scores round-trip "
                         "for every count up to one million")


# ---------------------------------------------------------------------------
# 9. constant-probability classifier has chance AUC
# ---------------------------------------------------------------------------

def test_criterion_09_constant_probability_auc():
    golds = [1.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0]
    value = es.auc_roc(golds, [0.7] * len(golds))
    ok = value == 0.5
    assert report(9, ok, f"constant-probability classifier scores AUC {value}")


# ---------------------------------------------------------------------------
# 10. manifest-driven byte-identical reproduction
# ---------------------------------------------------------------------------

def test_criterion_10_manifest_reproduction(tmp_path):
    recipes = [
        (synth.tag_probe_corpus(n_docs=80),
         {"task": "classify", "model_kind": "han", "tagset": "full",
          "epochs": 2, "batch_size": 8, "seeds": [1, 2, 3],
          "embedding_dim": 8, "bilstm_hidden": 6, "vocab_size": 200}),
        (synth.citation_corpus(n_docs=60),
         {"task": "regress", "model_kind": "awe", "tagset": "none",
          "epochs": 2, "batch_size": 16, "seeds": [1, 2],
          "embedding_dim": 8, "vocab_size": 200}),
    ]
    ok = True
    for i, (docs, config) in enumerate(recipes):
        base = tmp_path / f"exp{i}"
        base.mkdir()
        corpus = base / "corpus.jsonl"
        save_corpus(docs, corpus)
        cfg_path = base / "config.json"
        cfg_path.write_text(json.dumps(config))
        data = str(base / "data")
        assert cli.main(["prepare", str(corpus), "--config", str(cfg_path),
                         "--out", data]) == 0
        assert cli.main(["train", "--config", str(cfg_path), "--out", data]) == 0
        first = open(os.path.join(data, "report.json"), "rb").read()
        assert cli.main(["train", "--from-manifest",
                         os.path.join(data, "manifest.json"),
                         "--out", data, "--force"]) == 0
        second = open(os.path.join(data, "report.json"), "rb").read()
        ok &= first == second
    assert report(10, ok, "re-running experiments from their manifests "
                          "reproduces report bytes exactly")
