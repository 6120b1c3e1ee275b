"""perfbench/probe.py installed on the live package, as a benchmark worker
installs it, around `hanst prepare` and one `train_epoch`.

Installing fails when a name the probe patches is renamed. A prepare that
stops calling `tokenize` or `write_prepared` where the probe wraps them leaves
a span or the prepared byte count empty. A probed run whose loss differs from
a plain one shows a wrapper that changes what it wraps (the `train_epoch`
wrapper iterates `batches` before the call, so a generator of batches would
reach training empty).
"""

import contextlib
import io
import json
import pathlib
import sys

import numpy as np

from hanst import autodiff as ad
from hanst import cli, synth
from hanst import models as md
from hanst import training as tr
from hanst.corpus import save_corpus

PERFBENCH = str(pathlib.Path(__file__).resolve().parent.parent / "perfbench")
sys.path.insert(0, PERFBENCH)
try:
    from probe import SPANS, Probe
finally:
    sys.path.remove(PERFBENCH)


def prepare_and_train_epoch(corpus, cfg, out) -> float:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["prepare", str(corpus), "--config", str(cfg), "--out", str(out)]) == 0
    meta, by_split = cli.load_prepared(str(out))
    config = cli.make_train_config(cli.load_config_file(str(cfg)), meta["vocab_size"])
    model = md.build_model(config.model, np.random.default_rng(0))
    batches = tr.make_batches(by_split["train"], config.task, config.batch_size)
    return tr.train_epoch(model, batches, ad.Adam(model.params, lr=config.lr), config.loss,
                          np.random.default_rng(0))


def test_probe_counts_and_traces_prepare_and_a_train_epoch(tmp_path):
    corpus, cfg = tmp_path / "corpus.jsonl", tmp_path / "cfg.json"
    save_corpus(synth.tag_probe_corpus(n_docs=20), corpus)
    cfg.write_text(json.dumps({"task": "classify", "model_kind": "han", "embedding_dim": 8,
                               "bilstm_hidden": 8, "batch_size": 4, "vocab_size": 200}))
    plain = prepare_and_train_epoch(corpus, cfg, tmp_path / "plain")

    originals = [(owner, attr, getattr(owner, attr)) for _, owner, attr in SPANS]
    probe = Probe(tracing=True)
    try:
        probe.install_counters()
        probe.install_spans()
        probed = prepare_and_train_epoch(corpus, cfg, tmp_path / "probed")
    finally:
        probe.uninstall()

    assert probed == plain
    assert all(getattr(owner, attr) is fn for owner, attr, fn in originals)
    counters = probe.counters()
    for name in ("textprep.chars_kept_ratio", "models.token_fill",
                 "autodiff.tape_nodes_per_step"):
        assert counters[name] > 0, name
    layers = probe.layers(1.0)
    assert layers["textprep.segment_sentences.chars_in"] > 0
    assert layers["cli.prepared_bytes"] > 0
    assert layers["training.steps"] == probe.backward_calls > 0
    traced = {span[0] for span in probe.spans}
    assert {"cli.cmd_prepare", "corpus.load_corpus", "textprep.segment_sentences",
            "textprep.tokenize", "cli.write_prepared", "cli.load_prepared",
            "training.make_batches", "training.train_epoch", "models.pad_batch", "models.forward",
            "models.word_bilstm.fwd", "models.sent_attn.fwd", "autodiff.backward",
            "autodiff.adam_step"} <= traced
