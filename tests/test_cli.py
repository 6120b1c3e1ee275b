"""End-to-end command-line tests on bundled synthetic corpora."""

import dataclasses
import io
import json
import os
import pickle
import shutil
import struct
import subprocess
import sys

import numpy as np
import pytest

import hanst
from hanst import cli
from hanst import models as md
from hanst import synth
from hanst import training as tr
from hanst.corpus import load_corpus, save_corpus
from hanst.errors import (CheckpointMismatchError, ConfigurationError, DegenerateInputError,
                          TrainingAbortedError)
from hanst.textprep import Vocabulary, tag_tokens


def write_config(path, **overrides):
    cfg = {"task": "classify", "model_kind": "awe", "tagset": "none",
           "epochs": 1, "batch_size": 8, "seeds": [1],
           "embedding_dim": 8, "vocab_size": 200}
    cfg.update(overrides)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh)
    return str(path)


@pytest.fixture(scope="module")
def probe_corpus(tmp_path_factory):
    path = tmp_path_factory.mktemp("corpora") / "probe.jsonl"
    save_corpus(synth.tag_probe_corpus(n_docs=60), path)
    return str(path)


@pytest.fixture(scope="module")
def cites_corpus(tmp_path_factory):
    path = tmp_path_factory.mktemp("corpora") / "cites.jsonl"
    save_corpus(synth.citation_corpus(n_docs=60), path)
    return str(path)


def run_cli(capsys, *argv):
    rc = cli.main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def run_python(*argv):
    """Run a fresh interpreter on the package under test, warnings shown."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(hanst.__file__)))
    return subprocess.run([sys.executable, "-W", "default", *argv], env=env,
                          capture_output=True, text=True, timeout=120)


# ---------------------------------------------------------------------------
# pipeline matrix
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("model_kind", ["awe", "sent_avg_bilstm", "han"])
@pytest.mark.parametrize("tagset", ["none", "reduced", "full"])
def test_pipeline_all_models_all_tagsets(tmp_path, capsys, probe_corpus, model_kind, tagset):
    data = str(tmp_path / "data")
    cfg = write_config(tmp_path / "cfg.json", model_kind=model_kind, tagset=tagset,
                       bilstm_hidden=6)
    rc, out, err = run_cli(capsys, "prepare", probe_corpus, "--config", cfg, "--out", data)
    assert rc == 0 and err == ""
    assert out.splitlines()[0].split() == ["split", "docs", "avg_words", "median_words"]
    rc, out, err = run_cli(capsys, "train", "--config", cfg, "--out", data)
    assert rc == 0 and err == ""
    for name in ("manifest.json", "report.json", "run-1.ckpt",
                 "train-log-1.jsonl", "predictions-1.jsonl"):
        assert os.path.exists(os.path.join(data, name))
    rc, out, err = run_cli(capsys, "evaluate", "--manifest",
                           os.path.join(data, "manifest.json"), "--out", data)
    assert rc == 0
    report = json.loads(out)
    assert "accuracy" in report["metrics"]
    rc, out, err = run_cli(capsys, "predict", probe_corpus, "--checkpoint",
                           os.path.join(data, "run-1.ckpt"), "--out", data)
    assert rc == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert len(rows) == 60
    assert all(row["class"] in (0, 1) and 0.0 <= row["prob"] <= 1.0 for row in rows)


# ---------------------------------------------------------------------------
# prepare
# ---------------------------------------------------------------------------

def test_prepare_rerun_byte_identical(tmp_path, capsys, probe_corpus):
    data = str(tmp_path / "data")
    cfg = write_config(tmp_path / "cfg.json", tagset="full")
    assert run_cli(capsys, "prepare", probe_corpus, "--config", cfg, "--out", data)[0] == 0
    first = {name: open(os.path.join(data, name), "rb").read()
             for name in ("prepared.jsonl", "vocab.json")}
    assert run_cli(capsys, "prepare", probe_corpus, "--config", cfg, "--out", data)[0] == 0
    for name, blob in first.items():
        assert open(os.path.join(data, name), "rb").read() == blob


def test_prepare_reports_per_split_rows(tmp_path, capsys, probe_corpus):
    data = str(tmp_path / "data")
    cfg = write_config(tmp_path / "cfg.json")
    rc, out, _ = run_cli(capsys, "prepare", probe_corpus, "--config", cfg, "--out", data)
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 4
    assert [ln.split()[0] for ln in lines[1:]] == ["train", "valid", "test"]
    counts = [int(ln.split()[1]) for ln in lines[1:]]
    assert sum(counts) == 60


@pytest.mark.parametrize("tagset", ["none", "reduced", "full"])
def test_prepare_reads_tag_text_as_text(tmp_path, capsys, probe_corpus, tagset):
    docs = list(load_corpus(probe_corpus))
    for i, title in enumerate(["Uses the <PAD> token", "Uses the <TITLE> token"]):
        docs[i] = dataclasses.replace(docs[i], title=title, split="train")
    corpus = tmp_path / "tag-text.jsonl"
    save_corpus(docs, corpus)
    cfg = write_config(tmp_path / "cfg.json", tagset=tagset)
    rc, _, err = run_cli(capsys, "prepare", str(corpus), "--config", cfg,
                         "--out", str(tmp_path / "data"))
    assert rc == 0 and err == ""


def test_prepare_requires_config(tmp_path, capsys, probe_corpus):
    rc, _, err = run_cli(capsys, "prepare", probe_corpus, "--out", str(tmp_path / "d"))
    assert rc == 1
    assert err.startswith("error: config-error:")
    assert err.count("\n") == 1


def test_unknown_config_key_rejected(tmp_path, capsys, probe_corpus):
    cfg = tmp_path / "cfg.json"
    with open(cfg, "w") as fh:
        json.dump({"task": "classify", "model_kind": "awe", "hidden": 6}, fh)
    rc, _, err = run_cli(capsys, "prepare", probe_corpus, "--config", str(cfg),
                         "--out", str(tmp_path / "d"))
    assert rc == 1
    assert "error: config-error:" in err and "hidden" in err


@pytest.mark.parametrize("text, message", [
    ("[1, 2]", "config must be a JSON object"),
    ('{"model_kind": "awe"}', "missing required key 'task'"),
    ('{"task": "classify",', "invalid JSON: "),
])
def test_malformed_config_file_one_line_error(tmp_path, capsys, probe_corpus, text, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text, encoding="utf-8")
    rc, _, err = run_cli(capsys, "prepare", probe_corpus, "--config", str(cfg),
                         "--out", str(tmp_path / "d"))
    assert rc == 1
    assert err.startswith(f"error: config-error: {cfg}: {message}")
    assert err.count("\n") == 1


def test_corpus_error_names_line(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"id": "a", "title": "t", "abstract": "", "body_text": "b", '
                   '"label": {"accepted": true}, "split": "train"}\nnot json\n')
    cfg = write_config(tmp_path / "cfg.json")
    rc, _, err = run_cli(capsys, "prepare", str(bad), "--config", cfg,
                         "--out", str(tmp_path / "d"))
    assert rc == 1
    assert err == f"error: corpus-format: {bad}: line 2: invalid JSON: Expecting value\n"


@pytest.mark.parametrize("last, message", [
    ("not json", "invalid JSON: Expecting value"),
    (None, "duplicate document id 'pos0'"),
], ids=["malformed", "repeated-id"])
def test_prepare_failing_on_the_last_line_writes_nothing(tmp_path, capsys, probe_corpus,
                                                          last, message):
    # every earlier document is read and tokenized before the last line fails
    with open(probe_corpus, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines + [last or lines[0]]) + "\n", encoding="utf-8")
    want = f"error: corpus-format: {bad}: line {len(lines) + 1}: {message}\n"
    cfg = write_config(tmp_path / "cfg.json")
    fresh = tmp_path / "fresh"
    assert run_cli(capsys, "prepare", str(bad), "--config", cfg, "--out", str(fresh)) == (1, "", want)
    assert not fresh.exists()
    assert not [name for name in os.listdir(tmp_path) if name.startswith(".tmp-")]

    data = tmp_path / "data"
    assert run_cli(capsys, "prepare", probe_corpus, "--config", cfg, "--out", str(data))[0] == 0
    before = {name: (data / name).read_bytes() for name in os.listdir(data)}
    assert run_cli(capsys, "prepare", str(bad), "--config", cfg, "--out", str(data)) == (1, "", want)
    assert {name: (data / name).read_bytes() for name in os.listdir(data)} == before


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def prepared_dir(tmp_path, capsys, corpus, **cfg_overrides):
    os.makedirs(tmp_path, exist_ok=True)
    data = str(tmp_path / "data")
    cfg = write_config(tmp_path / "cfg.json", **cfg_overrides)
    rc, _, err = run_cli(capsys, "prepare", corpus, "--config", cfg, "--out", data)
    assert rc == 0, err
    return data, cfg


def test_train_twice_same_config_identical_report(tmp_path, capsys, probe_corpus):
    outputs = []
    for sub in ("a", "b"):
        data, cfg = prepared_dir(tmp_path / sub, capsys, probe_corpus, seeds=[1, 2, 3])
        assert run_cli(capsys, "train", "--config", cfg, "--out", data)[0] == 0
        outputs.append([open(os.path.join(data, name), "rb").read()
                        for name in ("report.json", "predictions-vote.jsonl")])
    assert outputs[0] == outputs[1]
    # three runs' metrics, and the vote of three runs over every test document
    report, vote = outputs[0]
    metrics = json.loads(report)["metrics"]
    assert {name: len(entry["per_run"]) for name, entry in metrics.items()} == \
        {"accuracy": 3, "auc": 3, "vote_accuracy": 1}
    n_test = len(cli.load_prepared(data)[1]["test"])
    assert n_test > 0 and vote.count(b"\n") == n_test


def test_train_refuses_overwrite_then_force(tmp_path, capsys, probe_corpus):
    data, cfg = prepared_dir(tmp_path, capsys, probe_corpus)
    assert run_cli(capsys, "train", "--config", cfg, "--out", data)[0] == 0
    rc, _, err = run_cli(capsys, "train", "--config", cfg, "--out", data)
    assert rc == 1
    assert err.startswith("error: output-exists:")
    assert run_cli(capsys, "train", "--config", cfg, "--out", data, "--force")[0] == 0


def test_train_from_manifest_reproduces_report_bytes(tmp_path, capsys, probe_corpus):
    data, cfg = prepared_dir(tmp_path, capsys, probe_corpus, model_kind="han",
                             bilstm_hidden=6, tagset="full", seeds=[1, 2, 3])
    assert run_cli(capsys, "train", "--config", cfg, "--out", data)[0] == 0
    first = open(os.path.join(data, "report.json"), "rb").read()
    rc, _, err = run_cli(capsys, "train", "--from-manifest",
                         os.path.join(data, "manifest.json"), "--out", data, "--force")
    assert rc == 0, err
    assert open(os.path.join(data, "report.json"), "rb").read() == first


def test_train_classify_with_mae_rejected(tmp_path, capsys, probe_corpus):
    # the loss follows the task, so `loss` is no config key whatever its value
    data, _ = prepared_dir(tmp_path, capsys, probe_corpus)
    for loss in ("mae", "cross-entropy"):
        cfg = write_config(tmp_path / "bad.json", loss=loss)
        rc, _, err = run_cli(capsys, "train", "--config", cfg, "--out", data)
        assert rc == 1
        assert err == f"error: config-error: {cfg}: unknown config keys: ['loss']\n"


def test_train_regress_with_resample_rejected(tmp_path, capsys, cites_corpus):
    # prepare refuses this config too, so the data is prepared without resample
    data, _ = prepared_dir(tmp_path, capsys, cites_corpus, task="regress")
    cfg = write_config(tmp_path / "bad.json", task="regress", resample=True)
    rc, _, err = run_cli(capsys, "train", "--config", cfg, "--out", data)
    assert rc == 1
    assert err == f"error: config-error: {cfg}: resample applies to the classify task only, not 'regress'\n"


@pytest.mark.parametrize("sources", [[], ["--config", "c.json", "--from-manifest", "m.json"]])
def test_train_needs_exactly_one_config_source(tmp_path, capsys, sources):
    rc, _, err = run_cli(capsys, "train", *sources, "--out", str(tmp_path / "d"))
    assert rc == 1
    assert err == "error: config-error: pass exactly one of --config or --from-manifest\n"


def test_train_seed_list_override(tmp_path, capsys, probe_corpus):
    data, cfg = prepared_dir(tmp_path, capsys, probe_corpus)
    assert run_cli(capsys, "train", "--config", cfg, "--out", data, "--seed-list", "7")[0] == 0
    manifest = json.load(open(os.path.join(data, "manifest.json")))
    assert manifest["config"]["seeds"] == [7]
    assert os.path.exists(os.path.join(data, "run-7.ckpt"))


def test_train_force_with_even_seed_count_removes_the_old_vote(tmp_path, capsys, probe_corpus):
    # two classify runs cannot vote, so the one-seed run's vote must not survive them
    data, cfg = prepared_dir(tmp_path, capsys, probe_corpus)
    vote = os.path.join(data, "predictions-vote.jsonl")
    assert run_cli(capsys, "train", "--config", cfg, "--out", data)[0] == 0
    assert os.path.exists(vote)
    rc, _, err = run_cli(capsys, "train", "--config", cfg, "--out", data, "--force",
                         "--seed-list", "1,2")
    assert rc == 0, err
    assert not os.path.exists(vote)


@pytest.mark.parametrize("seed_list, message", [
    ("1,x", "--seed-list must be comma-separated integers, got '1,x'"),
    (" , ", "--seed-list: at least one seed required"),
    # trained the config's seeds and exited 0
    ("", "--seed-list: at least one seed required"),
    # ended in numpy's "expected non-negative integer" traceback, then blamed the config
    ("-1", "--seed-list: seeds must be non-negative, got [-1]"),
])
def test_train_bad_seed_list_one_line(tmp_path, capsys, probe_corpus, seed_list, message):
    data, cfg = prepared_dir(tmp_path, capsys, probe_corpus)
    rc, out, err = run_cli(capsys, "train", "--config", cfg, "--out", data, "--seed-list", seed_list)
    assert rc == 1 and out == ""
    assert err == f"error: config-error: {message}\n"


def test_repeated_seeds_one_line(tmp_path, capsys, probe_corpus):
    # [1, 1, 1] trained seed 1 three times over one run-1.ckpt, and reported
    # a three-run vote with std 0
    data, cfg = prepared_dir(tmp_path, capsys, probe_corpus)
    bad = write_config(tmp_path / "bad.json", seeds=[1, 1, 1])
    repeated = f"{bad}: seeds must be distinct, got [1, 1, 1]"
    negative = write_config(tmp_path / "negative.json", seeds=[2, -1])
    for argv, message in ((["prepare", probe_corpus, "--config", bad], repeated),
                          (["train", "--config", bad], repeated),
                          (["prepare", probe_corpus, "--config", negative],
                           f"{negative}: seeds must be non-negative, got [2, -1]"),
                          (["train", "--config", negative],
                           f"{negative}: seeds must be non-negative, got [2, -1]"),
                          (["train", "--config", cfg, "--seed-list", "2,1,2"],
                           "--seed-list: seeds must be distinct, got [2, 1, 2]")):
        rc, out, err = run_cli(capsys, *argv, "--out", data)
        assert rc == 1 and out == ""
        assert err == f"error: config-error: {message}\n"
    assert not os.path.exists(os.path.join(data, "manifest.json"))


@pytest.mark.parametrize("text, shown", [("-0.005", "-0.005"), ("0", "0"), ("NaN", "nan"),
                                         ("1e400", "inf")])
def test_lr_must_be_finite_and_positive_one_line(tmp_path, capsys, probe_corpus, text, shown):
    # -0.005 trained by gradient ascent and 0 never moved the model, both
    # exiting 0; NaN and 1e400 ended in a training-aborted line naming no file
    data = _trained_dir(tmp_path, capsys, probe_corpus)
    cfg = write_config(tmp_path / "bad.json", lr="LR")
    manifest = os.path.join(data, "manifest.json")
    with open(manifest, encoding="utf-8") as fh:
        obj = json.load(fh)
    obj["config"]["lr"] = "LR"
    with open(manifest, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    for path in (cfg, manifest):   # the value as JSON text, as a user writes it
        with open(path, encoding="utf-8") as fh:
            edited = fh.read().replace('"LR"', text)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(edited)
    for argv, where in ((["prepare", probe_corpus, "--config", cfg], cfg),
                        (["train", "--config", cfg, "--force"], cfg),
                        (["train", "--from-manifest", manifest, "--force"], f"{manifest}: config"),
                        (["evaluate", "--manifest", manifest], f"{manifest}: config")):
        rc, out, err = run_cli(capsys, *argv, "--out", data)
        assert rc == 1 and out == ""
        assert err == f"error: config-error: {where}: lr must be a finite number > 0, got {shown}\n"


def test_seed_worker_failure_is_one_line(tmp_path, capsys, probe_corpus):
    # finite embeddings near the float64 limit overflow AWE's document mean
    # inside the seed workers; a fresh interpreter shows whatever a worker
    # prints, numpy's overflow warnings included
    data, cfg = prepared_dir(tmp_path, capsys, probe_corpus)
    emb = tmp_path / "huge.txt"
    emb.write_text("".join(f"{token} {' '.join(['1e308'] * 8)}\n"
                           for token in Vocabulary.load(os.path.join(data, "vocab.json")).id_to_token))
    cfg = write_config(tmp_path / "huge.json", embeddings=str(emb), seeds=[1, 2, 3])
    proc = run_python("-m", "hanst", "train", "--config", cfg, "--out", data)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == "error: training-aborted: non-finite loss nan at epoch 0, batch 0\n"
    assert not os.path.exists(os.path.join(data, "manifest.json"))


def test_train_seeds_match_single_runs_in_this_process(tmp_path, capsys, probe_corpus):
    # seed workers write the checkpoints and logs that training here gives, at
    # these sizes (where one and two BLAS threads round alike)
    data, cfg = prepared_dir(tmp_path, capsys, probe_corpus, epochs=4)
    assert run_cli(capsys, "train", "--config", cfg, "--out", data, "--seed-list", "3,1")[0] == 0
    meta, by_split = cli.load_prepared(data)
    config = cli.make_train_config(cli.load_config_file(cfg), meta["vocab_size"], "3,1")

    def events(text):
        return [{k: v for k, v in json.loads(line).items() if k != "timestamp"}
                for line in text.splitlines()]

    for seed in (3, 1):
        log = io.StringIO()
        model, _ = tr.train_single_run(config, by_split["train"], by_split["valid"],
                                       by_split["test"], seed, log)
        alone = str(tmp_path / f"alone-{seed}.ckpt")
        md.save_checkpoint(model, meta["vocab_sha256"], alone)
        assert open(alone, "rb").read() == open(os.path.join(data, f"run-{seed}.ckpt"), "rb").read()
        with open(os.path.join(data, f"train-log-{seed}.jsonl"), encoding="utf-8") as fh:
            assert events(fh.read()) == events(log.getvalue())


def test_dead_seed_worker_is_one_line(tmp_path, capsys, probe_corpus, monkeypatch):
    from test_training import ExitsWhenUnpickled

    data, _ = prepared_dir(tmp_path, capsys, probe_corpus)
    emb = tmp_path / "emb.txt"
    emb.write_text("")
    cfg = write_config(tmp_path / "emb.json", embeddings=str(emb), seeds=[1, 2, 3])
    # the parent never unpickles the embeddings; every seed worker does, and dies
    monkeypatch.setattr(cli, "load_embeddings", lambda *args: ExitsWhenUnpickled())
    rc, out, err = run_cli(capsys, "train", "--config", cfg, "--out", data)
    assert rc == 1 and out == ""
    assert err == "error: worker-died: a worker process died: exit code 70\n"
    assert not os.path.exists(os.path.join(data, "manifest.json"))


def test_train_tagset_mismatch_rejected(tmp_path, capsys, probe_corpus):
    data, _ = prepared_dir(tmp_path, capsys, probe_corpus, tagset="none")
    cfg = write_config(tmp_path / "other.json", tagset="full")
    rc, _, err = run_cli(capsys, "train", "--config", cfg, "--out", data)
    assert rc == 1
    assert "rerun prepare" in err


def _bad_json(lines):
    lines[2] = lines[2][:-5]
    return 3


def _unknown_split(lines):
    doc = json.loads(lines[1])
    doc["split"] = "dev"
    lines[1] = json.dumps(doc)
    return 2


def _missing_keys(lines):
    doc = json.loads(lines[1])
    del doc["roles"]
    lines[1] = json.dumps(doc)
    return 2


def _other_format_version(lines):
    meta = json.loads(lines[0])
    meta["format_version"] = cli.FORMAT_VERSION + 1
    lines[0] = json.dumps(meta)
    return 1


def _roles_not_one_per_sentence(lines):
    doc = json.loads(lines[1])
    doc["roles"].append("BODY_TEXT")
    lines[1] = json.dumps(doc)
    return 2


def _empty_sentence(lines):
    doc = json.loads(lines[1])
    doc["sentences"].append([])
    doc["roles"].append("BODY_TEXT")
    lines[1] = json.dumps(doc)
    return 2


def _no_sentences(lines):
    # unchecked, HAN and AWE failed naming no file, and sent_avg_bilstm trained on it
    doc = json.loads(lines[1])
    doc["sentences"], doc["roles"] = [], []
    lines[1] = json.dumps(doc)
    return 2


def _label_not_boolean(lines):
    # unchecked, this ended in a ValueError traceback inside training
    doc = json.loads(lines[1])
    doc["label"] = {"accepted": "yes"}
    lines[1] = json.dumps(doc)
    return 2


def _line_repeated(lines):
    # unchecked, the document trained twice and train exited 0
    lines.append(lines[1])
    return len(lines)


def _refused_here_as_printed(data, err):
    """A seed worker read the prepared dataset and refused it with `err`:
    load_prepared refuses it in this process with that line."""
    with pytest.raises(ConfigurationError) as refused:
        cli.load_prepared(data, "classify")
    assert err == f"error: config-error: {refused.value}\n"


@pytest.mark.parametrize("corrupt", [_bad_json, _unknown_split, _missing_keys,
                                     _other_format_version, _roles_not_one_per_sentence,
                                     _empty_sentence, _no_sentences, _label_not_boolean,
                                     _line_repeated])
def test_malformed_prepared_file_one_line_error(tmp_path, capsys, probe_corpus, corrupt):
    data, cfg = prepared_dir(tmp_path, capsys, probe_corpus)
    path = os.path.join(data, "prepared.jsonl")
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    line = corrupt(lines)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    rc, _, err = run_cli(capsys, "train", "--config", cfg, "--out", data)
    assert rc == 1
    assert err.startswith(f"error: config-error: {path}: line {line}: ")
    assert err.count("\n") == 1
    _refused_here_as_printed(data, err)


def test_prepared_file_of_another_kind_one_line_error(tmp_path, capsys, probe_corpus):
    data, cfg = prepared_dir(tmp_path, capsys, probe_corpus)
    path = os.path.join(data, "prepared.jsonl")
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    meta = json.loads(lines[0])
    meta["kind"] = "hanst-manifest"
    lines[0] = json.dumps(meta)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    rc, out, err = run_cli(capsys, "train", "--config", cfg, "--out", data)
    assert rc == 1 and out == ""
    assert err == f"error: config-error: {path}: not a prepared dataset\n"


def test_prepared_file_short_of_its_header_count_one_line_error(tmp_path, capsys, probe_corpus):
    # unchecked, a file with its last lines cut trained and exited 0
    data, cfg = prepared_dir(tmp_path, capsys, probe_corpus)
    path = os.path.join(data, "prepared.jsonl")
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    n_docs = json.loads(lines[0])["n_docs"]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines[:-5]) + "\n")
    rc, out, err = run_cli(capsys, "train", "--config", cfg, "--out", data)
    assert rc == 1 and out == ""
    assert err == f"error: config-error: {path}: header says {n_docs} documents, found {n_docs - 5}\n"
    _refused_here_as_printed(data, err)


@pytest.mark.parametrize("token_id, ok", [("a", False), (10 ** 6, False), (-3, False),
                                          (True, False), ("size", False), ("size-1", True)])
def test_prepared_token_ids_checked(tmp_path, capsys, probe_corpus, token_id, ok):
    # unchecked, "a" and 10**6 crashed inside training and -3 trained
    # silently on a wrapped-around embedding row
    data, cfg = prepared_dir(tmp_path, capsys, probe_corpus)
    path = os.path.join(data, "prepared.jsonl")
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    size = json.loads(lines[0])["vocab_size"]
    doc = json.loads(lines[1])
    doc["sentences"][0][0] = {"size": size, "size-1": size - 1}.get(token_id, token_id)
    lines[1] = json.dumps(doc)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    rc, _, err = run_cli(capsys, "train", "--config", cfg, "--out", data)
    if ok:
        assert rc == 0, err
    else:
        assert rc == 1
        assert err == f"error: config-error: {path}: line 2: token ids must be ints in [0, {size})\n"
        _refused_here_as_printed(data, err)


@pytest.mark.parametrize("key, value", [("epochs", "x"), ("max_chars", "x"), ("epochs", 1.5),
                                        ("seeds", [1, "2"]), ("resample", 1), ("lr", None),
                                        ("dropout_p", True), ("embeddings", 3)])
def test_config_value_types_checked(tmp_path, capsys, probe_corpus, key, value):
    data, _ = prepared_dir(tmp_path, capsys, probe_corpus)
    cfg = write_config(tmp_path / "bad.json", **{key: value})
    for argv in (["prepare", probe_corpus], ["train"]):
        rc, _, err = run_cli(capsys, *argv, "--config", cfg, "--out", data)
        assert rc == 1
        assert err.startswith(f"error: config-error: {cfg}: {key!r} must be ")
        assert err.count("\n") == 1


@pytest.mark.parametrize("command, overrides, message", [
    ("prepare", {"tagset": "bogus"},
     "tagset must be one of ('full', 'reduced', 'none'), got 'bogus'"),
    ("prepare", {"tagset": "full", "vocab_size": 3},
     f"{len(tag_tokens('full'))} forced tokens exceed vocabulary cap 3"),
    ("train", {"embedding_dim": 0}, "embedding_dim and bilstm_hidden must be positive"),
    ("train", {"max_chars": 0}, "max_chars must be >= 1, got 0"),
    # prepare resolves the config as train does, so it refuses these too
    ("prepare", {"task": "bogus"}, "task must be one of ['classify', 'regress'], got 'bogus'"),
    ("prepare", {"model_kind": "nope"},
     "model_kind must be one of ('awe', 'sent_avg_bilstm', 'han'), got 'nope'"),
    ("prepare", {"embedding_dim": 0, "dropout_p": 3},
     "embedding_dim and bilstm_hidden must be positive"),
    ("prepare", {"dropout_p": 3}, "dropout_p must be in [0, 1), got 3"),
    ("prepare", {"task": "regress", "resample": True},
     "resample applies to the classify task only, not 'regress'"),
    ("prepare", {"max_chars": 0}, "max_chars must be >= 1, got 0"),
    ("prepare", {"vocab_size": 0}, "vocab_size must be >= 1, got 0"),
    ("prepare", {"vocab_size": -5}, "vocab_size must be >= 1, got -5"),
    ("train", {"vocab_size": 0}, "vocab_size must be >= 1, got 0"),
], ids=["unknown-tagset", "vocab-below-tag-count", "embedding-dim-0", "max-chars-0",
        "prepare-unknown-task", "prepare-unknown-model-kind", "prepare-embedding-dim-0",
        "prepare-dropout-3", "prepare-resample-regress", "prepare-max-chars-0",
        "prepare-vocab-size-0", "prepare-vocab-size-negative", "train-vocab-size-0"])
def test_config_value_out_of_range_one_line(tmp_path, capsys, probe_corpus, command,
                                            overrides, message):
    data, _ = prepared_dir(tmp_path, capsys, probe_corpus)
    cfg = write_config(tmp_path / "bad.json", **overrides)
    argv = ["prepare", probe_corpus] if command == "prepare" else ["train"]
    rc, out, err = run_cli(capsys, *argv, "--config", cfg, "--out", data)
    assert rc == 1 and out == ""
    assert err == f"error: config-error: {cfg}: {message}\n"


def test_task_label_missing_is_one_line(tmp_path, capsys, cites_corpus, probe_corpus):
    # a classification config over a corpus that only has citation counts:
    # prepare refuses its first document
    cfg = write_config(tmp_path / "cfg.json")
    rc, out, err = run_cli(capsys, "prepare", cites_corpus, "--config", cfg,
                           "--out", str(tmp_path / "cites"))
    assert rc == 1 and out == ""
    assert err == f"error: config-error: {cites_corpus}: line 1: task 'classify' needs the label 'accepted'\n"
    # train and both forms of evaluate name the line of a hand-edited prepared
    # dataset, here of the test split, which evaluate scores by default
    data, cfg = prepared_dir(tmp_path / "probe", capsys, probe_corpus)
    assert run_cli(capsys, "train", "--config", cfg, "--out", data)[0] == 0
    path, line = _damage_first_line_of(data, "test",
                                       lambda doc: doc.update(label={"citation_count": 3}))
    for argv in (["train", "--config", cfg, "--force"],
                 ["evaluate", "--manifest", os.path.join(data, "manifest.json")],
                 ["evaluate", "--checkpoint", os.path.join(data, "run-1.ckpt")]):
        rc, out, err = run_cli(capsys, *argv, "--out", data)
        assert rc == 1 and out == ""
        assert err == (f"error: config-error: {path}: line {line}: "
                       "task 'classify' needs the label 'accepted'\n")


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_train_abort_is_one_line_and_writes_no_results(tmp_path, capsys, probe_corpus):
    # the absurd learning rate makes the second batch's loss NaN
    data, cfg = prepared_dir(tmp_path, capsys, probe_corpus, lr=1e200)
    rc, out, err = run_cli(capsys, "train", "--config", cfg, "--out", data)
    assert rc == 1 and out == ""
    assert err == "error: training-aborted: non-finite loss nan at epoch 0, batch 1\n"
    left = os.listdir(data)
    assert "manifest.json" not in left and "report.json" not in left
    assert not [name for name in left if name.endswith(".ckpt")]
    # the seed's worker opened its log, and no epoch ended
    with open(os.path.join(data, "train-log-1.jsonl"), encoding="utf-8") as fh:
        assert fh.read() == ""


def _in_this_process(fn, jobs):
    """run_seeds' stand-in: each job in this process, in order."""
    return [fn(*job) for job in jobs]


def test_failed_run_keeps_each_seeds_log(tmp_path, capsys, probe_corpus, monkeypatch):
    data, cfg = prepared_dir(tmp_path, capsys, probe_corpus, epochs=3, seeds=[1, 2, 3])
    monkeypatch.setattr(tr, "run_seeds", _in_this_process)
    train_epoch, epochs = tr.train_epoch, []

    def aborts_at_seed_2_epoch_2(*args, epoch):
        epochs.append(epoch)
        if epochs.count(2) == 2:   # the seeds train in order: this is seed 2's
            raise TrainingAbortedError("stopped at epoch 2")
        return train_epoch(*args, epoch=epoch)

    monkeypatch.setattr(tr, "train_epoch", aborts_at_seed_2_epoch_2)
    rc, out, err = run_cli(capsys, "train", "--config", cfg, "--out", data)
    assert rc == 1 and out == ""
    assert err == "error: training-aborted: stopped at epoch 2\n"
    with open(os.path.join(data, "train-log-2.jsonl"), encoding="utf-8") as fh:
        events = [json.loads(line) for line in fh]
    assert [(e["seed"], e["epoch"]) for e in events] == [(2, 0), (2, 1)]
    assert not [e for e in events if "event" in e]
    left = set(os.listdir(data))
    assert {"train-log-1.jsonl", "run-1.ckpt", "predictions-1.jsonl"} <= left
    assert not left & {"run-2.ckpt", "predictions-2.jsonl", "train-log-3.jsonl",
                       "manifest.json", "report.json", "predictions-vote.jsonl"}


def test_failed_force_run_leaves_no_manifest_report_or_vote(tmp_path, capsys, probe_corpus):
    # its seeds' checkpoints may be overwritten, so the old manifest would no longer describe them
    data, cfg = prepared_dir(tmp_path, capsys, probe_corpus)
    assert run_cli(capsys, "train", "--config", cfg, "--out", data)[0] == 0
    names = ("manifest.json", "report.json", "predictions-vote.jsonl")
    assert all(os.path.exists(os.path.join(data, name)) for name in names)
    bad = write_config(tmp_path / "bad.json", lr=1e200)
    rc, _, err = run_cli(capsys, "train", "--config", bad, "--out", data, "--force")
    assert rc == 1 and err.startswith("error: training-aborted: ")
    assert not [name for name in names if os.path.exists(os.path.join(data, name))]


def _snapshot(data):
    return {name: open(os.path.join(data, name), "rb").read() for name in os.listdir(data)}


@pytest.mark.parametrize("runner", ["workers", "in-process"])
def test_refused_force_run_leaves_every_file_as_it_was(tmp_path, capsys, probe_corpus,
                                                       monkeypatch, runner):
    # the workers find a damaged line or an empty split before any of them
    # removes the last run's results or opens its log
    data, cfg = prepared_dir(tmp_path, capsys, probe_corpus)
    assert run_cli(capsys, "train", "--config", cfg, "--out", data)[0] == 0
    if runner == "in-process":
        monkeypatch.setattr(tr, "run_seeds", _in_this_process)
    path = os.path.join(data, "prepared.jsonl")
    with open(path, encoding="utf-8") as fh:
        header, *lines = fh.readlines()
    all_train = [line.replace('"split": "valid"', '"split": "train"') for line in lines]
    assert all_train != lines
    damaged = [lines[0], "{not json\n", *lines[2:]]
    for edited, message in ((damaged, f"{path}: line 3: invalid JSON: "),
                            (all_train, "train and valid splits must be non-empty")):
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines([header, *edited])
        before = _snapshot(data)
        rc, out, err = run_cli(capsys, "train", "--config", cfg, "--out", data, "--force")
        assert rc == 1 and out == ""
        assert err.startswith(f"error: config-error: {message}") and err.count("\n") == 1
        assert _snapshot(data) == before
    # evaluate's workers refuse the empty split they are asked for
    rc, out, err = run_cli(capsys, "evaluate", "--manifest", os.path.join(data, "manifest.json"),
                           "--split", "valid", "--out", data)
    assert (rc, out, err) == (1, "", "error: degenerate-input: split 'valid' has no documents\n")


def test_evaluate_reads_each_checkpoint_header_once(tmp_path, capsys, probe_corpus, monkeypatch):
    # the caller reads a header to refuse its checkpoint; the worker reads it again to load it
    data = _trained_dir(tmp_path, capsys, probe_corpus, seeds=[1, 2, 3])
    calls, checkpoint_config = [], md.checkpoint_config

    def counted(path, vocab_sha256):
        calls.append(path)
        return checkpoint_config(path, vocab_sha256)

    monkeypatch.setattr(md, "checkpoint_config", counted)   # a patch reaches no seed worker
    checkpoints = [os.path.join(data, f"run-{seed}.ckpt") for seed in (1, 2, 3)]
    for argv, read in ((["--checkpoint", checkpoints[0]], checkpoints[:1]),
                       (["--manifest", os.path.join(data, "manifest.json")], checkpoints)):
        calls.clear()
        rc, _, err = run_cli(capsys, "evaluate", *argv, "--out", data)
        assert rc == 0, err
        assert calls == read


def test_train_and_evaluate_jobs_hold_no_documents(tmp_path, capsys, monkeypatch):
    # a job carries the data directory, so it is no larger for four times the documents
    jobs, run_seeds = [], tr.run_seeds

    def recorded(fn, fn_jobs):
        jobs.append(fn_jobs)
        return run_seeds(fn, fn_jobs)

    sizes = []
    for name, n_docs in (("a", 40), ("b", 160)):
        corpus = tmp_path / f"{name}.jsonl"
        save_corpus(synth.tag_probe_corpus(n_docs=n_docs), corpus)
        data, cfg = prepared_dir(tmp_path / name, capsys, str(corpus), vocab_size=30,
                                 seeds=[1, 2, 3])
        header = cli.prepared_header(data)
        assert header["n_docs"] == n_docs
        jobs.clear()
        monkeypatch.setattr(tr, "run_seeds", recorded)
        assert run_cli(capsys, "train", "--config", cfg, "--out", data)[0] == 0
        assert run_cli(capsys, "evaluate", "--manifest", os.path.join(data, "manifest.json"),
                       "--out", data)[0] == 0
        monkeypatch.undo()
        assert [len(fn_jobs) for fn_jobs in jobs] == [3, 3]
        pickled = [pickle.dumps(job) for fn_jobs in jobs for job in fn_jobs]
        assert not [blob for blob in pickled if b"TaggedDocument" in blob]
        sizes.append((header["vocab_size"], [len(blob) for blob in pickled]))
    assert sizes[0] == sizes[1]   # both vocabularies at the cap, so the configs pickle alike


def test_train_abort_is_one_line_with_warnings_shown(tmp_path, capsys, probe_corpus):
    # outside pytest nothing captures numpy's RuntimeWarnings; they must not print
    data, cfg = prepared_dir(tmp_path, capsys, probe_corpus, lr=1e200)
    proc = run_python("-m", "hanst", "train", "--config", cfg, "--out", data)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == "error: training-aborted: non-finite loss nan at epoch 0, batch 1\n"


def _trained_dir(tmp_path, capsys, corpus, **cfg):
    data, cfg_path = prepared_dir(tmp_path, capsys, corpus, **cfg)
    assert run_cli(capsys, "train", "--config", cfg_path, "--out", data)[0] == 0
    return data


def _manifest_bad_json(manifest, text):
    return text[:-10], "invalid JSON"


def _manifest_missing_keys(manifest, text):
    del manifest["vocab_sha256"]
    return json.dumps(manifest), "missing keys ['vocab_sha256']"


def _manifest_config_type(manifest, text):
    manifest["config"]["batch_size"] = "8"
    return json.dumps(manifest), "config: 'batch_size' must be int"


def _manifest_config_unknown_key(manifest, text):
    manifest["config"]["bogus"] = 1
    return json.dumps(manifest), "config: unknown config keys: ['bogus']"


def _manifest_other_kind(manifest, text):
    manifest["kind"] = "hanst-prepared"
    return json.dumps(manifest), "not an experiment manifest"


def _manifest_other_format_version(manifest, text):
    # unchecked, evaluate and train --from-manifest read the file and exited 0
    manifest["format_version"] = 99
    return json.dumps(manifest), f"format_version 99 is not {cli.FORMAT_VERSION}"


def _manifest_config_out_of_range(manifest, text):
    manifest["config"]["dropout_p"] = 3
    return json.dumps(manifest), "config: dropout_p must be in [0, 1), got 3"


@pytest.mark.parametrize("corrupt", [_manifest_bad_json, _manifest_missing_keys,
                                     _manifest_config_type, _manifest_config_unknown_key,
                                     _manifest_other_kind, _manifest_other_format_version,
                                     _manifest_config_out_of_range])
def test_malformed_manifest_one_line_error(tmp_path, capsys, probe_corpus, corrupt):
    data = _trained_dir(tmp_path, capsys, probe_corpus)
    path = os.path.join(data, "manifest.json")
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    text, message = corrupt(json.loads(text), text)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    for argv in (["evaluate", "--manifest", path], ["train", "--from-manifest", path, "--force"]):
        rc, _, err = run_cli(capsys, *argv, "--out", data)
        assert rc == 1
        assert err.startswith(f"error: config-error: {path}: {message}")
        assert err.count("\n") == 1


def _edit_manifest(path, edit):
    with open(path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    edit(manifest)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)


def test_evaluate_manifest_seed_without_checkpoint_one_line(tmp_path, capsys, probe_corpus):
    # the seeds come from the config; each names its checkpoint beside the manifest
    data = _trained_dir(tmp_path, capsys, probe_corpus)
    path = os.path.join(data, "manifest.json")
    _edit_manifest(path, lambda m: m["config"].update(seeds=[1, 2]))
    rc, out, err = run_cli(capsys, "evaluate", "--manifest", path, "--out", data)
    assert rc == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert os.path.join(data, "run-2.ckpt") in err


def _no_worker(fn, jobs):
    raise AssertionError("a seed worker was started")


def test_predict_checkpoint_predicts_with_the_checkpoint_train_wrote(tmp_path, capsys,
                                                                   probe_corpus, monkeypatch):
    # what evaluate --manifest runs in each seed worker
    data = _trained_dir(tmp_path, capsys, probe_corpus)
    path = os.path.join(data, "run-1.ckpt")
    got = cli._predict_checkpoint(path, data, "test", 8, 1)
    want = [json.loads(line) for line in open(os.path.join(data, "predictions-1.jsonl"))]
    assert [dataclasses.asdict(r) for r in got] == want
    # a checkpoint of another tagset is refused on its header, before any worker starts
    full = str(tmp_path / "full.ckpt")
    _edit_checkpoint_header(path, full, lambda h: h["model_config"].update(tagset="full"))
    monkeypatch.setattr(tr, "run_seeds", _no_worker)
    rc, out, err = run_cli(capsys, "evaluate", "--checkpoint", full, "--out", data)
    assert rc == 1 and out == ""
    assert err == ("error: checkpoint-mismatch: prepared dataset uses tagset 'none' "
                   "but the model wants 'full'; rerun prepare\n")


def test_evaluate_manifest_refuses_a_checkpoint_of_another_task(tmp_path, capsys, probe_corpus,
                                                               monkeypatch):
    # a regress checkpoint beside a classify manifest ended in an IndexError traceback
    data = _trained_dir(tmp_path, capsys, probe_corpus)
    path = os.path.join(data, "run-1.ckpt")
    vocab = Vocabulary.load(os.path.join(data, "vocab.json")).sha256()
    config = dataclasses.replace(md.checkpoint_config(path, vocab), task="regress")
    md.save_checkpoint(md.build_model(config, np.random.default_rng(0)), vocab, path)
    monkeypatch.setattr(tr, "run_seeds", _no_worker)
    rc, out, err = run_cli(capsys, "evaluate", "--manifest", os.path.join(data, "manifest.json"),
                           "--out", data)
    assert rc == 1 and out == ""
    assert err == f"error: checkpoint-mismatch: {path}: a regress model, but the task is 'classify'\n"


def test_evaluate_manifest_reads_seeds_from_its_config(tmp_path, capsys, probe_corpus):
    # a top-level "seeds": [1, 1, 1] evaluated run-1.ckpt three times, std 0
    data = _trained_dir(tmp_path, capsys, probe_corpus)
    path = os.path.join(data, "manifest.json")
    _edit_manifest(path, lambda m: m.update(seeds=[1, 1, 1]))
    rc, out, err = run_cli(capsys, "evaluate", "--manifest", path, "--out", data)
    assert rc == 0, err
    for entry in json.loads(out)["metrics"].values():
        assert len(entry["per_run"]) == 1


def test_manifest_without_seeds_or_checkpoints_keys(tmp_path, capsys, probe_corpus):
    # older manifests carry "seeds", "checkpoints" and "report"; newer ones none of them
    data = _trained_dir(tmp_path, capsys, probe_corpus, seeds=[1, 2, 3])
    path = os.path.join(data, "manifest.json")
    _edit_manifest(path, lambda m: m.update(seeds=[1, 2, 3], report="report.json",
                                            checkpoints={str(s): f"run-{s}.ckpt" for s in (1, 2, 3)}))
    report = open(os.path.join(data, "report.json"), "rb").read()
    rc, out, err = run_cli(capsys, "evaluate", "--manifest", path, "--out", data)
    assert rc == 0, err
    assert out.encode() == report
    _edit_manifest(path, lambda m: [m.pop(key) for key in ("seeds", "checkpoints", "report")])
    rc, out, err = run_cli(capsys, "evaluate", "--manifest", path, "--out", data)
    assert rc == 0, err
    assert out.encode() == report
    rc, _, err = run_cli(capsys, "train", "--from-manifest", path, "--out", data, "--force")
    assert rc == 0, err
    assert open(os.path.join(data, "report.json"), "rb").read() == report


def test_manifest_against_another_corpus_one_line(tmp_path, capsys, probe_corpus):
    # evaluate checked the vocabulary hash alone, as a checkpoint-mismatch
    data = _trained_dir(tmp_path / "a", capsys, probe_corpus)
    other_corpus = str(tmp_path / "other.jsonl")
    save_corpus(synth.tag_probe_corpus(n_docs=40), other_corpus)
    other, _ = prepared_dir(tmp_path / "b", capsys, other_corpus)
    path = os.path.join(data, "manifest.json")
    for argv in (["evaluate", "--manifest", path], ["train", "--from-manifest", path]):
        rc, out, err = run_cli(capsys, *argv, "--out", other)
        assert rc == 1 and out == ""
        assert err == "error: config-error: manifest corpus hash does not match the prepared dataset\n"


def test_train_from_manifest_of_another_corpus_one_line(tmp_path, capsys, probe_corpus):
    data = _trained_dir(tmp_path, capsys, probe_corpus)
    path = os.path.join(data, "manifest.json")
    with open(path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    manifest["corpus_sha256"] = "0" * 64
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)
    rc, out, err = run_cli(capsys, "train", "--from-manifest", path, "--out", data, "--force")
    assert rc == 1 and out == ""
    assert err == "error: config-error: manifest corpus hash does not match the prepared dataset\n"


@pytest.mark.parametrize("name, command", [
    ("corpus.jsonl", ["prepare", "{corpus}", "--config", "{cfg}", "--out", "{data}"]),
    ("cfg.json", ["prepare", "{corpus}", "--config", "{cfg}", "--out", "{data}"]),
    ("prepared.jsonl", ["train", "--config", "{cfg}", "--force", "--out", "{data}"]),
    ("vocab.json", ["evaluate", "--checkpoint", "{data}/run-1.ckpt", "--out", "{data}"]),
    ("manifest.json", ["evaluate", "--manifest", "{data}/manifest.json", "--out", "{data}"]),
    ("predictions-1.jsonl", ["significance", "{data}/predictions-1.jsonl",
                             "{data}/predictions-1.jsonl", "--test", "mcnemar"]),
    ("corpus.jsonl", ["predict", "{corpus}", "--checkpoint", "{data}/run-1.ckpt",
                      "--out", "{data}"]),
])
def test_invalid_utf8_is_one_line(tmp_path, capsys, probe_corpus, name, command):
    corpus = str(tmp_path / "corpus.jsonl")
    with open(probe_corpus, "rb") as src, open(corpus, "wb") as dst:
        dst.write(src.read())
    data = _trained_dir(tmp_path, capsys, corpus)
    cfg = str(tmp_path / "cfg.json")
    target = {"corpus.jsonl": corpus, "cfg.json": cfg}.get(name, os.path.join(data, name))
    raw = open(target, "rb").read()
    with open(target, "wb") as fh:
        fh.write(raw[:20] + b"\xff\xfe" + raw[20:])
    argv = [part.format(corpus=corpus, cfg=cfg, data=data) for part in command]
    rc, _, err = run_cli(capsys, *argv)
    assert rc == 1
    assert err.startswith(f"error: io-error: {target}: not valid UTF-8 (invalid start byte)")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["train", "--seed", "7", "--from", "m.json"],
    ["train", "--conf", "c.json"],
    ["prepare", "c.jsonl", "--conf", "c.json"],
    ["evaluate", "--check", "x.ckpt"],
    ["evaluate", "--manifest", "m.json", "--spl", "test"],
    ["predict", "d.jsonl", "--checkpoint", "m.ckpt", "--att"],
    ["stats", "c.jsonl", "--trunc", "5"],
    ["significance", "a.jsonl", "b.jsonl", "--te", "mcnemar"],
    ["--vers"],
])
def test_option_prefixes_rejected(argv):
    with pytest.raises(SystemExit) as exc_info:
        cli.build_parser().parse_args(argv)
    assert exc_info.value.code == 2


@pytest.mark.parametrize("command", [
    ["stats", "{probe}"],
    ["evaluate", "--checkpoint", "{tmp}/nope.ckpt"],
    ["predict", "{probe}", "--checkpoint", "{tmp}/nope.ckpt"],
    ["prepare", "{tmp}/nope.jsonl", "--config", "{tmp}/cfg.json"],
])
def test_failing_command_leaves_no_data_dir(tmp_path, capsys, probe_corpus, command):
    write_config(tmp_path / "cfg.json")
    data = tmp_path / "never"
    argv = [part.format(probe=probe_corpus, tmp=tmp_path) for part in command]
    rc, _, err = run_cli(capsys, *argv, "--out", str(data))
    assert rc == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not data.exists()


def test_failed_write_leaves_no_temp_file_and_the_target_untouched(tmp_path):
    target = tmp_path / "report.json"
    target.write_text("old", encoding="utf-8")

    def half_write(path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("new")
        raise OSError("disk full")

    with pytest.raises(OSError, match="disk full"):
        cli._atomic_via(str(target), half_write)
    assert os.listdir(tmp_path) == ["report.json"]
    assert target.read_text(encoding="utf-8") == "old"


@pytest.mark.parametrize("umask, mode", [(0o027, 0o640), (0o077, 0o600)], ids=["027", "077"])
def test_written_files_take_the_mode_the_umask_gives(tmp_path, umask, mode):
    # every file, the atomically written ones too, takes the mode a plain open
    # gives it under the umask; each command runs in a child process under it
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(hanst.__file__)))
    corpus, data = tmp_path / "corpus.jsonl", tmp_path / "data"
    save_corpus(synth.tag_probe_corpus(n_docs=40), corpus)
    cfg = write_config(tmp_path / "cfg.json", seeds=[1, 2, 3])
    for argv in (["prepare", str(corpus)], ["train"]):
        done = subprocess.run([sys.executable, "-m", "hanst", *argv, "--config", cfg,
                               "--out", str(data)], env=env, umask=umask,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
    names = ["vocab.json", "prepared.jsonl", "predictions-vote.jsonl", "report.json",
             "manifest.json"] + [f"{kind}-{seed}.{ext}" for seed in (1, 2, 3)
                                 for kind, ext in (("run", "ckpt"), ("predictions", "jsonl"),
                                                   ("train-log", "jsonl"))]
    assert sorted(os.listdir(data)) == sorted(names)
    assert {name: oct(os.stat(data / name).st_mode & 0o777) for name in names} == \
        {name: oct(mode) for name in names}


def test_blank_lines_skipped_in_corpus_prepared_embeddings_and_documents(tmp_path, capsys,
                                                                         probe_corpus):
    with open(probe_corpus, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    results = {}
    for name, blank in (("plain", []), ("spaced", ["", "  "])):
        (tmp_path / name).mkdir()
        corpus = tmp_path / name / "corpus.jsonl"
        corpus.write_text("\n".join(lines[:3] + blank + lines[3:]) + "\n", encoding="utf-8")
        emb = tmp_path / name / "emb.txt"
        emb.write_text("\n".join(blank + ["paper " + " ".join(["0.5"] * 8)] + blank) + "\n",
                       encoding="utf-8")
        data, cfg = prepared_dir(tmp_path / name, capsys, str(corpus), embeddings=str(emb))
        with open(os.path.join(data, "prepared.jsonl"), encoding="utf-8") as fh:
            rows = fh.read().splitlines()
        with open(os.path.join(data, "prepared.jsonl"), "w", encoding="utf-8") as fh:
            fh.write("\n".join(rows[:2] + blank + rows[2:]) + "\n")
        assert run_cli(capsys, "train", "--config", cfg, "--out", data)[0] == 0
        rc, out, err = run_cli(capsys, "predict", str(corpus), "--checkpoint",
                               os.path.join(data, "run-1.ckpt"), "--out", data)
        assert rc == 0, err
        with open(os.path.join(data, "report.json"), encoding="utf-8") as fh:
            results[name] = (rows[1:], fh.read(), out)
    assert results["plain"] == results["spaced"]


def test_threads_flag_removed():
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["train", "--threads", "2"])


_VALID_ARGV = {"prepare": ["prepare", "c.jsonl"], "evaluate": ["evaluate"],
               "predict": ["predict", "d.jsonl", "--checkpoint", "m.ckpt"],
               "stats": ["stats", "c.jsonl"],
               "significance": ["significance", "a.jsonl", "b.jsonl", "--test", "mcnemar"]}


@pytest.mark.parametrize("command, option", [
    ("prepare", "--seed-list 1"), ("prepare", "--force"),
    *[(command, option) for command in ("evaluate", "predict", "stats", "significance")
      for option in ("--config c.json", "--seed-list 1", "--force")],
    ("significance", "--out d"),
])
def test_command_rejects_options_it_does_not_read(command, option):
    parser = cli.build_parser()
    parser.parse_args(_VALID_ARGV[command])
    with pytest.raises(SystemExit):
        parser.parse_args(_VALID_ARGV[command] + option.split())


def test_manifest_lists_required_fields(tmp_path, capsys, probe_corpus):
    data, cfg = prepared_dir(tmp_path, capsys, probe_corpus)
    assert run_cli(capsys, "train", "--config", cfg, "--out", data)[0] == 0
    manifest = json.load(open(os.path.join(data, "manifest.json")))
    # no embeddings_sha256: the config names no embeddings file
    assert set(manifest) == {"kind", "format_version", "tool_version", "config",
                             "corpus_sha256", "vocab_sha256"}


def test_manifest_with_loss_key_still_evaluates(tmp_path, capsys, probe_corpus):
    # manifests written before the loss followed the task carry "loss" in their config
    data = _trained_dir(tmp_path, capsys, probe_corpus)
    path = os.path.join(data, "manifest.json")
    with open(path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    manifest["config"]["loss"] = "cross-entropy"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    rc, out, err = run_cli(capsys, "evaluate", "--manifest", path, "--out", data)
    assert rc == 0, err
    with open(os.path.join(data, "report.json"), encoding="utf-8") as fh:
        assert out == fh.read()
    rc, _, err = run_cli(capsys, "train", "--from-manifest", path, "--out", data, "--force")
    assert rc == 0, err


def _embeddings_run(tmp_path, capsys, corpus):
    emb = tmp_path / "emb.txt"
    emb.write_text("paper " + " ".join(["0.5"] * 8) + "\n", encoding="utf-8")
    data = _trained_dir(tmp_path, capsys, corpus, embeddings=str(emb))
    return data, emb, os.path.join(data, "manifest.json")


def test_manifest_records_embeddings_hash(tmp_path, capsys, probe_corpus):
    data, emb, path = _embeddings_run(tmp_path, capsys, probe_corpus)
    with open(path, encoding="utf-8") as fh:
        assert json.load(fh)["embeddings_sha256"] == cli.file_sha256(str(emb))
    rc, _, err = run_cli(capsys, "train", "--from-manifest", path, "--out", data, "--force")
    assert rc == 0, err
    emb.write_text("paper " + " ".join(["0.25"] * 8) + "\n", encoding="utf-8")
    rc, out, err = run_cli(capsys, "train", "--from-manifest", path, "--out", data, "--force")
    assert rc == 1 and out == ""
    assert err == f"error: config-error: manifest embeddings hash does not match {emb}\n"


@pytest.mark.parametrize("value", ["nan", "inf", "1e400"])
def test_train_non_finite_embedding_one_line(tmp_path, capsys, probe_corpus, value):
    data, _ = prepared_dir(tmp_path, capsys, probe_corpus)
    with open(os.path.join(data, "vocab.json"), encoding="utf-8") as fh:
        token = json.load(fh)[2]
    emb = tmp_path / "emb.txt"
    emb.write_text(f"{token} {value} " + " ".join(["0.5"] * 7) + "\n", encoding="utf-8")
    cfg = write_config(tmp_path / "emb.json", embeddings=str(emb))
    rc, _, err = run_cli(capsys, "train", "--config", cfg, "--out", data)
    assert rc == 1
    assert err == f"error: embedding-format: {emb}: line 1: non-finite value for token {token!r}\n"


def test_manifest_without_embeddings_hash_still_trains(tmp_path, capsys, probe_corpus):
    # manifests written before the embeddings hash was recorded lack the key
    data, _, path = _embeddings_run(tmp_path, capsys, probe_corpus)
    with open(path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    del manifest["embeddings_sha256"]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    rc, _, err = run_cli(capsys, "train", "--from-manifest", path, "--out", data, "--force")
    assert rc == 0, err


def test_train_log_has_timestamps_report_does_not(tmp_path, capsys, probe_corpus):
    data, cfg = prepared_dir(tmp_path, capsys, probe_corpus)
    assert run_cli(capsys, "train", "--config", cfg, "--out", data)[0] == 0
    events = [json.loads(line) for line in
              open(os.path.join(data, "train-log-1.jsonl"))]
    epoch_rows = [e for e in events if "train_loss" in e]
    assert epoch_rows and all("timestamp" in e for e in epoch_rows)
    assert events[-1]["event"] == "selected"
    assert "timestamp" not in open(os.path.join(data, "report.json")).read()


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def test_evaluate_valid_split_matches_selection_metric(tmp_path, capsys, probe_corpus):
    data, cfg = prepared_dir(tmp_path, capsys, probe_corpus, epochs=2)
    assert run_cli(capsys, "train", "--config", cfg, "--out", data)[0] == 0
    events = [json.loads(line) for line in open(os.path.join(data, "train-log-1.jsonl"))]
    best = max(e["valid_metric"] for e in events if "valid_metric" in e)
    rc, out, _ = run_cli(capsys, "evaluate", "--manifest",
                         os.path.join(data, "manifest.json"),
                         "--split", "valid", "--out", data)
    assert rc == 0
    report = json.loads(out)
    assert report["metrics"]["accuracy"]["per_run"] == [best]


def test_evaluate_empty_split_errors(tmp_path, capsys):
    docs = [d for d in synth.tag_probe_corpus(n_docs=60) if d.split != "test"]
    corpus = tmp_path / "notest.jsonl"
    save_corpus(docs, corpus)
    data, cfg = prepared_dir(tmp_path, capsys, str(corpus))
    assert run_cli(capsys, "train", "--config", cfg, "--out", data)[0] == 0
    rc, _, err = run_cli(capsys, "evaluate", "--checkpoint",
                         os.path.join(data, "run-1.ckpt"), "--split", "test",
                         "--out", data)
    assert rc == 1
    assert err.startswith("error: degenerate-input:")


def _first_line_of(lines, split):
    """The index in `lines`, a prepared.jsonl's, of the first document of `split`."""
    return next(i for i, line in enumerate(lines[1:], 1) if json.loads(line)["split"] == split)


def _damage_first_line_of(data, split, damage):
    """Apply `damage` to the JSON of the first document line of `split` in
    prepared.jsonl; returns the file's path and that line's number."""
    path = os.path.join(data, "prepared.jsonl")
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    index = _first_line_of(lines, split)
    doc = json.loads(lines[index])
    damage(doc)
    lines[index] = json.dumps(doc)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return path, index + 1


def test_evaluate_checks_only_the_split_it_scores(tmp_path, capsys, probe_corpus):
    data = _trained_dir(tmp_path, capsys, probe_corpus)
    ckpt = os.path.join(data, "run-1.ckpt")
    rc, before, _ = run_cli(capsys, "evaluate", "--checkpoint", ckpt, "--split", "test", "--out", data)
    assert rc == 0
    full = cli.load_prepared(data, "classify")
    size = full[0]["vocab_size"]
    path, line = _damage_first_line_of(data, "train",
                                       lambda doc: doc["sentences"][0].__setitem__(0, 10 ** 6))
    message = f"error: config-error: {path}: line {line}: token ids must be ints in [0, {size})\n"
    for argv in (["train", "--force", "--config", str(tmp_path / "cfg.json")],
                 ["evaluate", "--checkpoint", ckpt, "--split", "train"]):
        rc, _, err = run_cli(capsys, *argv, "--out", data)
        assert (rc, err) == (1, message), argv
    rc, after, err = run_cli(capsys, "evaluate", "--checkpoint", ckpt, "--split", "test", "--out", data)
    assert (rc, err) == (0, "")
    assert after == before
    meta, by_split = cli.load_prepared(data, "classify", "test")
    assert meta == full[0]
    assert by_split == {"train": [], "valid": [], "test": full[1]["test"]}


def _train_line_in_split_dev(lines):
    index = _first_line_of(lines, "train")
    lines[index] = json.dumps(dict(json.loads(lines[index]), split="dev"))
    return f"line {index + 1}: unknown split 'dev'"


def _train_line_without_roles(lines):
    index = _first_line_of(lines, "train")
    doc = json.loads(lines[index])
    del doc["roles"]
    lines[index] = json.dumps(doc)
    return f"line {index + 1}: missing keys ['roles']"


def _train_line_repeated(lines):
    lines.append(lines[_first_line_of(lines, "train")])
    return f"line {len(lines)}: duplicate document id"


def _train_line_removed(lines):
    del lines[_first_line_of(lines, "train")]
    return f"header says {len(lines)} documents, found {len(lines) - 1}"


@pytest.mark.parametrize("damage", [_train_line_in_split_dev, _train_line_without_roles,
                                    _train_line_repeated, _train_line_removed])
def test_a_split_load_still_checks_every_line_for_keys_split_id_and_count(tmp_path, capsys,
                                                                          probe_corpus, damage):
    data, _ = prepared_dir(tmp_path, capsys, probe_corpus)
    path = os.path.join(data, "prepared.jsonl")
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    message = damage(lines)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    with pytest.raises(ConfigurationError) as refused:
        cli.load_prepared(data, "classify", "test")
    assert str(refused.value).startswith(f"{path}: {message}")


def test_evaluate_vocab_mismatch(tmp_path, capsys, probe_corpus):
    data, cfg = prepared_dir(tmp_path, capsys, probe_corpus)
    assert run_cli(capsys, "train", "--config", cfg, "--out", data)[0] == 0
    ckpt = os.path.join(data, "run-1.ckpt")
    # re-prepare with a smaller vocabulary: hash changes, checkpoint stays
    other = write_config(tmp_path / "small.json", vocab_size=20)
    assert run_cli(capsys, "prepare", probe_corpus, "--config", other, "--out", data)[0] == 0
    rc, _, err = run_cli(capsys, "evaluate", "--checkpoint", ckpt, "--out", data)
    assert rc == 1
    assert err.startswith("error: checkpoint-mismatch:")


def test_evaluate_refuses_a_vocabulary_the_dataset_was_not_prepared_with(tmp_path, capsys,
                                                                         probe_corpus):
    # a re-prepare stopped between writing vocab.json and prepared.jsonl leaves such a pair
    data, _ = prepared_dir(tmp_path / "a", capsys, probe_corpus, vocab_size=200)
    small = _trained_dir(tmp_path / "b", capsys, probe_corpus, vocab_size=20)
    shutil.copy(os.path.join(small, "vocab.json"), os.path.join(data, "vocab.json"))
    for source in (["--checkpoint", os.path.join(small, "run-1.ckpt")],
                   ["--manifest", os.path.join(small, "manifest.json")]):
        rc, out, err = run_cli(capsys, "evaluate", *source, "--out", data)
        assert rc == 1 and out == ""
        assert err == ("error: checkpoint-mismatch: vocabulary file does not match "
                       "the prepared dataset\n")


_REPEATED_TOKEN_VOCAB = '["<PAD>", "<UNK>", "a", "a"]'


@pytest.mark.parametrize("command", ["evaluate", "predict"])
@pytest.mark.parametrize("text", ['{"a": 1}', "5", "null", '["<PAD>", "<UNK>", 3]',
                                  _REPEATED_TOKEN_VOCAB])
def test_vocab_not_an_array_of_strings_is_one_line(tmp_path, capsys, probe_corpus, command, text):
    data = _trained_dir(tmp_path, capsys, probe_corpus)
    path = os.path.join(data, "vocab.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    argv = ["evaluate"] if command == "evaluate" else ["predict", probe_corpus]
    rc, out, err = run_cli(capsys, *argv, "--checkpoint", os.path.join(data, "run-1.ckpt"),
                           "--out", data)
    assert rc == 1 and out == ""
    message = ("vocabulary tokens must be distinct" if text == _REPEATED_TOKEN_VOCAB
               else "vocabulary must be a JSON array of strings")
    assert err == f"error: config-error: {path}: {message}\n"


def test_commands_before_prepare_name_the_missing_file(tmp_path, capsys):
    # evaluate reads the vocabulary first, as predict does
    cfg = write_config(tmp_path / "cfg.json")
    data = str(tmp_path / "data")
    for argv, name in ((["train", "--config", cfg], "prepared dataset at {data}/prepared.jsonl"),
                       (["evaluate", "--checkpoint", "run-1.ckpt"], "vocabulary at {data}/vocab.json"),
                       (["predict", "docs.jsonl", "--checkpoint", "run-1.ckpt"],
                        "vocabulary at {data}/vocab.json")):
        rc, out, err = run_cli(capsys, *argv, "--out", data)
        assert rc == 1 and out == ""
        assert err == f"error: config-error: no {name.format(data=data)}; run the prepare command first\n"


def test_evaluate_needs_exactly_one_source(tmp_path, capsys, probe_corpus):
    data, cfg = prepared_dir(tmp_path, capsys, probe_corpus)
    rc, _, err = run_cli(capsys, "evaluate", "--out", data)
    assert rc == 1 and "exactly one" in err


def test_evaluate_regression_reports_table_columns(tmp_path, capsys, cites_corpus):
    data, cfg = prepared_dir(tmp_path, capsys, cites_corpus, task="regress",
                             seeds=[1, 2], batch_size=16)
    assert run_cli(capsys, "train", "--config", cfg, "--out", data)[0] == 0
    rc, out, _ = run_cli(capsys, "evaluate", "--manifest",
                         os.path.join(data, "manifest.json"), "--out", data)
    assert rc == 0
    metrics = json.loads(out)["metrics"]
    assert set(metrics) == {"r2", "mse", "mae", "run_mean_mae"}
    assert len(metrics["mae"]["per_run"]) == 2 and len(metrics["run_mean_mae"]["per_run"]) == 1


@pytest.mark.parametrize("corpus_name, cfg", [
    ("probe_corpus", {}),
    ("probe_corpus", {"model_kind": "sent_avg_bilstm", "tagset": "reduced", "seeds": [1, 2],
                      "bilstm_hidden": 6}),
    ("probe_corpus", {"model_kind": "han", "tagset": "full", "seeds": [1, 2, 3],
                      "bilstm_hidden": 6}),
    ("cites_corpus", {"task": "regress", "seeds": [1, 2], "batch_size": 16}),
    ("cites_corpus", {"task": "regress", "model_kind": "han", "seeds": [1, 2, 3],
                      "bilstm_hidden": 6}),
])
def test_evaluate_manifest_prints_train_report_bytes(tmp_path, capsys, request, corpus_name, cfg):
    # train and evaluate --manifest summarise the runs with the same function
    data = _trained_dir(tmp_path, capsys, request.getfixturevalue(corpus_name), **cfg)
    rc, out, err = run_cli(capsys, "evaluate", "--manifest", os.path.join(data, "manifest.json"),
                           "--split", "test", "--out", data)
    assert rc == 0, err
    with open(os.path.join(data, "report.json"), encoding="utf-8") as fh:
        assert out == fh.read()


# ---------------------------------------------------------------------------
# predict
# ---------------------------------------------------------------------------

def test_predict_deterministic_across_invocations(tmp_path, capsys, probe_corpus):
    data, cfg = prepared_dir(tmp_path, capsys, probe_corpus)
    assert run_cli(capsys, "train", "--config", cfg, "--out", data)[0] == 0
    ckpt = os.path.join(data, "run-1.ckpt")
    outs = []
    for _ in range(2):
        rc, out, _ = run_cli(capsys, "predict", probe_corpus, "--checkpoint", ckpt,
                             "--out", data)
        assert rc == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_predict_zero_score_zero_citations(tmp_path, capsys, cites_corpus):
    data, cfg = prepared_dir(tmp_path, capsys, cites_corpus, task="regress")
    vocab = Vocabulary.load(os.path.join(data, "vocab.json"))
    config = md.ModelConfig(model_kind="awe", task="regress",
                            vocab_size=len(vocab), embedding_dim=8)
    model = md.build_model(config, np.random.default_rng(0))
    for param in model.params.values():
        param.values = np.zeros_like(param.values)
    ckpt = os.path.join(data, "zero.ckpt")
    md.save_checkpoint(model, vocab.sha256(), ckpt)
    rc, out, _ = run_cli(capsys, "predict", cites_corpus, "--checkpoint", ckpt,
                         "--out", data)
    assert rc == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert all(row["score"] == 0.0 and row["citations"] == 0 for row in rows)
    # the seed worker printed what predict's job writes in this process
    written = tmp_path / "rows.jsonl"
    cli._predict_rows(ckpt, data, cites_corpus, str(written), False)
    assert written.read_text(encoding="utf-8") == out


def test_predict_attention_rows_normalized(tmp_path, capsys, probe_corpus):
    data, cfg = prepared_dir(tmp_path, capsys, probe_corpus, model_kind="han",
                             bilstm_hidden=6, tagset="full")
    assert run_cli(capsys, "train", "--config", cfg, "--out", data)[0] == 0
    rc, out, _ = run_cli(capsys, "predict", probe_corpus, "--checkpoint",
                         os.path.join(data, "run-1.ckpt"), "--out", data, "--attention")
    assert rc == 0
    for line in out.splitlines():
        row = json.loads(line)
        assert abs(sum(row["sentence_attention"]) - 1.0) < 1e-9
        for word_row in row["word_attention"]:
            assert abs(sum(word_row) - 1.0) < 1e-9


def test_predict_attention_matches_dummy_mask_oracle(tmp_path, capsys, probe_corpus,
                                                    monkeypatch):
    # the packed word level prints the same bytes as the composition it replaced
    from test_models import dummy_mask_han_encode

    data, cfg = prepared_dir(tmp_path, capsys, probe_corpus, model_kind="han",
                             bilstm_hidden=6, tagset="full")
    assert run_cli(capsys, "train", "--config", cfg, "--out", data)[0] == 0
    ckpt = os.path.join(data, "run-1.ckpt")
    rc, packed, _ = run_cli(capsys, "predict", probe_corpus, "--checkpoint", ckpt,
                            "--out", data, "--attention")
    assert rc == 0
    # a patch reaches no seed worker, so the oracle side runs predict's job here
    encoded = []

    def oracle_encode(model, batch):
        encoded.append(batch.size)
        return dummy_mask_han_encode(model, batch)

    monkeypatch.setattr(md.HanModel, "encode", oracle_encode)
    oracle = tmp_path / "oracle.jsonl"
    cli._predict_rows(ckpt, data, probe_corpus, str(oracle), True)
    assert sum(encoded) == 60
    assert packed == oracle.read_text(encoding="utf-8")


def test_predict_attention_unsupported_model(tmp_path, capsys, probe_corpus, monkeypatch):
    data, cfg = prepared_dir(tmp_path, capsys, probe_corpus)
    assert run_cli(capsys, "train", "--config", cfg, "--out", data)[0] == 0
    ckpt = os.path.join(data, "run-1.ckpt")
    rc, _, err = run_cli(capsys, "predict", probe_corpus, "--checkpoint", ckpt, "--out", data,
                         "--attention")
    assert rc == 1 and err == "error: config-error: model kind 'awe' produces no attention maps\n"
    # refused on the checkpoint's header, before any worker starts
    monkeypatch.setattr(tr, "run_seeds", _no_worker)
    assert run_cli(capsys, "predict", probe_corpus, "--checkpoint", ckpt, "--out", data,
                   "--attention") == (1, "", err)


def test_predict_one_worker_reads_the_documents(tmp_path, capsys, probe_corpus, monkeypatch):
    # many batches with a short last one: the caller never opens the documents
    # file, and one worker writes the rows of one pass over it, batch for batch
    data = _trained_dir(tmp_path, capsys, probe_corpus)
    ckpt = os.path.join(data, "run-1.ckpt")
    docs = tmp_path / "docs.jsonl"
    n_docs = 1064
    assert n_docs > cli.PREDICT_BATCH and n_docs % cli.PREDICT_BATCH
    docs.write_text("".join(json.dumps({"id": f"d{i}", "title": f"Tok{i % 40} tok{i % 7}."}) + "\n"
                            for i in range(n_docs)))
    calls, run_seeds = [], tr.run_seeds

    def recorded(fn, jobs):
        calls.append((fn, jobs))
        return run_seeds(fn, jobs)

    def not_here(path):
        raise AssertionError("the calling process read the documents file")

    monkeypatch.setattr(cli, "_load_predict_docs", not_here)   # a patch reaches no seed worker
    monkeypatch.setattr(tr, "run_seeds", recorded)
    rc, out, err = run_cli(capsys, "predict", str(docs), "--checkpoint", ckpt, "--out", data)
    assert rc == 0, err
    [(fn, [job])] = calls
    assert fn is cli._predict_rows
    assert [type(arg) for arg in job] == [str, str, str, str, bool] and job[:3] == (ckpt, data, str(docs))
    monkeypatch.undo()
    rows = tmp_path / "rows.jsonl"
    cli._predict_rows(ckpt, data, str(docs), str(rows), False)
    assert out == rows.read_text(encoding="utf-8")
    assert [json.loads(line)["id"] for line in out.splitlines()] == [f"d{i}" for i in range(n_docs)]


def test_predict_bad_line_prints_no_row_and_leaves_no_file(tmp_path, capsys, probe_corpus):
    # the worker has written many batches of rows when it meets the bad last
    # line: none of them prints, and their file is gone with the error
    data = _trained_dir(tmp_path, capsys, probe_corpus)
    ckpt = os.path.join(data, "run-1.ckpt")
    docs = tmp_path / "docs.jsonl"
    n_docs = 3 * cli.PREDICT_BATCH + 5
    good = "".join(json.dumps({"id": f"d{i}", "title": f"Tok{i % 40}."}) + "\n" for i in range(n_docs))
    docs.write_text(good + '{"id": "bad", "title": 7}\n')
    left = sorted(os.listdir(data))
    rc, out, err = run_cli(capsys, "predict", str(docs), "--checkpoint", ckpt, "--out", data)
    assert rc == 1 and out == ""
    assert err == f"error: corpus-format: {docs}: line {n_docs + 1}: 'title' must be str, got 7\n"
    assert sorted(os.listdir(data)) == left
    # nor does a predict that succeeds leave its rows' file
    docs.write_text(good)
    rc, out, err = run_cli(capsys, "predict", str(docs), "--checkpoint", ckpt, "--out", data)
    assert rc == 0 and len(out.splitlines()) == n_docs, err
    assert sorted(os.listdir(data)) == left


@pytest.mark.parametrize("model_kind, tagset", [("han", "full"), ("awe", "none")])
def test_predict_and_evaluate_checkpoint_agree_bit_for_bit(tmp_path, capsys, probe_corpus,
                                                           monkeypatch, model_kind, tagset):
    # the same checkpoint on the same documents in the same order: both commands
    # run training.predict at PREDICT_BATCH, the split more than one batch
    data = _trained_dir(tmp_path, capsys, probe_corpus, model_kind=model_kind, tagset=tagset,
                        bilstm_hidden=6)
    ckpt = os.path.join(data, "run-1.ckpt")
    train = [doc for doc in load_corpus(probe_corpus) if doc.split == "train"]
    assert len(train) > cli.PREDICT_BATCH
    docs = tmp_path / "train.jsonl"
    save_corpus(train, docs)
    rc, out, err = run_cli(capsys, "predict", str(docs), "--checkpoint", ckpt, "--out", data)
    assert rc == 0, err
    scored = []
    run_metrics = tr.run_metrics
    monkeypatch.setattr(tr, "run_metrics", lambda records, task: scored.extend(records) or
                        run_metrics(records, task))
    rc, _, err = run_cli(capsys, "evaluate", "--checkpoint", ckpt, "--split", "train", "--out", data)
    assert rc == 0, err
    rows = [json.loads(line) for line in out.splitlines()]
    assert [(r["id"], r["class"], r["prob"]) for r in rows] == [(r.id, int(r.pred), r.prob)
                                                                for r in scored]


def test_predict_rejects_empty_document(tmp_path, capsys, probe_corpus):
    data, cfg = prepared_dir(tmp_path, capsys, probe_corpus)
    assert run_cli(capsys, "train", "--config", cfg, "--out", data)[0] == 0
    bad = tmp_path / "empty.jsonl"
    bad.write_text('{"id": "x", "title": "", "abstract": "", "body_text": ""}\n')
    rc, _, err = run_cli(capsys, "predict", str(bad), "--checkpoint",
                         os.path.join(data, "run-1.ckpt"), "--out", data)
    assert rc == 1
    assert err == f"error: degenerate-input: {bad}: line 1: document 'x' has no text\n"
    # the worker reads the file; here the same reader runs in this process, and
    # skips a blank line
    bad.write_text("\n" + bad.read_text())
    with pytest.raises(DegenerateInputError, match="line 2: document 'x' has no text"):
        list(cli._load_predict_docs(str(bad)))


@pytest.mark.parametrize("doc", [
    {"id": "x", "title": None, "abstract": None, "body_text": None},
    {"id": "x", "title": "A title", "body_text": {"b": 1}},
    {"id": 7, "title": "A title"},
])
def test_predict_rejects_non_string_fields(tmp_path, capsys, probe_corpus, doc):
    # not read as the text "None" or "{'b': 1}", nor the id "7"
    data, cfg = prepared_dir(tmp_path, capsys, probe_corpus)
    assert run_cli(capsys, "train", "--config", cfg, "--out", data)[0] == 0
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"id": "ok", "title": "Fine"}\n' + json.dumps(doc) + "\n")
    rc, out, err = run_cli(capsys, "predict", str(bad), "--checkpoint",
                           os.path.join(data, "run-1.ckpt"), "--out", data)
    assert rc == 1 and out == ""
    key = next(k for k in ("id", "title", "abstract", "body_text") if type(doc.get(k, "")) is not str)
    assert err == f"error: corpus-format: {bad}: line 2: {key!r} must be str, got {doc[key]!r}\n"


@pytest.mark.parametrize("line, message", [
    ("not json", "line 2: invalid JSON: Expecting value"),
    ('{"title": "No id"}', "line 2: missing keys ['id']"),
    ('["x"]', "line 2: expected a JSON object"),
])
def test_predict_malformed_document_line_one_line(tmp_path, capsys, probe_corpus, line, message):
    data = _trained_dir(tmp_path, capsys, probe_corpus)
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"id": "ok", "title": "Fine"}\n' + line + "\n")
    rc, out, err = run_cli(capsys, "predict", str(bad), "--checkpoint",
                           os.path.join(data, "run-1.ckpt"), "--out", data)
    assert rc == 1 and out == ""
    assert err == f"error: corpus-format: {bad}: {message}\n"


def test_predict_accepts_unlabeled_docs(tmp_path, capsys, probe_corpus):
    data, cfg = prepared_dir(tmp_path, capsys, probe_corpus)
    assert run_cli(capsys, "train", "--config", cfg, "--out", data)[0] == 0
    unlabeled = tmp_path / "unlabeled.jsonl"
    unlabeled.write_text('{"id": "u1", "title": "Some title", "body_text": "Tok1 tok2."}\n')
    rc, out, _ = run_cli(capsys, "predict", str(unlabeled), "--checkpoint",
                         os.path.join(data, "run-1.ckpt"), "--out", data)
    assert rc == 0
    assert json.loads(out)["id"] == "u1"


@pytest.mark.parametrize("label", [5, {"grade": 3}])
def test_predict_never_reads_labels(tmp_path, capsys, probe_corpus, label):
    data, cfg = prepared_dir(tmp_path, capsys, probe_corpus)
    assert run_cli(capsys, "train", "--config", cfg, "--out", data)[0] == 0
    ckpt = os.path.join(data, "run-1.ckpt")
    rows = []
    for name, doc in (("plain", {"id": "a", "title": "Fine title"}),
                      ("labelled", {"id": "a", "title": "Fine title", "label": label})):
        path = tmp_path / f"{name}.jsonl"
        path.write_text(json.dumps(doc) + "\n")
        rc, out, err = run_cli(capsys, "predict", str(path), "--checkpoint", ckpt, "--out", data)
        assert rc == 0, err
        rows.append(out)
    assert rows[0] == rows[1]


# ---------------------------------------------------------------------------
# the character cutoff travels with the checkpoint
# ---------------------------------------------------------------------------

def _cutoff_experiment(tmp_path, capsys, probe_corpus):
    """An AWE model trained at max_chars 60, and a second data directory
    prepared from the same corpus at 20000. Every document is one sentence,
    which any cutoff keeps whole, so the two share one vocabulary."""
    docs = [dataclasses.replace(d, title=d.title or "Untitled", abstract="", body_text="")
            for d in load_corpus(probe_corpus)]
    corpus = str(tmp_path / "short.jsonl")
    save_corpus(docs, corpus)
    data = _trained_dir(tmp_path / "own", capsys, corpus, max_chars=60)
    other, _ = prepared_dir(tmp_path / "other", capsys, corpus, max_chars=20000)
    with open(os.path.join(data, "vocab.json"), "rb") as a, \
            open(os.path.join(other, "vocab.json"), "rb") as b:
        assert a.read() == b.read()
    return data, other


def _edit_checkpoint_header(src, dst, edit):
    with open(src, "rb") as fh:
        raw = fh.read()
    start = len(md.CHECKPOINT_MAGIC)
    (length,) = struct.unpack("<Q", raw[start:start + 8])
    header = json.loads(raw[start + 8:start + 8 + length])
    edit(header)
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(dst, "wb") as fh:
        fh.write(raw[:start] + struct.pack("<Q", len(blob)) + blob + raw[start + 8 + length:])


def test_predict_takes_the_cutoff_from_the_checkpoint(tmp_path, capsys, probe_corpus):
    data, other = _cutoff_experiment(tmp_path, capsys, probe_corpus)
    vocab_only = tmp_path / "vocab-only"
    vocab_only.mkdir()
    shutil.copy(os.path.join(data, "vocab.json"), vocab_only)
    # six full-length documents, far longer than 60 characters
    docs = tmp_path / "docs.jsonl"
    with open(probe_corpus, encoding="utf-8") as fh:
        docs.write_text("".join(fh.readlines()[:6]))
    ckpt = os.path.join(data, "run-1.ckpt")
    outs = []
    for where in (data, other, str(vocab_only)):
        rc, out, err = run_cli(capsys, "predict", str(docs), "--checkpoint", ckpt, "--out", where)
        assert rc == 0, err
        outs.append(out)
    assert outs[0] == outs[1] == outs[2]
    # the cutoff decides these rows: the same weights recorded at 20000 predict otherwise
    wide = str(tmp_path / "wide.ckpt")
    _edit_checkpoint_header(ckpt, wide, lambda h: h["model_config"].update(max_chars=20000))
    rc, out, err = run_cli(capsys, "predict", str(docs), "--checkpoint", wide, "--out", data)
    assert rc == 0, err
    assert out != outs[0]


def test_evaluate_refuses_a_dataset_prepared_at_another_cutoff(tmp_path, capsys, probe_corpus):
    data, other = _cutoff_experiment(tmp_path, capsys, probe_corpus)
    sources = (["--checkpoint", os.path.join(data, "run-1.ckpt")],
               ["--manifest", os.path.join(data, "manifest.json")])
    for source in sources:
        assert run_cli(capsys, "evaluate", *source, "--out", data)[0] == 0
        rc, out, err = run_cli(capsys, "evaluate", *source, "--out", other)
        assert rc == 1 and out == ""
        assert err == ("error: checkpoint-mismatch: prepared dataset uses max_chars 20000 "
                       "but the model wants 60; rerun prepare\n")


def test_version_1_checkpoint_is_refused(tmp_path, capsys, probe_corpus, monkeypatch):
    data = _trained_dir(tmp_path, capsys, probe_corpus)
    ckpt = os.path.join(data, "run-1.ckpt")

    def as_version_1(header):
        header["format_version"] = 1
        del header["model_config"]["max_chars"]

    def as_version_2(header):   # version 2 wrote the task as its head kind
        header["format_version"] = 2
        header["model_config"]["head_kind"] = "classify-2"
        del header["model_config"]["task"]

    monkeypatch.setattr(tr, "run_seeds", _no_worker)   # refused before any worker starts
    for version, edit in ((1, as_version_1), (2, as_version_2)):
        old = os.path.join(data, f"run-v{version}.ckpt")
        _edit_checkpoint_header(ckpt, old, edit)
        for argv in (["evaluate"], ["predict", probe_corpus]):
            rc, out, err = run_cli(capsys, *argv, "--checkpoint", old, "--out", data)
            assert rc == 1 and out == ""
            assert err == f"error: checkpoint-mismatch: {old}: unsupported checkpoint version {version}\n"


def _param_entry(header, name):
    return next(entry for entry in header["params"] if entry["name"] == name)


def _vocab_size_one(header):
    header["model_config"]["vocab_size"] = 1


def _unknown_parameter(header):
    _param_entry(header, "head.b")["name"] = "head.bias"


def _misshaped_parameter(header):
    _param_entry(header, "head.b")["shape"] = [3]


def _missing_parameter(header):
    header["params"].remove(_param_entry(header, "head.b"))


def _other_vocabulary(header):
    header["vocab_sha256"] = "0" * 64


@pytest.mark.parametrize("edit, message", [
    (_vocab_size_one,
     "checkpoint-mismatch: {ckpt}: model_config: vocab_size must include the specials, got 1"),
    (_unknown_parameter,
     "checkpoint-mismatch: {ckpt}: unknown or repeated parameter 'head.bias'"),
    (_misshaped_parameter,
     "checkpoint-mismatch: {ckpt}: parameter 'head.b': checkpoint shape (3,) != model shape (2,)"),
    (_missing_parameter, "checkpoint-mismatch: {ckpt}: lacks parameters ['head.b']"),
    (_other_vocabulary,
     "checkpoint-mismatch: {ckpt}: checkpoint vocabulary hash 000000000000... does not match "
     "session vocabulary {vocab}..."),
], ids=["vocab-size-1", "unknown-parameter", "misshaped-parameter", "missing-parameter",
        "other-vocabulary"])
def test_malformed_checkpoint_header_one_line(tmp_path, capsys, probe_corpus, edit, message):
    data = _trained_dir(tmp_path, capsys, probe_corpus)
    ckpt = os.path.join(data, "run-1.ckpt")
    _edit_checkpoint_header(ckpt, ckpt, edit)
    # a documents file without documents still loads the checkpoint
    empty = tmp_path / "empty.jsonl"
    empty.write_text("\n")
    for argv in (["evaluate"], ["predict", probe_corpus], ["predict", str(empty)]):
        rc, out, err = run_cli(capsys, *argv, "--checkpoint", ckpt, "--out", data)
        assert rc == 1 and out == ""
        vocab = Vocabulary.load(os.path.join(data, "vocab.json")).sha256()[:12]
        assert err == f"error: {message.format(ckpt=ckpt, vocab=vocab)}\n"


# ---------------------------------------------------------------------------
# stats
# ---------------------------------------------------------------------------

def test_stats_dual_label_corpus(tmp_path, capsys):
    corpus = tmp_path / "dual.jsonl"
    save_corpus(synth.dual_label_corpus(40), corpus)
    data = str(tmp_path / "data")
    rc, out, _ = run_cli(capsys, "stats", str(corpus), "--out", data)
    assert rc == 0
    assert "accepted: mean citations" in out
    assert "rejected: mean citations" in out
    assert "spearman rho" in out
    lines = open(os.path.join(data, "citation-histogram.csv")).read().splitlines()
    assert lines[0] == "bin_start,bin_end,count,group"
    groups = {line.split(",")[3] for line in lines[1:]}
    assert groups == {"accepted", "rejected"}


def test_stats_citation_only_corpus_skips_groups(tmp_path, capsys, cites_corpus):
    data = str(tmp_path / "data")
    rc, out, _ = run_cli(capsys, "stats", cites_corpus, "--out", data)
    assert rc == 0
    assert "group statistics skipped" in out
    assert "spearman" not in out
    lines = open(os.path.join(data, "citation-histogram.csv")).read().splitlines()
    assert {line.split(",")[3] for line in lines[1:]} == {"all"}


def test_stats_rejects_missing_citations(tmp_path, capsys, probe_corpus):
    rc, _, err = run_cli(capsys, "stats", probe_corpus, "--out", str(tmp_path / "d"))
    assert rc == 1
    assert err.startswith("error: degenerate-input:")


@pytest.mark.parametrize("option, message", [
    # 0 ended in range()'s ValueError traceback; the negative values exited 0
    # with a header-only histogram
    ("--bin-width=0", "bin_width must be >= 1, got 0"),
    ("--bin-width=-5", "bin_width must be >= 1, got -5"),
    ("--truncate-at=-3", "truncate_at must be >= 1, got -3"),
])
def test_stats_bad_bin_options_one_line(tmp_path, capsys, cites_corpus, option, message):
    data = str(tmp_path / "data")
    rc, out, err = run_cli(capsys, "stats", cites_corpus, option, "--out", data)
    assert rc == 1 and out == ""
    assert err == f"error: config-error: {message}\n"
    assert not os.path.exists(data)


# ---------------------------------------------------------------------------
# significance
# ---------------------------------------------------------------------------

def write_predictions(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")
    return str(path)


def test_significance_identical_files_p_one(tmp_path, capsys):
    rows = [{"id": f"d{i}", "gold": float(i % 2), "pred": float(i % 2),
             "prob": None, "seed": 1} for i in range(10)]
    a = write_predictions(tmp_path / "a.jsonl", rows)
    b = write_predictions(tmp_path / "b.jsonl", rows)
    rc, out, _ = run_cli(capsys, "significance", a, b, "--test", "mcnemar")
    assert rc == 0
    result = json.loads(out)
    assert result["p_value"] == 1.0


def test_significance_wilcoxon_eight_dominations(tmp_path, capsys):
    rows_a = [{"id": f"d{i}", "gold": 0.0, "pred": 0.1 * (i + 1), "seed": None}
              for i in range(8)]
    rows_b = [{"id": f"d{i}", "gold": 0.0, "pred": 0.1 * (i + 1) + 0.5, "seed": None}
              for i in range(8)]
    a = write_predictions(tmp_path / "a.jsonl", rows_a)
    b = write_predictions(tmp_path / "b.jsonl", rows_b)
    rc, out, _ = run_cli(capsys, "significance", a, b, "--test", "wilcoxon")
    assert rc == 0
    assert json.loads(out)["p_value"] == 0.0078125


def test_significance_id_mismatch_lists_ids(tmp_path, capsys):
    rows_a = [{"id": "d1", "gold": 1.0, "pred": 1.0, "seed": 1}]
    rows_b = [{"id": "d2", "gold": 1.0, "pred": 1.0, "seed": 1}]
    a = write_predictions(tmp_path / "a.jsonl", rows_a)
    b = write_predictions(tmp_path / "b.jsonl", rows_b)
    rc, _, err = run_cli(capsys, "significance", a, b, "--test", "mcnemar")
    assert rc == 1
    assert err.startswith("error: alignment-error:")
    assert "d1" in err and "d2" in err


def test_significance_gold_disagreement_lists_ids(tmp_path, capsys):
    rows_a = [{"id": f"d{i}", "gold": 1.0, "pred": 1.0, "seed": 1} for i in range(3)]
    rows_b = [dict(row, gold=0.0) if row["id"] == "d1" else row for row in rows_a]
    a = write_predictions(tmp_path / "a.jsonl", rows_a)
    b = write_predictions(tmp_path / "b.jsonl", rows_b)
    rc, out, err = run_cli(capsys, "significance", a, b, "--test", "mcnemar")
    assert rc == 1 and out == ""
    assert err == "error: alignment-error: gold labels disagree for ids: ['d1']\n"


@pytest.mark.parametrize("test", ["mcnemar", "wilcoxon"])
def test_significance_empty_predictions_file_is_named(tmp_path, capsys, test):
    a = write_predictions(tmp_path / "a.jsonl", [{"id": "d0", "gold": 1.0, "pred": 1.0}])
    empty = write_predictions(tmp_path / "empty.jsonl", [])
    rc, out, err = run_cli(capsys, "significance", a, empty, "--test", test)
    assert rc == 1 and out == ""
    assert err == f"error: config-error: {empty}: no predictions\n"


def test_significance_votes_across_seeds(tmp_path, capsys):
    # three seeds; d0 votes 1,1,0 -> 1 for A while B always answers 0
    rows_a = [{"id": "d0", "gold": 1.0, "pred": float(s != 3), "seed": s}
              for s in (1, 2, 3)]
    rows_b = [{"id": "d0", "gold": 1.0, "pred": 0.0, "seed": s} for s in (1, 2, 3)]
    a = write_predictions(tmp_path / "a.jsonl", rows_a)
    b = write_predictions(tmp_path / "b.jsonl", rows_b)
    rc, out, _ = run_cli(capsys, "significance", a, b, "--test", "mcnemar")
    assert rc == 0
    result = json.loads(out)
    assert result["n"] == 1 and result["p_value"] == 1.0


@pytest.mark.parametrize("row, message", [
    ('{"id": "d1", "gold": 1.0', "invalid JSON"),
    ('[1, 2]', "expected a JSON object"),
    ('{"gold": 1.0, "pred": 1.0}', "missing keys ['id']"),
    ('{"id": "d1", "pred": 1.0}', "missing keys ['gold']"),
    ('{"id": "d1", "gold": 1.0}', "missing keys ['pred']"),
    ('{"id": "d1", "gold": 1.0, "pred": "1"}', "'pred' must be float"),
    # the other lines' seed is 1: seeds of two types cannot be sorted
    ('{"id": "d1", "gold": 1.0, "pred": 1.0, "seed": "x"}', "'seed' must be int | None, got 'x'"),
    ('{"id": "d1", "gold": 1.0, "pred": 1.0, "seed": 1, "prob": "x"}',
     "'prob' must be float | None, got 'x'"),
    ('{"id": "d1", "gold": 1.0, "pred": 1.0, "seed": 1, "prob": 2.0}',
     "probability must be in [0, 1], got 2.0"),
    # json reads both; McNemar then ended in a ValueError traceback
    ('{"id": "d1", "gold": NaN, "pred": 1.0, "seed": 1}', "'gold' must be finite, got nan"),
    ('{"id": "d1", "gold": 1.0, "pred": -Infinity, "seed": 1}', "'pred' must be finite, got -inf"),
])
def test_significance_malformed_predictions_name_the_line(tmp_path, capsys, row, message):
    good = [{"id": f"d{i}", "gold": 1.0, "pred": 1.0, "seed": 1} for i in range(3)]
    a = write_predictions(tmp_path / "a.jsonl", good)
    b = tmp_path / "b.jsonl"
    b.write_text("".join(json.dumps(r) + "\n" for r in good[:2]) + "\n" + row + "\n")
    rc, _, err = run_cli(capsys, "significance", a, str(b), "--test", "mcnemar")
    assert rc == 1
    assert err.startswith(f"error: config-error: {b}: line 4: {message}")
    assert err.count("\n") == 1


# ---------------------------------------------------------------------------
# environment and synthetic corpora
# ---------------------------------------------------------------------------

def test_env_var_sets_data_dir(tmp_path, capsys, probe_corpus, monkeypatch):
    target = tmp_path / "from-env"
    monkeypatch.setenv(cli.DATA_DIR_ENV, str(target))
    cfg = write_config(tmp_path / "cfg.json")
    rc, _, _ = run_cli(capsys, "prepare", probe_corpus, "--config", cfg)
    assert rc == 0
    assert (target / "prepared.jsonl").exists()


def test_synth_generators_deterministic():
    a = synth.tag_probe_corpus(n_docs=40)
    b = synth.tag_probe_corpus(n_docs=40)
    assert [d.to_json() for d in a] == [d.to_json() for d in b]


def test_tag_probe_label_matches_title_keyword():
    for doc in synth.tag_probe_corpus(n_docs=200):
        assert doc.label["accepted"] == (synth.KEYWORD in doc.title.lower())
        if not doc.label["accepted"]:
            assert synth.KEYWORD in doc.body_text.lower()


def test_imbalanced_corpus_minority_fraction():
    docs = synth.imbalanced_corpus(n_docs=500)
    minority = [d for d in docs if d.label["accepted"]]
    assert len(minority) == 39  # 7.8% of 500
    assert all(synth.MINORITY_MARKER in d.body_text.lower() for d in minority)
    assert all(synth.MINORITY_MARKER not in d.body_text.lower()
               for d in docs if not d.label["accepted"])


def test_heterogeneous_corpus_every_doc_exceeds_char_limit():
    docs = synth.heterogeneous_length_corpus(n_docs=8)
    assert all(len(d.body_text) > 20000 for d in docs)


# ---------------------------------------------------------------------------
# start-up
# ---------------------------------------------------------------------------

_NO_SCIPY_SCRIPT = """
import os, sys
from hanst import cli, synth
from hanst.corpus import save_corpus

os.chdir(sys.argv[1])
save_corpus(synth.tag_probe_corpus(n_docs=20), "corpus.jsonl")
with open("cfg.json", "w") as fh:
    fh.write('{"task": "classify", "model_kind": "awe", "epochs": 1, "seeds": [1], '
             '"embedding_dim": 8, "vocab_size": 100}')
for argv in (["prepare", "corpus.jsonl", "--config", "cfg.json", "--out", "d"],
             ["train", "--config", "cfg.json", "--out", "d"],
             ["evaluate", "--manifest", "d/manifest.json", "--out", "d"],
             ["predict", "corpus.jsonl", "--checkpoint", "d/run-1.ckpt", "--out", "d"],
             ["significance", "d/predictions-1.jsonl", "d/predictions-1.jsonl",
              "--test", "mcnemar"]):
    assert cli.main(argv) == 0, argv
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_commands_other_than_stats_never_import_scipy(tmp_path):
    # importing scipy.special costs about 0.3 s and 18 MiB per process; only
    # the Student-t p-value of `stats` (n > 8) needs it
    proc = run_python("-c", _NO_SCIPY_SCRIPT, str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
