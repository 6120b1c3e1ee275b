"""The three benchmark workloads: input generators, set-up and the timed unit.

`generate` runs in the benchmark's parent process and writes every input
from the workload seed. `setup` and `run` run in a fresh worker process and
reach hanst only through its public functions. `run` returns the unit's
operations, each with an ok flag, and a fingerprint of its outputs that the
parent compares with the stored reference and with the run's other units.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import time
import traceback

import numpy as np


def write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True)


def read_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def hanst_cli(argv: list[str]) -> tuple[int | None, str, float]:
    """Run `hanst <argv>` in-process: (exit code or None if it raised,
    captured stdout, seconds)."""
    from hanst import cli

    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    except Exception:
        traceback.print_exc()
        code = None
    return code, out.getvalue(), time.perf_counter() - start


def ok(code) -> bool:
    return code == 0


# ---------------------------------------------------------------------------
# tagstudy-small
# ---------------------------------------------------------------------------

class TagStudy:
    """The tag ablation as scripts/compare_tagsets.py runs it, through cli."""

    name = "tagstudy-small"
    n_docs = 300
    tagsets = ("full", "none")
    config = {"task": "classify", "model_kind": "han", "embedding_dim": 16,
              "bilstm_hidden": 16, "epochs": 10, "batch_size": 16,
              "vocab_size": 200, "seeds": [1, 2, 3]}

    def generate(self, seed: int, work: str) -> None:
        from hanst import synth
        from hanst.corpus import save_corpus

        save_corpus(synth.tag_probe_corpus(n_docs=self.n_docs, seed=seed),
                    os.path.join(work, "corpus.jsonl"))
        for tagset in self.tagsets:
            write_json(os.path.join(work, f"config-{tagset}.json"),
                       dict(self.config, tagset=tagset))

    def setup(self, work: str):
        from hanst import autodiff as ad
        from hanst import cli
        from hanst import models as md
        from hanst import training as tr

        warm = os.path.join(work, "warm")
        config_path = os.path.join(work, "config-full.json")
        code, _, _ = hanst_cli(["prepare", os.path.join(work, "corpus.jsonl"),
                                "--config", config_path, "--out", warm])
        if not ok(code):
            raise RuntimeError(f"warm-up prepare exited {code}")
        meta, by_split = cli.load_prepared(warm)
        config = cli.make_train_config(cli.load_config_file(config_path), meta["vocab_size"])
        model = md.build_model(config.model, np.random.default_rng(0))
        batches = tr.make_batches(by_split["train"][:config.batch_size], config.task,
                                  config.batch_size)
        tr.train_epoch(model, batches, ad.Adam(model.params, lr=config.lr), config.loss,
                       np.random.default_rng(0))
        return None

    def run(self, work: str, unit: str, state) -> dict:
        corpus = os.path.join(work, "corpus.jsonl")
        ops, accuracy = {}, {}
        prepare_s = 0.0
        for tagset in self.tagsets:
            config = os.path.join(work, f"config-{tagset}.json")
            out = os.path.join(unit, tagset)
            code, _, seconds = hanst_cli(["prepare", corpus, "--config", config, "--out", out])
            prepare_s += seconds
            ops[f"prepare-{tagset}"] = ok(code)
            code, _, _ = hanst_cli(["train", "--config", config, "--out", out, "--force"])
            ops[f"train-{tagset}"] = ok(code)
            code, text, _ = hanst_cli(["evaluate", "--manifest", os.path.join(out, "manifest.json"),
                                       "--split", "test", "--out", out])
            ops[f"evaluate-{tagset}"] = ok(code)
            if ok(code):
                accuracy[tagset] = json.loads(text)["metrics"]["vote_accuracy"]["mean"]
        code, text, _ = hanst_cli([
            "significance", os.path.join(unit, "full", "predictions-vote.jsonl"),
            os.path.join(unit, "none", "predictions-vote.jsonl"), "--test", "mcnemar",
            "--name-a", "han-tags", "--name-b", "han-plain"])
        # the study's answer: tags must win on the test split
        ops["significance"] = (ok(code) and len(accuracy) == 2
                               and accuracy["full"] > accuracy["none"])
        return {"ops": {name: {"n": 1, "ok": good} for name, good in ops.items()},
                "prepare_docs": self.n_docs * len(self.tagsets), "prepare_s": prepare_s,
                "accuracy": accuracy, "significance": text}

    def fingerprint(self, unit: str, result: dict) -> dict:
        fp = {}
        for tagset in self.tagsets:
            out = os.path.join(unit, tagset)
            if not os.path.exists(os.path.join(out, "manifest.json")):
                continue
            fp[f"prepare-{tagset}"] = {
                "prepared_sha256": sha256_file(os.path.join(out, "prepared.jsonl")),
                "vocab_sha256": sha256_file(os.path.join(out, "vocab.json"))}
            losses, classes = {}, {}
            for seed in self.config["seeds"]:
                with open(os.path.join(out, f"train-log-{seed}.jsonl"), encoding="utf-8") as fh:
                    log = [json.loads(line) for line in fh]
                losses[str(seed)] = [e["train_loss"] for e in log if "train_loss" in e]
                classes[str(seed)] = _classes(os.path.join(out, f"predictions-{seed}.jsonl"))
            classes["vote"] = _classes(os.path.join(out, "predictions-vote.jsonl"))
            fp[f"train-{tagset}"] = {"losses": losses, "classes": classes}
            if tagset in result["accuracy"]:
                fp[f"evaluate-{tagset}"] = {"vote_accuracy": result["accuracy"][tagset]}
        if result["significance"]:
            answer = json.loads(result["significance"])
            fp["significance"] = {"n": answer["n"], "p_value": answer["p_value"]}
        return fp


def _classes(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return "".join(str(int(json.loads(line)["pred"])) for line in fh if line.strip())


# ---------------------------------------------------------------------------
# han-paper
# ---------------------------------------------------------------------------

class HanPaper:
    """Paper-default HAN classifier on id-level documents of one fixed shape.

    Each worker warms up with one eval-mode forward pass, then runs `steps`
    timed train steps. Every step's graph stays alive until the cyclic
    collector runs, so peak memory grows with the step count: it is fixed
    here and sized to stay near 1.6 GiB. A warm-up train step would leave a
    graph whose collection time moves with any change in allocation counts,
    so peak memory would jump by a whole graph between unrelated versions.
    """

    name = "han-paper"
    sentences, tokens, batch = 20, 25, 4
    vocab = 10002
    steps = 2
    predict_docs = 16

    def generate(self, seed: int, work: str) -> None:
        rng = np.random.default_rng(seed)
        n = self.steps * self.batch + self.predict_docs
        ids = rng.integers(2, self.vocab, size=(n, self.sentences, self.tokens))
        accepted = rng.permutation(np.arange(n) % 2 == 0)
        write_json(os.path.join(work, "docs.json"),
                   {"ids": ids.tolist(), "accepted": [bool(a) for a in accepted]})

    def setup(self, work: str):
        from hanst import autodiff as ad
        from hanst import models as md
        from hanst import training as tr
        from hanst.textprep import TaggedDocument

        data = read_json(os.path.join(work, "docs.json"))
        docs = [TaggedDocument(id=f"doc{i}", sentences=sents, roles=["BODY_TEXT"] * len(sents),
                               label={"accepted": accepted})
                for i, (sents, accepted) in enumerate(zip(data["ids"], data["accepted"]))]
        config = tr.default_train_config(
            "classify", md.default_model_config("han", "classify", self.vocab))
        model = md.build_model(config.model, np.random.default_rng(0))
        optimizer = ad.Adam(model.params, lr=config.lr)
        n_train = self.steps * self.batch
        tr.predict(model, docs[:self.batch], config.task, self.batch)
        return {"model": model, "optimizer": optimizer, "rng": np.random.default_rng(0),
                "config": config, "train": docs[:n_train], "predict": docs[n_train:]}

    def run(self, work: str, unit: str, state) -> dict:
        from hanst import training as tr

        config = state["config"]
        batches = tr.make_batches(state["train"], config.task, self.batch)
        loss = tr.train_epoch(state["model"], batches, state["optimizer"], config.loss,
                              state["rng"])
        records = tr.predict(state["model"], state["predict"], config.task, self.batch)
        return {"ops": {"train": {"n": len(batches), "ok": math.isfinite(loss)},
                        "predict": {"n": 1, "ok": len(records) == len(state["predict"])}},
                "prepare_docs": 0, "prepare_s": 0.0,
                "loss": loss, "classes": "".join(str(int(r.pred)) for r in records),
                "probs": [r.prob for r in records]}

    def fingerprint(self, unit: str, result: dict) -> dict:
        return {"train": {"loss": result["loss"]},
                "predict": {"classes": result["classes"], "probs": result["probs"]}}


# ---------------------------------------------------------------------------
# prepare-long
# ---------------------------------------------------------------------------

class PrepareLong:
    """`hanst prepare` on long bodies: all textprep and corpus, no autodiff.

    Body lengths are the same geometric ladder for every seed, so the work
    per run is fixed; the seed picks the words and the order of documents.
    """

    name = "prepare-long"
    n_docs = 40
    min_body, max_body = 10_000, 400_000
    prepares = 3
    word_pool = 5000
    config = {"task": "classify", "model_kind": "han", "tagset": "full"}

    def _corpus(self, rng: np.random.Generator, lengths) -> list:
        from hanst.corpus import RawDocument

        words = np.array([f"w{i}" for i in range(self.word_pool)])
        weights = 1.0 / np.arange(1, self.word_pool + 1)
        weights /= weights.sum()

        def text(n_chars: int) -> str:
            sents, total = [], 0
            while total < n_chars:
                lengths = rng.integers(5, 26, size=64)
                flat = rng.choice(words, size=int(lengths.sum()), p=weights).tolist()
                figures = rng.integers(1, 9, size=64) * (rng.random(64) < 0.1)
                start = 0
                for n, figure in zip(lengths, figures):
                    picked = flat[start:start + n]
                    start += n
                    if figure:
                        # an abbreviation followed by a digit is a boundary
                        # candidate the segmenter must reject
                        picked.insert(n // 2, f"Fig. {figure}")
                    sent = " ".join(picked).capitalize() + "."
                    sents.append(sent)
                    total += len(sent) + 1
                    if total >= n_chars:
                        break
            return " ".join(sents)

        n = len(lengths)
        return [RawDocument(id=f"long{i}", title=text(60)[:-1], abstract=text(800),
                            body_text=text(int(length)), label={"accepted": i % 2 == 0},
                            split="train" if i < 0.6 * n else "valid" if i < 0.8 * n else "test")
                for i, length in enumerate(lengths)]

    def generate(self, seed: int, work: str) -> None:
        from hanst.corpus import save_corpus

        rng = np.random.default_rng(seed)
        lengths = rng.permutation(np.geomspace(self.min_body, self.max_body, self.n_docs))
        save_corpus(self._corpus(rng, lengths), os.path.join(work, "corpus.jsonl"))
        save_corpus(self._corpus(rng, [2000] * 4), os.path.join(work, "warm.jsonl"))
        write_json(os.path.join(work, "config.json"), self.config)

    def setup(self, work: str):
        code, _, _ = hanst_cli(["prepare", os.path.join(work, "warm.jsonl"), "--config",
                                os.path.join(work, "config.json"),
                                "--out", os.path.join(work, "warm")])
        if not ok(code):
            raise RuntimeError(f"warm-up prepare exited {code}")
        return None

    def run(self, work: str, unit: str, state) -> dict:
        ops, prepare_s = {}, 0.0
        for i in range(self.prepares):
            code, _, seconds = hanst_cli(["prepare", os.path.join(work, "corpus.jsonl"),
                                          "--config", os.path.join(work, "config.json"),
                                          "--out", os.path.join(unit, str(i))])
            prepare_s += seconds
            ops[f"prepare-{i}"] = {"n": 1, "ok": ok(code)}
        return {"ops": ops, "prepare_docs": self.n_docs * self.prepares, "prepare_s": prepare_s}

    def fingerprint(self, unit: str, result: dict) -> dict:
        fp = {}
        for i in range(self.prepares):
            out = os.path.join(unit, str(i))
            if os.path.exists(os.path.join(out, "prepared.jsonl")):
                # every repeat must write the same bytes, so all share one reference
                fp[f"prepare-{i}"] = {
                    "prepared_sha256": sha256_file(os.path.join(out, "prepared.jsonl")),
                    "vocab_sha256": sha256_file(os.path.join(out, "vocab.json"))}
        return fp


WORKLOADS = {w.name: w for w in (TagStudy(), HanPaper(), PrepareLong())}


def fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path

