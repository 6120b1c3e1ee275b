"""Command-line surface: prepare | train | evaluate | predict | stats | significance.

Artifacts live in one data directory chosen by --out, then the
HANST_DATA_DIR environment variable, then ./hanst-data. Every file but a
train log is written atomically (temp file + rename); each seed's worker
writes its own train log, an event a line as it trains, then its checkpoint
and predictions. Every failure exits 1 with a single stderr line of the form
``error: <code>: <message>``.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import itertools
import json
import os
import pathlib
import sys
import tempfile
import uuid
from collections.abc import Iterable, Iterator

import numpy as np

from . import __version__
from . import models as md
from . import training as tr
from .corpus import (DOCUMENT_FIELDS, SPLITS, TEXT_FIELDS, RawDocument, check_fields,
                     check_label, check_task_label, json_lines, json_object, load_corpus,
                     open_text)
from .errors import (AlignmentError, CheckpointMismatchError, ConfigurationError,
                     CorpusFormatError, DegenerateInputError, HanstError,
                     OutputExistsError)
from .evalstats import (PredictionRecord, build_report, corpus_citation_stats,
                        histogram_csv_lines, inverse_citation_score, load_predictions,
                        mcnemar_exact, save_predictions, vote_aggregate,
                        wilcoxon_signed_rank)
from .textprep import (DEFAULT_VOCAB_SIZE, TaggedDocument, Vocabulary, encode_document,
                       load_embeddings, prepare_corpus, tag_tokens)
# not called here; perfbench/probe.py traces them under these names on this module
from .textprep import build_vocabulary, tokenize  # noqa: F401

DATA_DIR_ENV = "HANST_DATA_DIR"
PREPARED_NAME = "prepared.jsonl"
VOCAB_NAME = "vocab.json"
MANIFEST_NAME = "manifest.json"
REPORT_NAME = "report.json"
VOTE_NAME = "predictions-vote.jsonl"
HISTOGRAM_NAME = "citation-histogram.csv"
PREPARED_KIND = "hanst-prepared"
MANIFEST_KIND = "hanst-manifest"
_KIND_NAMES = {PREPARED_KIND: "a prepared dataset", MANIFEST_KIND: "an experiment manifest"}
FORMAT_VERSION = 1
PREDICT_BATCH = 32


# ---------------------------------------------------------------------------
# small helpers
# ---------------------------------------------------------------------------

def _atomic_write_text(path: str, text: str) -> None:
    _atomic_via(path, lambda tmp: pathlib.Path(tmp).write_text(text, encoding="utf-8"))


def _atomic_via(path: str, write_fn) -> None:
    """Run a path-taking writer against a temp file, then rename over path.
    The file takes the mode a plain `open` would give it under the umask.

    The directory is made here, so a command that fails before it writes
    leaves no directory behind."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, ".tmp-" + uuid.uuid4().hex)
    # created only if the name is free, with the mode the umask gives 0o666
    os.close(os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666))
    try:
        write_fn(tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def file_sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def data_dir_from(args: argparse.Namespace) -> str:
    return args.out or os.environ.get(DATA_DIR_ENV) or "hanst-data"


def _one_line(message: str) -> str:
    return " ".join(message.split())


# ---------------------------------------------------------------------------
# experiment configuration files
# ---------------------------------------------------------------------------

# The config schema: each key with its JSON type. Model keys are ModelConfig
# fields and train keys TrainConfig fields of the same name; `vocab_size` caps
# the vocabulary at prepare time and records its size in a manifest.
_MODEL_OVERRIDES = {"model_kind": "str", "tagset": "str", "max_chars": "int", "vocab_size": "int",
                    "embedding_dim": "int", "bilstm_hidden": "int", "dropout_p": "float"}
_TRAIN_OVERRIDES = {"task": "str", "epochs": "int", "batch_size": "int", "lr": "float",
                    "resample": "bool", "seeds": "list[int]"}
_CONFIG_KEYS = {**_MODEL_OVERRIDES, **_TRAIN_OVERRIDES, "embeddings": "str | None"}


def _check_config(where: str, raw) -> dict:
    if not isinstance(raw, dict):
        raise ConfigurationError(f"{where}: config must be a JSON object")
    unknown = sorted(set(raw) - set(_CONFIG_KEYS))
    if unknown:
        raise ConfigurationError(f"{where}: unknown config keys: {unknown}")
    for key in ("task", "model_kind"):
        if key not in raw:
            raise ConfigurationError(f"{where}: missing required key {key!r}")
    return check_fields(raw, _CONFIG_KEYS, where, optional=True)


def load_config_file(path: str) -> dict:
    try:
        with open_text(path) as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path}: invalid JSON: {exc}") from exc
    return _check_config(path, raw)


def _parse_seed_list(text: str) -> tuple[int, ...]:
    try:
        return tr.check_seeds(int(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise ConfigurationError(f"--seed-list must be comma-separated integers, got {text!r}") from exc
    except ConfigurationError as exc:
        raise ConfigurationError(f"--seed-list: {exc}") from None


def make_train_config(raw: dict, vocab_size: int, seed_list: str | None = None,
                      where: str = "config") -> tr.TrainConfig:
    """Resolve a config dict against task defaults into a TrainConfig; a value
    out of range raises a ConfigurationError that starts with `where`."""
    cap = raw.get("vocab_size", DEFAULT_VOCAB_SIZE)   # the config's cap, which prepare reads
    if cap < 1:
        raise ConfigurationError(f"{where}: vocab_size must be >= 1, got {cap}")
    model_over = {k: raw[k] for k in _MODEL_OVERRIDES if k in raw}
    model_over["vocab_size"] = vocab_size   # the prepared size, not the config's cap
    train_over = {k: raw[k] for k in _TRAIN_OVERRIDES if k in raw}
    if seed_list is not None:
        train_over["seeds"] = _parse_seed_list(seed_list)
    try:
        model = dataclasses.replace(
            md.default_model_config(raw["model_kind"], raw["task"], vocab_size), **model_over)
        forced = len(tag_tokens(model.tagset))
        if forced > cap:
            raise ConfigurationError(f"{forced} forced tokens exceed vocabulary cap {cap}")
        return tr.default_train_config(model=model, **train_over)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{where}: {exc}") from None


def resolved_config(config: tr.TrainConfig, embeddings_path: str | None) -> dict:
    """Fully explicit snapshot; feeding it back rebuilds the same configs."""
    return {**{k: getattr(config.model, k) for k in _MODEL_OVERRIDES},
            **{k: getattr(config, k) for k in _TRAIN_OVERRIDES},
            "embeddings": embeddings_path}


# ---------------------------------------------------------------------------
# prepared-dataset persistence
# ---------------------------------------------------------------------------

def write_prepared(path: str, meta: dict, docs: Iterable[TaggedDocument],
                   splits: Iterable[str]) -> None:
    """Write the meta line, then each document's line as `docs` yields it."""
    def write(tmp: str) -> None:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(meta, sort_keys=True) + "\n")
            for doc, split in zip(docs, splits):
                fh.write(json.dumps({"id": doc.id, "split": split, "label": doc.label,
                                     "roles": doc.roles, "sentences": doc.sentences},
                                    sort_keys=True) + "\n")
    _atomic_via(path, write)


_META_KEYS = {"kind": "str", "format_version": "int", "tagset": "str", "max_chars": "int",
              "vocab_size": "int", "corpus_sha256": "str", "vocab_sha256": "str", "n_docs": "int"}
_DOC_KEYS = {"id": "str", "split": "str", "label": "dict", "roles": "list", "sentences": "list"}


def _check_kind(obj: dict, kind: str, path: str, where: str | None = None) -> None:
    """Refuse the header `obj` of the file at `path` unless it names `kind` and
    this FORMAT_VERSION; a version error starts with `where` (default: path)."""
    if obj.get("kind") != kind:
        raise ConfigurationError(f"{path}: not {_KIND_NAMES[kind]}")
    version = obj.get("format_version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise ConfigurationError(f"{where or path}: format_version {version!r} is not {FORMAT_VERSION}")


def prepared_header(data_dir: str) -> dict:
    """The checked header of the prepared dataset in `data_dir`; no document line is read."""
    path = os.path.join(data_dir, PREPARED_NAME)
    if not os.path.exists(path):
        raise ConfigurationError(f"no prepared dataset at {path}; run the prepare command first")
    where = f"{path}: line 1"
    with open_text(path) as fh:
        meta = json_object(fh.readline(), where)
    _check_kind(meta, PREPARED_KIND, path, where)
    return check_fields(meta, _META_KEYS, where)


def load_prepared(data_dir: str, task: str | None = None, split: str | None = None
                  ) -> tuple[dict, dict[str, list[TaggedDocument]]]:
    """The prepared dataset's header and its documents by split. Given a task,
    every label must hold the key that task trains on. Given a split, the
    other splits' lines are checked only for their keys, split and id, and
    their lists are left empty."""
    meta = prepared_header(data_dir)
    path = os.path.join(data_dir, PREPARED_NAME)
    by_split: dict[str, list[TaggedDocument]] = {name: [] for name in SPLITS}
    seen: set[str] = set()
    lines = json_lines(path, {})
    next(lines)   # the header, checked above
    for where, obj in lines:
        check_fields(obj, _DOC_KEYS, where)
        if obj["split"] not in SPLITS:
            raise ConfigurationError(f"{where}: unknown split {obj['split']!r}")
        if obj["id"] in seen:
            raise ConfigurationError(f"{where}: duplicate document id {obj['id']!r}")
        seen.add(obj["id"])
        if split is not None and obj["split"] != split:
            continue
        try:
            check_label(obj["label"], f"document {obj['id']!r}", ConfigurationError)
            doc = TaggedDocument(id=obj["id"], sentences=obj["sentences"],
                                 roles=obj["roles"], label=obj["label"])
            if not all(type(t) is int and 0 <= t < meta["vocab_size"]
                       for sent in doc.sentences for t in sent):
                raise ConfigurationError(f"token ids must be ints in [0, {meta['vocab_size']})")
        except (ConfigurationError, TypeError) as exc:
            raise ConfigurationError(f"{where}: {exc}") from None
        if task is not None:
            check_task_label(doc.label, task, where)
        by_split[obj["split"]].append(doc)
    if len(seen) != meta["n_docs"]:
        raise ConfigurationError(f"{path}: header says {meta['n_docs']} documents, found {len(seen)}")
    return meta, by_split


def _load_vocab(data_dir: str) -> Vocabulary:
    path = os.path.join(data_dir, VOCAB_NAME)
    if not os.path.exists(path):
        raise ConfigurationError(f"no vocabulary at {path}; run the prepare command first")
    return Vocabulary.load(path)


def _check_vocab(vocab: Vocabulary, meta: dict) -> Vocabulary:
    """`vocab`, refused unless it is the one the prepared dataset was encoded with."""
    if vocab.sha256() != meta["vocab_sha256"] or len(vocab) != meta["vocab_size"]:
        raise CheckpointMismatchError("vocabulary file does not match the prepared dataset")
    return vocab


def _check_preparation(config: md.ModelConfig, meta: dict, error) -> None:
    """Raise `error` unless the prepared dataset was made with the tagset and
    character cutoff that `config` holds."""
    for key in ("tagset", "max_chars"):
        if getattr(config, key) != meta[key]:
            raise error(f"prepared dataset uses {key} {meta[key]!r} but the model wants "
                        f"{getattr(config, key)!r}; rerun prepare")


# ---------------------------------------------------------------------------
# prepare
# ---------------------------------------------------------------------------

def cmd_prepare(args: argparse.Namespace) -> int:
    if not args.config:
        raise ConfigurationError("--config is required for this command")
    raw = load_config_file(args.config)
    # resolved as train resolves it, so prepare refuses what train would; the
    # vocabulary is not built yet, and 2 (PAD and UNK) is the least size it can have
    config = make_train_config(raw, 2, where=args.config)
    tagset, max_chars = config.model.tagset, config.model.max_chars
    data_dir = data_dir_from(args)
    vocab, store = prepare_corpus(load_corpus(args.corpus, config.task), tagset, max_chars,
                                  raw.get("vocab_size", DEFAULT_VOCAB_SIZE))
    meta = {"kind": PREPARED_KIND, "format_version": FORMAT_VERSION,
            "tagset": tagset, "max_chars": max_chars, "vocab_size": len(vocab),
            "corpus_sha256": file_sha256(args.corpus),
            "vocab_sha256": vocab.sha256(), "n_docs": len(store.splits)}
    _atomic_via(os.path.join(data_dir, VOCAB_NAME), vocab.save)
    write_prepared(os.path.join(data_dir, PREPARED_NAME), meta, store, store.splits)

    print(f"{'split':<6} {'docs':>6} {'avg_words':>10} {'median_words':>13}")
    for split in SPLITS:
        counts = [n for n, s in zip(store.content_tokens(), store.splits) if s == split]
        avg = float(np.mean(counts)) if counts else 0.0
        median = float(np.median(counts)) if counts else 0.0
        print(f"{split:<6} {len(counts):>6} {avg:>10.1f} {median:>13.1f}")
    return 0


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

_MANIFEST_KEYS = {"config": "dict", "corpus_sha256": "str", "vocab_sha256": "str"}


def checkpoint_name(seed: int) -> str:
    """The file, beside the manifest, that holds the selected model of `seed`."""
    return f"run-{seed}.ckpt"


def _load_manifest(path: str) -> dict:
    with open_text(path) as fh:
        manifest = json_object(fh.read(), path)
    _check_kind(manifest, MANIFEST_KIND, path)
    check_fields(manifest, _MANIFEST_KEYS, path)
    # absent from manifests of configs without embeddings, and from older ones
    check_fields(manifest, {"embeddings_sha256": "str"}, path, optional=True)
    manifest["config"].pop("loss", None)   # manifests written before loss followed the task
    _check_config(f"{path}: config", manifest["config"])
    return manifest


def _manifest_config(manifest: dict, path: str, meta: dict, vocab_size: int,
                     seed_list: str | None = None) -> tr.TrainConfig:
    """The manifest's resolved config, refused unless the manifest was written
    for the corpus and vocabulary of the prepared dataset `meta` heads."""
    for key, name in (("corpus_sha256", "corpus"), ("vocab_sha256", "vocabulary")):
        if manifest[key] != meta[key]:
            raise ConfigurationError(f"manifest {name} hash does not match the prepared dataset")
    return make_train_config(manifest["config"], vocab_size, seed_list, where=f"{path}: config")


def _train_seed(data_dir: str, config: tr.TrainConfig, seed: int,
                embeddings: np.ndarray | None) -> list[PredictionRecord]:
    """Train `seed` on the prepared dataset in `data_dir` and write its files,
    which `train` runs in a seed worker: the log as training goes, then the
    checkpoint and test predictions. Returns only the test predictions."""
    meta, by_split = load_prepared(data_dir, config.task)
    train, valid, test = (by_split[name] for name in SPLITS)
    if not train or not valid:   # refused here, while the last run's files are whole
        raise ConfigurationError("train and valid splits must be non-empty")
    # only a --force run finds them; gone before this seed's files change, so a
    # directory with a manifest is always complete
    for name in (MANIFEST_NAME, REPORT_NAME, VOTE_NAME):
        pathlib.Path(data_dir, name).unlink(missing_ok=True)
    with open(os.path.join(data_dir, f"train-log-{seed}.jsonl"), "w", encoding="utf-8") as log:
        model, records = tr.train_single_run(config, train, valid, test, seed, log, embeddings)
    _atomic_via(os.path.join(data_dir, checkpoint_name(seed)),
                lambda p: md.save_checkpoint(model, meta["vocab_sha256"], p))
    _atomic_via(os.path.join(data_dir, f"predictions-{seed}.jsonl"),
                lambda p: save_predictions(records, p))
    return records


def cmd_train(args: argparse.Namespace) -> int:
    if bool(args.config) == bool(args.from_manifest):
        raise ConfigurationError("pass exactly one of --config or --from-manifest")
    data_dir = data_dir_from(args)
    manifest_in = _load_manifest(args.from_manifest) if args.from_manifest else None
    raw = manifest_in["config"] if manifest_in else load_config_file(args.config)
    meta = prepared_header(data_dir)
    vocab = _check_vocab(_load_vocab(data_dir), meta)
    if manifest_in:
        config = _manifest_config(manifest_in, args.from_manifest, meta, len(vocab), args.seed_list)
    else:
        config = make_train_config(raw, len(vocab), args.seed_list, where=args.config)
    _check_preparation(config.model, meta, ConfigurationError)

    manifest_path = os.path.join(data_dir, MANIFEST_NAME)
    if os.path.exists(manifest_path) and not args.force:
        raise OutputExistsError(f"{manifest_path} exists; pass --force to overwrite")

    embeddings_path = raw.get("embeddings")
    embeddings_sha256 = file_sha256(embeddings_path) if embeddings_path else None
    if manifest_in and manifest_in.get("embeddings_sha256", embeddings_sha256) != embeddings_sha256:
        raise ConfigurationError(f"manifest embeddings hash does not match {embeddings_path}")
    embeddings = load_embeddings(embeddings_path, vocab, config.model.embedding_dim,
                                 np.random.default_rng(0)) if embeddings_path else None

    # each worker reads the documents, refuses them or trains its seed
    runs = tr.run_seeds(_train_seed, [(data_dir, config, seed, embeddings) for seed in config.seeds])
    per_run, vote = tr.summarize_runs([records for records in runs if records], config.task)
    if vote:
        _atomic_via(os.path.join(data_dir, VOTE_NAME), lambda p: save_predictions(vote, p))

    report = build_report(config.task, per_run)
    _atomic_write_text(os.path.join(data_dir, REPORT_NAME),
                       json.dumps(report, indent=2, sort_keys=True) + "\n")
    manifest = {"kind": MANIFEST_KIND, "format_version": FORMAT_VERSION,
                "tool_version": __version__,
                "config": resolved_config(config, embeddings_path),
                "corpus_sha256": meta["corpus_sha256"],
                "vocab_sha256": meta["vocab_sha256"]}
    if embeddings_sha256:
        manifest["embeddings_sha256"] = embeddings_sha256
    _atomic_write_text(manifest_path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")

    print(f"manifest: {manifest_path}")
    for name, entry in report["metrics"].items():
        print(f"{name}: {entry['mean']:.4f} ± {entry['std']:.4f}")
    return 0


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def _predict_checkpoint(path: str, data_dir: str, split: str, batch_size: int,
                        seed: int | None) -> list[PredictionRecord]:
    """The predictions of the checkpoint at `path` for its task on `split` of the
    prepared dataset in `data_dir`, which `evaluate` computes in a seed worker,
    so a manifest's runs predict with the bits `train` did."""
    model = md.load_checkpoint(path, prepared_header(data_dir)["vocab_sha256"])
    docs = load_prepared(data_dir, model.config.task, split)[1][split]
    if not docs:
        raise DegenerateInputError(f"split {split!r} has no documents")
    return tr.predict(model, docs, model.config.task, batch_size, seed=seed)


def cmd_evaluate(args: argparse.Namespace) -> int:
    if bool(args.manifest) == bool(args.checkpoint):
        raise ConfigurationError("pass exactly one of --manifest or --checkpoint")
    data_dir = data_dir_from(args)
    vocab = _load_vocab(data_dir)   # first, as predict reads it
    meta = prepared_header(data_dir)
    _check_vocab(vocab, meta)
    if args.manifest:
        config = _manifest_config(_load_manifest(args.manifest), args.manifest, meta, len(vocab))
        base = os.path.dirname(os.path.abspath(args.manifest))
        jobs = [(os.path.join(base, checkpoint_name(seed)), data_dir, args.split,
                 config.batch_size, seed) for seed in config.seeds]
        task = config.task
    else:
        jobs = [(args.checkpoint, data_dir, args.split, PREDICT_BATCH, None)]
        task = None
    for path, *_ in jobs:   # each checkpoint is refused on its header here, before any worker starts
        model_config = md.checkpoint_config(path, meta["vocab_sha256"])
        task = task or model_config.task   # --checkpoint's task is its model's
        if model_config.task != task:   # only a manifest's can differ
            raise CheckpointMismatchError(
                f"{path}: a {model_config.task} model, but the task is {task!r}")
        _check_preparation(model_config, meta, CheckpointMismatchError)
    runs = tr.run_seeds(_predict_checkpoint, jobs)
    per_run = (tr.summarize_runs(runs, task)[0] if args.manifest
               else {name: [value] for name, value in tr.run_metrics(runs[0], task).items()})

    print(json.dumps(build_report(task, per_run), indent=2, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# predict
# ---------------------------------------------------------------------------

def _load_predict_docs(path: str) -> Iterator[RawDocument]:
    """Yield the documents for inference as the file is read; labels are
    optional and never read."""
    for where, obj in json_lines(path, {"id": "str"}, error=CorpusFormatError):
        check_fields(obj, DOCUMENT_FIELDS, where, optional=True, error=CorpusFormatError)
        title, abstract, body = (obj.get(key, "") for key in TEXT_FIELDS)
        if not (title or abstract or body):
            raise DegenerateInputError(f"{where}: document {obj['id']!r} has no text")
        # a fixed label that either task reads: RawDocument needs one, and
        # whatever the line holds is not read
        yield RawDocument(id=obj["id"], title=title, abstract=abstract, body_text=body,
                          label={"accepted": False, "citation_count": 0}, split="test")


def _predict_rows(checkpoint: str, data_dir: str, docs_path: str, rows_path: str,
                  attention: bool) -> None:
    """Write `predict`'s lines for the documents file `docs_path` to `rows_path`,
    a batch at a time as the file is read; the command runs this in a seed worker."""
    vocab = _load_vocab(data_dir)
    model = md.load_checkpoint(checkpoint, vocab.sha256())
    config = model.config
    encoded = (encode_document(doc, vocab, config.tagset, config.max_chars)
               for doc in _load_predict_docs(docs_path))
    with open(rows_path, "w", encoding="utf-8") as out:
        while docs := list(itertools.islice(encoded, PREDICT_BATCH)):
            found = tr.predict(model, docs, config.task, PREDICT_BATCH, attention=attention)
            records, maps = found if attention else (found, None)
            for i, rec in enumerate(records):
                row = ({"id": rec.id, "class": int(rec.pred), "prob": rec.prob} if config.task == "classify"
                       else {"id": rec.id, "score": rec.pred, "citations": inverse_citation_score(rec.pred)})
                if attention:
                    row["sentence_attention"], row["word_attention"] = maps[i]
                out.write(json.dumps(row, sort_keys=True) + "\n")


def cmd_predict(args: argparse.Namespace) -> int:
    data_dir = data_dir_from(args)
    vocab = _load_vocab(data_dir)
    config = md.checkpoint_config(args.checkpoint, vocab.sha256())
    if args.attention and config.model_kind != "han":
        raise ConfigurationError(f"model kind {config.model_kind!r} produces no attention maps")
    # the worker reads the documents; its rows wait on disk, so a bad line prints no row
    with tempfile.NamedTemporaryFile("r", encoding="utf-8", dir=data_dir, prefix=".tmp-") as rows:
        tr.run_seeds(_predict_rows, [(args.checkpoint, data_dir, args.docs, rows.name, args.attention)])
        sys.stdout.writelines(rows)
    return 0


# ---------------------------------------------------------------------------
# stats
# ---------------------------------------------------------------------------

def cmd_stats(args: argparse.Namespace) -> int:
    data_dir = data_dir_from(args)
    stats = corpus_citation_stats([doc.label for doc in load_corpus(args.corpus)],
                                  truncate_at=args.truncate_at, bin_width=args.bin_width)
    for group in sorted(stats.group_means):
        print(f"{group}: mean citations {stats.group_means[group]:.2f} "
              f"± {stats.group_stds[group]:.2f} (n={stats.group_sizes[group]})")
    if "all" in stats.group_means:
        print("group statistics skipped: no acceptance labels")
    else:
        print(f"spearman rho {stats.rho:.4f}, p {stats.p_value:.6g}")
    csv_path = os.path.join(data_dir, HISTOGRAM_NAME)
    _atomic_write_text(csv_path, "\n".join(histogram_csv_lines(stats)) + "\n")
    print(f"histogram: {csv_path}")
    return 0


# ---------------------------------------------------------------------------
# significance
# ---------------------------------------------------------------------------

def _runs_by_seed(records: list[PredictionRecord]) -> list[list[PredictionRecord]]:
    by_seed: dict = {}
    for rec in records:
        by_seed.setdefault(rec.seed, []).append(rec)
    return [by_seed[s] for s in sorted(by_seed, key=lambda s: (s is None, s))]


def cmd_significance(args: argparse.Namespace) -> int:
    records_a = load_predictions(args.predictions_a)
    records_b = load_predictions(args.predictions_b)
    name_a = args.name_a or os.path.basename(args.predictions_a)
    name_b = args.name_b or os.path.basename(args.predictions_b)
    task = "classify" if args.test == "mcnemar" else "regress"
    agg_a = {r.id: r for r in vote_aggregate(_runs_by_seed(records_a), task)}
    agg_b = {r.id: r for r in vote_aggregate(_runs_by_seed(records_b), task)}

    only_a = sorted(set(agg_a) - set(agg_b))
    only_b = sorted(set(agg_b) - set(agg_a))
    if only_a or only_b:
        raise AlignmentError(
            f"prediction files disagree on ids; only in {name_a}: {only_a[:5]}; "
            f"only in {name_b}: {only_b[:5]}")
    ids = sorted(agg_a)
    conflicts = [i for i in ids if agg_a[i].gold != agg_b[i].gold]
    if conflicts:
        raise AlignmentError(f"gold labels disagree for ids: {conflicts[:5]}")

    golds = [agg_a[i].gold for i in ids]
    if args.test == "mcnemar":
        result = mcnemar_exact(golds, [agg_a[i].pred for i in ids],
                               [agg_b[i].pred for i in ids],
                               system_a=name_a, system_b=name_b)
    else:
        errors_a = [abs(agg_a[i].pred - agg_a[i].gold) for i in ids]
        errors_b = [abs(agg_b[i].pred - agg_b[i].gold) for i in ids]
        result = wilcoxon_signed_rank(errors_a, errors_b,
                                      system_a=name_a, system_b=name_b)
    print(json.dumps(dataclasses.asdict(result), indent=2, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", help=f"data directory (default ${DATA_DIR_ENV} or ./hanst-data)")

    # allow_abbrev=False everywhere: a prefix of an option is not that option
    parser = argparse.ArgumentParser(
        prog="hanst", allow_abbrev=False,
        description="Hierarchical attention document models with sentence structure tags")
    parser.add_argument("--version", action="version", version=f"hanst {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    add = functools.partial(sub.add_parser, allow_abbrev=False)

    p = add("prepare", parents=[out], help="segment, tag, encode a corpus and build its vocabulary")
    p.add_argument("corpus", help="corpus JSONL file")
    p.add_argument("--config", help="JSON experiment config file")
    p.set_defaults(func=cmd_prepare)

    p = add("train", parents=[out], help="run the multi-seed training recipe")
    p.add_argument("--config", help="JSON experiment config file")
    p.add_argument("--from-manifest", help="re-run an experiment from its manifest")
    p.add_argument("--seed-list", help="comma-separated seeds overriding the config")
    p.add_argument("--force", action="store_true",
                   help="overwrite an existing experiment manifest")
    p.set_defaults(func=cmd_train)

    p = add("evaluate", parents=[out], help="score checkpoints on a split")
    p.add_argument("--manifest", help="experiment manifest (evaluates every run)")
    p.add_argument("--checkpoint", help="single checkpoint file")
    p.add_argument("--split", choices=("train", "valid", "test"), default="test")
    p.set_defaults(func=cmd_evaluate)

    p = add("predict", parents=[out], help="label raw documents with a checkpoint")
    p.add_argument("docs", help="JSONL documents (labels optional)")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--attention", action="store_true",
                   help="include per-document attention maps")
    p.set_defaults(func=cmd_predict)

    p = add("stats", parents=[out], help="corpus citation/acceptance statistics")
    p.add_argument("corpus", help="corpus JSONL file")
    p.add_argument("--truncate-at", type=int, default=100,
                   help="histogram upper bound (excluded counts still enter the stats); "
                        "rows stop at the bin of the largest count")
    p.add_argument("--bin-width", type=int, default=5)
    p.set_defaults(func=cmd_stats)

    p = add("significance", help="paired significance test between two prediction files")
    p.add_argument("predictions_a")
    p.add_argument("predictions_b")
    p.add_argument("--test", choices=("mcnemar", "wilcoxon"), required=True)
    p.add_argument("--name-a", help="label for system A in the output")
    p.add_argument("--name-b", help="label for system B in the output")
    p.set_defaults(func=cmd_significance)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # numpy's overflow warnings would print before the one error line; the
        # finiteness checks on the loss, Adam's gradients and checkpoint values decide
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.func(args)
    except HanstError as exc:
        print(f"error: {exc.code}: {_one_line(str(exc))}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: io-error: {_one_line(str(exc))}", file=sys.stderr)
        return 1
