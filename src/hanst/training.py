"""Optimization loops, class-imbalance resampling, model selection, seed
worker processes, and metrics over seeded runs."""

from __future__ import annotations

import contextlib
import json
import math
import os
import signal
import sys
import threading
import time
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import models as md
from .corpus import TASK_LABELS
from .errors import (
    ConfigurationError,
    DegenerateInputError,
    TrainingAbortedError,
    WorkerDiedError,
)
from .evalstats import (
    PredictionRecord,
    accuracy,
    auc_roc,
    citation_score,
    mae,
    mse,
    r2_score,
    vote_aggregate,
)
from .textprep import TaggedDocument

_TASK_LOSS = {"classify": "cross-entropy", "regress": "mae"}

# per-task defaults: (epochs, batch_size)
_TASK_SCHEDULE = {"classify": (360, 4), "regress": (60, 64)}

DEFAULT_SEEDS = (1, 2, 3)


def check_seeds(seeds) -> tuple[int, ...]:
    """`seeds` as a tuple of ints: at least one, distinct and non-negative."""
    seeds = tuple(int(s) for s in seeds)
    if not seeds:
        raise ConfigurationError("at least one seed required")
    if len(set(seeds)) < len(seeds):
        raise ConfigurationError(f"seeds must be distinct, got {list(seeds)}")
    if min(seeds) < 0:   # numpy's generators take no negative seed
        raise ConfigurationError(f"seeds must be non-negative, got {list(seeds)}")
    return seeds


@dataclass(frozen=True)
class TrainConfig:
    model: md.ModelConfig
    epochs: int
    batch_size: int
    resample: bool
    lr: float = 0.005
    seeds: tuple[int, ...] = DEFAULT_SEEDS

    def __post_init__(self):
        if self.batch_size < 1:
            raise ConfigurationError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 1:
            raise ConfigurationError(f"epochs must be >= 1, got {self.epochs}")
        if self.resample and self.task != "classify":
            raise ConfigurationError(f"resample applies to the classify task only, not {self.task!r}")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ConfigurationError(f"lr must be a finite number > 0, got {self.lr}")
        object.__setattr__(self, "seeds", check_seeds(self.seeds))

    @property
    def task(self) -> str:
        return self.model.task

    @property
    def loss(self) -> str:
        return _TASK_LOSS[self.task]


def default_train_config(task: str, model: md.ModelConfig, **overrides) -> TrainConfig:
    """`model`'s task defaults, updated by `overrides`; `task` must be `model`'s."""
    if task != model.task:
        raise ConfigurationError(f"task {task!r} does not match the model's task {model.task!r}")
    epochs, batch_size = _TASK_SCHEDULE[task]
    base = dict(model=model, epochs=epochs, batch_size=batch_size,
                resample=task == "classify")
    base.update(overrides)
    return TrainConfig(**base)


# ---------------------------------------------------------------------------
# labels
# ---------------------------------------------------------------------------

def gold_value(label: dict, task: str) -> float:
    """Class index (1 = accepted) or citation-score target."""
    key = TASK_LABELS[task]
    if key not in label:
        raise ConfigurationError(f"task {task!r} needs the label {key!r} on every document")
    return float(int(label[key])) if task == "classify" else citation_score(label[key])


def class_probabilities(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax of [B, 2] logits."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def prediction(row: np.ndarray, task: str) -> tuple[float, float | None]:
    """(class index or score, probability of class 1 or None) from one output row."""
    if task == "classify":
        return float(np.argmax(row)), float(class_probabilities(row[None, :])[0, 1])
    return float(row[0]), None


# ---------------------------------------------------------------------------
# resampling and batching
# ---------------------------------------------------------------------------

def resample_balanced(examples: list, labels, rng: np.random.Generator) -> list:
    """Full minority class plus an equal-size majority sample, shuffled.

    Sampling is uniform without replacement and fresh per call.
    """
    labels = np.asarray(labels)
    classes = np.unique(labels)
    if len(classes) != 2:
        raise ConfigurationError(f"balanced resampling needs exactly 2 classes, found {len(classes)}")
    idx_a = np.flatnonzero(labels == classes[0])
    idx_b = np.flatnonzero(labels == classes[1])
    minority, majority = (idx_a, idx_b) if len(idx_a) <= len(idx_b) else (idx_b, idx_a)
    sampled = rng.choice(majority, size=len(minority), replace=False)
    chosen = np.concatenate([minority, sampled])
    rng.shuffle(chosen)
    return [examples[i] for i in chosen]


class Batches(Sequence):
    """`docs` cut into `batch_size` slices in order; item i is the i-th slice,
    padded with its labels each time it is read, and no padded batch is kept."""

    def __init__(self, docs: list[TaggedDocument], task: str, batch_size: int):
        self.docs, self.task, self.batch_size = docs, task, batch_size
        self.starts = range(0, len(docs), batch_size)

    def __len__(self) -> int:
        return len(self.starts)

    def __getitem__(self, index: int) -> md.Batch:
        start = self.starts[index]   # an index out of range raises IndexError here
        chunk = self.docs[start: start + self.batch_size]
        return md.pad_batch(chunk, labels=[gold_value(d.label, self.task) for d in chunk])


make_batches = Batches


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------

def compute_loss(output: ad.Tensor, golds: np.ndarray, kind: str) -> ad.Tensor:
    """`kind` is a TrainConfig.loss: "cross-entropy", else "mae"."""
    if kind == "cross-entropy":
        return ad.cross_entropy(output, golds.astype(np.int64))
    return ad.l1_loss(output, np.asarray(golds, dtype=np.float64).reshape(-1, 1))


# ---------------------------------------------------------------------------
# epoch loop
# ---------------------------------------------------------------------------

def train_epoch(model: md.Model, batches: Sequence[md.Batch], optimizer: ad.Adam,
                loss_kind: str, rng: np.random.Generator, epoch: int = 0) -> float:
    """One optimizer step per batch, its updates applied inside backward;
    returns the mean train loss."""
    losses = []
    for index, batch in enumerate(batches):
        with ad.Tape():
            result = model.forward(batch, training=True, rng=rng)
            loss = compute_loss(result.output, batch.labels, loss_kind)
            value = float(loss.values)
            if not math.isfinite(value):
                raise TrainingAbortedError(
                    f"non-finite loss {value} at epoch {epoch}, batch {index}")
            ad.backward(loss, optimizer)
        optimizer.step()
        # drop this step's graph before the next forward pass builds another
        del result, loss
        losses.append(value)
    return float(np.mean(losses)) if losses else 0.0


def predict(model: md.Model, docs: list[TaggedDocument], task: str, batch_size: int,
            seed: int | None = None, attention: bool = False):
    """Eval-mode predictions over `docs`, in order. With `attention` (a HAN
    only), returns (records, maps): each document's sentence weights and its
    sentences' word weights, cut to its real lengths."""
    records, maps = [], []
    batches = make_batches(docs, task, batch_size)
    for start, batch in zip(batches.starts, batches):
        result = model.forward(batch, training=False)
        for i in range(batch.size):
            doc = docs[start + i]
            pred, prob = prediction(result.output.values[i], task)
            records.append(PredictionRecord(id=doc.id, gold=float(batch.labels[i]), pred=pred,
                                            prob=prob, seed=seed))
            if attention:
                n = batch.sent_lengths[i]
                maps.append((result.sent_attention[i, :n].tolist(),
                             [row[:length].tolist() for row, length
                              in zip(result.word_attention[i], batch.token_lengths[i, :n])]))
    return (records, maps) if attention else records


def validation_metric(records: list[PredictionRecord], task: str) -> float:
    """Selection score: accuracy, or negated MAE so higher is better."""
    golds = [r.gold for r in records]
    preds = [r.pred for r in records]
    if task == "classify":
        return accuracy(golds, preds)
    return -mae(golds, preds)


def select_best(history: list[float]) -> int:
    """Index of the best validation metric; ties go to the LAST epoch."""
    if not history:
        raise DegenerateInputError("empty validation history")
    best = max(history)
    return max(i for i, v in enumerate(history) if v == best)


# ---------------------------------------------------------------------------
# single run
# ---------------------------------------------------------------------------

def train_single_run(config: TrainConfig, train_docs: list[TaggedDocument],
                     valid_docs: list[TaggedDocument], test_docs: list[TaggedDocument],
                     seed: int, log, embeddings: np.ndarray | None = None
                     ) -> tuple[md.Model, list[PredictionRecord]]:
    """One seeded training: resample/shuffle per epoch, validate on the
    natural split, keep the snapshot of the last best epoch, then test it.
    Returns that snapshot, without gradients, and its test predictions.

    Each event goes to the text file `log` as it happens, one sort-keyed
    JSON line, flushed: each epoch's, then the one naming the selected
    epoch. A non-finite train loss raises TrainingAbortedError."""
    if not train_docs or not valid_docs:
        raise ConfigurationError("train and valid splits must be non-empty")
    rng = np.random.default_rng(seed)
    model = md.build_model(config.model, rng, embeddings=embeddings)
    optimizer = ad.Adam(model.params, lr=config.lr)
    labels = [gold_value(d.label, config.task) for d in train_docs]

    def write(event: dict) -> None:
        log.write(json.dumps(event, sort_keys=True) + "\n")
        log.flush()

    valid_metrics: list[float] = []
    best_params: dict[str, np.ndarray] = {}
    for epoch in range(config.epochs):
        if config.resample:
            epoch_docs = resample_balanced(train_docs, labels, rng)
        else:
            epoch_docs = list(train_docs)
            rng.shuffle(epoch_docs)
        batches = make_batches(epoch_docs, config.task, config.batch_size)
        train_loss = train_epoch(model, batches, optimizer, config.loss, rng, epoch=epoch)
        metric = validation_metric(predict(model, valid_docs, config.task,
                                           config.batch_size, seed=seed), config.task)
        valid_metrics.append(metric)
        if select_best(valid_metrics) == epoch:
            best_params = {n: p.values.copy() for n, p in model.params.items()}
        write({"seed": seed, "epoch": epoch, "train_loss": train_loss, "valid_metric": metric,
               "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())})

    for name, values in best_params.items():
        model.params[name].values = values
    write({"seed": seed, "event": "selected", "epoch": select_best(valid_metrics)})
    test_predictions = predict(model, test_docs, config.task, config.batch_size,
                               seed=seed) if test_docs else []
    return model, test_predictions


# ---------------------------------------------------------------------------
# seed workers
# ---------------------------------------------------------------------------

# set while the forkserver starts, so its BLAS and every worker's runs one
# thread, whatever this process runs: the per-worker limit of joblib's loky
_ONE_THREAD = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def _seed_context():
    """The forkserver context the seed workers fork from. Its server starts
    once per process, with one BLAS thread and the package imported, so a
    worker costs a fork, not an interpreter start."""
    import multiprocessing.forkserver   # on first use: the other commands start no worker

    context = multiprocessing.get_context("forkserver")
    # cli for evaluate's and predict's workers; numpy imports random and ma lazily, on a
    # seed's first default_rng and unique
    context.set_forkserver_preload(["hanst.cli", "numpy.random", "numpy.ma"])
    # the server ignores this process's sys.path: it finds the package through PYTHONPATH
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(_ONE_THREAD, PYTHONPATH=os.pathsep.join(filter(None, [root, os.getenv("PYTHONPATH")])))
    saved = {name: os.environ.pop(name, None) for name in env}
    os.environ.update(env)
    try:
        multiprocessing.forkserver.ensure_running()   # the server inherits os.environ as it starts
    finally:
        for name in env:
            del os.environ[name]
        os.environ.update({name: value for name, value in saved.items() if value is not None})
    return context


_unfinished: set[str] = set()        # the temp files this process is writing
_unfinished_lock = threading.Lock()  # held while one is created, and from orphaning to exit


@contextlib.contextmanager
def temp_file(path: str):
    """Create `path` empty, only if the name is free and with the mode the
    umask gives 0o666, and yield it for the block to write and rename. It is
    removed if the block raises, and by a worker orphaned before the block
    ends, before that worker exits (see _start_worker)."""
    with _unfinished_lock:
        os.close(os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666))
        _unfinished.add(path)
    try:
        yield path
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(path)
        raise
    finally:
        _unfinished.discard(path)


def _start_worker(errstate: dict) -> None:
    """First call in each seed worker: the caller's numpy error state,
    Ctrl-C left to the caller, which stops its workers itself, and a thread
    that ends the worker once the caller is gone, however it went, removing
    the temp files it was writing first."""
    import multiprocessing

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    np.seterr(**errstate)
    # the pipe the job came through, whose write end only the caller holds
    sentinel = multiprocessing.parent_process().sentinel

    def exit_when_orphaned():
        os.read(sentinel, 1)   # returns at end of file: the caller is gone
        with _unfinished_lock:   # no temp file is created from here on
            for path in _unfinished.copy():
                with contextlib.suppress(FileNotFoundError):   # renamed meanwhile
                    os.unlink(path)
            os._exit(1)

    threading.Thread(target=exit_when_orphaned, daemon=True).start()


def run_seeds(fn, jobs: list[tuple]) -> list:
    """`[fn(*job) for job in jobs]`, each call in its own worker process, all
    at once; `fn` must be importable by name.

    A worker's BLAS runs one thread whatever this process's environment, so
    what a call computes depends neither on the thread count nor on how many
    calls run together. It runs under the caller's numpy error state. A
    worker imports the caller's main module from its file, so a main module
    read from stdin raises ConfigurationError before any worker starts. The
    error of the first failing job in order is raised as that job raised it;
    a worker that dies raises WorkerDiedError, naming its exit code or
    signal. On any error, Ctrl-C included, the workers still running are
    stopped before this returns. Peak memory is the sum over the workers.
    """
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    main = sys.modules["__main__"]
    path = getattr(main, "__file__", None)
    if getattr(main, "__spec__", None) is None and path is not None and not os.path.isfile(path):
        raise ConfigurationError(
            f"a worker process cannot import the main module {path!r}; run the script from a file")
    pool = ProcessPoolExecutor(max_workers=len(jobs), mp_context=_seed_context(),
                               initializer=_start_worker, initargs=(np.geterr(),))
    workers = pool._processes   # shutdown drops this name, not the dict
    try:
        futures = [pool.submit(fn, *job) for job in jobs]
        return [future.result() for future in futures]
    except BrokenProcessPool:
        pool.shutdown()   # joins every worker, so each has its exit code
        # the first that died: the pool stops the rest by SIGTERM once one dies
        code = next((w.exitcode for w in workers.values() if w.exitcode != -signal.SIGTERM),
                    -signal.SIGTERM)
        raise WorkerDiedError("a worker process died: " + (
            f"signal {signal.Signals(-code).name}" if code < 0 else f"exit code {code}")) from None
    except BaseException:
        # no public way to stop a running call before Python 3.14
        for worker in list(workers.values()):
            worker.terminate()
        raise
    finally:
        pool.shutdown(cancel_futures=True)


# ---------------------------------------------------------------------------
# metrics over runs
# ---------------------------------------------------------------------------

def run_metrics(records: list[PredictionRecord], task: str) -> dict[str, float]:
    golds = [r.gold for r in records]
    preds = [r.pred for r in records]
    if task == "classify":
        values = {"accuracy": accuracy(golds, preds)}
        probs = [r.prob for r in records]
        if all(p is not None for p in probs) and len(set(golds)) == 2:
            values["auc"] = auc_roc(golds, probs)
        return values
    return {"r2": r2_score(golds, preds), "mse": mse(golds, preds),
            "mae": mae(golds, preds)}


def summarize_runs(runs: list[list[PredictionRecord]], task: str
                   ) -> tuple[dict[str, list[float]], list[PredictionRecord]]:
    """Per-run metrics, plus the vote and its metric if the runs can vote (regression or odd count)."""
    per_run: dict[str, list[float]] = {}
    for records in runs:
        for name, value in run_metrics(records, task).items():
            per_run.setdefault(name, []).append(value)
    vote: list[PredictionRecord] = []
    if runs and (task == "regress" or len(runs) % 2 == 1):
        vote = vote_aggregate(runs, task)
        name, metric = ("vote_accuracy", accuracy) if task == "classify" else ("run_mean_mae", mae)
        per_run[name] = [metric([r.gold for r in vote], [r.pred for r in vote])]
    return per_run, vote
