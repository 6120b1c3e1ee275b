"""Document encoders and task heads: AWE, sentence-averaging BiLSTM, and the
hierarchical attention network (tagged input turns HAN into HAN-ST)."""

from __future__ import annotations

import json
import os
import struct
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import autodiff as ad
from .corpus import check_fields
from .errors import (
    CheckpointMismatchError,
    ConfigurationError,
    DegenerateInputError,
    ShapeMismatchError,
)
from .textprep import PAD_ID, TaggedDocument, check_settings

MODEL_KINDS = ("awe", "sent_avg_bilstm", "han")
# the tasks, each with its defaults: (embedding_dim, bilstm_hidden, dropout_p)
TASK_DEFAULTS = {
    "classify": (50, 256, 0.5),
    "regress": (300, 100, 0.2),
}

CHECKPOINT_MAGIC = b"HANSTCKPT1\n"
CHECKPOINT_VERSION = 3
_HEADER_KEYS = {"model_config": "dict", "vocab_sha256": "str", "params": "list"}


@dataclass(frozen=True)
class ModelConfig:
    model_kind: str
    task: str   # "classify" through a 2-class head, "regress" through one score
    vocab_size: int
    embedding_dim: int = 50
    bilstm_hidden: int = 256
    dropout_p: float = 0.5
    tagset: str = "none"
    max_chars: int = 20000   # the character cutoff the model's inputs were prepared at

    def __post_init__(self):
        if self.model_kind not in MODEL_KINDS:
            raise ConfigurationError(f"model_kind must be one of {MODEL_KINDS}, got {self.model_kind!r}")
        if self.task not in TASK_DEFAULTS:
            raise ConfigurationError(f"task must be one of {sorted(TASK_DEFAULTS)}, got {self.task!r}")
        if self.vocab_size < 2:
            raise ConfigurationError(f"vocab_size must include the specials, got {self.vocab_size}")
        if self.embedding_dim < 1 or self.bilstm_hidden < 1:
            raise ConfigurationError("embedding_dim and bilstm_hidden must be positive")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ConfigurationError(f"dropout_p must be in [0, 1), got {self.dropout_p}")
        check_settings(self.tagset, self.max_chars)

    @property
    def n_outputs(self) -> int:
        return 2 if self.task == "classify" else 1


# ---------------------------------------------------------------------------
# batching
# ---------------------------------------------------------------------------

@dataclass
class Batch:
    """Right-padded ids and the length of every row: a row's real entries come first."""

    ids: np.ndarray             # [B, S, T] int64
    token_lengths: np.ndarray   # [B, S] int64: tokens per sentence, 0 for a padding sentence
    sent_lengths: np.ndarray    # [B] int64: sentences per document
    labels: np.ndarray | None = None

    @property
    def size(self) -> int:
        return self.ids.shape[0]

    @property
    def token_mask(self) -> np.ndarray:   # [B, S, T] from the lengths: 1.0 = token, 0.0 = padding
        return (np.arange(self.ids.shape[2]) < self.token_lengths[..., None]).astype(ad.DTYPE)

    @property
    def sent_mask(self) -> np.ndarray:   # [B, S] from the lengths: 1.0 = sentence, 0.0 = padding
        return (np.arange(self.ids.shape[1]) < self.sent_lengths[:, None]).astype(ad.DTYPE)


def pad_batch(docs: list[TaggedDocument], labels=None) -> Batch:
    if not docs:
        raise DegenerateInputError("cannot batch zero documents")
    b = len(docs)
    s = max(len(d.sentences) for d in docs)
    t = max(len(sent) for d in docs for sent in d.sentences)
    ids = np.full((b, s, t), PAD_ID, dtype=np.int64)
    token_lengths = np.zeros((b, s), dtype=np.int64)
    for i, doc in enumerate(docs):
        for j, sent in enumerate(doc.sentences):
            ids[i, j, : len(sent)] = sent
            token_lengths[i, j] = len(sent)
    return Batch(ids=ids, token_lengths=token_lengths,
                 sent_lengths=np.array([len(d.sentences) for d in docs], dtype=np.int64),
                 labels=None if labels is None else np.asarray(labels))


# ---------------------------------------------------------------------------
# building blocks
# ---------------------------------------------------------------------------

class LstmCell:
    """Parameters of one LSTM direction, with input and hidden biases.

    Weights are stored transposed ([input, 4h] / [hidden, 4h]) so a step is
    x @ w. Gate order along the 4h axis: input, forget, cell, output.
    """

    def __init__(self, prefix: str, input_dim: int, hidden: int,
                 params: dict[str, ad.Parameter], rng: np.random.Generator):
        self.hidden = hidden
        self.w_ih = _add(params, f"{prefix}.w_ih", ad.xavier_init((input_dim, 4 * hidden), "normal", rng))
        self.w_hh = _add(params, f"{prefix}.w_hh", ad.xavier_init((hidden, 4 * hidden), "normal", rng))
        self.b_ih = _add(params, f"{prefix}.b_ih", np.zeros(4 * hidden))
        self.b_hh = _add(params, f"{prefix}.b_hh", np.zeros(4 * hidden))


class BiLstmLayer:
    """Forward and backward cells over a [B, T, dim] sequence."""

    def __init__(self, prefix: str, input_dim: int, hidden: int,
                 params: dict[str, ad.Parameter], rng: np.random.Generator):
        self.fw = LstmCell(f"{prefix}.fw", input_dim, hidden, params, rng)
        self.bw = LstmCell(f"{prefix}.bw", input_dim, hidden, params, rng)

    def run(self, xs: ad.Tensor, lengths: np.ndarray) -> ad.Tensor:
        """Return the per-position states [B,T,2h]: forward in [..., :h], backward in [..., h:].

        One tape node for both directions. Row r's first lengths[r] positions
        are real. Rows step only at their real positions and carry their state
        through the padded ones, so outputs match a run over the unpadded
        sequence: a row's final forward state is at position T-1 and its
        final backward state at position 0.
        """
        fw, bw = ((cell.w_ih, cell.w_hh, cell.b_ih, cell.b_hh) for cell in (self.fw, self.bw))
        return ad.lstm_sequence(xs, fw, bw, lengths)


class AttentionPool:
    """tanh-projected states scored against a learned context vector."""

    def __init__(self, prefix: str, dim: int, params: dict[str, ad.Parameter],
                 rng: np.random.Generator):
        self.w = _add(params, f"{prefix}.w", ad.xavier_init((dim, dim), "uniform", rng))
        self.b = _add(params, f"{prefix}.b", np.zeros(dim))
        self.u = _add(params, f"{prefix}.u", ad.xavier_init((dim, 1), "uniform", rng))

    def run(self, states: ad.Tensor, lengths: np.ndarray):
        """Pool [B,T,D] into [B,D] over each row's first lengths[r] states;
        returns (pooled, weights [B,T])."""
        return ad.attention_pool(states, self.w, self.b, self.u, lengths)


def _add(params: dict[str, ad.Parameter], name: str, values: np.ndarray) -> ad.Parameter:
    p = ad.Parameter(values, name=name)
    params[name] = p
    return p


def _masked_mean_rows(emb: ad.Tensor, ids: np.ndarray, mask: np.ndarray) -> ad.Tensor:
    """Mean embedding of unmasked ids per row: [N, T] -> [N, d].

    Rows with no unmasked ids come out zero.
    """
    gathered = ad.rows(emb, ids)
    counts = np.maximum(mask.sum(axis=1, keepdims=True), 1.0)
    return ad.weighted_sum(gathered, mask / counts)


# ---------------------------------------------------------------------------
# models
# ---------------------------------------------------------------------------

@dataclass
class ForwardResult:
    output: ad.Tensor                     # [B, n_outputs]
    word_attention: np.ndarray | None = None   # [B, S, T]
    sent_attention: np.ndarray | None = None   # [B, S]


class Model:
    """Shared head, dropout, and parameter registry. Each subclass defines
    `_build(rng)`, `doc_dim()` and `encode(batch)`."""

    def __init__(self, config: ModelConfig, rng: np.random.Generator,
                 embeddings: np.ndarray | None = None):
        self.config = config
        self.params: dict[str, ad.Parameter] = {}
        if embeddings is None:
            embeddings = ad.xavier_init((config.vocab_size, config.embedding_dim), "uniform", rng)
            embeddings[PAD_ID] = 0.0
        elif embeddings.shape != (config.vocab_size, config.embedding_dim):
            raise ShapeMismatchError(
                f"embeddings {embeddings.shape} vs configured {(config.vocab_size, config.embedding_dim)}")
        self.embedding = _add(self.params, "embedding", np.array(embeddings, dtype=np.float64))
        self._build(rng)
        self.head_w = _add(self.params, "head.w",
                           ad.xavier_init((self.doc_dim(), config.n_outputs), "uniform", rng))
        self.head_b = _add(self.params, "head.b", np.zeros(config.n_outputs))

    def forward(self, batch: Batch, training: bool = False,
                rng: np.random.Generator | None = None) -> ForwardResult:
        doc, word_alpha, sent_alpha = self.encode(batch)
        p = self.config.dropout_p
        # inverted dropout: survivors scaled by 1/(1-p), none in eval mode
        keep = (rng.random(doc.shape) >= p) / (1.0 - p) if training and p > 0.0 else None
        output = ad.linear(doc, self.head_w, self.head_b, keep)
        return ForwardResult(output=output, word_attention=word_alpha, sent_attention=sent_alpha)


class AweModel(Model):
    """Mean embedding of every non-padding token in the document."""

    def _build(self, rng):
        pass

    def doc_dim(self) -> int:
        return self.config.embedding_dim

    def encode(self, batch: Batch):
        b = batch.size
        doc = _masked_mean_rows(self.embedding, batch.ids.reshape(b, -1), batch.token_mask.reshape(b, -1))
        return doc, None, None


class SentAvgBilstmModel(Model):
    """Mean word embedding per sentence, document BiLSTM, final-state concat."""

    def _build(self, rng):
        self.sent_bilstm = BiLstmLayer("sent_bilstm", self.config.embedding_dim,
                                       self.config.bilstm_hidden, self.params, rng)

    def doc_dim(self) -> int:
        return 2 * self.config.bilstm_hidden

    def encode(self, batch: Batch):
        b, s, t = batch.ids.shape
        sent_vecs = _masked_mean_rows(self.embedding, batch.ids.reshape(b * s, t),
                                      batch.token_mask.reshape(b * s, t))
        sent_vecs = ad.reshape(sent_vecs, (b, s, self.config.embedding_dim))
        h = self.config.bilstm_hidden
        # the final states are the forward half at position S-1 and the
        # backward half at 0: rows 2(S-1) and 1 of a document's [2S, h] halves
        halves = ad.reshape(self.sent_bilstm.run(sent_vecs, batch.sent_lengths), (b * 2 * s, h))
        final = ad.rows(halves, 2 * s * np.arange(b)[:, None] + [2 * (s - 1), 1])
        return ad.reshape(final, (b, 2 * h)), None, None


class HanModel(Model):
    """Word BiLSTM + attention per sentence, then sentence BiLSTM + attention.

    Structure-tagged input uses this exact architecture; only the token
    sequences differ.
    """

    def _build(self, rng):
        h = self.config.bilstm_hidden
        self.word_bilstm = BiLstmLayer("word_bilstm", self.config.embedding_dim, h, self.params, rng)
        self.word_attn = AttentionPool("word_attn", 2 * h, self.params, rng)
        self.sent_bilstm = BiLstmLayer("sent_bilstm", 2 * h, h, self.params, rng)
        self.sent_attn = AttentionPool("sent_attn", 2 * h, self.params, rng)

    def doc_dim(self) -> int:
        return 2 * self.config.bilstm_hidden

    def encode(self, batch: Batch):
        """(doc vectors [B,2H], word attention [B,S,T], sentence attention [B,S]).

        The word level runs on the real sentences alone. Their rows of the
        [B*S,T] batch are gathered longest first, which is the order the
        packed word BiLSTM steps in, so it copies nothing to reorder them.
        Each BiLSTM writes both directions into one [...,2H] output that its
        attention reads as it is. After the word BiLSTM and word attention,
        the sentence vectors are scattered back into [B,S,2H]. Padding
        sentences get zero vectors there, past each document's sentence
        count, so the sentence level never reads them. Their word attention
        rows are zero. A training step records 8 tape nodes, one per layer:
        these 6, the head's linear and the loss.
        """
        b, s, t = batch.ids.shape
        lengths = batch.token_lengths.reshape(b * s)
        real = np.flatnonzero(np.arange(s) < batch.sent_lengths[:, None])
        real = real[np.argsort(-lengths[real], kind="stable")]
        lengths = lengths[real]
        words = ad.rows(self.embedding, batch.ids.reshape(b * s, t)[real])
        sent_vecs, word_alpha = self.word_attn.run(self.word_bilstm.run(words, lengths), lengths)
        sent_seq = ad.scatter_rows(sent_vecs, real, (b, s, 2 * self.config.bilstm_hidden))
        doc, sent_alpha = self.sent_attn.run(self.sent_bilstm.run(sent_seq, batch.sent_lengths),
                                             batch.sent_lengths)
        word_maps = np.zeros((b * s, t))
        word_maps[real] = word_alpha.values
        return doc, word_maps.reshape(b, s, t), sent_alpha.values


_MODEL_CLASSES = {"awe": AweModel, "sent_avg_bilstm": SentAvgBilstmModel, "han": HanModel}


def default_model_config(model_kind: str, task: str, vocab_size: int,
                         tagset: str = "none") -> ModelConfig:
    if task not in TASK_DEFAULTS:
        raise ConfigurationError(f"task must be one of {sorted(TASK_DEFAULTS)}, got {task!r}")
    dim, hidden, p = TASK_DEFAULTS[task]
    return ModelConfig(model_kind=model_kind, task=task, vocab_size=vocab_size,
                       embedding_dim=dim, bilstm_hidden=hidden, dropout_p=p, tagset=tagset)


def build_model(config: ModelConfig, rng: np.random.Generator,
                embeddings: np.ndarray | None = None) -> Model:
    return _MODEL_CLASSES[config.model_kind](config, rng, embeddings)


def count_parameters(model: Model) -> int:
    return sum(p.size for p in model.params.values())


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def save_checkpoint(model: Model, vocab_sha256: str, path) -> None:
    """Versioned binary container: magic, JSON header, float64 payloads."""
    names = sorted(model.params)
    header = {
        "format_version": CHECKPOINT_VERSION,
        "model_config": asdict(model.config),
        "vocab_sha256": vocab_sha256,
        "params": [{"name": n, "shape": list(model.params[n].shape)} for n in names],
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for n in names:
            fh.write(np.ascontiguousarray(model.params[n].values, dtype="<f8").tobytes())


def _read_header(fh, path, vocab_sha256: str) -> tuple[ModelConfig, list]:
    magic = fh.read(len(CHECKPOINT_MAGIC))
    if magic != CHECKPOINT_MAGIC:
        raise CheckpointMismatchError(f"{path}: not a model checkpoint")
    size = fh.read(8)
    length = struct.unpack("<Q", size)[0] if len(size) == 8 else -1
    # a damaged length must not make the read below allocate more than the file
    if not 0 <= length <= os.fstat(fh.fileno()).st_size:
        raise CheckpointMismatchError(f"{path}: truncated header")
    try:
        header = json.loads(fh.read(length).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        raise CheckpointMismatchError(f"{path}: unreadable header") from None
    check_fields(header, _HEADER_KEYS, str(path), error=CheckpointMismatchError)
    if header.get("format_version") != CHECKPOINT_VERSION:
        raise CheckpointMismatchError(
            f"{path}: unsupported checkpoint version {header.get('format_version')!r}")
    schema = {f.name: f.type for f in fields(ModelConfig)}   # "int", "float" or "str"
    unknown = sorted(set(header["model_config"]) - set(schema))
    if unknown:
        raise CheckpointMismatchError(f"{path}: model_config has unknown keys {unknown}")
    check_fields(header["model_config"], schema, f"{path}: model_config", error=CheckpointMismatchError)
    try:
        config = ModelConfig(**header["model_config"])
    except ConfigurationError as exc:
        raise CheckpointMismatchError(f"{path}: model_config: {exc}") from None
    if header["vocab_sha256"] != vocab_sha256:
        raise CheckpointMismatchError(
            f"{path}: checkpoint vocabulary hash {header['vocab_sha256'][:12]}... does not match "
            f"session vocabulary {vocab_sha256[:12]}...")
    return config, header["params"]   # and fh is at the first parameter's values


def checkpoint_config(path, vocab_sha256: str) -> ModelConfig:
    """The config of a checkpoint, checked as load_checkpoint checks it, from its header alone."""
    with open(path, "rb") as fh:
        return _read_header(fh, path, vocab_sha256)[0]


def load_checkpoint(path, vocab_sha256: str) -> Model:
    """Rebuild a model from a checkpoint, verifying its header and that it was
    trained on the vocabulary whose hash is ``vocab_sha256``."""
    with open(path, "rb") as fh:
        config, entries = _read_header(fh, path, vocab_sha256)
        model = build_model(config, np.random.default_rng(0))
        missing = set(model.params)
        for entry in entries:
            check_fields(entry, {"name": "str", "shape": "list[int]"}, f"{path}: params",
                         error=CheckpointMismatchError)
            name, shape = entry["name"], tuple(entry["shape"])
            if name not in missing:
                raise CheckpointMismatchError(f"{path}: unknown or repeated parameter {name!r}")
            missing.discard(name)
            param = model.params[name]
            if param.shape != shape:
                raise CheckpointMismatchError(
                    f"{path}: parameter {name!r}: checkpoint shape {shape} != model shape {param.shape}")
            count = int(np.prod(shape)) if shape else 1
            raw = fh.read(count * 8)
            if len(raw) != count * 8:
                raise CheckpointMismatchError(f"{path}: truncated in parameter {name!r}")
            param.values = np.frombuffer(raw, dtype="<f8").reshape(shape).astype(np.float64)
            if not np.isfinite(param.values).all():
                raise CheckpointMismatchError(f"{path}: parameter {name!r} holds NaN or inf")
        if missing:
            raise CheckpointMismatchError(f"{path}: lacks parameters {sorted(missing)}")
        if fh.read(1):
            raise CheckpointMismatchError(f"{path}: trailing bytes after the last parameter")
    return model
