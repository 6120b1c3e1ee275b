"""Reference code that hanst no longer runs, kept for the tests to compare against.

- Tape ops of the per-step LSTM composition that `ad.lstm_sequence`
  replaced: `mul`, `mul_const`, `sigmoid`, `stack`, `slice_last`, `sum_all`,
  `index_axis` and `concat`. The step oracle in `test_lstm_sequence` is
  built from them, and the autodiff tests use them to form scalar losses.
  `concat` also joined the two one-direction LSTM outputs, and `index_axis`
  picked the sentence-averaging model's final states, before one
  bidirectional `lstm_sequence` node wrote both halves of one output.
- The generic tape ops of the head, `dropout`, `matmul` and `add`, which
  `ad.linear` fuses into one node that must match them bit for bit. The
  step oracle and `composed_attention_pool` build on `matmul` and `add` too.
- Tape ops of the compositions that the fused ops replaced: `tanh` and
  `softmax`, from which `composed_attention_pool` builds the eight-node
  attention pool that `ad.attention_pool` fuses, and `sub`, `abs_` and
  `mean_all`, whose composition `ad.l1_loss` fuses. `weighted_sum` is the
  pool's last node: `ad.weighted_sum` with weights that take a gradient,
  which the models' constant weights never need.
- Structure tags as text: `inject_tags` wraps each raw sentence in its role's
  tags and `strip_tags` removes what `TAG_RE` matches. hanst tags token ids
  instead (`textprep.TokenStore`), and `tokenize` never reads a tag out
  of text; the text form is the reference for criterion 03.
- `split_corpus`, the train split the old prepare built its vocabulary from.
"""

from __future__ import annotations

import re

import numpy as np

from hanst import autodiff as ad
from hanst import textprep as tp
from hanst.autodiff import DTYPE, Tensor, _accum, _logistic, _record
from hanst.corpus import SPLITS, RawDocument
from hanst.errors import ConfigurationError, DegenerateInputError, ShapeMismatchError

# ---------------------------------------------------------------------------
# tape ops
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeMismatchError(f"matmul: incompatible shapes {a.shape} x {b.shape}")
    values = a.values @ b.values

    def bwd(g):
        _accum(a, g @ b.values.T, owned=True)
        _accum(b, a.values.T @ g, owned=True)

    return _record(values, bwd)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; ``b`` may be a 1-D bias broadcast over the last axis."""
    if a.shape == b.shape:
        def bwd(g):
            _accum(a, g)
            _accum(b, g)
    elif b.ndim == 1 and a.ndim >= 1 and a.shape[-1] == b.shape[0]:
        def bwd(g):
            _accum(a, g)
            _accum(b, g.reshape(-1, b.shape[0]).sum(axis=0))
    else:
        raise ShapeMismatchError(f"add: incompatible shapes {a.shape} + {b.shape}")
    return _record(a.values + b.values, bwd)


def dropout(a: Tensor, p: float, training: bool, rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout: survivors scaled by 1/(1-p); identity in eval mode."""
    if not 0.0 <= p < 1.0:
        raise ConfigurationError(f"dropout probability must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return a
    keep = (rng.random(a.shape) >= p) / (1.0 - p)
    return _record(a.values * keep, lambda g: _accum(a, g * keep, owned=True))


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeMismatchError(f"mul: incompatible shapes {a.shape} * {b.shape}")

    def bwd(g):
        _accum(a, g * b.values)
        _accum(b, g * a.values)

    return _record(a.values * b.values, bwd)


def mul_const(a: Tensor, c) -> Tensor:
    c = np.asarray(c, dtype=DTYPE)
    values = a.values * c
    if values.shape != a.shape:
        raise ShapeMismatchError(f"mul_const: constant {c.shape} broadcasts {a.shape} to {values.shape}")
    return _record(values, lambda g: _accum(a, g * c))


def sigmoid(a: Tensor) -> Tensor:
    s = _logistic(a.values)
    return _record(s, lambda g: _accum(a, g * s * (1.0 - s)))


def stack(parts: list[Tensor], axis: int) -> Tensor:
    values = np.stack([t.values for t in parts], axis=axis)

    def bwd(g):
        for i, t in enumerate(parts):
            _accum(t, np.take(g, i, axis=axis))

    return _record(values, bwd)


def slice_last(a: Tensor, start: int, stop: int) -> Tensor:
    """Contiguous slice along the last axis."""
    values = a.values[..., start:stop]

    def bwd(g):
        if a.grad is None:
            a.grad = np.zeros_like(a.values)
        a.grad[..., start:stop] += g

    return _record(values, bwd)


def sum_all(a: Tensor) -> Tensor:
    return _record(a.values.sum(), lambda g: _accum(a, np.broadcast_to(g, a.shape)))


def concat(parts: list[Tensor], axis: int) -> Tensor:
    values = np.concatenate([t.values for t in parts], axis=axis)
    sizes = [t.shape[axis] for t in parts]
    offsets = np.cumsum([0] + sizes)

    def bwd(g):
        for t, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            key = [slice(None)] * g.ndim
            key[axis] = slice(lo, hi)
            _accum(t, g[tuple(key)])

    return _record(values, bwd)


def index_axis(a: Tensor, idx: int, axis: int) -> Tensor:
    """Select one slice along ``axis`` (the axis is dropped)."""
    values = np.take(a.values, idx, axis=axis)

    def bwd(g):
        if a.grad is None:
            a.grad = np.zeros_like(a.values)
        key = [slice(None)] * a.ndim
        key[axis] = idx
        a.grad[tuple(key)] += g

    return _record(values, bwd)


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeMismatchError(f"sub: incompatible shapes {a.shape} - {b.shape}")

    def bwd(g):
        _accum(a, g)
        _accum(b, -g)

    return _record(a.values - b.values, bwd)


def tanh(a: Tensor) -> Tensor:
    t = np.tanh(a.values)
    return _record(t, lambda g: _accum(a, g * (1.0 - t * t)))


def abs_(a: Tensor) -> Tensor:
    sign = np.sign(a.values)
    return _record(np.abs(a.values), lambda g: _accum(a, g * sign))


def softmax(a: Tensor, mask: np.ndarray) -> Tensor:
    """Masked softmax over the last axis, stabilized by max-subtraction.

    Masked positions come out exactly 0 and receive exactly zero gradient.
    Every row must have at least one unmasked position.
    """
    x = a.values
    m = np.asarray(mask, dtype=bool)
    if m.shape != x.shape:
        raise ShapeMismatchError(f"softmax: mask shape {m.shape} != input shape {x.shape}")
    if not m.any(axis=-1).all():
        raise DegenerateInputError("softmax: some row has all positions masked")
    shifted = np.where(m, x, -np.inf)
    shifted = shifted - shifted.max(axis=-1, keepdims=True)
    e = np.where(m, np.exp(shifted), 0.0)
    p = e / e.sum(axis=-1, keepdims=True)

    def bwd(g):
        inner = (p * g).sum(axis=-1, keepdims=True)
        _accum(a, p * (g - inner))

    return _record(p, bwd)


def mean_all(a: Tensor) -> Tensor:
    n = a.size
    return _record(a.values.mean(), lambda g: _accum(a, np.broadcast_to(g / n, a.shape)))


def weighted_sum(h: Tensor, alpha: Tensor) -> Tensor:
    """`ad.weighted_sum` with weights that take a gradient: h [B,T,D] by alpha [B,T] -> [B,D]."""
    values = np.einsum("btd,bt->bd", h.values, alpha.values)

    def bwd(g):
        _accum(h, alpha.values[:, :, None] * g[:, None, :], owned=True)
        _accum(alpha, np.einsum("btd,bd->bt", h.values, g), owned=True)

    return _record(values, bwd)


def composed_attention_pool(states: Tensor, w: Tensor, b: Tensor, u: Tensor,
                            mask: np.ndarray) -> tuple[Tensor, Tensor]:
    """`ad.attention_pool` as the eight tape nodes it replaced: (pooled, alpha)."""
    bsz, t, d = states.shape
    flat = ad.reshape(states, (bsz * t, d))
    proj = tanh(add(matmul(flat, w), b))
    scores = ad.reshape(matmul(proj, u), (bsz, t))
    alpha = softmax(scores, mask=mask.astype(bool))
    return weighted_sum(states, alpha), alpha


# ---------------------------------------------------------------------------
# tags as text
# ---------------------------------------------------------------------------

# surface form of a structure tag
TAG_RE = re.compile(r"</?[A-Z][A-Z_]*>")


def inject_tags(doc: RawDocument, tagset: str) -> list[tuple[str, str]]:
    """Segment a whole document into (role, sentence) pairs, wrapping
    sentences in their role's tags unless tagset is "none".

    The title is one sentence regardless of punctuation. The reduced tagset
    merges TITLE and ABSTRACT into one role.
    """
    if tagset not in tp.TAGSETS:
        raise ConfigurationError(f"unknown tagset {tagset!r}")
    merge = tp._ROLE_MERGE.get(tagset, {})
    title = doc.title.strip()
    parts = [("TITLE", title)] if title else []
    for role, text in (("ABSTRACT", doc.abstract), ("BODY_TEXT", doc.body_text)):
        parts.extend((role, sent) for sent in tp.segment_sentences(text))
    out = []
    for role, sent in parts:
        role = merge.get(role, role)
        if tagset == "none":
            out.append((role, sent))
        else:
            out.append((role, f"{tp.open_tag(role)} {sent} {tp.close_tag(role)}"))
    return out


def strip_tags(sentence: str) -> str:
    return TAG_RE.sub("", sentence).strip()


# ---------------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------------

def split_corpus(docs: list[RawDocument]) -> dict[str, list[RawDocument]]:
    out: dict[str, list[RawDocument]] = {name: [] for name in SPLITS}
    for doc in docs:
        out[doc.split].append(doc)
    return out
