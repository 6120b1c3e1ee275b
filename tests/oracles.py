"""Reference code that hanst no longer runs, kept for the tests to compare against.

- Tape ops of the per-step LSTM composition that `ad.lstm_sequence`
  replaced: `mul`, `mul_const`, `sigmoid`, `stack`, `slice_last` and
  `sum_all`. The step oracle in `test_lstm_sequence` is built from them, and
  the autodiff tests use them to form scalar losses.
- Structure tags as text: `inject_tags` wraps each raw sentence in its role's
  tags and `strip_tags` removes them. hanst tags token ids instead
  (`textprep._encode_tokens`); tags are atomic under `tokenize`, so the two
  forms must agree.
- `split_corpus`, the train split the old prepare built its vocabulary from.
"""

from __future__ import annotations

import numpy as np

from hanst import textprep as tp
from hanst.autodiff import DTYPE, Tensor, _accum, _logistic, _record
from hanst.corpus import SPLITS, RawDocument
from hanst.errors import ShapeMismatchError

# ---------------------------------------------------------------------------
# tape ops
# ---------------------------------------------------------------------------

def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeMismatchError(f"mul: incompatible shapes {a.shape} * {b.shape}")

    def bwd(g):
        _accum(a, g * b.values)
        _accum(b, g * a.values)

    return _record(a.values * b.values, (a, b), bwd)


def mul_const(a: Tensor, c) -> Tensor:
    c = np.asarray(c, dtype=DTYPE)
    values = a.values * c
    if values.shape != a.shape:
        raise ShapeMismatchError(f"mul_const: constant {c.shape} broadcasts {a.shape} to {values.shape}")
    return _record(values, (a,), lambda g: _accum(a, g * c))


def sigmoid(a: Tensor) -> Tensor:
    s = _logistic(a.values)
    return _record(s, (a,), lambda g: _accum(a, g * s * (1.0 - s)))


def stack(parts: list[Tensor], axis: int) -> Tensor:
    values = np.stack([t.values for t in parts], axis=axis)

    def bwd(g):
        for i, t in enumerate(parts):
            _accum(t, np.take(g, i, axis=axis))

    return _record(values, tuple(parts), bwd)


def slice_last(a: Tensor, start: int, stop: int) -> Tensor:
    """Contiguous slice along the last axis."""
    values = a.values[..., start:stop]

    def bwd(g):
        if a.grad is None:
            a.grad = np.zeros_like(a.values)
        a.grad[..., start:stop] += g

    return _record(values, (a,), bwd)


def sum_all(a: Tensor) -> Tensor:
    return _record(a.values.sum(), (a,), lambda g: _accum(a, np.broadcast_to(g, a.shape)))


# ---------------------------------------------------------------------------
# tags as text
# ---------------------------------------------------------------------------

def inject_tags(doc: RawDocument, tagset: str) -> list[tuple[str, str]]:
    """Segment a whole document into (role, sentence) pairs, wrapping
    sentences in their role's tags unless tagset is "none".

    The title is one sentence regardless of punctuation. The reduced tagset
    merges TITLE and ABSTRACT into one role.
    """
    tp._check_tagset(tagset)
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
    return tp.TAG_RE.sub("", sentence).strip()


# ---------------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------------

def split_corpus(docs: list[RawDocument]) -> dict[str, list[RawDocument]]:
    out: dict[str, list[RawDocument]] = {name: [] for name in SPLITS}
    for doc in docs:
        out[doc.split].append(doc)
    return out
