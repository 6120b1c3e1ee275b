"""Seeded synthetic corpora: the package's experiments and acceptance
checks run end-to-end without any external dataset."""

from __future__ import annotations

import numpy as np

from .corpus import RawDocument

_WORDS = [f"tok{i}" for i in range(40)]
KEYWORD = "zkeyword"
MINORITY_MARKER = "qmarker"
_NOISE_P = 0.25   # the share of tag_probe_corpus's non-first sentences that carry the keyword
_MINORITY_FRAC = 0.078   # imbalanced_corpus's share of accepted documents
_DENSITY = 0.35   # the chance that a word of a minority sentence is the marker
_STYLES = (4, 8, 16, 32)   # heterogeneous_length_corpus's words per sentence, by document


def _split_for(index: int, total: int) -> str:
    """Deterministic 60/20/20 split by position within a stratum."""
    r = index / total
    if r < 0.6:
        return "train"
    if r < 0.8:
        return "valid"
    return "test"


def _sentence(rng: np.random.Generator, keyword: str | None = None) -> str:
    words = [str(rng.choice(_WORDS)) for _ in range(int(rng.integers(5, 10)))]
    if keyword is not None:
        words[int(rng.integers(0, len(words)))] = keyword
    return " ".join(words).capitalize() + "."


def tag_probe_corpus(n_docs: int = 500, seed: int = 20240901) -> list[RawDocument]:
    """Corpus where the positive label means the keyword sits in the title.

    Three document types share one sentence distribution:
      positive (1/2): keyword in the title; body keyword-free except noise
      negative A (1/4): title without the keyword; first body sentence
        carries the keyword
      negative B (1/4): no title; first body sentence carries the keyword

    Every non-first sentence carries the keyword with ``_NOISE_P`` in all
    types, so keyword presence alone is uninformative. Without tags,
    positives and negative-B docs have identically distributed token
    streams; with tags the classes are exactly separable.
    """
    rng = np.random.default_rng(seed)
    n_pos = n_docs // 2
    n_neg_a = n_docs // 4
    n_neg_b = n_docs - n_pos - n_neg_a
    docs = []

    def body_sentences(count: int, first_keyword: bool) -> list[str]:
        sents = []
        for i in range(count):
            if i == 0 and first_keyword:
                sents.append(_sentence(rng, KEYWORD))
            elif rng.random() < _NOISE_P:
                sents.append(_sentence(rng, KEYWORD))
            else:
                sents.append(_sentence(rng))
        return sents

    # titles keep their final period so an untagged model cannot tell a
    # title apart from a leading body sentence by surface form alone
    for i in range(n_pos):
        m = int(rng.integers(3, 7))
        title = _sentence(rng, KEYWORD)
        body = body_sentences(m, first_keyword=False)
        docs.append(RawDocument(id=f"pos{i}", title=title, abstract="",
                                body_text=" ".join(body),
                                label={"accepted": True},
                                split=_split_for(i, n_pos)))
    for i in range(n_neg_a):
        m = int(rng.integers(3, 7))
        title = _sentence(rng)
        body = body_sentences(m, first_keyword=True)
        docs.append(RawDocument(id=f"nega{i}", title=title, abstract="",
                                body_text=" ".join(body),
                                label={"accepted": False},
                                split=_split_for(i, n_neg_a)))
    for i in range(n_neg_b):
        m = int(rng.integers(3, 7))
        body = body_sentences(m + 1, first_keyword=True)
        docs.append(RawDocument(id=f"negb{i}", title="", abstract="",
                                body_text=" ".join(body),
                                label={"accepted": False},
                                split=_split_for(i, n_neg_b)))
    return docs


def _marked_sentence(rng: np.random.Generator) -> str:
    words = [MINORITY_MARKER if rng.random() < _DENSITY else str(rng.choice(_WORDS))
             for _ in range(int(rng.integers(5, 10)))]
    if MINORITY_MARKER not in words:
        words[int(rng.integers(0, len(words)))] = MINORITY_MARKER
    return " ".join(words).capitalize() + "."


def imbalanced_corpus(n_docs: int = 500, seed: int = 20240902) -> list[RawDocument]:
    """Separable accept/reject task with a strong 92/8 class imbalance.

    Minority (accepted) documents are dense in a marker token; majority
    documents never contain it. The task is linearly separable, so failures
    to learn the minority class come from the imbalance alone.
    """
    rng = np.random.default_rng(seed)
    n_minority = max(1, round(n_docs * _MINORITY_FRAC))
    n_majority = n_docs - n_minority
    docs = []
    for i in range(n_minority):
        sents = [_marked_sentence(rng) for _ in range(int(rng.integers(2, 5)))]
        docs.append(RawDocument(id=f"min{i}", title=_sentence(rng)[:-1], abstract="",
                                body_text=" ".join(sents),
                                label={"accepted": True},
                                split=_split_for(i, n_minority)))
    for i in range(n_majority):
        sents = [_sentence(rng) for _ in range(int(rng.integers(2, 5)))]
        docs.append(RawDocument(id=f"maj{i}", title=_sentence(rng)[:-1], abstract="",
                                body_text=" ".join(sents),
                                label={"accepted": False},
                                split=_split_for(i, n_majority)))
    return docs


def heterogeneous_length_corpus(n_docs: int = 40, seed: int = 20240903,
                                n_sentences: int = 1100) -> list[RawDocument]:
    """Documents with author-specific words-per-sentence styles.

    Every document has the same sentence count but a fixed per-document
    sentence length, so sentence-count cutoffs spread total words widely
    while character cutoffs equalize them.
    """
    rng = np.random.default_rng(seed)
    docs = []
    for i in range(n_docs):
        k = _STYLES[i % len(_STYLES)]
        words = rng.choice(_WORDS, size=(n_sentences, k))
        sents = [" ".join(row).capitalize() + "." for row in words]
        docs.append(RawDocument(id=f"doc{i}", title="", abstract="",
                                body_text=" ".join(sents),
                                label={"accepted": bool(i % 2)},
                                split="train"))
    return docs


def citation_corpus(n_docs: int = 120, seed: int = 20240904) -> list[RawDocument]:
    """Regression corpus: citation counts grow with marker-token density."""
    rng = np.random.default_rng(seed)
    docs = []
    for i in range(n_docs):
        density = int(rng.integers(0, 4))
        sents = []
        for _ in range(int(rng.integers(2, 5))):
            sent = _sentence(rng, MINORITY_MARKER if rng.random() < density / 3.0 else None)
            sents.append(sent)
        citations = int(np.expm1(density) + rng.integers(0, 2))
        docs.append(RawDocument(id=f"cit{i}", title=_sentence(rng)[:-1], abstract="",
                                body_text=" ".join(sents),
                                label={"citation_count": citations},
                                split=_split_for(i, n_docs)))
    return docs


def dual_label_corpus(n_docs: int = 80, seed: int = 20240905) -> list[RawDocument]:
    """Docs carrying both labels: accepted papers draw higher citations."""
    rng = np.random.default_rng(seed)
    docs = []
    for i in range(n_docs):
        accepted = i % 2 == 0
        base = 12 if accepted else 1
        citations = int(rng.poisson(base))
        docs.append(RawDocument(id=f"dl{i}", title=_sentence(rng)[:-1], abstract="",
                                body_text=_sentence(rng),
                                label={"accepted": accepted, "citation_count": citations},
                                split="train"))
    return docs
