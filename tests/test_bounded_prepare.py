"""The linear, cutoff-bounded prepare path against the quadratic oracle.

The oracle is the original segmenter: it copies the rest of the text at
every punctuation mark, and the original prepare segmented every field in
full before the cutoff and tokenized each train sentence twice. Both live on
here only as the reference the fast path must reproduce exactly. The last
test bounds how prepare's peak memory grows with the corpus.
"""

import contextlib
import dataclasses
import gc
import io
import json
import re
import time
import tracemalloc
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import split_corpus, tokenize_oracle
from hanst import cli, synth
from hanst import textprep as tp
from hanst.corpus import RawDocument, save_corpus
from hanst.errors import DegenerateInputError


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

_PUNCTUATION_RUN_RE = re.compile(r"[.!?]+")


def oracle_is_abbreviation(text: str, end: int) -> bool:
    """The word ending at `end`, found by walking back to whitespace, is on
    the stop-list or is a single-capital initial such as "J."."""
    start = end
    while start > 0 and not text[start - 1].isspace():
        start -= 1
    word = text[start:end]
    return word.lower() in tp._ABBREVIATIONS or (
        len(word) == 2 and word[0].isupper() and word[0].isalpha() and word[1] == ".")


def oracle_segment_sentences(text: str) -> list[str]:
    boundaries = []
    for m in _PUNCTUATION_RUN_RE.finditer(text):
        end = m.end()
        rest = text[end:]
        if not rest or not rest[0].isspace():
            continue
        stripped = rest.lstrip()
        if not stripped:
            continue
        first = stripped[0]
        if not (first.isupper() or first.isdigit()):
            continue
        if "." in m.group() and oracle_is_abbreviation(text, end):
            continue
        boundaries.append(end)
    pieces = []
    start = 0
    for end in boundaries + [len(text)]:
        piece = text[start:end].strip()
        if piece:
            pieces.append(piece)
        start = end
    return pieces


def oracle_parts(doc: RawDocument) -> list[tuple[str, str]]:
    """Every (role, sentence) pair of a document, each field segmented in full."""
    parts = [("TITLE", doc.title.strip())] if doc.title.strip() else []
    for role, text in (("ABSTRACT", doc.abstract), ("BODY_TEXT", doc.body_text)):
        parts.extend((role, sent) for sent in oracle_segment_sentences(text))
    return parts


def oracle_kept(doc: RawDocument, max_chars: int) -> list[tuple[str, str]]:
    parts = oracle_parts(doc)
    return parts[: len(tp.apply_cutoff([s for _, s in parts], max_chars))]


def oracle_encode_document(doc, vocab, tagset, max_chars) -> tp.TaggedDocument:
    """Cut the fully segmented document, tokenize, put tag ids around each sentence."""
    merge = tp._ROLE_MERGE.get(tagset, {})
    sentences, roles = [], []
    for role, sent in oracle_kept(doc, max_chars):
        role = merge.get(role, role)
        ids = [vocab.encode(t) for t in tokenize_oracle(sent)]
        if tagset != "none":
            ids = [vocab.encode(tp.open_tag(role))] + ids + [vocab.encode(tp.close_tag(role))]
        if ids:
            sentences.append(ids)
            roles.append(role)
    if not sentences:
        sentences, roles = [[tp.UNK_ID]], ["BODY_TEXT"]
    return tp.TaggedDocument(id=doc.id, sentences=sentences, roles=roles, label=dict(doc.label))


def oracle_prepare(docs, tagset, max_chars, vocab_size):
    counts = Counter(token for doc in split_corpus(docs)["train"]
                     for _, sent in oracle_kept(doc, max_chars) for token in tokenize_oracle(sent))
    vocab = tp.build_vocabulary(counts, max_size=vocab_size,
                                forced_tokens=tp.tag_tokens(tagset))
    return vocab, [oracle_encode_document(doc, vocab, tagset, max_chars) for doc in docs]


# ---------------------------------------------------------------------------
# generated text
# ---------------------------------------------------------------------------

WORDS = ["Fig.", "fig.", "al.", "et", "e.g.", "i.e.", "J.", "Smith", "cat", "dog.",
         "Dog", "ran?!", "Why?", "Stop!", "...", "3", "42.", "v1.2", "É", "Über",
         "ünder", "Ωmega.", "x.", "A.", "<TITLE>", "</B", "(a).", "3.5", "Σ", "ß.",
         "snake_case", "--", "İstanbul."]
SPACES = [" ", "  ", "\n", "\t", " ", " ", "　", "\x1c", " ", " \n "]

texts = st.lists(st.tuples(st.sampled_from(WORDS), st.sampled_from(SPACES)),
                 max_size=40).map(lambda pairs: "".join(w + s for w, s in pairs))
edged_texts = st.tuples(st.sampled_from(["", " ", " "]), texts,
                        st.sampled_from(["", " ", "."])).map("".join)


def running_lengths(sentences):
    """The running length after each sentence, one separator between them."""
    out, total = [], -1
    for sent in sentences:
        total += 1 + len(sent)
        out.append(total)
    return out


def make_raw(title, abstract, body, split="train"):
    return RawDocument(id="d", title=title, abstract=abstract, body_text=body,
                       label={"accepted": True}, split=split)


def counting_segmenter(pulled: list):
    """tp.segment_sentences that appends each sentence to `pulled` as it is pulled."""
    original = tp.segment_sentences

    def segment(text):
        for sent in original(text):
            pulled.append(sent)
            yield sent
    return segment


# ---------------------------------------------------------------------------
# segmenter
# ---------------------------------------------------------------------------

class TestSegmenterMatchesOracle:
    @settings(max_examples=300, deadline=None)
    @given(edged_texts)
    def test_generated_text(self, text):
        assert list(tp.segment_sentences(text)) == oracle_segment_sentences(text)

    @settings(max_examples=200, deadline=None)
    @given(st.text(max_size=200))
    def test_arbitrary_text(self, text):
        assert list(tp.segment_sentences(text)) == oracle_segment_sentences(text)

    @settings(max_examples=400, deadline=None)
    @given(edged_texts, st.integers(0, 40), st.integers(-2, 2))
    def test_max_chars_stops_at_first_sentence_past_it(self, text, k, delta):
        full = oracle_segment_sentences(text)
        lengths = running_lengths(full)
        # limits at and around a sentence end, where an off-by-one shows
        max_chars = (lengths[k % len(lengths)] if lengths else 0) + delta
        pulled = []
        with mock.patch.object(tp, "segment_sentences", counting_segmenter(pulled)):
            tp.kept_sentences(make_raw("", "", text), max_chars)
        assert pulled == full[: len(pulled)]
        past = [i for i, n in enumerate(lengths) if n > max_chars]
        assert len(pulled) == (past[0] + 1 if past else len(full))

    def test_segments_long_body_in_linear_time(self):
        sentence = "Results in Fig. 2 hold for e.g. large inputs as J. Smith showed. "
        body = sentence * (1_600_000 // len(sentence) + 1)
        start = time.perf_counter()
        out = list(tp.segment_sentences(body))
        elapsed = time.perf_counter() - start
        assert len(out) == body.count("showed.")
        assert elapsed < 1.5, f"segmenting {len(body)} chars took {elapsed:.2f} s"


# ---------------------------------------------------------------------------
# bounded cut and one-pass prepare
# ---------------------------------------------------------------------------

@settings(max_examples=400, deadline=None)
@given(texts, edged_texts, edged_texts, st.integers(0, 60), st.integers(-2, 2))
def test_fields_segmented_only_as_far_as_the_cutoff_reaches(title, abstract, body, k, delta):
    doc = make_raw(title, abstract, body)
    full = oracle_parts(doc)
    lengths = running_lengths([s for _, s in full])
    # limits at and around a sentence end, where an off-by-one shows
    limit = max(1, (lengths[k % len(lengths)] if lengths else 1) + delta)
    want = oracle_kept(doc, limit)
    pulled = []
    with mock.patch.object(tp, "segment_sentences", counting_segmenter(pulled)):
        assert tp.kept_sentences(doc, limit) == want
    past = [i for i, n in enumerate(lengths) if n > limit]
    reach = past[0] + 1 if past else len(full)
    titled = 1 if title.strip() else 0
    assert pulled == [s for _, s in full[titled:reach]]


@settings(max_examples=200, deadline=None)
@given(texts, edged_texts, edged_texts, st.integers(1, 250))
def test_kept_sentences_match_full_segmentation_then_cutoff(title, abstract, body, limit):
    doc = make_raw(title, abstract, body)
    assert tp.kept_sentences(doc, limit) == oracle_kept(doc, limit)


def resplit(docs):
    """Spread documents over the three splits, so non-train encoding runs too."""
    names = ("train", "train", "train", "valid", "test")
    return [dataclasses.replace(d, split=names[i % len(names)]) for i, d in enumerate(docs)]


CORPORA = {
    "heterogeneous": resplit(synth.heterogeneous_length_corpus(n_docs=10, n_sentences=600)),
    "tag-probe": synth.tag_probe_corpus(n_docs=40),
}


@pytest.mark.parametrize("corpus", sorted(CORPORA))
@pytest.mark.parametrize("tagset", tp.TAGSETS)
@pytest.mark.parametrize("max_chars,vocab_size", [(20000, 200), (300, 10000), (1, 50)])
def test_prepare_corpus_matches_old_composition(corpus, tagset, max_chars, vocab_size):
    docs = CORPORA[corpus]
    vocab, encoded = tp.prepare_corpus(docs, tagset, max_chars, vocab_size)
    want_vocab, want_encoded = oracle_prepare(docs, tagset, max_chars, vocab_size)
    assert vocab.to_json_array() == want_vocab.to_json_array()
    assert list(encoded) == want_encoded
    assert [tp.encode_document(d, vocab, tagset, max_chars) for d in docs] == want_encoded


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(texts, edged_texts, edged_texts, st.sampled_from(["train", "valid"])),
                max_size=4),
       st.sampled_from(tp.TAGSETS), st.integers(1, 250), st.integers(6, 30))
def test_prepare_corpus_matches_oracle_on_generated_text(fields, tagset, max_chars, vocab_size):
    # a titled train document first, so the train split always has text
    docs = [dataclasses.replace(make_raw(*parts[:3], split=parts[3]), id=f"d{i}")
            for i, parts in enumerate([("Title", "", "", "train"), *fields])]
    vocab, encoded = tp.prepare_corpus(docs, tagset, max_chars, vocab_size)
    want_vocab, want_encoded = oracle_prepare(docs, tagset, max_chars, vocab_size)
    assert vocab.to_json_array() == want_vocab.to_json_array()
    assert list(encoded) == want_encoded


def test_prepare_corpus_needs_train_text():
    docs = [make_raw("", "", "Only test text.", split="test")]
    with pytest.raises(DegenerateInputError):
        tp.prepare_corpus(docs, "full", 100, 50)


# ---------------------------------------------------------------------------
# memory
# ---------------------------------------------------------------------------

def traced_prepare(tmp_path, n_docs):
    """Peak traced bytes of `hanst prepare` on `n_docs` heterogeneous
    documents at the default 20,000-char cutoff, and the tokens it kept."""
    corpus, out = tmp_path / f"corpus-{n_docs}.jsonl", tmp_path / f"data-{n_docs}"
    save_corpus(synth.heterogeneous_length_corpus(n_docs=n_docs), corpus)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"task": "classify", "model_kind": "han", "tagset": "none"}))
    gc.collect()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["prepare", str(corpus), "--config", str(cfg), "--out", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    with open(out / "prepared.jsonl", encoding="utf-8") as fh:
        fh.readline()
        kept = sum(len(sent) for line in fh for sent in json.loads(line)["sentences"])
    return peak, kept


def test_prepare_peak_grows_by_the_token_store_alone(tmp_path):
    # the token ids cost 4 bytes each; holding every train token as a str
    # until the vocabulary is built, as prepare once did, costs about 96 here
    (small_peak, small_kept), (large_peak, large_kept) = (
        traced_prepare(tmp_path, n) for n in (8, 32))
    per_token = (large_peak - small_peak) / (large_kept - small_kept)
    assert per_token <= 8, f"{per_token:.1f} bytes of peak per kept token"
