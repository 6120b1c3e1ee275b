"""The linear, cutoff-bounded prepare path against the quadratic oracle.

The oracle is the original segmenter: it copies the rest of the text at
every punctuation mark, and the original prepare segmented every field in
full before the cutoff and tokenized each train sentence twice. Both live on
here only as the reference the fast path must reproduce exactly.
"""

import dataclasses
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import split_corpus
from hanst import synth
from hanst import textprep as tp
from hanst.corpus import RawDocument
from hanst.errors import DegenerateInputError


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def oracle_segment_sentences(text: str) -> list[str]:
    boundaries = []
    for m in tp._BOUNDARY_RE.finditer(text):
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
        if "." in m.group() and tp._is_abbreviation(text, end):
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


def oracle_kept(doc: RawDocument, cutoff) -> list[tuple[str, str]]:
    parts = oracle_parts(doc)
    return parts[: len(tp.apply_cutoff([s for _, s in parts], cutoff))]


def oracle_encode_document(doc, vocab, tagset, cutoff) -> tp.TaggedDocument:
    """Cut the fully segmented document, tag each sentence as text, tokenize."""
    merge = tp._ROLE_MERGE.get(tagset, {})
    sentences, roles = [], []
    for role, sent in oracle_kept(doc, cutoff):
        role = merge.get(role, role)
        if tagset != "none":
            sent = f"{tp.open_tag(role)} {sent} {tp.close_tag(role)}"
        ids = [vocab.encode(t) for t in tp.tokenize(sent)]
        if ids:
            sentences.append(ids)
            roles.append(role)
    if not sentences:
        sentences, roles = [[tp.UNK_ID]], ["BODY_TEXT"]
    return tp.TaggedDocument(id=doc.id, sentences=sentences, roles=roles, label=dict(doc.label))


def oracle_prepare(docs, tagset, cutoff, vocab_size):
    token_lists = [tp.tokenize(sent)
                   for doc in split_corpus(docs)["train"]
                   for _, sent in oracle_kept(doc, cutoff)]
    vocab = tp.build_vocabulary(token_lists, max_size=vocab_size,
                                forced_tokens=tp.tag_tokens(tagset))
    return vocab, [oracle_encode_document(doc, vocab, tagset, cutoff) for doc in docs]


# ---------------------------------------------------------------------------
# generated text
# ---------------------------------------------------------------------------

WORDS = ["Fig.", "fig.", "al.", "et", "e.g.", "i.e.", "J.", "Smith", "cat", "dog.",
         "Dog", "ran?!", "Why?", "Stop!", "...", "3", "42.", "v1.2", "É", "Über",
         "ünder", "Ωmega.", "x.", "A.", "<TITLE>", "</B", "(a).", "3.5", "Σ", "ß."]
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


# ---------------------------------------------------------------------------
# segmenter
# ---------------------------------------------------------------------------

class TestSegmenterMatchesOracle:
    @settings(max_examples=300, deadline=None)
    @given(edged_texts)
    def test_generated_text(self, text):
        assert tp.segment_sentences(text) == oracle_segment_sentences(text)

    @settings(max_examples=200, deadline=None)
    @given(st.text(max_size=200))
    def test_arbitrary_text(self, text):
        assert tp.segment_sentences(text) == oracle_segment_sentences(text)

    @settings(max_examples=400, deadline=None)
    @given(edged_texts, st.integers(0, 40), st.integers(-2, 2))
    def test_max_chars_stops_at_first_sentence_past_it(self, text, k, delta):
        full = tp.segment_sentences(text)
        lengths = running_lengths(full)
        # limits at and around a sentence end, where an off-by-one shows
        max_chars = (lengths[k % len(lengths)] if lengths else 0) + delta
        bounded = tp.segment_sentences(text, max_chars)
        assert bounded == full[: len(bounded)]
        past = [i for i, n in enumerate(lengths) if n > max_chars]
        assert len(bounded) == (past[0] + 1 if past else len(full))

    def test_segments_long_body_in_linear_time(self):
        sentence = "Results in Fig. 2 hold for e.g. large inputs as J. Smith showed. "
        body = sentence * (1_600_000 // len(sentence) + 1)
        start = time.perf_counter()
        out = tp.segment_sentences(body)
        elapsed = time.perf_counter() - start
        assert len(out) == body.count("showed.")
        assert elapsed < 1.5, f"segmenting {len(body)} chars took {elapsed:.2f} s"


# ---------------------------------------------------------------------------
# tokenizer
# ---------------------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(st.one_of(edged_texts, st.text(max_size=80)),
       st.sampled_from(["TITLE", "ABSTRACT", "BODY_TEXT", "TITLE_ABSTRACT"]))
def test_tags_tokenize_atomically_around_a_sentence(sentence, role):
    tagged = f"{tp.open_tag(role)} {sentence} {tp.close_tag(role)}"
    assert tp.tokenize(tagged) == [tp.open_tag(role)] + tp.tokenize(sentence) + [tp.close_tag(role)]


# ---------------------------------------------------------------------------
# bounded cut and one-pass prepare
# ---------------------------------------------------------------------------

def make_raw(title, abstract, body, split="train"):
    return RawDocument(id="d", title=title, abstract=abstract, body_text=body,
                       label={"accepted": True}, split=split)


@settings(max_examples=400, deadline=None)
@given(texts, edged_texts, edged_texts, st.integers(0, 60), st.integers(-2, 2))
def test_fields_segmented_only_as_far_as_the_cutoff_reaches(title, abstract, body, k, delta):
    doc = make_raw(title, abstract, body)
    full = oracle_parts(doc)
    lengths = running_lengths([s for _, s in full])
    limit = max(1, (lengths[k % len(lengths)] if lengths else 1) + delta)
    parts = tp._segment_fields(doc, limit)
    assert parts == full[: len(parts)]
    past = [i for i, n in enumerate(lengths) if n > limit]
    assert len(parts) == (past[0] + 1 if past else len(full))
    cutoff = tp.CharacterLimit(limit)
    assert tp.kept_sentences(doc, cutoff) == oracle_kept(doc, cutoff)


@settings(max_examples=200, deadline=None)
@given(texts, edged_texts, edged_texts, st.integers(1, 250))
def test_kept_sentences_match_full_segmentation_then_cutoff(title, abstract, body, limit):
    doc = make_raw(title, abstract, body)
    cutoff = tp.CharacterLimit(limit)
    assert tp.kept_sentences(doc, cutoff) == oracle_kept(doc, cutoff)


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
    cutoff = tp.CharacterLimit(max_chars)
    vocab, encoded = tp.prepare_corpus(docs, tagset, cutoff, vocab_size)
    want_vocab, want_encoded = oracle_prepare(docs, tagset, cutoff, vocab_size)
    assert vocab.to_json_array() == want_vocab.to_json_array()
    assert encoded == want_encoded
    assert [tp.encode_document(d, vocab, tagset, cutoff) for d in docs] == want_encoded


def test_prepare_corpus_needs_train_text():
    docs = [make_raw("", "", "Only test text.", split="test")]
    with pytest.raises(DegenerateInputError):
        tp.prepare_corpus(docs, "full", tp.CharacterLimit(100), 50)
