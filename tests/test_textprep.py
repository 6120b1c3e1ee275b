import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import inject_tags, split_corpus, strip_tags
from hanst import textprep as tp
from hanst.corpus import RawDocument, load_corpus, save_corpus
from hanst.errors import ConfigurationError, CorpusFormatError, EmbeddingFormatError


def make_doc(title="A Title", abstract="First point. Second point.",
             body="Body one. Body two. Body three.", label=None, doc_id="d1"):
    return RawDocument(id=doc_id, title=title, abstract=abstract, body_text=body,
                       label=label or {"accepted": True})


class TestSegmentSentences:
    def test_two_sentences(self):
        assert tp.segment_sentences("A cat. A dog.") == ["A cat.", "A dog."]

    def test_empty(self):
        assert tp.segment_sentences("") == []

    def test_abbreviation_not_boundary(self):
        out = tp.segment_sentences("See Fig. 2 for details. Next sentence.")
        assert out == ["See Fig. 2 for details.", "Next sentence."]

    def test_et_al(self):
        out = tp.segment_sentences("We follow Smith et al. We extend their method.")
        assert out == ["We follow Smith et al. We extend their method."]

    def test_single_capital_initial(self):
        out = tp.segment_sentences("J. Smith wrote it. Then came more.")
        assert out == ["J. Smith wrote it.", "Then came more."]

    def test_question_and_exclamation(self):
        out = tp.segment_sentences("Really?! Yes. Indeed!")
        assert out == ["Really?!", "Yes.", "Indeed!"]

    def test_lowercase_continuation_not_boundary(self):
        out = tp.segment_sentences("This is v1.2 of the tool. it continues here. Done.")
        assert out[0] == "This is v1.2 of the tool. it continues here."

    def test_digit_starts_sentence(self):
        out = tp.segment_sentences("We ran trials. 30 of them failed.")
        assert out == ["We ran trials.", "30 of them failed."]

    @settings(max_examples=60, deadline=None)
    @given(st.text(alphabet=st.characters(codec="ascii", exclude_categories=("Cc",)), max_size=120))
    def test_reconstruction(self, text):
        joined = "".join("".join(s.split()) for s in tp.segment_sentences(text))
        assert joined == "".join(text.split())

    @settings(max_examples=60, deadline=None)
    @given(st.text(max_size=120))
    def test_no_empty_segments(self, text):
        assert all(s.strip() for s in tp.segment_sentences(text))


class TestInjectTags:
    def test_title_tagging_matches_reference_format(self):
        doc = make_doc(title="Cross-Task Knowledge-Constrained Self Training", abstract="", body="")
        out = inject_tags(doc, "full")
        assert out[0] == ("TITLE", "<TITLE> Cross-Task Knowledge-Constrained Self Training </TITLE>")

    def test_none_leaves_text_unchanged(self):
        doc = make_doc()
        tagged = inject_tags(doc, "none")
        assert [s for _, s in tagged] == [doc.title] + tp.segment_sentences(doc.abstract) + tp.segment_sentences(doc.body_text)

    def test_reduced_merges_title_and_abstract(self):
        doc = make_doc(abstract="One finding. Another finding.", body="")
        out = inject_tags(doc, "reduced")
        assert len(out) == 3
        for role, sent in out:
            assert role == "TITLE_ABSTRACT"
            assert sent.startswith("<TITLE_ABSTRACT> ")
            assert sent.endswith(" </TITLE_ABSTRACT>")

    def test_reduced_equals_full_with_roles_relabeled(self):
        doc = make_doc()
        full = inject_tags(doc, "full")
        reduced = inject_tags(doc, "reduced")
        for (rf, sf), (rr, sr) in zip(full, reduced):
            expected = "TITLE_ABSTRACT" if rf in ("TITLE", "ABSTRACT") else rf
            assert rr == expected
            assert strip_tags(sf) == strip_tags(sr)

    def test_title_not_segmented(self):
        doc = make_doc(title="Attention. Is. All. You. Need.", abstract="", body="")
        out = inject_tags(doc, "full")
        assert len(out) == 1

    def test_body_role(self):
        doc = make_doc(title="", abstract="", body="Only body here.")
        out = inject_tags(doc, "full")
        assert out == [("BODY_TEXT", "<BODY_TEXT> Only body here. </BODY_TEXT>")]

    def test_strip_tags_round_trip(self):
        doc = make_doc()
        untagged = [s for _, s in inject_tags(doc, "none")]
        stripped = [strip_tags(s) for _, s in inject_tags(doc, "full")]
        assert stripped == untagged

    def test_tag_well_formedness(self):
        doc = make_doc()
        for tagset in ("full", "reduced"):
            for role, sent in inject_tags(doc, tagset):
                tokens = tp.tokenize(sent)
                assert tokens[0] == tp.open_tag(role)
                assert tokens[-1] == tp.close_tag(role)
                assert not any(tp.TAG_RE.fullmatch(t) for t in tokens[1:-1])

    def test_unknown_tagset(self):
        with pytest.raises(ConfigurationError):
            inject_tags(make_doc(), "positional")


class TestApplyCutoff:
    def test_character_limit_keeps_short_docs(self):
        sents = ["x" * 10] * 3
        assert tp.apply_cutoff(sents, tp.CharacterLimit(20000)) == sents

    def test_character_limit_boundary(self):
        sents = ["a" * 9000, "b" * 9000, "c" * 9000]
        assert tp.apply_cutoff(sents, tp.CharacterLimit(20000)) == sents[:2]

    def test_always_keeps_first_sentence(self):
        assert tp.apply_cutoff(["x" * 50], tp.CharacterLimit(10)) == ["x" * 50]

    def test_empty_input(self):
        assert tp.apply_cutoff([], tp.CharacterLimit(100)) == []

    def test_invalid_limits(self):
        with pytest.raises(ConfigurationError):
            tp.CharacterLimit(0)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.text(alphabet="ab", min_size=1, max_size=12), min_size=1, max_size=15),
           st.integers(1, 120), st.integers(0, 60))
    def test_character_limit_monotone_prefix(self, sents, n1, extra):
        small = tp.apply_cutoff(sents, tp.CharacterLimit(n1))
        large = tp.apply_cutoff(sents, tp.CharacterLimit(n1 + extra))
        assert small == large[: len(small)]
        assert small == sents[: len(small)]


def _split_word(chunk: str) -> list[str]:
    """Peel punctuation off both edges of a whitespace-delimited chunk."""
    lead = []
    while chunk and not chunk[0].isalnum():
        lead.append(chunk[0])
        chunk = chunk[1:]
    trail = []
    while chunk and not chunk[-1].isalnum():
        trail.append(chunk[-1])
        chunk = chunk[:-1]
    tokens = lead
    if chunk:
        tokens.append(chunk)
    tokens.extend(reversed(trail))
    return tokens


def tokenize_oracle(sentence: str) -> list[str]:
    """The original tokenizer: str.split, then _split_word on each chunk."""
    tokens: list[str] = []
    pos = 0
    for m in tp.TAG_RE.finditer(sentence):
        for chunk in sentence[pos:m.start()].lower().split():
            tokens.extend(_split_word(chunk))
        tokens.append(m.group())
        pos = m.end()
    for chunk in sentence[pos:].lower().split():
        tokens.extend(_split_word(chunk))
    return tokens


# underscore (\w but not alnum), combining marks, İ (lowercases to i + U+0307),
# non-ASCII digits and letters, NBSP, \x1c and U+2028 (str.isspace), tags
_TOKENIZE_PIECES = ["a", "Z", "7", "\u00b2", "\u00df", "\u03a3", "\u0130", "_", ".", ",", "-",
                    "'", "(", ")", "\u0301", "\u0307", " ", "\t", "\n", "\xa0", "\x1c",
                    "\u2028", "<TITLE>", "</BODY_TEXT>", "<", ">", "<x>"]


class TestTokenize:
    def test_simple(self):
        assert tp.tokenize("A cat.") == ["a", "cat", "."]

    def test_tags_atomic_and_case_preserved(self):
        assert tp.tokenize("<TITLE> Self Training </TITLE>") == ["<TITLE>", "self", "training", "</TITLE>"]

    def test_empty(self):
        assert tp.tokenize("") == []

    def test_edge_punctuation(self):
        assert tp.tokenize("(hello),") == ["(", "hello", ")", ","]

    def test_interior_punctuation_kept(self):
        assert tp.tokenize("cross-task don't 3.5") == ["cross-task", "don't", "3.5"]

    def test_tag_without_surrounding_space(self):
        assert tp.tokenize("<TITLE>Self Training </TITLE>") == ["<TITLE>", "self", "training", "</TITLE>"]

    def test_lowercasing(self):
        assert tp.tokenize("The BiLSTM Model") == ["the", "bilstm", "model"]

    @settings(max_examples=400, deadline=None)
    @given(st.one_of(st.lists(st.sampled_from(_TOKENIZE_PIECES), max_size=30).map("".join),
                     st.text(max_size=40)))
    def test_matches_edge_peeling_oracle(self, text):
        assert tp.tokenize(text) == tokenize_oracle(text)


class TestVocabulary:
    def test_small_corpus_keeps_everything(self):
        vocab = tp.build_vocabulary([["a", "b", "c"], ["d", "e", "a"]])
        assert len(vocab) == 5 + 2

    def test_tie_broken_lexicographically(self):
        vocab = tp.build_vocabulary([["zebra", "apple"]], max_size=1)
        assert "apple" in vocab
        assert "zebra" not in vocab

    def test_frequency_order_gives_lower_ids(self):
        vocab = tp.build_vocabulary([["b", "b", "a"]])
        assert vocab.encode("b") < vocab.encode("a")

    def test_cap_keeps_most_frequent(self):
        # 12000 distinct tokens, frequency = token index + 1
        token_lists = [[f"t{i:05d}"] * (i + 1) for i in range(12000)]
        vocab = tp.build_vocabulary(token_lists, max_size=10000)
        assert len(vocab) == 10000 + 2
        counts = {f"t{i:05d}": i + 1 for i in range(12000)}
        kept = [t for t in vocab.to_json_array()[2:]]
        expected = set(sorted(counts, key=lambda t: (-counts[t], t))[:10000])
        assert set(kept) == expected

    def test_forced_tags_survive_and_count_against_cap(self):
        tags = tp.tag_tokens("full")
        token_lists = [[f"w{i}"] * 5 for i in range(20)]
        vocab = tp.build_vocabulary(token_lists, max_size=10, forced_tokens=tags)
        for t in tags:
            assert t in vocab
        assert len(vocab) == 10 + 2

    def test_empty_corpus(self):
        vocab = tp.build_vocabulary([])
        assert len(vocab) == 2
        assert vocab.decode(tp.PAD_ID) == tp.PAD_TOKEN
        assert vocab.decode(tp.UNK_ID) == tp.UNK_TOKEN

    def test_unknown_maps_to_unk(self):
        vocab = tp.build_vocabulary([["hello"]])
        assert vocab.encode("unseen") == tp.UNK_ID

    def test_save_load_round_trip(self, tmp_path):
        vocab = tp.build_vocabulary([["a", "b", "b"]])
        path = tmp_path / "vocab.json"
        vocab.save(path)
        loaded = tp.Vocabulary.load(path)
        assert loaded.to_json_array() == vocab.to_json_array()
        assert loaded.sha256() == vocab.sha256()

    def test_persisted_as_json_array_ordered_by_id(self, tmp_path):
        vocab = tp.build_vocabulary([["y", "x"]])
        path = tmp_path / "vocab.json"
        vocab.save(path)
        arr = json.loads(path.read_text())
        assert isinstance(arr, list)
        assert arr == [vocab.decode(i) for i in range(len(vocab))]

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.text(alphabet="abc", min_size=1, max_size=3), max_size=20))
    def test_encoding_totality(self, tokens):
        vocab = tp.build_vocabulary([tokens], max_size=5)
        for t in tokens:
            decoded = vocab.decode(vocab.encode(t))
            assert decoded in (t, tp.UNK_TOKEN)


class TestLoadEmbeddings:
    def write(self, tmp_path, lines):
        path = tmp_path / "emb.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def test_file_rows_copied(self, tmp_path):
        vocab = tp.build_vocabulary([["cat", "dog"]])
        path = self.write(tmp_path, ["cat 1.0 2.0", "dog 3.0 4.0"])
        mat = tp.load_embeddings(path, vocab, 2, np.random.default_rng(0))
        np.testing.assert_array_equal(mat[vocab.encode("cat")], [1.0, 2.0])
        np.testing.assert_array_equal(mat[vocab.encode("dog")], [3.0, 4.0])

    def test_pad_row_zero(self, tmp_path):
        vocab = tp.build_vocabulary([["cat"]])
        path = self.write(tmp_path, ["cat 1.0 2.0"])
        mat = tp.load_embeddings(path, vocab, 2, np.random.default_rng(0))
        np.testing.assert_array_equal(mat[tp.PAD_ID], [0.0, 0.0])

    def test_missing_token_within_xavier_bound(self, tmp_path):
        vocab = tp.build_vocabulary([["cat", "dog"]])
        path = self.write(tmp_path, ["cat 1.0 2.0"])
        mat = tp.load_embeddings(path, vocab, 2, np.random.default_rng(0))
        bound = np.sqrt(6.0 / (len(vocab) + 2))
        assert np.abs(mat[vocab.encode("dog")]).max() <= bound

    def test_dimension_mismatch_reports_line(self, tmp_path):
        vocab = tp.build_vocabulary([["cat", "dog"]])
        path = self.write(tmp_path, ["cat 1.0 2.0", "dog 3.0"])
        with pytest.raises(EmbeddingFormatError, match="line 2"):
            tp.load_embeddings(path, vocab, 2, np.random.default_rng(0))

    def test_extra_file_tokens_ignored(self, tmp_path):
        vocab = tp.build_vocabulary([["cat"]])
        path = self.write(tmp_path, ["cat 1.0 2.0", "unrelated 9.0 9.0"])
        mat = tp.load_embeddings(path, vocab, 2, np.random.default_rng(0))
        assert mat.shape == (len(vocab), 2)


class TestEncodeDocument:
    def test_cutoff_is_tagset_independent(self):
        body = " ".join(f"Sentence number {i} is here." for i in range(200))
        doc = make_doc(body=body)
        vocab = tp.build_vocabulary([tp.tokenize(s) for _, s in inject_tags(doc, "none")],
                                    forced_tokens=tp.tag_tokens("full"))
        cut = tp.CharacterLimit(300)
        lengths = {tagset: len(tp.encode_document(doc, vocab, tagset, cut).sentences)
                   for tagset in ("full", "reduced", "none")}
        assert len(set(lengths.values())) == 1

    def test_tagged_sentences_bracketed_by_tag_ids(self):
        doc = make_doc()
        sents = [tp.tokenize(s) for _, s in inject_tags(doc, "full")]
        vocab = tp.build_vocabulary(sents, forced_tokens=tp.tag_tokens("full"))
        enc = tp.encode_document(doc, vocab, "full", tp.CharacterLimit(20000))
        for ids, role in zip(enc.sentences, enc.roles):
            assert ids[0] == vocab.encode(tp.open_tag(role))
            assert ids[-1] == vocab.encode(tp.close_tag(role))

    def test_empty_document_yields_unk_sentence(self):
        doc = make_doc(title="", abstract="", body="")
        vocab = tp.build_vocabulary([])
        enc = tp.encode_document(doc, vocab, "none", tp.CharacterLimit(20000))
        assert enc.sentences == [[tp.UNK_ID]]

    def test_label_carried_through(self):
        doc = make_doc(label={"citation_count": 7})
        vocab = tp.build_vocabulary([["a"]])
        enc = tp.encode_document(doc, vocab, "none", tp.CharacterLimit(5))
        assert enc.label == {"citation_count": 7}


class TestCorpusIO:
    def test_round_trip(self, tmp_path):
        docs = [make_doc(doc_id="a"), make_doc(doc_id="b", label={"citation_count": 3})]
        path = tmp_path / "corpus.jsonl"
        save_corpus(docs, path)
        loaded = load_corpus(path)
        assert [d.to_json() for d in loaded] == [d.to_json() for d in docs]

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "a", "title": "t", "abstract": "", "body_text": "", "label": {"accepted": true}}\n{broken\n')
        with pytest.raises(CorpusFormatError, match="line 2"):
            load_corpus(path)

    def test_missing_field(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "a", "title": "t"}\n')
        with pytest.raises(CorpusFormatError, match="line 1"):
            load_corpus(path)

    def test_duplicate_id(self, tmp_path):
        docs = [make_doc(doc_id="a")]
        path = tmp_path / "c.jsonl"
        save_corpus(docs + docs, path)
        with pytest.raises(CorpusFormatError, match="duplicate"):
            load_corpus(path)

    def test_label_validation(self):
        with pytest.raises(CorpusFormatError):
            RawDocument(id="x", title="", abstract="", body_text="", label={})
        with pytest.raises(CorpusFormatError):
            RawDocument(id="x", title="", abstract="", body_text="", label={"accepted": 1})
        with pytest.raises(CorpusFormatError):
            RawDocument(id="x", title="", abstract="", body_text="", label={"citation_count": -1})
        with pytest.raises(CorpusFormatError):
            RawDocument(id="x", title="", abstract="", body_text="", label={"grade": 3})

    def test_dual_label_allowed(self):
        doc = RawDocument(id="x", title="", abstract="", body_text="",
                          label={"accepted": True, "citation_count": 12})
        assert doc.accepted and doc.citation_count == 12

    def test_bad_split(self):
        with pytest.raises(CorpusFormatError, match="split"):
            RawDocument(id="x", title="", abstract="", body_text="",
                        label={"accepted": True}, split="dev")

    def test_split_corpus_groups(self):
        docs = [RawDocument(id=f"d{i}", title="", abstract="", body_text="x",
                            label={"accepted": True}, split=s)
                for i, s in enumerate(["train", "test", "train", "valid"])]
        groups = split_corpus(docs)
        assert [d.id for d in groups["train"]] == ["d0", "d2"]
        assert [d.id for d in groups["valid"]] == ["d3"]
        assert [d.id for d in groups["test"]] == ["d1"]
