import json
import re
import sys
import time
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import inject_tags, split_corpus, strip_tags, tokenize_oracle
from hanst import textprep as tp
from hanst.corpus import RawDocument, load_corpus, save_corpus
from hanst.errors import ConfigurationError, CorpusFormatError, EmbeddingFormatError


def make_doc(title="A Title", abstract="First point. Second point.",
             body="Body one. Body two. Body three.", label=None, doc_id="d1"):
    return RawDocument(id=doc_id, title=title, abstract=abstract, body_text=body,
                       label=label or {"accepted": True})


class TestSegmentSentences:
    def test_two_sentences(self):
        assert list(tp.segment_sentences("A cat. A dog.")) == ["A cat.", "A dog."]

    def test_empty(self):
        assert list(tp.segment_sentences("")) == []

    def test_abbreviation_not_boundary(self):
        out = list(tp.segment_sentences("See Fig. 2 for details. Next sentence."))
        assert out == ["See Fig. 2 for details.", "Next sentence."]

    def test_et_al(self):
        out = list(tp.segment_sentences("We follow Smith et al. We extend their method."))
        assert out == ["We follow Smith et al. We extend their method."]

    def test_single_capital_initial(self):
        out = list(tp.segment_sentences("J. Smith wrote it. Then came more."))
        assert out == ["J. Smith wrote it.", "Then came more."]

    def test_question_and_exclamation(self):
        out = list(tp.segment_sentences("Really?! Yes. Indeed!"))
        assert out == ["Really?!", "Yes.", "Indeed!"]

    def test_lowercase_continuation_not_boundary(self):
        out = list(tp.segment_sentences("This is v1.2 of the tool. it continues here. Done."))
        assert out[0] == "This is v1.2 of the tool. it continues here."

    def test_abbreviation_read_within_the_look_back(self):
        # "approx." fills all but one character of the look-back; "(approx." fills it
        out = list(tp.segment_sentences("Fig. 2 is approx. 3 cm. Not (approx. It ends."))
        assert out == ["Fig. 2 is approx. 3 cm.", "Not (approx.", "It ends."]

    def test_word_longer_than_the_look_back_is_cut_and_closes(self):
        # the last 7 characters of "reapprox." are a stop-list entry
        for word in ("Bhattacharya.", "reapprox."):
            out = list(tp.segment_sentences(f"Cited by {word} Then more."))
            assert out == [f"Cited by {word}", "Then more."]

    def test_digit_starts_sentence(self):
        out = list(tp.segment_sentences("We ran trials. 30 of them failed."))
        assert out == ["We ran trials.", "30 of them failed."]

    @pytest.mark.parametrize("tail", ["", " ", " \n\t", "!!! "])
    def test_punctuation_at_the_end_of_the_text_closes_no_sentence(self, tail):
        # nothing but whitespace follows, so no sentence starts after it
        out = list(tp.segment_sentences("One ends. Two ends." + tail))
        assert out == ["One ends.", "Two ends." + tail.strip()]

    def test_long_punctuation_runs_are_scanned_once(self):
        # a run followed by a letter, then one followed by whitespace to the end
        text = "A" + "!" * 20_000 + "b " + "?" * 20_000 + " " * 20_000
        start = time.perf_counter()
        assert list(tp.segment_sentences(text)) == [text.strip()]
        assert time.perf_counter() - start < 1.0

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
        assert [s for _, s in tagged] == [doc.title] + list(tp.segment_sentences(doc.abstract)) + list(tp.segment_sentences(doc.body_text))

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
        # tags written in the text are text: their ids stay at the sentence ends
        doc = make_doc(title="Uses the <TITLE> token", body="Body one. See </BODY_TEXT> here.")
        for tagset in ("full", "reduced"):
            vocab, (enc,) = tp.prepare_corpus([doc], tagset, 20000, 100)
            tag_ids = {vocab.encode(tok) for tok in tp.tag_tokens(tagset)}
            for ids, role in zip(enc.sentences, enc.roles):
                assert ids[0] == vocab.encode(tp.open_tag(role))
                assert ids[-1] == vocab.encode(tp.close_tag(role))
                assert not tag_ids & set(ids[1:-1])

    def test_unknown_tagset(self):
        with pytest.raises(ConfigurationError):
            inject_tags(make_doc(), "positional")


class TestApplyCutoff:
    def test_character_limit_keeps_short_docs(self):
        sents = ["x" * 10] * 3
        assert tp.apply_cutoff(sents, 20000) == sents

    def test_character_limit_boundary(self):
        sents = ["a" * 9000, "b" * 9000, "c" * 9000]
        assert tp.apply_cutoff(sents, 20000) == sents[:2]

    def test_always_keeps_first_sentence(self):
        assert tp.apply_cutoff(["x" * 50], 10) == ["x" * 50]

    def test_empty_input(self):
        assert tp.apply_cutoff([], 100) == []

    def test_invalid_limits(self):
        doc = make_doc()
        vocab = tp.build_vocabulary(Counter(["a"]))
        for max_chars in (0, -5):
            with pytest.raises(ConfigurationError, match="max_chars must be >= 1"):
                tp.encode_document(doc, vocab, "none", max_chars)
            with pytest.raises(ConfigurationError, match="max_chars must be >= 1"):
                tp.prepare_corpus([doc], "none", max_chars, 50)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.text(alphabet="ab", min_size=1, max_size=12), min_size=1, max_size=15),
           st.integers(1, 120), st.integers(0, 60))
    def test_character_limit_monotone_prefix(self, sents, n1, extra):
        small = tp.apply_cutoff(sents, n1)
        large = tp.apply_cutoff(sents, n1 + extra)
        assert small == large[: len(small)]
        assert small == sents[: len(small)]


# underscore (\w but not alnum), combining marks, İ (lowercases to i + U+0307),
# non-ASCII digits and letters, NBSP, \x1c and U+2028 (str.isspace), the
# text forms of tags and reserved tokens
_TOKENIZE_PIECES = ["a", "Z", "7", "\u00b2", "\u00df", "\u03a3", "\u0130", "_", ".", ",", "-",
                    "'", "(", ")", "\u0301", "\u0307", " ", "\t", "\n", "\xa0", "\x1c",
                    "\u2028", "<TITLE>", "</BODY_TEXT>", "<TITLE_ABSTRACT>", "<PAD>", "<UNK>",
                    "<", ">", "<x>"]
_TOKENIZE_TEXTS = st.one_of(st.lists(st.sampled_from(_TOKENIZE_PIECES), max_size=30).map("".join),
                            st.text(max_size=40))


class TestTokenize:
    def test_simple(self):
        assert tp.tokenize("A cat.") == ["a", "cat", "."]

    def test_tag_text_is_ordinary_text(self):
        assert tp.tokenize("<TITLE> Self Training </TITLE>") == [
            "<", "title", ">", "self", "training", "<", "/", "title", ">"]

    def test_empty(self):
        assert tp.tokenize("") == []

    def test_edge_punctuation(self):
        assert tp.tokenize("(hello),") == ["(", "hello", ")", ","]

    def test_one_trailing_mark(self):
        assert tp.tokenize("word, it_ ok. !") == ["word", ",", "it", "_", "ok", ".", "!"]

    def test_two_trailing_marks_or_a_leading_one_take_the_regex(self):
        assert tp.tokenize("word.) (word x-y.") == ["word", ".", ")", "(", "word", "x-y", "."]

    def test_interior_punctuation_kept(self):
        assert tp.tokenize("cross-task don't 3.5") == ["cross-task", "don't", "3.5"]

    def test_tag_without_surrounding_space(self):
        assert tp.tokenize("<TITLE>Self Training </TITLE>") == [
            "<", "title>self", "training", "<", "/", "title", ">"]

    def test_lowercasing(self):
        assert tp.tokenize("The BiLSTM Model") == ["the", "bilstm", "model"]

    def test_regex_classes_are_the_str_predicates(self):
        # the fast path splits with str.split and keeps str.isalnum chunks whole,
        # the regex path reads \s, \S and [^\W_]: they must agree on every code point
        chars = "".join(map(chr, range(sys.maxunicode + 1)))
        spaces = "".join(c for c in chars if c.isspace())
        assert "".join(re.findall(r"\s", chars)) == spaces
        assert "".join(re.findall(r"\S", chars)) == "".join(c for c in chars if not c.isspace())
        assert "".join(re.findall(r"[^\W_]", chars)) == "".join(c for c in chars if c.isalnum())
        assert ("x" + "x".join(spaces) + "x").split() == ["x"] * (len(spaces) + 1)
        assert "".join(c for c in chars if not c.isspace()).split() == [
            "".join(c for c in chars if not c.isspace())]

    @settings(max_examples=400, deadline=None)
    @given(_TOKENIZE_TEXTS)
    def test_matches_edge_peeling_oracle(self, text):
        assert tp.tokenize(text) == tokenize_oracle(text)

    @settings(max_examples=400, deadline=None)
    @given(_TOKENIZE_TEXTS, st.sampled_from(tp.TAGSETS))
    def test_text_never_yields_a_tag_or_reserved_token(self, text, tagset):
        reserved = {tp.PAD_TOKEN, tp.UNK_TOKEN, *tp.tag_tokens(tagset)}
        assert not reserved & set(tp.tokenize(text))


class TestVocabulary:
    def test_small_corpus_keeps_everything(self):
        vocab = tp.build_vocabulary(Counter(["a", "b", "c", "d", "e", "a"]))
        assert len(vocab) == 5 + 2

    def test_tie_broken_lexicographically(self):
        vocab = tp.build_vocabulary(Counter(["zebra", "apple"]), max_size=1)
        assert "apple" in vocab
        assert "zebra" not in vocab

    def test_frequency_order_gives_lower_ids(self):
        vocab = tp.build_vocabulary(Counter(["b", "b", "a"]))
        assert vocab.encode("b") < vocab.encode("a")

    def test_cap_keeps_most_frequent(self):
        # 12000 distinct tokens, frequency = token index + 1
        counts = Counter({f"t{i:05d}": i + 1 for i in range(12000)})
        vocab = tp.build_vocabulary(counts, max_size=10000)
        assert len(vocab) == 10000 + 2
        kept = [t for t in vocab.to_json_array()[2:]]
        expected = set(sorted(counts, key=lambda t: (-counts[t], t))[:10000])
        assert set(kept) == expected

    def test_forced_tags_survive_and_count_against_cap(self):
        tags = tp.tag_tokens("full")
        vocab = tp.build_vocabulary(Counter({f"w{i}": 5 for i in range(20)}), max_size=10,
                                    forced_tokens=tags)
        for t in tags:
            assert t in vocab
        assert len(vocab) == 10 + 2
        # a forced token that is counted ranks by its count
        vocab = tp.build_vocabulary(Counter({"w": 5, tags[0]: 9}), max_size=len(tags) + 1,
                                    forced_tokens=tags)
        assert vocab.id_to_token[2] == tags[0] and "w" in vocab
        with pytest.raises(ConfigurationError, match=f"{len(tags)} forced tokens exceed vocabulary cap 3"):
            tp.build_vocabulary(Counter({"w": 1}), max_size=3, forced_tokens=tags)

    def test_empty_corpus(self):
        vocab = tp.build_vocabulary(Counter())
        assert len(vocab) == 2
        assert vocab.id_to_token[tp.PAD_ID] == tp.PAD_TOKEN
        assert vocab.id_to_token[tp.UNK_ID] == tp.UNK_TOKEN

    def test_unknown_maps_to_unk(self):
        vocab = tp.build_vocabulary(Counter(["hello"]))
        assert vocab.encode("unseen") == tp.UNK_ID

    def test_save_load_round_trip(self, tmp_path):
        vocab = tp.build_vocabulary(Counter(["a", "b", "b"]))
        path = tmp_path / "vocab.json"
        vocab.save(path)
        loaded = tp.Vocabulary.load(path)
        assert loaded.to_json_array() == vocab.to_json_array()
        assert loaded.sha256() == vocab.sha256()

    def test_persisted_as_json_array_ordered_by_id(self, tmp_path):
        vocab = tp.build_vocabulary(Counter(["y", "x"]))
        path = tmp_path / "vocab.json"
        vocab.save(path)
        arr = json.loads(path.read_text())
        assert isinstance(arr, list)
        assert arr == [vocab.id_to_token[i] for i in range(len(vocab))]

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.text(alphabet="abc", min_size=1, max_size=3), max_size=20))
    def test_encoding_totality(self, tokens):
        vocab = tp.build_vocabulary(Counter(tokens), max_size=5)
        for t in tokens:
            decoded = vocab.id_to_token[vocab.encode(t)]
            assert decoded in (t, tp.UNK_TOKEN)


class TestLoadEmbeddings:
    def write(self, tmp_path, lines):
        path = tmp_path / "emb.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def test_file_rows_copied(self, tmp_path):
        vocab = tp.build_vocabulary(Counter(["cat", "dog"]))
        path = self.write(tmp_path, ["cat 1.0 2.0", "dog 3.0 4.0"])
        mat = tp.load_embeddings(path, vocab, 2, np.random.default_rng(0))
        np.testing.assert_array_equal(mat[vocab.encode("cat")], [1.0, 2.0])
        np.testing.assert_array_equal(mat[vocab.encode("dog")], [3.0, 4.0])

    def test_pad_row_zero(self, tmp_path):
        vocab = tp.build_vocabulary(Counter(["cat"]))
        path = self.write(tmp_path, ["cat 1.0 2.0"])
        mat = tp.load_embeddings(path, vocab, 2, np.random.default_rng(0))
        np.testing.assert_array_equal(mat[tp.PAD_ID], [0.0, 0.0])

    def test_missing_token_within_xavier_bound(self, tmp_path):
        vocab = tp.build_vocabulary(Counter(["cat", "dog"]))
        path = self.write(tmp_path, ["cat 1.0 2.0"])
        mat = tp.load_embeddings(path, vocab, 2, np.random.default_rng(0))
        bound = np.sqrt(6.0 / (len(vocab) + 2))
        assert np.abs(mat[vocab.encode("dog")]).max() <= bound

    def test_dimension_mismatch_reports_line(self, tmp_path):
        vocab = tp.build_vocabulary(Counter(["cat", "dog"]))
        path = self.write(tmp_path, ["cat 1.0 2.0", "dog 3.0"])
        with pytest.raises(EmbeddingFormatError, match="line 2"):
            tp.load_embeddings(path, vocab, 2, np.random.default_rng(0))

    @pytest.mark.parametrize("value, problem", [
        ("nan", "non-finite"), ("inf", "non-finite"), ("-Infinity", "non-finite"),
        ("1e400", "non-finite"), ("0.5x", "non-numeric"),
    ])
    def test_bad_value_names_token_and_line(self, tmp_path, value, problem):
        vocab = tp.build_vocabulary(Counter(["cat", "dog"]))
        # a token outside the vocabulary is not read
        path = self.write(tmp_path, ["cat 1.0 2.0", f"bird {value} 0.5", f"dog {value} 0.5"])
        with pytest.raises(EmbeddingFormatError,
                           match=rf"^{re.escape(str(path))}: line 3: {problem} value for token 'dog'$"):
            tp.load_embeddings(path, vocab, 2, np.random.default_rng(0))

    def test_extra_file_tokens_ignored(self, tmp_path):
        vocab = tp.build_vocabulary(Counter(["cat"]))
        path = self.write(tmp_path, ["cat 1.0 2.0", "unrelated 9.0 9.0"])
        mat = tp.load_embeddings(path, vocab, 2, np.random.default_rng(0))
        assert mat.shape == (len(vocab), 2)


class TestEncodeDocument:
    def test_cutoff_is_tagset_independent(self):
        body = " ".join(f"Sentence number {i} is here." for i in range(200))
        doc = make_doc(body=body)
        counts = Counter(t for _, s in inject_tags(doc, "none") for t in tp.tokenize(s))
        vocab = tp.build_vocabulary(counts, forced_tokens=tp.tag_tokens("full"))
        lengths = {tagset: len(tp.encode_document(doc, vocab, tagset, 300).sentences)
                   for tagset in ("full", "reduced", "none")}
        assert len(set(lengths.values())) == 1

    def test_tagged_sentences_bracketed_by_tag_ids(self):
        doc = make_doc()
        counts = Counter(t for _, s in inject_tags(doc, "full") for t in tp.tokenize(s))
        vocab = tp.build_vocabulary(counts, forced_tokens=tp.tag_tokens("full"))
        enc = tp.encode_document(doc, vocab, "full", 20000)
        for ids, role in zip(enc.sentences, enc.roles):
            assert ids[0] == vocab.encode(tp.open_tag(role))
            assert ids[-1] == vocab.encode(tp.close_tag(role))

    def test_empty_document_yields_unk_sentence(self):
        doc = make_doc(title="", abstract="", body="")
        vocab = tp.build_vocabulary(Counter())
        enc = tp.encode_document(doc, vocab, "none", 20000)
        assert enc.sentences == [[tp.UNK_ID]]

    def test_label_carried_through(self):
        doc = make_doc(label={"citation_count": 7})
        vocab = tp.build_vocabulary(Counter(["a"]))
        enc = tp.encode_document(doc, vocab, "none", 5)
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
            list(load_corpus(path))

    def test_missing_field(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "a", "title": "t"}\n')
        with pytest.raises(CorpusFormatError, match="line 1"):
            list(load_corpus(path))

    @pytest.mark.parametrize("line, message", [
        ('[1, 2]', "expected a JSON object"),
        ('{"id": "b", "title": "t", "abstract": "", "body_text": "", "label": "yes"}',
         "'label' must be dict, got 'yes'"),
        ('{"id": "b", "title": "t", "abstract": "", "body_text": "", '
         '"label": {"accepted": true, "grade": 3}}', "document 'b': unknown label keys ['grade']"),
    ])
    def test_bad_line_reports_line_after_a_blank_one(self, tmp_path, line, message):
        path = tmp_path / "bad.jsonl"
        save_corpus([make_doc(doc_id="a")], path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("\n" + line + "\n")
        with pytest.raises(CorpusFormatError, match=f"^{re.escape(f'{path}: line 3: {message}')}$"):
            list(load_corpus(path))

    def test_field_of_the_wrong_type_is_shown_shortened(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        line = {**make_doc(doc_id="a").to_json(), "body_text": list(range(100_000))}
        path.write_text(json.dumps(line) + "\n")
        with pytest.raises(CorpusFormatError) as info:
            list(load_corpus(path))
        assert str(info.value) == f"{path}: line 1: 'body_text' must be str, got [0, 1, 2, 3, 4, 5, ...]"

    def test_reads_one_line_per_document_asked_for(self, tmp_path):
        # a lazy reader: the bad second line is not read until the second document is asked for
        path = tmp_path / "c.jsonl"
        save_corpus([make_doc(doc_id="a")], path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("{broken\n")
        docs = load_corpus(path)
        assert next(docs).id == "a"
        with pytest.raises(CorpusFormatError, match=f"^{re.escape(str(path))}: line 2: invalid JSON"):
            next(docs)

    def test_duplicate_id(self, tmp_path):
        docs = [make_doc(doc_id="a")]
        path = tmp_path / "c.jsonl"
        save_corpus(docs + docs, path)
        with pytest.raises(CorpusFormatError, match="duplicate"):
            list(load_corpus(path))

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
        assert doc.label == {"accepted": True, "citation_count": 12}

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
