"""Text preparation: segmentation, structure tags, tokenization, cutoffs,
vocabulary, and pretrained-embedding loading."""

from __future__ import annotations

import hashlib
import json
import re
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .autodiff import xavier_init
from .corpus import RawDocument, open_text
from .errors import ConfigurationError, DegenerateInputError, EmbeddingFormatError

PAD_TOKEN = "<PAD>"
UNK_TOKEN = "<UNK>"
PAD_ID = 0
UNK_ID = 1

TAGSETS = ("full", "reduced", "none")

# surface form of a structure tag; atomic under tokenization
TAG_RE = re.compile(r"</?[A-Z][A-Z_]*>")

_ROLE_MERGE = {"full": {}, "reduced": {"TITLE": "TITLE_ABSTRACT", "ABSTRACT": "TITLE_ABSTRACT"}}


def open_tag(role: str) -> str:
    return f"<{role}>"


def close_tag(role: str) -> str:
    return f"</{role}>"


def tag_tokens(tagset: str) -> list[str]:
    if tagset == "none":
        return []
    roles = ("TITLE_ABSTRACT", "BODY_TEXT") if tagset == "reduced" else ("TITLE", "ABSTRACT", "BODY_TEXT")
    return [t for role in roles for t in (open_tag(role), close_tag(role))]


# ---------------------------------------------------------------------------
# sentence segmentation
# ---------------------------------------------------------------------------

# trailing words (with their period) that never end a sentence
_ABBREVIATIONS = {
    "al.", "fig.", "figs.", "eq.", "eqs.", "sec.", "tab.", "no.", "vol.",
    "i.e.", "e.g.", "etc.", "cf.", "vs.", "resp.", "approx.",
    "dr.", "prof.", "mr.", "mrs.", "ms.", "st.",
}

_BOUNDARY_RE = re.compile(r"[.!?]+")
_NON_SPACE_RE = re.compile(r"\S")


def _is_abbreviation(text: str, end: int) -> bool:
    """True when the word ending at `end` (inclusive of punctuation) must not
    close a sentence."""
    start = end
    while start > 0 and not text[start - 1].isspace():
        start -= 1
    word = text[start:end]
    if word.lower() in _ABBREVIATIONS:
        return True
    # single-capital initials such as "J." in author names
    if len(word) == 2 and word[0].isupper() and word[0].isalpha() and word[1] == ".":
        return True
    return False


def segment_sentences(text: str, max_chars: int | None = None) -> list[str]:
    """Split on sentence-final punctuation followed by whitespace and a
    capital letter or digit, honoring an abbreviation stop-list.

    The outputs are slices of the input, so their concatenation (modulo the
    whitespace separators between them) reconstructs the input. With
    ``max_chars``, return after the first sentence whose running length (one
    separator counted between sentences) passes it: a CharacterLimit of
    ``max_chars`` keeps nothing after that sentence.
    """
    pieces = []
    reach = -1
    start = 0
    for m in _BOUNDARY_RE.finditer(text):
        end = m.end()
        if end == len(text) or not text[end].isspace():
            continue
        following = _NON_SPACE_RE.search(text, end)
        if following is None:
            break
        first = following.group()
        if not (first.isupper() or first.isdigit()):
            continue
        if "." in m.group() and _is_abbreviation(text, end):
            continue
        # never empty: the slice holds the punctuation that ends it
        piece = text[start:end].strip()
        pieces.append(piece)
        start = end
        reach += 1 + len(piece)
        if max_chars is not None and reach > max_chars:
            return pieces
    piece = text[start:].strip()
    if piece:
        pieces.append(piece)
    return pieces


# ---------------------------------------------------------------------------
# tags
# ---------------------------------------------------------------------------

def _check_tagset(tagset: str) -> None:
    if tagset not in TAGSETS:
        raise ConfigurationError(f"tagset must be one of {TAGSETS}, got {tagset!r}")


def _segment_fields(doc: RawDocument, limit: int) -> list[tuple[str, str]]:
    """(role, raw sentence) pairs of title, abstract and body, in order.

    The title is one sentence regardless of punctuation. No field is
    segmented further than a CharacterLimit of ``limit`` can reach.
    """
    title = doc.title.strip()
    parts = [("TITLE", title)] if title else []
    # running length of the pairs so far, counted as apply_cutoff counts it
    reach = len(title) if title else -1
    for role, text in (("ABSTRACT", doc.abstract), ("BODY_TEXT", doc.body_text)):
        if reach > limit:
            break
        sentences = segment_sentences(text, limit - reach - 1)
        parts.extend((role, sent) for sent in sentences)
        reach += sum(1 + len(sent) for sent in sentences)
    return parts


# ---------------------------------------------------------------------------
# cutoffs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CharacterLimit:
    limit: int = 20000

    def __post_init__(self):
        if self.limit < 1:
            raise ConfigurationError(f"character limit must be >= 1, got {self.limit}")


def apply_cutoff(sentences: list[str], cutoff: CharacterLimit) -> list[str]:
    """Keep the longest prefix of sentences whose raw characters, plus one
    separator between consecutive sentences, fit in the limit; the first
    sentence is always kept."""
    if not sentences:
        return []
    kept = [sentences[0]]
    total = len(sentences[0])
    for sent in sentences[1:]:
        total += 1 + len(sent)
        if total > cutoff.limit:
            break
        kept.append(sent)
    return kept


# ---------------------------------------------------------------------------
# tokenization
# ---------------------------------------------------------------------------

# a token is a whitespace-delimited chunk trimmed to its first and last
# alphanumeric character, or one character of the punctuation trimmed off;
# in `re`, [^\W_] is exactly str.isalnum and \S is exactly not str.isspace
_TOKEN_RE = re.compile(r"[^\W_](?:\S*[^\W_])?|\S")


def tokenize(sentence: str) -> list[str]:
    """Lowercase and split on whitespace with edge punctuation split off.

    Structure-tag surface forms are recognized first and emitted as single
    case-preserved tokens.
    """
    tokens: list[str] = []
    pos = 0
    for m in TAG_RE.finditer(sentence):
        tokens.extend(_TOKEN_RE.findall(sentence[pos:m.start()].lower()))
        tokens.append(m.group())
        pos = m.end()
    tokens.extend(_TOKEN_RE.findall(sentence[pos:].lower()))
    return tokens


# ---------------------------------------------------------------------------
# vocabulary
# ---------------------------------------------------------------------------

class Vocabulary:
    """Token-to-id map with PAD=0, UNK=1 reserved and a capped content set."""

    def __init__(self, content_tokens: list[str]):
        self.id_to_token = [PAD_TOKEN, UNK_TOKEN] + list(content_tokens)
        self.token_to_id = {tok: i for i, tok in enumerate(self.id_to_token)}
        if len(self.token_to_id) != len(self.id_to_token):
            raise ConfigurationError("vocabulary tokens must be distinct")

    def __len__(self) -> int:
        return len(self.id_to_token)

    def __contains__(self, token: str) -> bool:
        return token in self.token_to_id

    def encode(self, token: str) -> int:
        return self.token_to_id.get(token, UNK_ID)

    def decode(self, idx: int) -> str:
        return self.id_to_token[idx]

    def to_json_array(self) -> list[str]:
        return list(self.id_to_token)

    @classmethod
    def from_json_array(cls, arr: list[str]) -> "Vocabulary":
        if arr[:2] != [PAD_TOKEN, UNK_TOKEN]:
            raise ConfigurationError("vocabulary array must start with the PAD and UNK tokens")
        return cls(arr[2:])

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_array(), fh, ensure_ascii=False)

    @classmethod
    def load(cls, path) -> "Vocabulary":
        with open_text(path) as fh:
            try:
                return cls.from_json_array(json.load(fh))
            except json.JSONDecodeError as exc:
                raise ConfigurationError(f"{path}: invalid JSON: {exc.msg}") from None

    def sha256(self) -> str:
        payload = json.dumps(self.to_json_array(), ensure_ascii=False).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()


def build_vocabulary(token_lists, max_size: int = 10000,
                     forced_tokens: list[str] | None = None) -> Vocabulary:
    """Top-frequency vocabulary with lexicographic tie-breaking.

    ``forced_tokens`` (the structure tags) are always retained and count
    against ``max_size``. Ids follow (frequency desc, token asc) order over
    the retained set.
    """
    forced = list(dict.fromkeys(forced_tokens or []))
    if len(forced) > max_size:
        raise ConfigurationError(f"{len(forced)} forced tokens exceed vocabulary cap {max_size}")
    counts = Counter()
    for tokens in token_lists:
        counts.update(tokens)
    ordered = sorted(counts, key=lambda t: (-counts[t], t))
    retained = set(forced)
    for token in ordered:
        if len(retained) >= max_size:
            break
        retained.add(token)
    content = sorted(retained, key=lambda t: (-counts[t], t))
    return Vocabulary(content)


# ---------------------------------------------------------------------------
# embeddings
# ---------------------------------------------------------------------------

def load_embeddings(path, vocab: Vocabulary, dim: int, rng: np.random.Generator) -> np.ndarray:
    """Build the [|vocab|, dim] embedding matrix from a text embedding file.

    Rows for tokens absent from the file are Xavier-uniform; the PAD row is
    zeroed afterwards.
    """
    matrix = xavier_init((len(vocab), dim), "uniform", rng)
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            token, vals = parts[0], parts[1:]
            if len(vals) != dim:
                raise EmbeddingFormatError(
                    f"expected {dim} values for token {token!r}, found {len(vals)}",
                    line_number=lineno)
            if token in vocab:
                try:
                    matrix[vocab.encode(token)] = [float(v) for v in vals]
                except ValueError:
                    raise EmbeddingFormatError(f"non-numeric value for token {token!r}",
                                               line_number=lineno) from None
    matrix[PAD_ID] = 0.0
    return matrix


# ---------------------------------------------------------------------------
# document encoding
# ---------------------------------------------------------------------------

@dataclass
class TaggedDocument:
    """A document as id sequences: one token-id list per sentence."""

    id: str
    sentences: list[list[int]]
    roles: list[str]
    label: dict

    def __post_init__(self):
        if len(self.sentences) != len(self.roles):
            raise ConfigurationError(f"document {self.id!r}: {len(self.sentences)} sentences vs {len(self.roles)} roles")
        if any(len(s) == 0 for s in self.sentences):
            raise ConfigurationError(f"document {self.id!r}: empty sentence after encoding")


def kept_sentences(doc: RawDocument, cutoff: CharacterLimit) -> list[tuple[str, str]]:
    """The (role, raw sentence) pairs of a document that the cutoff keeps,
    untagged and before roles are merged.

    The cutoff is measured on raw untagged sentences so every tagset sees the
    same underlying content. No field is segmented further than the cutoff
    can reach; apply_cutoff alone decides what is kept.
    """
    parts = _segment_fields(doc, cutoff.limit)
    kept = apply_cutoff([sent for _, sent in parts], cutoff)
    return parts[: len(kept)]


def _tokenized(doc: RawDocument, cutoff) -> list[tuple[str, list[str]]]:
    return [(role, tokenize(sent)) for role, sent in kept_sentences(doc, cutoff)]


def _encode_tokens(doc: RawDocument, parts: list[tuple[str, list[str]]], vocab: Vocabulary,
                   tagset: str) -> TaggedDocument:
    """Map each kept sentence's untagged tokens to ids, with its role's tag ids
    around them unless tagset is "none".

    Tags are atomic under tokenize, so this equals tokenizing the tagged
    sentence. Documents with no text at all yield a single UNK sentence so
    downstream batching never sees an empty document.
    """
    lookup = vocab.token_to_id.get
    merge = _ROLE_MERGE.get(tagset, {})
    sentences: list[list[int]] = []
    roles: list[str] = []
    for role, tokens in parts:
        role = merge.get(role, role)
        ids = [lookup(t, UNK_ID) for t in tokens]
        if tagset != "none":
            ids = [vocab.encode(open_tag(role))] + ids + [vocab.encode(close_tag(role))]
        elif not ids:
            continue
        sentences.append(ids)
        roles.append(role)
    if not sentences:
        sentences = [[UNK_ID]]
        roles = ["BODY_TEXT"]
    return TaggedDocument(id=doc.id, sentences=sentences, roles=roles, label=dict(doc.label))


def encode_document(doc: RawDocument, vocab: Vocabulary, tagset: str, cutoff) -> TaggedDocument:
    """Segment as far as the cutoff reaches, truncate, tokenize, tag, and map
    to ids."""
    _check_tagset(tagset)
    return _encode_tokens(doc, _tokenized(doc, cutoff), vocab, tagset)


def prepare_corpus(docs: list[RawDocument], tagset: str, cutoff,
                   vocab_size: int) -> tuple[Vocabulary, list[TaggedDocument]]:
    """Build the vocabulary from the train documents, then encode every
    document.

    The result equals build_vocabulary over the untagged tokens of the train
    documents' kept sentences, tags forced in, followed by encode_document on
    each document; but each kept sentence is segmented and tokenized once.
    Only train documents' tokens are held until the vocabulary is built, and
    each list is dropped as soon as its document is encoded.
    """
    _check_tagset(tagset)
    held = {i: _tokenized(doc, cutoff) for i, doc in enumerate(docs) if doc.split == "train"}
    token_lists = [tokens for parts in held.values() for _, tokens in parts]
    if not token_lists:
        raise DegenerateInputError("train split has no text to build a vocabulary from")
    vocab = build_vocabulary(token_lists, max_size=vocab_size, forced_tokens=tag_tokens(tagset))
    del token_lists
    encoded = []
    for i, doc in enumerate(docs):
        parts = held.pop(i) if doc.split == "train" else _tokenized(doc, cutoff)
        encoded.append(_encode_tokens(doc, parts, vocab, tagset))
    return vocab, encoded
