"""Text preparation: segmentation, structure tags, tokenization, cutoffs,
vocabulary, and pretrained-embedding loading."""

from __future__ import annotations

import hashlib
import json
import re
from array import array
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import chain, islice

import numpy as np

from .autodiff import xavier_init
from .corpus import RawDocument, open_text
from .errors import ConfigurationError, DegenerateInputError, EmbeddingFormatError

PAD_TOKEN = "<PAD>"
UNK_TOKEN = "<UNK>"
PAD_ID = 0
UNK_ID = 1

TAGSETS = ("full", "reduced", "none")
DEFAULT_VOCAB_SIZE = 10000   # the content-token cap when a config sets no vocab_size

_ROLES = ("TITLE", "ABSTRACT", "BODY_TEXT")   # in document order
_ROLE_MERGE = {"full": {}, "reduced": {"TITLE": "TITLE_ABSTRACT", "ABSTRACT": "TITLE_ABSTRACT"}}


def open_tag(role: str) -> str:
    return f"<{role}>"


def close_tag(role: str) -> str:
    return f"</{role}>"


def tag_tokens(tagset: str) -> list[str]:
    if tagset == "none":
        return []
    roles = ("TITLE_ABSTRACT", "BODY_TEXT") if tagset == "reduced" else _ROLES
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
    # or a single-capital initial such as "J." in author names
    return word.lower() in _ABBREVIATIONS or (
        len(word) == 2 and word[0].isupper() and word[0].isalpha() and word[1] == ".")


def segment_sentences(text: str) -> Iterator[str]:
    """Yield sentences split on sentence-final punctuation followed by
    whitespace and a capital letter or digit, honoring an abbreviation
    stop-list.

    The outputs are slices of the input, so their concatenation (modulo the
    whitespace separators between them) reconstructs the input. Each sentence
    is found only when it is pulled, so a caller that stops pulling stops
    the scan there.
    """
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
        yield text[start:end].strip()
        start = end
    piece = text[start:].strip()
    if piece:
        yield piece


# ---------------------------------------------------------------------------
# tags
# ---------------------------------------------------------------------------

def check_settings(tagset: str, max_chars: int) -> None:
    """The rule for the two settings that decide how a document is encoded."""
    if tagset not in TAGSETS:
        raise ConfigurationError(f"tagset must be one of {TAGSETS}, got {tagset!r}")
    if max_chars < 1:
        raise ConfigurationError(f"max_chars must be >= 1, got {max_chars}")


# ---------------------------------------------------------------------------
# cutoffs
# ---------------------------------------------------------------------------

def apply_cutoff(sentences: list[str], max_chars: int) -> list[str]:
    """Keep the longest prefix of sentences whose raw characters, plus one
    separator between consecutive sentences, fit in ``max_chars``; the first
    sentence is always kept."""
    if not sentences:
        return []
    kept = [sentences[0]]
    total = len(sentences[0])
    for sent in sentences[1:]:
        total += 1 + len(sent)
        if total > max_chars:
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

    Text never yields a structure tag or a reserved token: a multi-character
    token starts with an alphanumeric character, so `<` is always a token of
    its own. Tags enter a document only as ids (see TokenStore.__iter__).
    """
    return _TOKEN_RE.findall(sentence.lower())


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

    def to_json_array(self) -> list[str]:
        return list(self.id_to_token)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_array(), fh, ensure_ascii=False)

    @classmethod
    def load(cls, path) -> "Vocabulary":
        with open_text(path) as fh:
            try:
                arr = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigurationError(f"{path}: invalid JSON: {exc.msg}") from None
        if type(arr) is not list or not all(type(tok) is str for tok in arr):
            raise ConfigurationError(f"{path}: vocabulary must be a JSON array of strings")
        if arr[:2] != [PAD_TOKEN, UNK_TOKEN]:
            raise ConfigurationError(
                f"{path}: vocabulary array must start with the PAD and UNK tokens")
        try:
            return cls(arr[2:])
        except ConfigurationError as exc:
            raise ConfigurationError(f"{path}: {exc}") from None

    def sha256(self) -> str:
        payload = json.dumps(self.to_json_array(), ensure_ascii=False).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()


def build_vocabulary(counts: Counter, max_size: int = DEFAULT_VOCAB_SIZE,
                     forced_tokens: list[str] | None = None) -> Vocabulary:
    """Top-frequency vocabulary over token `counts`, ties broken lexicographically.

    ``forced_tokens`` (the structure tags) are always retained and count
    against ``max_size``. Ids follow (frequency desc, token asc) order over
    the retained set. Only iteration and ``counts.get`` are read, so any
    object with those two will do in place of a Counter (see _TrainCounts).
    The ranking holds a few machine words per token and no object per token.
    """
    forced = set(forced_tokens or [])
    if len(forced) > max_size:
        raise ConfigurationError(f"{len(forced)} forced tokens exceed vocabulary cap {max_size}")
    # token asc, then a stable sort by frequency desc
    free = sorted(t for t in counts if t not in forced)
    by_count = np.argsort(np.fromiter((-counts.get(t, 0) for t in free), np.int64, len(free)),
                          kind="stable")
    kept = forced.union(free[i] for i in by_count[: max_size - len(forced)].tolist())
    return Vocabulary(sorted(kept, key=lambda t: (-counts.get(t, 0), t)))


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
        for n, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            token, vals = parts[0], parts[1:]
            if len(vals) != dim:
                raise EmbeddingFormatError(
                    f"{path}: line {n}: expected {dim} values for token {token!r}, found {len(vals)}")
            if token in vocab:
                try:
                    row = np.array([float(v) for v in vals])
                except ValueError:
                    raise EmbeddingFormatError(
                        f"{path}: line {n}: non-numeric value for token {token!r}") from None
                # float() reads nan, inf and overflowing literals such as 1e400
                if not np.isfinite(row).all():
                    raise EmbeddingFormatError(f"{path}: line {n}: non-finite value for token {token!r}")
                matrix[vocab.encode(token)] = row
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
        if not self.sentences:
            raise ConfigurationError(f"document {self.id!r}: no sentences")
        if len(self.sentences) != len(self.roles):
            raise ConfigurationError(f"document {self.id!r}: {len(self.sentences)} sentences vs {len(self.roles)} roles")
        if any(len(s) == 0 for s in self.sentences):
            raise ConfigurationError(f"document {self.id!r}: empty sentence after encoding")


def kept_sentences(doc: RawDocument, max_chars: int) -> list[tuple[str, str]]:
    """The (role, raw sentence) pairs of a document that the cutoff keeps,
    untagged and before roles are merged.

    The title is one sentence regardless of punctuation. The cutoff is
    measured on raw untagged sentences so every tagset sees the same
    underlying content. Sentences are pulled up to the first one whose
    running length passes ``max_chars``; apply_cutoff alone decides what is kept.
    """
    title = doc.title.strip()
    # a field's segmenter starts only once the fields before it are used up
    fields = (((role, sent) for sent in segment_sentences(text))
              for role, text in (("ABSTRACT", doc.abstract), ("BODY_TEXT", doc.body_text)))
    pulled, reach = [], -1
    for role, sent in chain([("TITLE", title)] if title else [], chain.from_iterable(fields)):
        pulled.append((role, sent))
        reach += 1 + len(sent)
        if reach > max_chars:
            break
    return pulled[: len(apply_cutoff([sent for _, sent in pulled], max_chars))]


class _TrainCounts:
    """A TokenStore's train tokens and their counts, read by provisional id;
    build_vocabulary reads it as it reads a Counter."""

    def __init__(self, ids: dict[str, int], counts: np.ndarray):
        self.ids, self.counts = ids, counts

    def __iter__(self):
        return (token for token, n in zip(self.ids, self.counts) if n)

    def get(self, token: str, default: int) -> int:
        i = self.ids.get(token, len(self.counts))
        return int(self.counts[i]) if i < len(self.counts) else default


class TokenStore:
    """Documents' kept sentences as untagged token ids in one flat int32 array,
    with each sentence's length and each document's id, label, split and roles.

    `add` gives each new token the next provisional id and counts train tokens
    by that id, so each distinct token is held once, as a key of `first_seen`;
    once `vocab` is set, iterating encodes one document at a time.
    """

    def __init__(self, tagset: str):
        self.tagset = tagset
        self.vocab: Vocabulary | None = None
        self.counts = np.zeros(0, dtype=np.int64)   # train count by provisional id
        self.first_seen: dict[str, int] = {}
        self.ids = array("i")
        self.lengths = array("i")
        self.splits: list[str] = []
        self.docs: list[tuple[str, dict, bytes, int]] = []

    def add(self, doc: RawDocument, max_chars: int) -> None:
        kept = kept_sentences(doc, max_chars)
        sentences = [tokenize(sent) for _, sent in kept]
        first_seen = self.first_seen
        ids = [first_seen.setdefault(t, len(first_seen)) for t in chain.from_iterable(sentences)]
        if doc.split == "train":
            if len(first_seen) > len(self.counts):   # at least doubles: amortized O(1) per id
                self.counts = np.pad(self.counts, (0, len(first_seen)))
            np.add.at(self.counts, ids, 1)
        self.ids.extend(ids)
        self.lengths.extend(map(len, sentences))
        self.splits.append(doc.split)
        self.docs.append((doc.id, doc.label, bytes(_ROLES.index(role) for role, _ in kept),
                          len(ids)))

    def content_tokens(self) -> list[int]:
        """Each document's untagged tokens; one with no text encodes as one UNK."""
        return [max(n, 1) for *_, n in self.docs]

    def __iter__(self):
        """Each document's kept sentences as ids, with its role's tag ids around
        each unless tagset is "none". A document with no text at all yields a
        single UNK sentence so downstream batching never sees an empty one."""
        vocab, merge = self.vocab, _ROLE_MERGE.get(self.tagset, {})
        names = [merge.get(role, role) for role in _ROLES]
        remap = np.array([vocab.token_to_id.get(t, UNK_ID) for t in self.first_seen],
                         dtype=np.intc)
        ids, start, first = np.frombuffer(self.ids, dtype=np.intc), 0, 0
        for doc_id, label, codes, n_tokens in self.docs:
            # a take per document: take casts int32 indices to intp, which for
            # the whole store would hold 8 more bytes per token
            flat = iter(remap.take(ids[start:start + n_tokens]).tolist())
            # no sentence is empty: a kept sentence is stripped and non-empty, and
            # tokenize keeps every character that is not whitespace
            sentences = [list(islice(flat, n)) for n in self.lengths[first:first + len(codes)]]
            roles = [names[code] for code in codes]
            start, first = start + n_tokens, first + len(codes)
            if self.tagset != "none":
                sentences = [[vocab.encode(open_tag(role))] + sent + [vocab.encode(close_tag(role))]
                             for role, sent in zip(roles, sentences)]
            if not sentences:
                sentences, roles = [[UNK_ID]], ["BODY_TEXT"]
            yield TaggedDocument(id=doc_id, sentences=sentences, roles=roles, label=dict(label))


def encode_document(doc: RawDocument, vocab: Vocabulary, tagset: str,
                    max_chars: int) -> TaggedDocument:
    """Segment as far as the cutoff reaches, truncate, tokenize, tag, and map
    to ids."""
    check_settings(tagset, max_chars)
    store = TokenStore(tagset)
    store.add(doc, max_chars)
    store.vocab = vocab
    return next(iter(store))


def prepare_corpus(docs, tagset: str, max_chars: int,
                   vocab_size: int) -> tuple[Vocabulary, TokenStore]:
    """Read `docs`, any iterable of RawDocument, once into a TokenStore and
    build the vocabulary from its train counts, tags forced in. Iterating the
    store yields, in order, encode_document of each document with that
    vocabulary; each kept sentence is segmented and tokenized once.
    """
    check_settings(tagset, max_chars)
    store = TokenStore(tagset)
    for doc in docs:
        store.add(doc, max_chars)
    if not store.counts.any():
        raise DegenerateInputError("train split has no text to build a vocabulary from")
    store.vocab = build_vocabulary(_TrainCounts(store.first_seen, store.counts),
                                   max_size=vocab_size, forced_tokens=tag_tokens(tagset))
    return store.vocab, store
