"""Document records, JSONL corpus I/O, and checks for hand-editable JSON."""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigurationError, CorpusFormatError, TextDecodeError

SPLITS = ("train", "valid", "test")
LABEL_KEYS = ("accepted", "citation_count")
TEXT_FIELDS = ("title", "abstract", "body_text")

# value checks by the type name a schema gives: a bool is no int, an int is a float
JSON_TYPES = {"int": lambda v: type(v) is int, "float": lambda v: type(v) in (int, float),
              "str": lambda v: type(v) is str, "bool": lambda v: type(v) is bool,
              "dict": lambda v: type(v) is dict, "list": lambda v: type(v) is list,
              "list[int]": lambda v: type(v) is list and all(type(x) is int for x in v),
              "str | None": lambda v: v is None or type(v) is str}


@contextmanager
def open_text(path):
    """Open a UTF-8 text file for reading; bytes that do not decode raise a
    TextDecodeError that names the file. The decoder's byte position counts
    from the start of its read buffer, not of the file, so it is left out."""
    with open(path, encoding="utf-8") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise TextDecodeError(f"{path}: not valid UTF-8 ({exc.reason})") from None


def check_fields(obj, schema: dict[str, str], where: str, optional: bool = False,
                 error=ConfigurationError) -> dict:
    """`obj` if it is a JSON object whose `schema` keys (all, unless `optional`) hold the named types."""
    if not isinstance(obj, dict):
        raise error(f"{where}: expected a JSON object")
    missing = [] if optional else sorted(set(schema) - set(obj))
    if missing:
        raise error(f"{where}: missing keys {missing}")
    for key, type_name in schema.items():
        if key in obj and not JSON_TYPES[type_name](obj[key]):
            raise error(f"{where}: {key!r} must be {type_name}, got {obj[key]!r}")
    return obj


def json_object(text: str, where: str, schema: dict[str, str] | None = None) -> dict:
    """Parse one JSON object; errors start with `where`, e.g. "<path>: line 3"."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{where}: invalid JSON: {exc.msg}") from None
    return check_fields(obj, schema or {}, where)


@dataclass
class RawDocument:
    """One paper: title/abstract/body text plus a task label.

    ``label`` holds ``accepted`` (bool) for classification and/or
    ``citation_count`` (non-negative int) for regression. Dataset-statistics
    corpora carry both; task corpora carry the one their task needs.
    """

    id: str
    title: str
    abstract: str
    body_text: str
    label: dict = field(default_factory=dict)
    split: str = "train"

    def __post_init__(self):
        if not any(k in self.label for k in LABEL_KEYS):
            raise CorpusFormatError(f"document {self.id!r}: label must contain 'accepted' or 'citation_count'")
        unknown = set(self.label) - set(LABEL_KEYS)
        if unknown:
            raise CorpusFormatError(f"document {self.id!r}: unknown label keys {sorted(unknown)}")
        if "accepted" in self.label and not isinstance(self.label["accepted"], bool):
            raise CorpusFormatError(f"document {self.id!r}: 'accepted' must be a boolean")
        if "citation_count" in self.label:
            n = self.label["citation_count"]
            if not isinstance(n, int) or isinstance(n, bool) or n < 0:
                raise CorpusFormatError(f"document {self.id!r}: 'citation_count' must be a non-negative integer")
        if self.split not in SPLITS:
            raise CorpusFormatError(f"document {self.id!r}: split must be one of {SPLITS}, got {self.split!r}")

    @property
    def accepted(self) -> bool:
        return self.label["accepted"]

    @property
    def citation_count(self) -> int:
        return self.label["citation_count"]

    def to_json(self) -> dict:
        return {"id": self.id, "title": self.title, "abstract": self.abstract,
                "body_text": self.body_text, "label": dict(self.label), "split": self.split}


def check_document_fields(obj: dict, line_number: int) -> None:
    """A document line's `id` and each text field it holds must be strings."""
    for key in ("id",) + TEXT_FIELDS:
        if key in obj and not isinstance(obj[key], str):
            raise CorpusFormatError(f"field {key!r} must be a string", line_number=line_number)


def load_corpus(path) -> list[RawDocument]:
    """Read one RawDocument per JSONL line; errors carry the line number."""
    docs = []
    seen: set[str] = set()
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusFormatError(f"invalid JSON: {exc}", line_number=lineno) from None
            if not isinstance(obj, dict):
                raise CorpusFormatError("line is not a JSON object", line_number=lineno)
            missing = {"id", *TEXT_FIELDS, "label"} - set(obj)
            if missing:
                raise CorpusFormatError(f"missing fields {sorted(missing)}", line_number=lineno)
            check_document_fields(obj, lineno)
            if not isinstance(obj["label"], dict):
                raise CorpusFormatError("field 'label' must be an object", line_number=lineno)
            try:
                doc = RawDocument(id=obj["id"], title=obj["title"], abstract=obj["abstract"],
                                  body_text=obj["body_text"], label=obj["label"],
                                  split=obj.get("split", "train"))
            except CorpusFormatError as exc:
                raise CorpusFormatError(str(exc), line_number=lineno) from None
            if doc.id in seen:
                raise CorpusFormatError(f"duplicate document id {doc.id!r}", line_number=lineno)
            seen.add(doc.id)
            docs.append(doc)
    return docs


def save_corpus(docs: list[RawDocument], path) -> None:
    path = Path(path)
    with open(path, "w", encoding="utf-8") as fh:
        for doc in docs:
            fh.write(json.dumps(doc.to_json(), sort_keys=True) + "\n")

