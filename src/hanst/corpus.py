"""Document records, JSONL corpus I/O, and checks for hand-editable JSON."""

from __future__ import annotations

import json
import reprlib
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigurationError, CorpusFormatError, TextDecodeError

SPLITS = ("train", "valid", "test")
LABEL_KEYS = ("accepted", "citation_count")
# the label each task trains on
TASK_LABELS = {"classify": "accepted", "regress": "citation_count"}
TEXT_FIELDS = ("title", "abstract", "body_text")
# the fields of a document line; a corpus line also needs its label
DOCUMENT_FIELDS = {"id": "str", **dict.fromkeys(TEXT_FIELDS, "str")}
_CORPUS_FIELDS = {**DOCUMENT_FIELDS, "label": "dict"}

# value checks by the type name a schema gives: a bool is no int, an int is a float
JSON_TYPES = {"int": lambda v: type(v) is int, "float": lambda v: type(v) in (int, float),
              "str": lambda v: type(v) is str, "bool": lambda v: type(v) is bool,
              "dict": lambda v: type(v) is dict, "list": lambda v: type(v) is list,
              "list[int]": lambda v: type(v) is list and all(type(x) is int for x in v),
              "str | None": lambda v: v is None or type(v) is str,
              "int | None": lambda v: v is None or type(v) is int,
              "float | None": lambda v: v is None or type(v) in (int, float)}


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
            # reprlib bounds the line a whole document body of the wrong type would fill
            raise error(f"{where}: {key!r} must be {type_name}, got {reprlib.repr(obj[key])}")
    return obj


def json_object(text: str, where: str, schema: dict[str, str] | None = None,
                error=ConfigurationError) -> dict:
    """Parse one JSON object; errors start with `where`, e.g. "<path>: line 3"."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(f"{where}: invalid JSON: {exc.msg}") from None
    return check_fields(obj, schema or {}, where, error=error)


def json_lines(path, schema: dict[str, str], error=ConfigurationError) -> Iterator[tuple[str, dict]]:
    """Yield ("<path>: line N", object) for each non-blank line of a JSON-lines
    file as it is read; each line is a JSON object with `schema`'s keys."""
    with open_text(path) as fh:
        for n, line in enumerate(fh, start=1):
            if line.strip():
                where = f"{path}: line {n}"
                yield where, json_object(line, where, schema, error=error)


def check_label(label: dict, where: str, error) -> None:
    """Raise `error`, starting with `where`, unless `label` holds `accepted` (a
    bool) and/or `citation_count` (a non-negative int) and no other key."""
    if not any(k in label for k in LABEL_KEYS):
        raise error(f"{where}: label must contain 'accepted' or 'citation_count'")
    unknown = set(label) - set(LABEL_KEYS)
    if unknown:
        raise error(f"{where}: unknown label keys {sorted(unknown)}")
    if type(label.get("accepted", False)) is not bool:
        raise error(f"{where}: 'accepted' must be a boolean")
    count = label.get("citation_count", 0)
    if type(count) is not int or count < 0:
        raise error(f"{where}: 'citation_count' must be a non-negative integer")


def check_task_label(label: dict, task: str, where: str) -> None:
    """Raise ConfigurationError, starting with `where`, unless `label` holds
    the key that `task` trains on; a task with no such key is left to the
    config checks."""
    key = TASK_LABELS.get(task)
    if key is not None and key not in label:
        raise ConfigurationError(f"{where}: task {task!r} needs the label {key!r}")


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
        check_label(self.label, f"document {self.id!r}", CorpusFormatError)
        if self.split not in SPLITS:
            raise CorpusFormatError(f"document {self.id!r}: split must be one of {SPLITS}, got {self.split!r}")

    def to_json(self) -> dict:
        return {"id": self.id, "title": self.title, "abstract": self.abstract,
                "body_text": self.body_text, "label": dict(self.label), "split": self.split}


def load_corpus(path, task: str | None = None) -> Iterator[RawDocument]:
    """Yield one RawDocument per JSONL line as it is read; errors start with
    "<path>: line N", and come only when iteration reaches that line. Given a
    task, every label must hold the key that task trains on."""
    seen: set[str] = set()
    for where, obj in json_lines(path, _CORPUS_FIELDS, error=CorpusFormatError):
        try:
            doc = RawDocument(id=obj["id"], title=obj["title"], abstract=obj["abstract"],
                              body_text=obj["body_text"], label=obj["label"],
                              split=obj.get("split", "train"))
        except CorpusFormatError as exc:
            raise CorpusFormatError(f"{where}: {exc}") from None
        if task is not None:
            check_task_label(doc.label, task, where)
        if doc.id in seen:
            raise CorpusFormatError(f"{where}: duplicate document id {doc.id!r}")
        seen.add(doc.id)
        yield doc


def save_corpus(docs: list[RawDocument], path) -> None:
    path = Path(path)
    with open(path, "w", encoding="utf-8") as fh:
        for doc in docs:
            fh.write(json.dumps(doc.to_json(), sort_keys=True) + "\n")

