"""Damaged artifacts never crash the command line.

One tiny experiment (AWE, dim 8, 1 epoch, 1 seed) is prepared and trained
once. Each example restores it, truncates one of its files or changes one
byte, and runs the commands that read that file: a file of the data
directory, or one the user supplies (corpus, config, embeddings, documents to
predict on). Each command must return 0 or 1 without raising, and on 1 print
exactly one `error: ` line; a corpus-format or embedding-format error names
the damaged file. A damaged file may still load (a changed digit is still a
valid file), so success is allowed too.
"""

import contextlib
import io
import json
import os
import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hanst import cli, synth
from hanst.corpus import save_corpus

CONFIG = {"task": "classify", "model_kind": "awe", "tagset": "none", "epochs": 1,
          "batch_size": 8, "seeds": [1], "embedding_dim": 8, "vocab_size": 200}

CKPT = ["--checkpoint", "{data}/run-1.ckpt", "--out", "{data}"]
MANIFEST = "{data}/manifest.json"
PREPARE = ["prepare", "{corpus}", "--config", "{cfg}", "--out", "{data}"]
# the files the user supplies, kept beside the data directory
OUTSIDE = {
    "corpus.jsonl": [PREPARE, ["stats", "{corpus}", "--out", "{data}"]],
    "cfg.json": [PREPARE, ["train", "--config", "{cfg}", "--force", "--out", "{data}"]],
    "emb.txt": [["train", "--config", "{emb_cfg}", "--force", "--out", "{data}"]],
    "docs.jsonl": [["predict", "{docs}", *CKPT]],
}
COMMANDS = {**OUTSIDE,
    "prepared.jsonl": [["train", "--config", "{cfg}", "--force", "--out", "{data}"],
                       ["evaluate", *CKPT]],
    "vocab.json": [["evaluate", *CKPT], ["predict", "{docs}", *CKPT]],
    "run-1.ckpt": [["evaluate", *CKPT], ["predict", "{docs}", *CKPT],
                   ["evaluate", "--manifest", MANIFEST, "--out", "{data}"]],
    "manifest.json": [["evaluate", "--manifest", MANIFEST, "--out", "{data}"],
                      ["train", "--from-manifest", MANIFEST, "--force", "--out", "{data}"]],
    "predictions-1.jsonl": [["significance", "{data}/predictions-1.jsonl",
                             "{base}/predictions-1.jsonl", "--test", "mcnemar"]],
}


def run(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, err.getvalue()


@pytest.fixture(scope="module")
def experiment(tmp_path_factory):
    base = str(tmp_path_factory.mktemp("fuzz"))
    paths = {"base": base, "data": os.path.join(base, "data"),
             "corpus": os.path.join(base, "corpus.jsonl"), "cfg": os.path.join(base, "cfg.json"),
             "emb_cfg": os.path.join(base, "emb-cfg.json"), "docs": os.path.join(base, "docs.jsonl")}
    docs = synth.tag_probe_corpus(n_docs=40)
    save_corpus(docs, paths["corpus"])
    with open(paths["cfg"], "w", encoding="utf-8") as fh:
        json.dump(CONFIG, fh)
    with open(paths["docs"], "w", encoding="utf-8") as fh:
        for doc in docs[:3]:
            fh.write(json.dumps({"id": doc.id, "title": doc.title, "abstract": doc.abstract,
                                 "body_text": doc.body_text}) + "\n")
    assert run([part.format(**paths) for part in PREPARE])[0] == 0
    with open(os.path.join(paths["data"], "vocab.json"), encoding="utf-8") as fh:
        tokens = json.load(fh)[2:8]
    with open(os.path.join(base, "emb.txt"), "w", encoding="utf-8") as fh:
        for i, token in enumerate(tokens):
            fh.write(f"{token} " + " ".join(f"{(i + k) / 16:.4f}" for k in range(8)) + "\n")
    with open(paths["emb_cfg"], "w", encoding="utf-8") as fh:
        json.dump({**CONFIG, "embeddings": os.path.join(base, "emb.txt")}, fh)
    assert run(["train", "--config", paths["cfg"], "--out", paths["data"]])[0] == 0
    shutil.copy(os.path.join(paths["data"], "predictions-1.jsonl"), base)
    files = {}
    for name in os.listdir(paths["data"]) + list(OUTSIDE):
        with open(where(paths, name), "rb") as fh:
            files[name] = fh.read()
    return paths, files


def where(paths: dict, name: str) -> str:
    return os.path.join(paths["base"] if name in OUTSIDE else paths["data"], name)


def restore(paths: dict, files: dict[str, bytes]) -> None:
    shutil.rmtree(paths["data"])
    os.mkdir(paths["data"])
    for name, content in files.items():
        with open(where(paths, name), "wb") as fh:
            fh.write(content)


@pytest.mark.parametrize("name", sorted(COMMANDS))
@settings(max_examples=80, deadline=None, derandomize=True)
@given(data=st.data())
def test_damaged_file_fails_with_one_error_line(experiment, name, data):
    paths, files = experiment
    content = files[name]
    at = data.draw(st.integers(0, len(content) - 1), label="position")
    if data.draw(st.booleans(), label="truncate"):
        damaged = content[:at]
    else:
        damaged = content[:at] + bytes([content[at] ^ data.draw(st.integers(1, 255))]) + content[at + 1:]
    restore(paths, files)
    with open(where(paths, name), "wb") as fh:
        fh.write(damaged)
    for command in COMMANDS[name]:
        argv = [part.format(**paths) for part in command]
        rc, err = run(argv)
        assert rc in (0, 1), argv
        if rc == 1:
            assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        if err.startswith(("error: corpus-format: ", "error: embedding-format: ")):
            assert f": {where(paths, name)}: line " in err, (argv, err)
