#!/usr/bin/env python3
"""End-to-end byte check: run two small studies through the command line and
print the sha256 of every file they leave.

Everything runs through `hanst.cli.main` in this process, from inside the
work directory and with relative paths, so no output names the directory:

- the tag study as scripts/compare_tagsets.py runs it, at 3 epochs
  (prepare, train and McNemar, with full tags and with none);
- for each tagset, `evaluate --manifest`, `evaluate --checkpoint` and
  `predict --attention`;
- `predict --attention` of the full-tags HAN over 2,100 further tag-probe
  documents: 65 batches of 32 and a short last one of 20;
- a regress run of han, sent_avg_bilstm and awe on the 120-document
  `synth.citation_corpus` (tagset full, 2 seeds), each through `evaluate
  --manifest` and `predict` (han with `--attention`), then `evaluate
  --checkpoint` of han's seed 1, Wilcoxon between han and awe, and `stats`.

Each command's stdout is kept as `<step>.out`. Train-log timestamps are
blanked, then one `<sha256>  <path>` line per file is printed, sorted by
path: 93 files. Each of the 12 checkpoints gets a second line,
`<sha256>  <path>:params`, the hash of its bytes after the header, so a
change to the header format alone leaves those lines as they were. Two
trees that compute the same bytes print the same 105 lines:

    PYTHONPATH=src python scripts/end_to_end.py --workdir e2e > hashes.txt

The seed workers import this script as their main module, hence the guard at
the bottom.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import struct

import compare_tagsets
from hanst import synth
from hanst.cli import main as hanst
from hanst.corpus import save_corpus
from hanst.models import CHECKPOINT_MAGIC

TIMESTAMP = re.compile(r'"timestamp": "[^"]*"')
REGRESS = {"task": "regress", "tagset": "full", "embedding_dim": 16, "bilstm_hidden": 16,
           "epochs": 3, "batch_size": 16, "vocab_size": 200, "seeds": [1, 2]}


def run(name: str, argv: list[str]) -> None:
    """Run one command, keeping its stdout in `name`.out; stop on failure."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = hanst(argv)
    with open(f"{name}.out", "w", encoding="utf-8") as fh:
        fh.write(out.getvalue())
    if rc != 0:
        raise SystemExit(f"hanst {' '.join(argv)} exited {rc}")


def tag_study() -> None:
    with open("compare_tagsets.out", "w", encoding="utf-8") as fh, \
            contextlib.redirect_stdout(fh):
        compare_tagsets.main(["--workdir", "tags", "--epochs", "3"])
    for tagset in ("full", "none"):
        data = os.path.join("tags", tagset)
        run(f"evaluate-manifest-{tagset}", ["evaluate", "--manifest", f"{data}/manifest.json",
                                            "--out", data])
        run(f"evaluate-checkpoint-{tagset}", ["evaluate", "--checkpoint", f"{data}/run-1.ckpt",
                                              "--out", data])
        run(f"predict-attention-{tagset}", ["predict", "tags/corpus.jsonl", "--checkpoint",
                                            f"{data}/run-1.ckpt", "--attention", "--out", data])
    save_corpus(synth.tag_probe_corpus(n_docs=2100, seed=7), "tags/predict-2100.jsonl")
    run("predict-attention-2100", ["predict", "tags/predict-2100.jsonl", "--checkpoint",
                                   "tags/full/run-1.ckpt", "--attention", "--out", "tags/full"])


def citation_study() -> None:
    os.makedirs("cites", exist_ok=True)
    save_corpus(synth.citation_corpus(n_docs=120), "cites/corpus.jsonl")
    for kind in ("han", "sent_avg_bilstm", "awe"):
        cfg, data = f"cites/config-{kind}.json", f"cites/{kind}"
        with open(cfg, "w", encoding="utf-8") as fh:
            json.dump(dict(REGRESS, model_kind=kind), fh, indent=2)
        run(f"prepare-{kind}", ["prepare", "cites/corpus.jsonl", "--config", cfg, "--out", data])
        run(f"train-{kind}", ["train", "--config", cfg, "--out", data, "--force"])
        run(f"evaluate-{kind}", ["evaluate", "--manifest", f"{data}/manifest.json", "--out", data])
        attention = ["--attention"] if kind == "han" else []
        run(f"predict-{kind}", ["predict", "cites/corpus.jsonl", "--checkpoint",
                                f"{data}/run-1.ckpt", *attention, "--out", data])
    run("evaluate-checkpoint-han", ["evaluate", "--checkpoint", "cites/han/run-1.ckpt",
                                    "--out", "cites/han"])
    run("wilcoxon", ["significance", "cites/han/predictions-vote.jsonl",
                     "cites/awe/predictions-vote.jsonl", "--test", "wilcoxon",
                     "--name-a", "han", "--name-b", "awe"])
    run("stats", ["stats", "cites/corpus.jsonl", "--out", "cites/stats"])


def digest(path: str) -> str:
    with open(path, "rb") as fh:
        raw = fh.read()
    if os.path.basename(path).startswith("train-log-"):
        raw = TIMESTAMP.sub('"timestamp": ""', raw.decode("utf-8")).encode("utf-8")
    return hashlib.sha256(raw).hexdigest()


def params_digest(path: str) -> str:
    """The sha256 of a checkpoint's parameter values: its bytes after the
    magic, the header's `<Q` length and the header."""
    with open(path, "rb") as fh:
        raw = fh.read()
    start = len(CHECKPOINT_MAGIC)
    (length,) = struct.unpack("<Q", raw[start:start + 8])
    return hashlib.sha256(raw[start + 8 + length:]).hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workdir", default="end-to-end", help="must not exist yet")
    args = parser.parse_args()
    os.makedirs(args.workdir)
    os.chdir(args.workdir)
    tag_study()
    citation_study()
    for path in sorted(os.path.relpath(os.path.join(root, name))
                       for root, _, names in os.walk(".") for name in names):
        print(f"{digest(path)}  {path}")
        if path.endswith(".ckpt"):
            print(f"{params_digest(path)}  {path}:params")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
