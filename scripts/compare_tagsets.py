#!/usr/bin/env python3
"""Worked end-to-end comparison: do structure tags help a hierarchical model?

Generates the seeded tag-probe corpus (label = does the title contain the
keyword), trains the hierarchical attention model once with full tags and
once with tags stripped, then runs the exact McNemar test between the two
systems' vote predictions. With tags the task is separable; without them
title and body sentences are indistinguishable, so the gap should be large.

Everything goes through the `hanst` command line, so this doubles as a
smoke test of the packaged workflow.
"""

import argparse
import json
import os

from hanst import synth
from hanst.cli import main as hanst
from hanst.corpus import save_corpus


def run(argv: list[str]) -> None:
    print(f"$ hanst {' '.join(argv)}")
    rc = hanst(argv)
    if rc != 0:
        raise SystemExit(rc)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workdir", default="tagset-comparison")
    parser.add_argument("--n-docs", type=int, default=300)
    parser.add_argument("--epochs", type=int, default=10)
    parser.add_argument("--seeds", default="1,2,3")
    args = parser.parse_args(argv)

    os.makedirs(args.workdir, exist_ok=True)
    corpus = os.path.join(args.workdir, "corpus.jsonl")
    save_corpus(synth.tag_probe_corpus(n_docs=args.n_docs), corpus)

    for tagset in ("full", "none"):
        config = {
            "task": "classify", "model_kind": "han", "tagset": tagset,
            "embedding_dim": 16, "bilstm_hidden": 16, "epochs": args.epochs,
            "batch_size": 16, "vocab_size": 200,
            "seeds": [int(s) for s in args.seeds.split(",")],
        }
        cfg_path = os.path.join(args.workdir, f"config-{tagset}.json")
        with open(cfg_path, "w", encoding="utf-8") as fh:
            json.dump(config, fh, indent=2)
        data_dir = os.path.join(args.workdir, tagset)
        run(["prepare", corpus, "--config", cfg_path, "--out", data_dir])
        run(["train", "--config", cfg_path, "--out", data_dir, "--force"])

    run(["significance",
         os.path.join(args.workdir, "full", "predictions-vote.jsonl"),
         os.path.join(args.workdir, "none", "predictions-vote.jsonl"),
         "--test", "mcnemar", "--name-a", "han-tags", "--name-b", "han-plain"])
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
