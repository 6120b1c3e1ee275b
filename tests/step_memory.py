"""Walk the backward of one paper-size training step node by node under tracemalloc.

Run from anywhere:

    python tests/step_memory.py

It takes one training step of the paper-default HAN (E=50, H=256) on each of
three batches:

- han-paper: 4 documents of 20 sentences x 25 tokens, the shape of the
  benchmark's han-paper workload;
- ragged: synth.heterogeneous_length_corpus(n_docs=4) cut at 4,000
  characters, a (4, 166, 33) batch in which 14% of the cells are tokens;
- 20k: the same corpus cut at the paper's 20,000 characters, the (4, 832, 33)
  worst batch. Its step peaks above 1 GiB, so it takes a while and needs
  about 2 GiB of memory.

Then it takes one step of each model kind at the regress defaults (E=300,
H=100) on synth.heterogeneous_length_corpus(n_docs=16) cut at 4,000
characters, one batch of 16 documents (regress batches hold 64), with
citation-count labels.

For each step it prints the peak of the forward pass and the memory the tape
holds after it. Then, for each tape node in the order backward runs them, it
prints the node's op, the shape of its value, the peak while the node ran and
the memory held after it, once backward has released the node's own gradient.
Backward applies each parameter's Adam update inside the op that computes
its gradient, so a node's row includes the updates of its parameters. Last
comes the peak of the whole step. Memory is counted from the start of the
step, so the model, its optimizer state and the batch are not in it;
tests/test_training.py bounds the han-paper and ragged step peaks the same
way.

It uses only the standard library and numpy. pytest does not collect it (its
name does not start with test_).
"""

import dataclasses
import pathlib
import sys
import tracemalloc

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from hanst import autodiff as ad  # noqa: E402
from hanst import models as md  # noqa: E402
from hanst import synth  # noqa: E402
from hanst import training as tr  # noqa: E402
from hanst.textprep import TaggedDocument, prepare_corpus  # noqa: E402

MIB = 1024.0 * 1024.0


def han_paper_docs():
    rng = np.random.default_rng(0)
    docs = [TaggedDocument(id=f"d{i}",
                           sentences=[[int(t) for t in rng.integers(2, 10002, size=25)]
                                      for _ in range(20)],
                           roles=["BODY_TEXT"] * 20, label={"accepted": i % 2 == 0})
            for i in range(4)]
    return 10002, docs


def ragged_docs(max_chars, n_docs=4):
    vocab, store = prepare_corpus(synth.heterogeneous_length_corpus(n_docs=n_docs), "none", max_chars,
                                  10000)
    return len(vocab), list(store)


def walk(name, vocab_size, docs, kind="han", task="classify"):
    rng = np.random.default_rng(0)
    config = tr.default_train_config(task, md.default_model_config(kind, task, vocab_size=vocab_size))
    model = md.build_model(config.model, rng)
    optimizer = ad.Adam(model.params, lr=config.lr)
    batch = tr.make_batches(docs, task, len(docs))[0]
    rows = []   # [op, shape, peak, held after], held filled in when the next node starts

    def measured(op, shape, fn):
        box = [fn]

        def run(g):
            current = tracemalloc.get_traced_memory()[0]
            if rows:
                rows[-1][3] = current
            tracemalloc.reset_peak()
            box.pop()(g)   # the closure, and what it saved, is freed when it returns
            rows.append([op, shape, tracemalloc.get_traced_memory()[1], None])
        return run

    tracemalloc.start()
    try:
        with ad.Tape() as tape:
            result = model.forward(batch, training=True, rng=rng)
            loss = tr.compute_loss(result.output, batch.labels, config.loss)
            held, forward_peak = tracemalloc.get_traced_memory()
            for node in tape.nodes:
                op = node.backward_fn.__qualname__.split(".")[0]
                node.backward_fn = measured(op, node.shape, node.backward_fn)
            ad.backward(loss, optimizer)
            rows[-1][3] = tracemalloc.get_traced_memory()[0]
        optimizer.step()
    finally:
        tracemalloc.stop()
    print(f"{name}: batch {batch.ids.shape} holding {int(batch.token_lengths.sum())} tokens, "
          f"{len(rows)} tape nodes run by backward")
    print(f"  {'forward':<32}  peak {forward_peak / MIB:8.1f} MiB  held {held / MIB:8.1f} MiB")
    for op, shape, peak, after in rows:
        print(f"  {op:<16}{str(shape):<16}  peak {peak / MIB:8.1f} MiB  held {after / MIB:8.1f} MiB")
    step_peak = max([forward_peak] + [row[2] for row in rows])
    print(f"  {'step':<32}  peak {step_peak / MIB:8.1f} MiB")


def main():
    walk("han-paper", *han_paper_docs())
    walk("ragged", *ragged_docs(4000))
    walk("20k", *ragged_docs(20000))
    vocab_size, docs = ragged_docs(4000, n_docs=16)
    docs = [dataclasses.replace(doc, label={"citation_count": i}) for i, doc in enumerate(docs)]
    for kind in md.MODEL_KINDS:
        walk(f"regress {kind}", vocab_size, docs, kind, "regress")


if __name__ == "__main__":
    main()
