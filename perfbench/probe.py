"""Hooks around hanst's public functions, installed by a worker process.

`Probe` always keeps a few counters (step clock, tape sizes, padding fill,
cutoff ratio) at O(1) cost per call; they go in before set-up, so a tape the
warm-up leaves behind counts as live. With tracing on it also records one
span per call of each public function listed in `SPANS`, only while the
unit runs, in memory, as (name, start, end, parent index); `dump` writes
them out at exit.

Each name is patched where its caller looks it up: `cli` imported
`encode_document` and friends by name, so those are patched on `cli`, while
`training` calls `md.pad_batch`, so that one is patched on `models`.
"""

from __future__ import annotations

import json
import os
import time
import weakref

from hanst import autodiff as ad
from hanst import cli
from hanst import models as md
from hanst import textprep as tp
from hanst import training as tr

import stats

# (span name, owner, attribute) for every traced call site
SPANS = [
    ("autodiff.backward", ad, "backward"),
    ("autodiff.adam_step", ad.Adam, "step"),
    ("models.forward", md.Model, "forward"),
    ("models.pad_batch", md, "pad_batch"),
    ("models.save_checkpoint", md, "save_checkpoint"),
    ("models.load_checkpoint", md, "load_checkpoint"),
    ("training.train_epoch", tr, "train_epoch"),
    ("training.predict", tr, "predict"),
    ("training.make_batches", tr, "make_batches"),
    ("training.resample_balanced", tr, "resample_balanced"),
    ("evalstats.vote_aggregate", tr, "vote_aggregate"),
    ("textprep.segment_sentences", tp, "segment_sentences"),
    ("textprep.tokenize", tp, "tokenize"),
    ("textprep.tokenize", cli, "tokenize"),
    ("textprep.encode_document", cli, "encode_document"),
    ("textprep.build_vocabulary", cli, "build_vocabulary"),
    ("corpus.load_corpus", cli, "load_corpus"),
    ("evalstats.vote_aggregate", cli, "vote_aggregate"),
    ("evalstats.mcnemar_exact", cli, "mcnemar_exact"),
    ("evalstats.save_predictions", cli, "save_predictions"),
    ("cli.cmd_prepare", cli, "cmd_prepare"),
    ("cli.cmd_train", cli, "cmd_train"),
    ("cli.cmd_evaluate", cli, "cmd_evaluate"),
    ("cli.cmd_significance", cli, "cmd_significance"),
    ("cli.write_prepared", cli, "write_prepared"),
    ("cli.load_prepared", cli, "load_prepared"),
]

# recurrent and attention layers are classes shared by word and sentence
# level; the span takes its name from the instance's parameter prefix
LAYER_SPANS = [(md.BiLstmLayer, "run", lambda layer: layer.fw.w_ih.name),
               (md.AttentionPool, "run", lambda layer: layer.w.name)]

MIB = 1024.0 * 1024.0


def _ratio(part: float, whole: float) -> float:
    """part / whole, or 0 when nothing was counted."""
    return part / whole if whole else 0.0


class Probe:
    def __init__(self, tracing: bool):
        self.tracing = tracing
        self.spans: list = []
        self._stack: list[int] = []
        self._undo: list = []
        self._tapes: list = []
        self.reset()

    def reset(self) -> None:
        """Zero the counters; tapes made earlier still count as live."""
        self.spans.clear()
        self.step_ms: list[float] = []
        self.live_tapes: list[int] = []
        self.backward_calls = 0
        self.tape_nodes = 0
        self.tape_bytes = 0
        self.train_docs = 0
        self.predict_docs = 0
        self.predict_s = 0.0
        self.token_real = self.token_cells = 0.0
        self.sent_real = self.sent_cells = 0.0
        self.cutoff_in = self.cutoff_kept = 0
        self.segment_chars = 0
        self.bytes_read = 0
        self.checkpoint_bytes = 0
        self.prepared_bytes = 0
        self._mark = time.perf_counter()

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr: str, make) -> None:
        original = getattr(owner, attr)
        setattr(owner, attr, make(original))
        self._undo.append((owner, attr, original))

    def _after(self, owner, attr: str, record) -> None:
        """Call record(args, result) after each call."""
        def make(fn):
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                record(args, result)
                return result
            return wrapper
        self._patch(owner, attr, make)

    def _span(self, owner, attr: str, name_of) -> None:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def make(fn):
            def wrapper(*args, **kwargs):
                name = name_of(args)
                index = len(spans)
                spans.append(None)
                stack.append(index)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    spans[index] = (name, start, end, stack[-1] if stack else -1)
            return wrapper
        self._patch(owner, attr, make)

    def install_spans(self) -> None:
        for name, owner, attr in SPANS:
            self._span(owner, attr, lambda args, name=name: name)
        for owner, attr, param_name in LAYER_SPANS:
            self._span(owner, attr, lambda args, p=param_name:
                       "models." + p(args[0]).split(".")[0] + ".fwd")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def install_counters(self) -> None:
        def tape_init(original):
            def init(tape):
                self._tapes = [ref for ref in self._tapes if ref() is not None]
                self.live_tapes.append(len(self._tapes))
                self._tapes.append(weakref.ref(tape))
                original(tape)
            return init
        self._patch(ad.Tape, "__init__", tape_init)

        def epoch_start(original):
            def train_epoch(model, batches, *args, **kwargs):
                self.train_docs += sum(batch.size for batch in batches)
                self._mark = time.perf_counter()
                return original(model, batches, *args, **kwargs)
            return train_epoch
        self._patch(tr, "train_epoch", epoch_start)

        def step_end(args, _):
            now = time.perf_counter()
            self.step_ms.append(1000.0 * (now - self._mark))
            self._mark = now
        self._after(ad.Adam, "step", step_end)

        def backward(args, _):
            nodes = args[0].tape.nodes
            self.backward_calls += 1
            self.tape_nodes += len(nodes)
            if self.tracing:
                self.tape_bytes += sum(n.values.nbytes + (0 if n.grad is None else n.grad.nbytes)
                                       for n in nodes)
        self._after(ad, "backward", backward)

        def timed_predict(original):
            def predict(model, docs, *args, **kwargs):
                start = time.perf_counter()
                records = original(model, docs, *args, **kwargs)
                self.predict_s += time.perf_counter() - start
                self.predict_docs += len(docs)
                return records
            return predict
        self._patch(tr, "predict", timed_predict)

        def fill(args, batch):
            self.token_real += float(batch.token_mask.sum())
            self.token_cells += batch.token_mask.size
            self.sent_real += float(batch.sent_mask.sum())
            self.sent_cells += batch.sent_mask.size
        self._after(md, "pad_batch", fill)

        def cutoff(args, kept):
            self.cutoff_in += sum(len(s) for s in args[0])
            self.cutoff_kept += sum(len(s) for s in kept)
        self._after(tp, "apply_cutoff", cutoff)

        if self.tracing:
            def segmented(args, _):
                self.segment_chars += len(args[0])
            self._after(tp, "segment_sentences", segmented)

            def read(args, _):
                self.bytes_read += os.path.getsize(args[0])
            self._after(cli, "load_corpus", read)

            def checkpoint(args, _):
                self.checkpoint_bytes += os.path.getsize(args[2])
            self._after(md, "save_checkpoint", checkpoint)

            def prepared(args, _):
                self.prepared_bytes += os.path.getsize(args[0])
            self._after(cli, "write_prepared", prepared)

    # -- results -----------------------------------------------------------

    def counters(self) -> dict:
        """The exact counters: identical on every run of the same inputs."""
        return {
            "autodiff.tape_nodes_per_step": _ratio(self.tape_nodes, self.backward_calls),
            "autodiff.live_tapes_at_step_start": max(self.live_tapes, default=0),
            "models.token_fill": _ratio(self.token_real, self.token_cells),
            "textprep.chars_kept_ratio": _ratio(self.cutoff_kept, self.cutoff_in),
        }

    def layers(self, unit_s: float) -> dict:
        """Per-layer metrics of a traced unit: span self times and counts."""
        own = stats.self_time_by_name(self.spans)
        out = {}
        for name, _, _ in SPANS:
            out[name + ".s"] = own.get(name, 0.0)
        for level in ("word_bilstm", "word_attn", "sent_bilstm", "sent_attn"):
            out[f"models.{level}.fwd_s"] = own.get(f"models.{level}.fwd", 0.0)
        out.update(self.counters())
        out.update({
            "autodiff.tape_mib_per_step": _ratio(self.tape_bytes / MIB, self.backward_calls),
            "models.sentence_fill": _ratio(self.sent_real, self.sent_cells),
            "models.checkpoint_bytes": self.checkpoint_bytes,
            "training.steps": len(self.step_ms),
            "textprep.segment_sentences.chars_in": self.segment_chars,
            "corpus.bytes_read": self.bytes_read,
            "cli.prepared_bytes": self.prepared_bytes,
            "trace.untraced_share": _ratio(unit_s - stats.root_time(self.spans), unit_s),
        })
        return out

    def dump(self, path: str) -> None:
        names = sorted({span[0] for span in self.spans})
        index = {name: i for i, name in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[index[n], round(s - t0, 9), round(e - t0, 9), p] for n, s, e, p in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"columns": ["name", "start_s", "end_s", "parent"],
                       "names": names, "spans": rows}, fh)
