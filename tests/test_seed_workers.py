"""Seed workers end to end: their bits, and the processes they leave.

`hanst train` trains every seed in its own worker process with one BLAS
thread, so the bytes it writes depend neither on OPENBLAS_NUM_THREADS nor on
how many seeds train together, and it leaves no process behind, whether it
ends normally or by Ctrl-C.
"""

import contextlib
import filecmp
import io
import json
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

import hanst
from hanst import cli, synth
from hanst.corpus import save_corpus

# the tag study's config, one epoch: trained in the calling process, its
# run-1.ckpt differed between one and two OpenBLAS threads
CONFIG = {"task": "classify", "model_kind": "han", "tagset": "full", "embedding_dim": 16,
          "bilstm_hidden": 16, "epochs": 1, "batch_size": 16, "vocab_size": 200, "seeds": [1]}


def hanst_env(**extra) -> dict:
    return dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(hanst.__file__)), **extra)


def prepared(tmp_path, **overrides) -> tuple[str, str]:
    """A data directory prepared from 120 tag-probe documents, and its config."""
    corpus, cfg, data = tmp_path / "corpus.jsonl", tmp_path / "cfg.json", tmp_path / "data"
    save_corpus(synth.tag_probe_corpus(n_docs=120, seed=0), corpus)
    cfg.write_text(json.dumps(dict(CONFIG, **overrides)))
    assert quiet_main("prepare", str(corpus), "--config", str(cfg), "--out", str(data)) == 0
    return str(data), str(cfg)


def quiet_main(*argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(list(argv))


def copy_of(data: str, name: str) -> str:
    out = os.path.join(os.path.dirname(data), name)
    shutil.copytree(data, out)
    return out


@pytest.mark.skipif((os.cpu_count() or 1) < 2,
                    reason="OpenBLAS caps its thread count at the core count")
def test_train_bytes_do_not_depend_on_blas_threads(tmp_path):
    data, cfg = prepared(tmp_path)
    outs = []
    for threads in ("1", "2"):
        out = copy_of(data, f"threads-{threads}")
        proc = subprocess.run([sys.executable, "-m", "hanst", "train", "--config", cfg, "--out", out],
                              env=hanst_env(OPENBLAS_NUM_THREADS=threads), capture_output=True,
                              text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outs.append(out)
    names = ["run-1.ckpt", "predictions-1.jsonl", "report.json"]
    assert filecmp.cmpfiles(*outs, names, shallow=False) == (names, [], [])


def test_seeds_train_as_they_would_alone(tmp_path):
    data, cfg = prepared(tmp_path, seeds=[1, 2, 3])
    together = copy_of(data, "together")
    assert quiet_main("train", "--config", cfg, "--out", together) == 0
    for seed in ("1", "2", "3"):
        alone = copy_of(data, f"alone-{seed}")
        assert quiet_main("train", "--config", cfg, "--out", alone, "--seed-list", seed) == 0
        name = f"run-{seed}.ckpt"
        assert filecmp.cmp(os.path.join(together, name), os.path.join(alone, name), shallow=False)


def group_members(pgid: int) -> list[int]:
    """The processes in process group `pgid`, read from /proc."""
    pids = []
    for entry in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as fh:
                fields = fh.read().rpartition(")")[2].split()
        except OSError:   # it ended meanwhile
            continue
        if int(fields[2]) == pgid:
            pids.append(int(entry))
    return pids


def group_ends_within(pgid: int, seconds: float) -> bool:
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return True
        time.sleep(0.05)
    return False


def start_train(cfg: str, data: str) -> subprocess.Popen:
    # its own session, so its process group holds it and everything it starts
    return subprocess.Popen([sys.executable, "-m", "hanst", "train", "--config", cfg,
                             "--out", data], env=hanst_env(), start_new_session=True,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)


def test_train_leaves_no_process_behind(tmp_path):
    data, cfg = prepared(tmp_path, seeds=[1, 2, 3])
    proc = start_train(cfg, data)
    _, err = proc.communicate(timeout=300)
    assert proc.returncode == 0, err
    # the forkserver exits once its parent has
    assert group_ends_within(proc.pid, 5.0)


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads process groups from /proc")
def test_ctrl_c_stops_every_seed_worker(tmp_path):
    data, cfg = prepared(tmp_path, seeds=[1, 2, 3], epochs=1000)
    proc = start_train(cfg, data)
    try:
        # the command, the forkserver, multiprocessing's resource tracker and three workers
        deadline = time.monotonic() + 120
        while len(group_members(proc.pid)) < 6 and proc.poll() is None:
            assert time.monotonic() < deadline, "the seed workers never started"
            time.sleep(0.05)
        os.killpg(proc.pid, signal.SIGINT)   # what a terminal sends on Ctrl-C
        _, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    assert proc.returncode != 0 and "KeyboardInterrupt" in err
    assert group_ends_within(proc.pid, 5.0)
    assert not os.path.exists(os.path.join(data, "manifest.json"))
