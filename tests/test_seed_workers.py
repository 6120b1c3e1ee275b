"""Seed workers end to end: their bits, and the processes they leave.

`hanst train` trains every seed in its own worker process with one BLAS
thread, so the bytes it writes depend neither on OPENBLAS_NUM_THREADS nor on
how many seeds train together, and it leaves no process behind, whether it
ends normally, by Ctrl-C or killed. `evaluate` and `predict` compute in such
workers too. The workers fork from a server that has the package imported,
however the caller found it.
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

import numpy as np
import pytest

import hanst
from hanst import cli, synth
from hanst import models as md
from hanst.corpus import save_corpus
from hanst.textprep import Vocabulary

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


@pytest.mark.skipif((os.cpu_count() or 1) < 2,
                    reason="OpenBLAS caps its thread count at the core count")
def test_predict_and_evaluate_bytes_do_not_depend_on_blas_threads(tmp_path):
    # an untrained HAN at 2H = 600, where `x @ w` with K = 600 rounds otherwise
    # under one and two OpenBLAS threads: run in the calling process, predict
    # printed other attention maps from line 1 on
    corpus, cfg, data = tmp_path / "corpus.jsonl", tmp_path / "cfg.json", str(tmp_path / "data")
    save_corpus(synth.heterogeneous_length_corpus(n_docs=2), corpus)
    raw = {"task": "classify", "model_kind": "han", "embedding_dim": 8, "bilstm_hidden": 300,
           "max_chars": 500, "seeds": [1]}
    cfg.write_text(json.dumps(raw))
    assert quiet_main("prepare", str(corpus), "--config", str(cfg), "--out", data) == 0
    vocab = Vocabulary.load(os.path.join(data, "vocab.json"))
    model = md.build_model(cli.make_train_config(raw, len(vocab)).model, np.random.default_rng(0))
    ckpt = str(tmp_path / "untrained.ckpt")
    md.save_checkpoint(model, vocab.sha256(), ckpt)
    for argv in (["predict", str(corpus), "--attention"], ["evaluate", "--split", "train"]):
        outs = []
        for threads in ("1", "2"):
            proc = subprocess.run([sys.executable, "-m", "hanst", *argv, "--checkpoint", ckpt,
                                   "--out", data], env=hanst_env(OPENBLAS_NUM_THREADS=threads),
                                  capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout)
        assert outs[0] == outs[1], argv[0]


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


def wait_for_workers(proc: subprocess.Popen) -> None:
    """Until the group holds the command, the forkserver, multiprocessing's
    resource tracker and three seed workers."""
    deadline = time.monotonic() + 120
    while len(group_members(proc.pid)) < 6 and proc.poll() is None:
        assert time.monotonic() < deadline, "the seed workers never started"
        time.sleep(0.05)


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
        wait_for_workers(proc)
        os.killpg(proc.pid, signal.SIGINT)   # what a terminal sends on Ctrl-C
        _, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    assert proc.returncode != 0 and "KeyboardInterrupt" in err
    assert group_ends_within(proc.pid, 5.0)
    assert not os.path.exists(os.path.join(data, "manifest.json"))


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads process groups from /proc")
@pytest.mark.parametrize("signum", [signal.SIGKILL, signal.SIGTERM])
def test_killed_train_leaves_no_process_behind(tmp_path, signum):
    # the command alone is killed, as the OOM killer or a scheduler kills it;
    # its workers, the forkserver and the resource tracker must go too
    data, cfg = prepared(tmp_path, seeds=[1, 2, 3], epochs=1000)
    proc = start_train(cfg, data)
    try:
        wait_for_workers(proc)
        os.kill(proc.pid, signum)
        # not communicate: the workers hold the stderr pipe while they live
        assert proc.wait(timeout=60) == -signum
        assert group_ends_within(proc.pid, 5.0), group_members(proc.pid)
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()


def test_workers_preload_the_package_found_through_sys_path(tmp_path):
    # a caller that finds hanst through sys.path alone, without PYTHONPATH,
    # as tests/line_coverage.py does; the job is `eval`, so unpickling it
    # imports nothing of hanst, and only the server's preload imports cli
    code = ("import sys; sys.path.insert(0, sys.argv[1]); from hanst.training import run_seeds; "
            "print(run_seeds(eval, [(\"'hanst.cli' in __import__('sys').modules\",)]))")
    env = {name: value for name, value in os.environ.items() if name != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "-c", code, os.path.dirname(os.path.dirname(hanst.__file__))],
                          env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[True]\n"


def test_commands_from_a_script_on_stdin_end_in_one_line(tmp_path):
    # a worker imports the caller's main module from its file, and `python -`
    # has none: each command is refused before it starts a worker
    data, cfg = prepared(tmp_path)
    vocab = Vocabulary.load(os.path.join(data, "vocab.json"))
    raw = json.loads(open(cfg, encoding="utf-8").read())
    model = md.build_model(cli.make_train_config(raw, len(vocab)).model, np.random.default_rng(0))
    ckpt = str(tmp_path / "untrained.ckpt")
    md.save_checkpoint(model, vocab.sha256(), ckpt)
    docs = str(tmp_path / "corpus.jsonl")
    for argv in (["train", "--config", cfg, "--out", data],
                 ["predict", docs, "--checkpoint", ckpt, "--out", data]):
        script = f"import sys\nfrom hanst import cli\nsys.exit(cli.main({argv!r}))\n"
        proc = subprocess.run([sys.executable, "-"], input=script, env=hanst_env(), cwd=tmp_path,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr == ("error: config-error: a worker process cannot import the main "
                               "module '<stdin>'; run the script from a file\n"), argv[0]
    assert not os.path.exists(os.path.join(data, "manifest.json"))
