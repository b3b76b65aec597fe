"""A perturbed output or a wrong count must count as a failed op.

    python3 -m pytest perfbench/test_checks.py
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import bench  # noqa: E402
import checks  # noqa: E402
from dape import model as M  # noqa: E402

COUNTS = [100, 10, 4]


def unit_rows(seed=0):
    x = np.random.default_rng(seed).standard_normal((4, 8))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def test_train_op_checks():
    assert checks.check_train_op(0.5, 1.0, COUNTS, 0.5, COUNTS) == []
    assert checks.check_train_op(float("nan"), 1.0, COUNTS, None, None)
    assert checks.check_train_op(0.5, float("inf"), COUNTS, None, None)
    assert checks.check_train_op(0.5 * (1 + 1e-9), 1.0, COUNTS, 0.5, COUNTS)
    assert checks.check_train_op(0.5, 1.0, [100, 10, 5], 0.5, COUNTS)


def test_embed_op_checks():
    img, txt = unit_rows(0), unit_rows(1)
    sums = checks.abs_sums(img, txt)
    assert checks.check_embed_op(img, txt, COUNTS, (img, txt), sums, COUNTS) == []
    off_norm = img.copy()
    off_norm[0, 0] += 1e-6
    assert checks.check_embed_op(off_norm, txt, COUNTS, None, None, None)
    assert checks.check_embed_op(img, txt, COUNTS, (unit_rows(2), txt), None, None)
    assert checks.check_embed_op(img, txt, COUNTS, None, [sums[0] * (1 + 1e-9), sums[1]], None)
    assert checks.check_embed_op(img, txt, [100, 11, 4], None, None, COUNTS)
    nan = img.copy()
    nan[1, 1] = np.nan
    assert checks.check_embed_op(nan, txt, COUNTS, None, None, None)


def test_loss_falls():
    assert checks.check_loss_falls(1.0, 0.9) == []
    assert checks.check_loss_falls(1.0, 1.0)


@pytest.fixture
def short_train(monkeypatch, tmp_path):
    """`train_default` on a non-pinned seed: two 4-step episodes, the second
    held to the first."""
    monkeypatch.setattr(bench, "EPISODE_STEPS", 4)
    monkeypatch.setattr(bench, "SETUP_REPEATS", 1)
    st = bench.set_up(bench.WORKLOADS["train_default"], 3, tmp_path)
    real_step = M.train_step
    calls = []

    def run(perturb):
        def train_step(model, batch, cfg):
            loss, gnorm, trace = real_step(model, batch, cfg)
            calls.append(None)
            return perturb(len(calls) - 1, loss, gnorm, trace)

        monkeypatch.setattr(M, "train_step", train_step)
        # four steps are too few for real training to lower the loss
        losses = iter((1.0, 0.5))
        monkeypatch.setattr(bench, "train_set_loss", lambda *_: next(losses))
        monkeypatch.setattr(bench.Loop, "done", property(lambda self: self.tally.attempted >= 8))
        loop = bench.Loop(0.0, None)
        bench.run_train(st, loop, None)
        return loop.tally

    return run


def test_unperturbed_run_passes(short_train):
    tally = short_train(lambda i, loss, g, trace: (loss, g, trace))
    assert tally.attempted == 8 and not tally.failed


def test_perturbed_loss_counts_as_failed(short_train):
    def perturb(i, loss, g, trace):
        return (loss * (1 + 1e-8) if i == 6 else loss), g, trace

    tally = short_train(perturb)
    assert tally.failed == {6}


def test_wrong_count_counts_as_failed(short_train):
    def perturb(i, loss, g, trace):
        if i == 5:
            trace.record_decision("extra", None)
        return loss, g, trace

    tally = short_train(perturb)
    assert tally.failed == {5}


def test_raising_op_counts_as_failed(short_train):
    def perturb(i, loss, g, trace):
        if i == 7:
            raise FloatingPointError("injected")
        return loss, g, trace

    tally = short_train(perturb)
    assert tally.failed == {7} and tally.attempted == 8


def test_pinned_counts_are_enforced():
    pins = checks.load_pins("train_default", bench.DEFAULT_SEED)
    assert pins is not None and len(pins["counts"]) == bench.EPISODE_STEPS
    assert checks.check_train_op(pins["first_loss"], 1.0, pins["counts"][0],
                                 pins["first_loss"], [c + 1 for c in pins["counts"][0]])
    assert checks.load_pins("train_default", bench.DEFAULT_SEED + 1) is None


def test_embed_loop_flags_perturbed_embeddings(monkeypatch, tmp_path):
    monkeypatch.setattr(bench, "SETUP_REPEATS", 1)
    st = bench.set_up(bench.WORKLOADS["embed_eval"], 3, tmp_path)
    real_embed = M.embed_corpus
    calls = []

    def embed_corpus(model, batch, cfg):
        img, txt = real_embed(model, batch, cfg)
        calls.append(None)
        if len(calls) == 3:
            img = img.copy()
            img[0] = -img[0]
        return img, txt

    monkeypatch.setattr(M, "embed_corpus", embed_corpus)
    loop = bench.Loop(0.0, None)
    monkeypatch.setattr(bench.Loop, "done", property(lambda self: self.tally.attempted >= 4))
    bench.run_embed(st, loop, None)
    assert loop.tally.attempted == 4 and loop.tally.failed == {2}
