"""The benchmark's pinned counts, held in the tier-1 suite.

`perfbench/pinned.json` pins each op's (MACs, cosines, decisions) and the
first loss or embedding sums on the default corpus seed. A change that moves
one of them fails here, on a few ops of each workload, before a benchmark
run would count its ops as failed. The workloads, pins and checks are read
from `perfbench/` as they are.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import bench  # noqa: E402
import checks  # noqa: E402
from dape import model as M  # noqa: E402
from dape import synth  # noqa: E402
from dape.config import DapeConfig  # noqa: E402

TRAIN_STEPS = 3


def set_up(name, tmp_path):
    """A workload's config, pins, corpus and fresh model, as a benchmark
    run on the default seed builds them."""
    wl = bench.WORKLOADS[name]
    cfg = DapeConfig(**wl.overrides)
    cfg.validate()
    path = str(tmp_path / "corpus.dape")
    synth.gen_corpus(bench.N_SCENES, bench.DEFAULT_SEED, wl.density_mix, path, cfg)
    pins = checks.load_pins(name, bench.DEFAULT_SEED)
    assert pins is not None, f"no pins for {name}"
    return cfg, pins, synth.load_corpus(path), M.init_model(cfg)


@pytest.mark.parametrize("name", ["train_default", "train_nfa_dense"])
def test_first_train_steps_hold_the_pins(name, tmp_path):
    cfg, pins, corpus, model = set_up(name, tmp_path)
    batches = bench.episode_batches(cfg, corpus.train_ids)
    for step, ids in enumerate(batches[:TRAIN_STEPS]):
        loss, gnorm, trace = M.train_step(model, corpus.batch(ids), cfg)
        want_loss = pins["first_loss"] if step == 0 else None
        problems = checks.check_train_op(
            loss, gnorm, checks.counts_of(trace), want_loss, pins["counts"][step]
        )
        assert problems == [], f"step {step}: {problems}"


def test_first_embed_op_holds_the_pins(tmp_path, monkeypatch):
    cfg, pins, corpus, model = set_up("embed_eval", tmp_path)
    # embed_corpus drops the forward's trace; keep it for the counts
    traces = []
    forward = M.forward

    def forward_keeping_trace(*args, **kwargs):
        out = forward(*args, **kwargs)
        traces.append(out[2])
        return out

    monkeypatch.setattr(M, "forward", forward_keeping_trace)
    img, txt = M.embed_corpus(model, corpus.batch(corpus.eval_ids), cfg)
    (trace,) = traces
    problems = checks.check_embed_op(
        img, txt, checks.counts_of(trace), None, pins["abs_sums"], pins["counts"][0]
    )
    assert problems == []
