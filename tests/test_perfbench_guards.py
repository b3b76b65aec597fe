"""The benchmark's tracer and op loop, held in the tier-1 suite.

`perfbench/tracer.py` wraps `dape` functions by attribute name, so renaming
one breaks only a traced benchmark run; the op loop must fail an op whose
counts differ from its twin's. Both are read from `perfbench/` as they are.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import bench  # noqa: E402
import tracer  # noqa: E402
from dape import model as M  # noqa: E402


@pytest.mark.parametrize("name, nfa_calls", [("train_default", 1), ("train_nfa_dense", 7)])
def test_traced_train_step_reaches_every_layer(name, nfa_calls, tmp_path, monkeypatch):
    """One traced step calls fine alignment once per `pool_add` layer plus
    once per injection, and every self-time layer the report reads shows up."""
    monkeypatch.setattr(bench, "SETUP_REPEATS", 1)
    st = bench.set_up(bench.WORKLOADS[name], bench.DEFAULT_SEED, tmp_path)
    ids = bench.episode_batches(st.cfg, st.corpus.train_ids)[0]
    spans = tracer.Tracer()
    spans.run_op(0, lambda: M.train_step(st.model, st.corpus.batch(ids), st.cfg))
    op = spans.per_op()[0]
    assert op["calls"]["nfa"] == nfa_calls
    assert set(bench.SELF_LAYERS) <= set(op["self_ms"])


def test_extra_decision_fails_its_op_on_counts(tmp_path, monkeypatch):
    """`train_default` on a non-pinned seed, two 4-step episodes, the second
    held to the first: op 5 records one decision point more than its twin
    and fails on its counts, not on an error."""
    monkeypatch.setattr(bench, "EPISODE_STEPS", 4)
    monkeypatch.setattr(bench, "SETUP_REPEATS", 1)
    st = bench.set_up(bench.WORKLOADS["train_default"], 3, tmp_path)
    real_step, calls = M.train_step, []

    def train_step(model, batch, cfg):
        loss, gnorm, trace = real_step(model, batch, cfg)
        if len(calls) == 5:
            trace.record("extra", np.zeros(trace.samples, bool), (trace.samples,))
        calls.append(None)
        return loss, gnorm, trace

    monkeypatch.setattr(M, "train_step", train_step)
    # four steps are too few for real training to lower the loss
    losses = iter((1.0, 0.5))
    monkeypatch.setattr(bench, "train_set_loss", lambda *_: next(losses))
    monkeypatch.setattr(bench.Loop, "done", property(lambda self: self.tally.attempted >= 8))
    loop = bench.Loop(0.0, None)
    bench.run_train(st, loop, None)
    assert loop.tally.attempted == 8 and loop.tally.failed == {5}
    (problem,) = loop.tally.problems
    assert problem.startswith("op 5: counts (macs, cosines, decisions) ")
