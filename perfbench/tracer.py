"""Outside-in span tracer for the dape benchmark.

Spans are recorded by replacing attributes of the `dape` modules with thin
timing wrappers, so nothing inside `src/` changes. Each span keeps its name,
start and end (perf_counter_ns), the index of its parent span and the id of
the op it belongs to. Spans stay in memory; `write` dumps them at exit.

A layer's self time is the duration of its spans minus the time covered by
their child spans. Calls are synchronous, so children nest and their
durations simply subtract.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path


def targets():
    """(owner, attribute, span name, layer, counts as a call) per wrapped call.

    Fine alignment is reached two ways: per layer from `model.forward`
    (`pool_add`) and nested inside detail injection through `dape.phi`'s own
    imports, so both modules' bindings are wrapped. `decide` is imported by
    name into `cwa` and `nfa`; `coarse` looks it up on `dape.costs` per call.
    """
    from dape import costs, cwa, model, nfa, phi, synth, tensor

    return [
        (model, "train_step", "dape.model.train_step", "model.step", True),
        (model, "forward", "dape.model.forward", "model.forward", True),
        (model, "contrastive_loss", "dape.model.contrastive_loss", "model.loss", True),
        (model, "coarse_align_block", "dape.model.coarse_align_block", "coarse", True),
        (model, "cwa_block", "dape.model.cwa_block", "cwa", True),
        (model, "build_hierarchy", "dape.model.build_hierarchy", "nfa", False),
        (model, "nfa_attention", "dape.model.nfa_attention", "nfa", True),
        (model, "phi_inject", "dape.model.phi_inject", "phi", True),
        (phi, "build_hierarchy_from_tokens", "dape.phi.build_hierarchy_from_tokens", "nfa", False),
        (phi, "nfa_attention", "dape.phi.nfa_attention", "nfa", True),
        (costs, "decide", "dape.costs.decide", "costs.decide", True),
        (cwa, "decide", "dape.cwa.decide", "costs.decide", True),
        (nfa, "decide", "dape.nfa.decide", "costs.decide", True),
        (tensor.GradTape, "gradients", "dape.tensor.GradTape.gradients", "tensor.backward", True),
        (synth.Corpus, "batch", "dape.synth.Corpus.batch", "synth.batch", True),
    ]


ROOT = "op"


class Tracer:
    """Records spans while installed; `install`/`uninstall` swap the wrappers
    in and out so untraced ops run the unmodified functions."""

    def __init__(self):
        self._targets = targets()
        self.layer = {name: layer for _, _, name, layer, _ in self._targets}
        self.layer[ROOT] = ROOT
        self.is_call = {name: call for _, _, name, _, call in self._targets}
        self.spans: list[tuple | None] = []  # (name, start, end, parent, op)
        self.tape_entries: dict[int, int] = defaultdict(int)
        self._stack: list[int] = []
        self._op = -1
        self._saved: list[tuple] = []

    def _wrap(self, fn, name: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        count_tape = name == "dape.tensor.GradTape.gradients"

        def wrapper(*args, **kwargs):
            if count_tape:
                self.tape_entries[self._op] += len(args[0].entries)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self._op)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        for owner, attr, name, _, _ in self._targets:
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def run_op(self, op_id: int, fn):
        """Run `fn` as op `op_id` under a root span, wrappers installed."""
        self._op = op_id
        self.install()
        try:
            return self._wrap(fn, ROOT)()
        finally:
            self.uninstall()

    def per_op(self) -> dict[int, dict]:
        """Per op: self ms and calls per layer."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[int, dict] = {}
        for i, (name, start, end, _, op) in enumerate(self.spans):
            rec = out.setdefault(op, {"self_ms": defaultdict(float), "calls": defaultdict(int)})
            layer = self.layer[name]
            rec["self_ms"][layer] += (end - start - child_ns[i]) / 1e6
            if name != ROOT and self.is_call[name]:
                rec["calls"][layer] += 1
        return out

    def write(self, path: Path) -> None:
        """One JSON array per line: name, start_ns, end_ns, parent, op."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")
