"""Cost accounting: MAC and cosine-evaluation counters, traces, reports.

MAC counts tally multiplies in linear ops (matmul m*k*n, depthwise conv
h*w*c*k^2, elementwise products, cosine 3d per pair). Softmax/exp terms
are excluded; the metric is a hardware-neutral relative cost, not a cycle
count. Counters attach to the tensor layer through `cost_scope`, so the
numbers measure exactly what ran.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from math import prod

import numpy as np

from . import tensor as T
from .errors import ContractError, NumericError


class CostCounter:
    """Per-module tallies of MAC and cosine-evaluation counts."""

    def __init__(self):
        self.macs: dict[str, int] = defaultdict(int)
        self.cosines: dict[str, int] = defaultdict(int)
        self._module = "other"

    def add(self, kind: str, amount: int) -> None:
        if kind == "mac":
            self.macs[self._module] += int(amount)
        elif kind == "cosine":
            self.cosines[self._module] += int(amount)

    def total_macs(self) -> int:
        return sum(self.macs.values())

    def total_cosines(self) -> int:
        return sum(self.cosines.values())


@contextmanager
def cost_scope(counter: CostCounter | None, module: str):
    """Route tensor-level counts into `counter` under a module label.

    Passing the active sink (`tensor._COST_SINK`) only switches its label.
    """
    if counter is None:
        yield
        return
    prev_sink = T._COST_SINK
    prev_module = counter._module
    T._COST_SINK = counter
    counter._module = module
    try:
        yield
    except NumericError as e:
        if e.module is None:
            e.module = module
        raise
    finally:
        counter._module = prev_module
        T._COST_SINK = prev_sink


@dataclass
class HierarchyCost:
    """Geometry and refined-row counts of one fine-alignment mask build;
    the cosines it ran are billed to the `nfa` cost scope."""

    n_rows_l1: int
    n_cols_l1: int
    active_l2: int
    active_l3: int

    @property
    def full_cosines(self) -> int:
        # Materializing every level everywhere: I*J + 2I*2J + 4I*4J.
        ij = self.n_rows_l1 * self.n_cols_l1
        return 21 * ij


@dataclass
class Trace:
    """Everything a forward pass records: decisions (masks, selections,
    density flags), cost counters and per-invocation fine-alignment
    geometry.

    `points` keeps each decision point once, as the batch's value with its
    leading shape, in execution order (layer-major); `decisions` lists the
    same as one (kind, value) entry per sample per point: a batch's entries
    for one point sit together, sample by sample, before the next point's.
    `samples` is the batch size they were recorded at. `hierarchy` holds
    one record per sample per mask build and `injections` counts injections
    per sample; `injection_macs` holds one MAC total per injection layer,
    summed over the batch.
    """

    counter: CostCounter = field(default_factory=CostCounter)
    points: list = field(default_factory=list)
    samples: int | None = None
    hierarchy: list[HierarchyCost] = field(default_factory=list)
    injections: int = 0
    injection_macs: list[int] = field(default_factory=list)

    @property
    def fine_macs(self) -> int:
        """MACs billed to the fine-alignment scope."""
        return self.counter.macs.get("nfa", 0)

    def record(self, kind: str, value, lead: tuple[int, ...]) -> None:
        """One decision point's value for a batch of leading shape `lead`."""
        n = prod(lead)
        if self.samples is None:
            self.samples = n
        elif n != self.samples:
            raise ContractError(
                f"{kind} decided for {n} samples in a trace of {self.samples}"
            )
        self.points.append((kind, value, lead))

    @property
    def decisions(self) -> list:
        """(kind, value) per sample per decision point, layer-major."""
        return [
            (kind, v) for kind, value, lead in self.points for v in _split(value, lead)
        ]


class Replay:
    """Consumes a previous trace's decisions in order, freezing every mask,
    top-k selection and density flag while the continuous path recomputes.

    Each decision point takes the recorded batch value whole. A replay over
    a batch shape other than the recorded one is refused before anything is
    consumed, and a replayed forward must use every recorded decision."""

    def __init__(self, trace: Trace):
        self._points = trace.points
        self._samples = trace.samples
        self._pos = 0

    def take(self, kind: str, lead: tuple[int, ...]):
        """The next point's recorded value, which must be of `kind`."""
        if self._pos >= len(self._points):
            raise IndexError("replay exhausted; structure diverged")
        got_kind, value, got_lead = self._points[self._pos]
        if got_lead != lead:
            raise ContractError(
                f"replay of a trace recorded over {self._samples} samples {got_lead} over "
                f"{prod(lead)} samples {lead} would leave decisions unconsumed or run out; "
                "structure diverged"
            )
        if got_kind != kind:
            raise ValueError(f"replay expected {kind!r}, trace has {got_kind!r}")
        self._pos += 1
        return value

    def check_consumed(self) -> None:
        """A replayed forward must use every recorded decision."""
        left = len(self._points) - self._pos
        if left:
            n = self._samples
            raise ContractError(
                f"replay left {left * n} of {len(self._points) * n} decisions unconsumed; "
                "structure diverged"
            )


def _split(value: np.ndarray, lead: tuple[int, ...]) -> list:
    """A batched decision as its per-sample values (leading axes flattened)."""
    return list(value.reshape((prod(lead),) + value.shape[len(lead):]))


def decide(trace: Trace | None, replay: Replay | None, kind: str,
           lead: tuple[int, ...], compute):
    """Compute a batch's discrete decision, or replay the recorded one.

    `lead` is the batch's leading shape. Values are arrays (masks,
    selections, dense-row flags) whose leading axes are `lead`;
    `Trace.decisions` lists them per sample.
    """
    if replay is not None:
        return replay.take(kind, lead)
    value = compute()
    if trace is not None:
        trace.record(kind, value, lead)
    return value


@dataclass
class CostReport:
    """A trace's costs in one place. Per-module and total counts are
    batch totals; `injections` counts injections per sample, while
    `injection_macs` has one batch total per injection layer, so
    len(injection_macs) * batch size == injections."""

    per_module_macs: dict[str, int]
    total_macs: int
    total_cosines: int
    fine_cosines: int
    fine_cosines_uniform: int
    fine_ratio: float
    fine_macs: int
    injections: int
    injection_macs: list[int]


def cost_report(trace: Trace) -> CostReport:
    fine = trace.counter.cosines.get("nfa", 0)
    uniform = sum(h.full_cosines for h in trace.hierarchy)
    return CostReport(
        per_module_macs=dict(trace.counter.macs),
        total_macs=trace.counter.total_macs(),
        total_cosines=trace.counter.total_cosines(),
        fine_cosines=fine,
        fine_cosines_uniform=uniform,
        fine_ratio=(fine / uniform) if uniform else 0.0,
        fine_macs=trace.fine_macs,
        injections=trace.injections,
        injection_macs=list(trace.injection_macs),
    )


def cosine_matrix(a: np.ndarray, b: np.ndarray, pick: np.ndarray | None = None) -> np.ndarray:
    """Pairwise cosine similarity of the rows of (..., n, d) and (..., m, d)
    per sample, giving (..., n, m); zero rows map to 0. With `pick`, b is
    (S, m, d) and sample i of a, (P, n, d), is paired with b[pick[i]]:
    b's rows are normalised once, however often a sample is picked.

    Used for mask construction only (constant w.r.t. gradients), so it
    works on raw arrays; like every tape op it bills the active cost scope.
    """
    na = np.sqrt(np.sum(a * a, axis=-1, keepdims=True))
    nb = np.sqrt(np.sum(b * b, axis=-1, keepdims=True))
    # a zero row divided by 1 stays zero, so its cosines come out exactly 0
    unit_a = a / np.where(na == 0.0, 1.0, na)
    unit_b = b / np.where(nb == 0.0, 1.0, nb)
    if pick is not None:
        unit_b = unit_b[pick]
    sims = unit_a @ np.swapaxes(unit_b, -1, -2)
    np.clip(sims, -1.0, 1.0, out=sims)
    T._count("mac", 3 * a.shape[-1] * sims.size)
    T._count("cosine", sims.size)
    return sims
