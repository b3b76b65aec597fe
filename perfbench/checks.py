"""Output checks for the dape benchmark.

Each check returns a list of problems; an op with any problem counts as
failed. Counts are (total MACs, total cosine evaluations, decisions) of the
trace a forward returns. Pinned values exist for the default corpus seed
only (`pinned.json`); on other seeds an op is held to the first episode of
its own run instead, which the fixed model seed makes bit-reproducible.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

PINNED_PATH = Path(__file__).with_name("pinned.json")
LOSS_RTOL = 1e-10
UNIT_NORM_ATOL = 1e-12


def counts_of(trace) -> list[int]:
    counter = trace.counter
    return [counter.total_macs(), counter.total_cosines(), len(trace.decisions)]


def abs_sums(img: np.ndarray, txt: np.ndarray) -> list[float]:
    return [float(np.abs(img).sum()), float(np.abs(txt).sum())]


def load_pins(workload: str, seed: int) -> dict | None:
    pins = json.loads(PINNED_PATH.read_text())
    if seed != pins["seed"]:
        return None
    return pins["workloads"].get(workload)


def save_pin(workload: str, seed: int, pin: dict) -> None:
    """Record a workload's pinned values; only the pinned seed has any."""
    pins = json.loads(PINNED_PATH.read_text())
    if seed != pins["seed"]:
        raise ValueError(f"values are pinned for seed {pins['seed']} only, not {seed}")
    pins["workloads"][workload] = pin
    PINNED_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= LOSS_RTOL * abs(want)


def check_counts(got: list[int], want: list[int] | None) -> list[str]:
    if want is not None and list(got) != list(want):
        return [f"counts (macs, cosines, decisions) {list(got)} != pinned {list(want)}"]
    return []


def check_train_op(loss: float, gnorm: float, counts: list[int],
                   want_loss: float | None, want_counts: list[int] | None) -> list[str]:
    problems = []
    if not (math.isfinite(loss) and math.isfinite(gnorm)):
        problems.append(f"non-finite loss {loss} or gradient norm {gnorm}")
    elif want_loss is not None and not _close(loss, want_loss):
        problems.append(f"loss {loss!r} != expected {want_loss!r} (rtol {LOSS_RTOL})")
    return problems + check_counts(counts, want_counts)


def check_embed_op(img: np.ndarray, txt: np.ndarray, counts: list[int],
                   want: tuple[np.ndarray, np.ndarray] | None,
                   want_abs_sums: list[float] | None,
                   want_counts: list[int] | None) -> list[str]:
    """Embeddings finite and unit-norm; with fixed parameters every op must
    reproduce the first op exactly, and the pinned sums on the default seed."""
    problems = []
    for label, emb in (("image", img), ("text", txt)):
        if not np.isfinite(emb).all():
            problems.append(f"non-finite {label} embeddings")
        elif np.abs(np.linalg.norm(emb, axis=1) - 1.0).max() > UNIT_NORM_ATOL:
            problems.append(f"{label} embeddings not unit-norm")
    if problems:
        return problems
    if want is not None and not (np.array_equal(img, want[0]) and np.array_equal(txt, want[1])):
        problems.append("embeddings differ from the first op's")
    if want_abs_sums is not None:
        sums = abs_sums(img, txt)
        if not all(_close(g, w) for g, w in zip(sums, want_abs_sums)):
            problems.append(f"embedding abs sums {sums} != pinned {want_abs_sums}")
    return problems + check_counts(counts, want_counts)


def check_loss_falls(before: float, after: float) -> list[str]:
    if not after < before:
        return [f"train-set loss did not fall over an episode: {before!r} -> {after!r}"]
    return []
