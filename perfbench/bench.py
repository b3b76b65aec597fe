"""dape benchmark: workloads, the closed op loop, output checks and metrics.

Run it through `run.py`, which pins the BLAS threads before numpy loads and
puts the checkout's `src/` first on the import path.

An op is one timed call, batch gather included: `model.train_step` on the
train workloads, `model.embed_corpus` on `embed_eval`. One caller issues the
next op when the previous one returns (closed loop, one process).

Training runs in episodes of `EPISODE_STEPS` steps, each from freshly
initialised parameters over the same batch schedule, so every op of a run is
a deterministic function of (workload, seed, step) whatever the host speed:
per-op counts can be pinned, and a slower host times the same ops, not
different ones.
"""

from __future__ import annotations

import itertools
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
from dape import costs, synth
from dape import model as M
from dape import tensor as T
from dape.config import DapeConfig
from tracer import Tracer

N_SCENES = 80
EPISODE_STEPS = 64
WARMUP_OPS = 2
SETUP_REPEATS = 7
DEFAULT_SEED = 7  # the acceptance gate's pinned corpus
PROBE_ITERS = 100
PROBE_REF_MS = 2.0  # the probe's time on the reference host at full speed


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str  # "train" or "embed"
    density_mix: tuple[float, float, float]
    overrides: dict = field(default_factory=dict)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "train_default",
            "the paper's model as users train it: coarse, CWA, masks and backward share "
            "the time; NFA is a few percent, so NFA changes should not move it",
            "train", (1, 1, 1),
        ),
        Workload(
            "embed_eval",
            "the tape-free read-only forward; tape or backward changes must not move it, "
            "forward changes that cost inference do",
            "embed", (1, 1, 1),
        ),
        Workload(
            "train_nfa_dense",
            "density-triggered refinement live in every layer on dense scenes "
            "(k_thr=0.1, pool_add): NFA and backward dominate",
            "train", (0, 0, 1), {"nfa_merge": "pool_add", "k_thr": 0.1},
        ),
    )
}


def blas_version() -> str:
    try:
        cfg = np.show_config(mode="dicts")
        return str(cfg["Build Dependencies"]["blas"]["version"])
    except (TypeError, KeyError):
        return "unknown"


def host_info(blas_env: dict) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version(),
        "blas_env": blas_env,
    }


# ---------------------------------------------------------------------------
# Host speed
#
# On a shared host the same op runs up to 1.8x slower for seconds at a time
# while neighbours load the machine; a loop of plain numpy calls shows the
# same phases, so they are the host's, not the program's. Every timed sample
# is therefore bracketed by a probe of fixed dape-free work, and its time is
# rescaled by PROBE_REF_MS / (mean probe time around it): the metrics read
# as times on a host where the probe takes PROBE_REF_MS.

_PROBE_X = np.linspace(-1.0, 1.0, 16 * 64).reshape(16, 64)
_PROBE_W = np.linspace(-0.1, 0.1, 64 * 64).reshape(64, 64)


def probe_ms() -> float:
    """Time a fixed loop of the kind of calls an op is made of: a small
    matmul, a row softmax, a masked select, a finiteness check and a
    tape-like record."""
    x, records = _PROBE_X, []
    t0 = time.perf_counter_ns()
    for _ in range(PROBE_ITERS):
        s = x @ _PROBE_W
        e = np.exp(s - s.max(axis=1, keepdims=True))
        x = np.where(e > 0.5, e / e.sum(axis=1, keepdims=True), 0.1 * s)
        records.append((x, lambda g: g))
        if not np.isfinite(x).all():
            raise FloatingPointError("probe diverged")
    return (time.perf_counter_ns() - t0) / 1e6


def bracketed(fn):
    """(result, wall seconds, mean of the probes before and after) of one call."""
    before = probe_ms()
    t0 = time.perf_counter_ns()
    out = fn()
    elapsed = (time.perf_counter_ns() - t0) / 1e9
    return out, elapsed, (before + probe_ms()) / 2


def at_ref_speed(value: float, probe: float) -> float:
    """A time measured around a probe of `probe` ms, at the reference speed."""
    return value * PROBE_REF_MS / probe


# ---------------------------------------------------------------------------
# Set-up


@dataclass
class Setup:
    cfg: DapeConfig
    corpus: synth.Corpus
    model: M.DapeModel
    seconds: list[dict[str, float]]  # per repeat: seconds per part
    probes: list[float]              # per repeat: mean bracketing probe, ms


def set_up(wl: Workload, seed: int, workdir: Path) -> Setup:
    """Generate and load the corpus and build the model, `SETUP_REPEATS`
    times; the last repeat's objects are used."""
    cfg = DapeConfig(**wl.overrides)
    cfg.validate()
    path = str(workdir / "corpus.dape")
    seconds, probes = [], []
    for _ in range(SETUP_REPEATS):
        corpus = model = None  # drop the previous repeat's objects before the next

        def one_setup():
            t0 = time.perf_counter()
            synth.gen_corpus(N_SCENES, seed, wl.density_mix, path, cfg)
            t1 = time.perf_counter()
            corpus = synth.load_corpus(path)
            t2 = time.perf_counter()
            model = M.init_model(cfg)
            t3 = time.perf_counter()
            parts = {"synth.gen_s": t1 - t0, "synth.load_s": t2 - t1, "model.init_s": t3 - t2}
            return corpus, model, parts

        (corpus, model, parts), _, probe = bracketed(one_setup)
        seconds.append(parts)
        probes.append(probe)
    return Setup(cfg, corpus, model, seconds, probes)


def episode_batches(cfg: DapeConfig, train_ids: list[int]) -> list[list[int]]:
    """Seeded epoch shuffles cut into full batches, `EPISODE_STEPS` long."""
    rng = np.random.default_rng(cfg.seed)
    b = cfg.batch_size
    out: list[list[int]] = []
    while len(out) < EPISODE_STEPS:
        perm = rng.permutation(train_ids)
        out += [perm[i:i + b].tolist() for i in range(0, len(perm) - b + 1, b)]
    return out[:EPISODE_STEPS]


def train_set_loss(model: M.DapeModel, corpus: synth.Corpus, cfg: DapeConfig) -> float:
    """Mean contrastive loss over the train split in fixed batches (untimed)."""
    ids, b = corpus.train_ids, cfg.batch_size
    losses = []
    with T.no_recording():
        for i in range(0, len(ids) - b + 1, b):
            img, txt, _ = M.forward(model, corpus.batch(ids[i:i + b]), cfg)
            losses.append(M.contrastive_loss(img, txt, model.temperature).item())
    return float(np.mean(losses))


def layer_counts(trace: costs.Trace) -> dict[str, float]:
    """Per-op counts the forward's own trace gives, keyed by metric name."""
    rep = costs.cost_report(trace)
    macs = rep.per_module_macs
    return {
        "coarse.macs": macs.get("coarse", 0),
        "cwa.macs": macs.get("cwa", 0),
        "nfa.macs": macs.get("nfa", 0),
        "phi.macs": macs.get("phi", 0),
        "nfa.cosines": rep.fine_cosines,
        "nfa.fine_ratio": rep.fine_ratio,
        "nfa.refined_rows": sum(h.active_l2 + h.active_l3 for h in trace.hierarchy),
        "costs.decisions": len(trace.decisions),
    }


# ---------------------------------------------------------------------------
# The op loop


@dataclass
class Tally:
    """Op outcomes and timings of one run."""

    attempted: int = 0
    failed: set[int] = field(default_factory=set)
    problems: list[str] = field(default_factory=list)
    timed_ms: dict[int, float] = field(default_factory=dict)  # op id -> ms, warm-up excluded
    probes: dict[int, float] = field(default_factory=dict)    # op id -> mean bracketing probe
    counts: dict[int, dict] = field(default_factory=dict)      # op id -> layer_counts

    def fail(self, op_id: int, problems: list[str]) -> None:
        if problems:
            self.failed.add(op_id)
            self.problems += [f"op {op_id}: {p}" for p in problems]


class Loop:
    """Runs ops until `seconds` of timed op time have passed; with a tracer,
    odd ops are traced and even ops run untouched, so one run gives both
    medians for the tracing overhead."""

    def __init__(self, seconds: float, tracer: Tracer | None):
        self.seconds = seconds
        self.tracer = tracer
        self.tally = Tally()
        self.timed_s = 0.0

    @property
    def done(self) -> bool:
        return self.timed_s >= self.seconds

    def traced(self, op_id: int) -> bool:
        return self.tracer is not None and op_id % 2 == 1

    def run(self, fn):
        """Time one op; returns (op id, result or None if it raised)."""
        op_id = self.tally.attempted
        self.tally.attempted += 1
        call = (lambda: self.tracer.run_op(op_id, fn)) if self.traced(op_id) else fn
        try:
            out, seconds, probe = bracketed(call)
        except Exception as e:  # an op that raises is a failed op; keep measuring
            self.tally.fail(op_id, [f"raised {type(e).__name__}: {e}"])
            return op_id, None
        if op_id >= WARMUP_OPS:
            self.tally.timed_ms[op_id] = seconds * 1e3
            self.tally.probes[op_id] = probe
            self.timed_s += seconds
        return op_id, out


def run_train(st: Setup, loop: Loop, pins: dict | None) -> dict | None:
    """Train in episodes until the time is up, the first episode always whole.

    Returns the first episode's outcome in the form `pinned.json` holds,
    or None when one of its ops failed.
    """
    cfg, corpus = st.cfg, st.corpus
    batches = episode_batches(cfg, corpus.train_ids)
    first: dict[int, tuple[float, list[int]]] = {}  # step -> (loss, counts)
    loss_before = train_set_loss(st.model, corpus, cfg)
    for episode in itertools.count():
        model = st.model if episode == 0 else M.init_model(cfg)
        for step, ids in enumerate(batches):
            if episode > 0 and loop.done:
                if len(first) < len(batches):
                    return None
                return {"first_loss": first[0][0], "counts": [first[k][1] for k in range(len(batches))]}
            if episode > 0:
                want_loss, want_counts = first.get(step, (None, None))
            elif pins is not None:
                want_loss, want_counts = pins["first_loss"] if step == 0 else None, pins["counts"][step]
            else:
                want_loss, want_counts = None, None
            op_id, out = loop.run(lambda: M.train_step(model, corpus.batch(ids), cfg))
            if out is None:
                continue
            loss, gnorm, trace = out
            counts = checks.counts_of(trace)
            loop.tally.counts[op_id] = layer_counts(trace)
            problems = checks.check_train_op(loss, gnorm, counts, want_loss, want_counts)
            loop.tally.fail(op_id, problems)
            if episode == 0 and not problems:
                first[step] = (loss, counts)
        if episode == 0:
            loss_after = train_set_loss(model, corpus, cfg)
            loop.tally.fail(op_id, checks.check_loss_falls(loss_before, loss_after))


def run_embed(st: Setup, loop: Loop, pins: dict | None) -> dict | None:
    """Embed the eval split with fixed parameters until the time is up.

    Returns the first op's outcome in the form `pinned.json` holds, or None
    when it failed.
    """
    cfg, corpus, model = st.cfg, st.corpus, st.model
    eval_ids = corpus.eval_ids
    want_counts = pins["counts"][0] if pins is not None else None
    want_sums = pins["abs_sums"] if pins is not None else None
    first = pin = None
    # embed_corpus drops the forward's trace; a pass-through shim keeps it
    captured: list[costs.Trace] = []
    forward = M.forward

    def forward_keeping_trace(*args, **kwargs):
        out = forward(*args, **kwargs)
        captured.append(out[2])
        return out

    M.forward = forward_keeping_trace
    try:
        while loop.tally.attempted < WARMUP_OPS or not loop.done:
            captured.clear()
            op_id, out = loop.run(lambda: M.embed_corpus(model, corpus.batch(eval_ids), cfg))
            if out is None:
                continue
            img, txt = out
            counts = checks.counts_of(captured[-1])
            loop.tally.counts[op_id] = layer_counts(captured[-1])
            problems = checks.check_embed_op(img, txt, counts, first, want_sums, want_counts)
            loop.tally.fail(op_id, problems)
            if op_id == 0 and not problems:
                first, want_counts = (img, txt), counts
                pin = {"abs_sums": checks.abs_sums(img, txt), "counts": [counts]}
    finally:
        M.forward = forward
    return pin


# ---------------------------------------------------------------------------
# Metrics and report

SELF_LAYERS = ("tensor.backward", "coarse", "cwa", "costs.decide", "nfa", "phi",
               "model.forward", "model.loss", "model.step")
CALL_LAYERS = ("coarse", "cwa", "nfa", "phi")


def end_to_end(st: Setup, loop: Loop, items_per_op: int) -> dict[str, tuple[float, str]]:
    tally = loop.tally
    ms = [at_ref_speed(t, tally.probes[i]) for i, t in tally.timed_ms.items()]
    setup = [at_ref_speed(sum(parts.values()), p) for parts, p in zip(st.seconds, st.probes)]
    return {
        "setup_s": (statistics.median(setup), "s"),
        "op_ms_p50": (statistics.median(ms), "ms"),
        "op_ms_p90": (float(np.percentile(ms, 90)), "ms"),
        "items_per_s": (items_per_op * len(ms) / (sum(ms) / 1e3), "scenes/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(st: Setup, loop: Loop, tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Medians over the timed traced ops of each per-op layer figure."""
    spans = tracer.per_op()
    timed, probes = loop.tally.timed_ms, loop.tally.probes
    traced = [i for i in timed if loop.traced(i)]
    untraced = [i for i in timed if not loop.traced(i)]

    def med(fig, ops=traced) -> float:
        return float(statistics.median(fig(i) for i in ops))

    def self_ms(layer):
        return lambda i: at_ref_speed(spans[i]["self_ms"].get(layer, 0.0), probes[i])

    out = {}
    for layer in SELF_LAYERS:
        out[f"{layer}.self_ms"] = (med(self_ms(layer)), "ms")
    for layer in CALL_LAYERS:
        out[f"{layer}.calls"] = (med(lambda i: spans[i]["calls"].get(layer, 0)), "count")
    for key in loop.tally.counts[traced[0]]:
        unit = "fraction" if key.endswith("ratio") else "count"
        out[key] = (med(lambda i: loop.tally.counts[i][key]), unit)
    out["tensor.tape_entries"] = (med(lambda i: tracer.tape_entries.get(i, 0)), "count")
    out["synth.batch_ms"] = (med(self_ms("synth.batch")), "ms")
    for key in st.seconds[0]:
        parts = [at_ref_speed(s[key], p) for s, p in zip(st.seconds, st.probes)]
        out[key] = (statistics.median(parts), "s")
    op_ms = lambda i: at_ref_speed(timed[i], probes[i])  # noqa: E731
    out["trace.op_ms_p50"] = (med(op_ms), "ms")
    out["trace.overhead_frac"] = (med(op_ms) / med(op_ms, untraced) - 1.0, "fraction")
    return out


def report(wl: Workload, host: dict, protocol: dict, metrics: dict, tally: Tally) -> None:
    """Human-readable lines, then the result as one JSON object on the last line."""
    n = protocol["timed_ops"]
    print(f"workload {wl.name}: {wl.why}")
    print("host " + json.dumps(host, sort_keys=True))
    print("protocol " + json.dumps(protocol, sort_keys=True))
    for name, (value, unit) in metrics.items():
        note = f"  (n={n} ops)" if name.startswith("op_ms") else ""
        print(f"  {name:<26} {value:>16.6f} {unit}{note}")
    failed = len(tally.failed)
    print(f"  {'error_rate':<26} {failed / tally.attempted:>16.6f} fraction"
          f"  ({failed} of {tally.attempted} ops failed)")
    for line in tally.problems[:20]:
        print("FAILED " + line, file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def main(args, blas_env: dict) -> int:
    wl = WORKLOADS[args.workload]
    out_dir = Path(__file__).resolve().parent / "out"
    out_dir.mkdir(exist_ok=True)
    pins = None if args.write_pins else checks.load_pins(wl.name, args.seed)
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        st = set_up(wl, args.seed, Path(tmp))
    tracer = Tracer() if args.trace else None
    loop = Loop(args.seconds, tracer)
    pin = (run_train if wl.kind == "train" else run_embed)(st, loop, pins)
    items_per_op = st.cfg.batch_size if wl.kind == "train" else len(st.corpus.eval_ids)
    if tracer is None:
        metrics = end_to_end(st, loop, items_per_op)
    else:
        tracer.write(out_dir / f"spans-{wl.name}.jsonl")
        metrics = per_layer(st, loop, tracer)
    wall = list(loop.tally.timed_ms.values())
    protocol = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "model_seed": st.cfg.seed, "config_overrides": wl.overrides, "items_per_op": items_per_op,
        "setup_repeats": SETUP_REPEATS, "warmup_ops": WARMUP_OPS,
        "timed_ops": len(loop.tally.timed_ms), "episode_steps": EPISODE_STEPS,
        "pinned_checks": pins is not None, "probe_ref_ms": PROBE_REF_MS,
        "probe_ms_p50": statistics.median(loop.tally.probes.values()),
        "wall_op_ms_p50": statistics.median(wall), "wall_op_ms_p90": float(np.percentile(wall, 90)),
    }
    report(wl, host_info(blas_env), protocol, metrics, loop.tally)
    if args.write_pins:
        if pin is None or loop.tally.failed:
            print("not pinning: ops failed", file=sys.stderr)
            return 1
        checks.save_pin(wl.name, args.seed, pin)
    return 0
