"""Training, ablation and density-sweep drivers behind the CLI.

Artifacts live under one run directory named by the config hash
(`DAPE_RUN_DIR` overrides the root). CSV outputs carry only deterministic
columns and pinned float formatting; wall-clock measurements go to a
sidecar `runinfo.json`, keeping the CSVs byte-stable across reruns.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import tensor as T
from .config import DapeConfig
from .costs import Trace, cost_scope
from .errors import ConfigurationError
from .model import (
    embed_corpus,
    init_model,
    retrieval_at_k,
    save_checkpoint,
    train_step,
)
from .synth import Corpus, gen_corpus, load_corpus

MODULE_COLUMNS = ("coarse", "cwa", "nfa", "phi")


@dataclass
class MetricsRow:
    run_id: str
    config_hash: str
    step: int
    loss: float
    r_at_1: float
    r_at_5: float
    macs: dict[str, int] = field(default_factory=dict)
    wall_clock: float = 0.0  # seconds since run start; sidecar only

    def csv_values(self) -> list[str]:
        vals = [
            self.run_id,
            self.config_hash,
            str(self.step),
            _fmt(self.loss),
            _fmt(self.r_at_1),
            _fmt(self.r_at_5),
        ]
        vals += [str(self.macs.get(m, 0)) for m in MODULE_COLUMNS]
        return vals

    @staticmethod
    def csv_header() -> list[str]:
        return ["run_id", "config_hash", "step", "loss", "r_at_1", "r_at_5"] + [
            f"macs_{m}" for m in MODULE_COLUMNS
        ]


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def write_csv(path: Path, header: list[str], rows: list[list[str]]) -> None:
    lines = [",".join(header)] + [",".join(r) for r in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def run_root() -> Path:
    return Path(os.environ.get("DAPE_RUN_DIR", "runs"))


def run_dir_for(cfg: DapeConfig) -> Path:
    d = run_root() / cfg.hash()
    d.mkdir(parents=True, exist_ok=True)
    return d


def open_corpus(cfg: DapeConfig, generate: bool = False) -> Corpus | None:
    """Load `cfg.corpus` and check its geometry against the config, before
    any run directory exists. An empty path is a usage error unless the
    caller `generate`s its own corpus (then None); a missing or malformed
    file is an I/O error."""
    if not cfg.corpus:
        if generate:
            return None
        raise ConfigurationError("config.corpus must point to a generated corpus")
    corpus = load_corpus(cfg.corpus)
    for key in ("d", "image_size", "text_len"):
        if corpus.meta.get(key) != getattr(cfg, key):
            raise ConfigurationError(
                f"corpus {cfg.corpus} has {key}={corpus.meta.get(key)}, "
                f"config has {key}={getattr(cfg, key)}"
            )
    return corpus


def open_training_corpus(cfg: DapeConfig) -> Corpus:
    """`open_corpus` for training, which needs a scene in each split."""
    corpus = open_corpus(cfg)
    if not (corpus.train_ids and corpus.eval_ids):
        raise ConfigurationError(
            f"corpus {cfg.corpus} has {len(corpus.train_ids)} train and "
            f"{len(corpus.eval_ids)} eval scenes; training needs at least one of each"
        )
    return corpus


# ---------------------------------------------------------------------------
# gen


def cmd_gen(n: int, seed: int, density_mix, out: str | None = None,
            cfg: DapeConfig | None = None) -> Path:
    cfg = cfg or DapeConfig(seed=seed)
    if out is None:
        tag = f"corpus-n{n}-s{seed}-" + "-".join(f"{v:g}" for v in density_mix)
        out = run_root() / tag / "corpus.dape"
    gen_corpus(n, seed, tuple(density_mix), str(out), cfg)
    return Path(out)


# ---------------------------------------------------------------------------
# train


def _batches(cfg: DapeConfig, train_ids: list[int]):
    """Seeded epoch shuffling; leftovers smaller than a batch are dropped
    (a fresh permutation replaces them), and tiny train sets accumulate
    permutations until a full batch exists."""
    rng = np.random.default_rng(cfg.seed)
    order: list[int] = []
    while True:
        if len(order) < cfg.batch_size:
            order = list(rng.permutation(train_ids))
            while len(order) < cfg.batch_size:
                order = list(rng.permutation(train_ids)) + order
        yield [order.pop() for _ in range(cfg.batch_size)]


def train_model(cfg: DapeConfig, corpus: Corpus, run_id: str = "train"):
    """Run cfg.steps of plain gradient descent; returns model + metrics."""
    model = init_model(cfg)
    rows: list[MetricsRow] = []
    batches = _batches(cfg, corpus.train_ids)
    eval_batch = corpus.batch(corpus.eval_ids)
    t0 = time.perf_counter()
    last_trace: Trace | None = None
    for step in range(cfg.steps):
        ids = next(batches)
        loss, _gnorm, trace = train_step(model, corpus.batch(ids), cfg)
        last_trace = trace
        if step % cfg.eval_interval == 0 or step == cfg.steps - 1:
            ie, te = embed_corpus(model, eval_batch, cfg)
            r = retrieval_at_k(ie, te)
            rows.append(
                MetricsRow(
                    run_id, cfg.hash(), step, loss, r[1], r[5],
                    dict(trace.counter.macs), time.perf_counter() - t0,
                )
            )
    steps_per_sec = cfg.steps / max(time.perf_counter() - t0, 1e-9)
    return model, rows, steps_per_sec, last_trace


def cmd_train(cfg: DapeConfig) -> dict:
    corpus = open_training_corpus(cfg)
    out = run_dir_for(cfg)
    model, rows, sps, _ = train_model(cfg, corpus)
    write_csv(out / "metrics.csv", MetricsRow.csv_header(), [r.csv_values() for r in rows])
    save_checkpoint(str(out / "checkpoint.dape"), cfg, model)
    (out / "runinfo.json").write_text(
        json.dumps(
            {
                "steps_per_sec": sps,
                "wall_clock": [r.wall_clock for r in rows],
                "config_hash": cfg.hash(),
            },
            indent=2,
        )
    )
    return {
        "run_dir": str(out),
        "final_loss": rows[-1].loss if rows else None,
        "r_at_1": rows[-1].r_at_1 if rows else None,
        "steps_per_sec": sps,
    }


# ---------------------------------------------------------------------------
# ablate

ABLATION_VARIANTS = (
    ("base", dict(enable_cwa=False, enable_nfa=False, enable_phi=False)),
    ("+CWA", dict(enable_cwa=True, enable_nfa=False, enable_phi=False)),
    ("+NFA", dict(enable_cwa=False, enable_nfa=True, enable_phi=False, nfa_merge="pool_add")),
    ("+PHI", dict(enable_cwa=False, enable_nfa=False, enable_phi=True)),
    ("+DAPE", dict(enable_cwa=True, enable_nfa=True, enable_phi=True)),
)


@dataclass
class AblationRow:
    variant: str
    r_at_1: float
    r_at_5: float
    total_macs: int
    fine_macs: int
    steps_per_sec: float  # sidecar only


def cmd_ablate(cfg: DapeConfig) -> list[AblationRow]:
    # the table reports each variant's last evaluation, which steps=0 never makes
    if cfg.steps < 1:
        raise ConfigurationError("ablate needs steps >= 1")
    corpus = open_training_corpus(cfg)
    rows = []
    for name, over in ABLATION_VARIANTS:
        variant_cfg = DapeConfig(**{**asdict(cfg), **over})
        variant_cfg.validate()
        model, metrics, sps, trace = train_model(variant_cfg, corpus, run_id=name)
        last = metrics[-1]
        rows.append(
            AblationRow(
                name, last.r_at_1, last.r_at_5,
                trace.counter.total_macs() if trace else 0,
                trace.fine_macs if trace else 0,
                sps,
            )
        )
    out = run_dir_for(cfg)
    write_csv(
        out / "ablation.csv",
        ["variant", "r_at_1", "r_at_5", "total_macs", "fine_macs"],
        [
            [r.variant, _fmt(r.r_at_1), _fmt(r.r_at_5), str(r.total_macs), str(r.fine_macs)]
            for r in rows
        ],
    )
    (out / "runinfo.json").write_text(
        json.dumps({r.variant: {"steps_per_sec": r.steps_per_sec} for r in rows}, indent=2)
    )
    return rows


# ---------------------------------------------------------------------------
# bench


def forced_density_rule(fraction: float):
    """Dense-row override for the sweep: in each sample exactly
    ceil(fraction * active) of its active rows flagged dense, ranked by
    measured fill, ties to low index."""

    def rule(mask, level, active):
        active = np.asarray(active, dtype=bool)
        k = np.ceil(fraction * np.count_nonzero(active, axis=-1))
        fill = np.where(active, np.count_nonzero(mask, axis=-1), -1)
        order = np.argsort(-fill, axis=-1, kind="stable")
        flags = np.zeros_like(active)
        np.put_along_axis(flags, order, np.arange(active.shape[-1]) < k[..., None], axis=-1)
        return flags

    return rule


@dataclass
class BenchRow:
    density: float
    cosines: int
    uniform: int
    ratio: float


def bench_densities(cfg: DapeConfig, densities, corpus: Corpus | None = None) -> list[BenchRow]:
    """Fine-alignment cosine counts under forced dense-row fractions.

    `densities` are percents in [0, 100]. Masks come from the corpus's
    first scene alone (scene 0, raw map against raw text); the dense-row
    sets are overridden to exact fractions (ranked by measured fill) so
    the sweep hits the requested densities precisely.
    """
    from .nfa import build_level_masks, image_levels, prepare_branches

    bad = [p for p in densities if not 0.0 <= p <= 100.0]
    if bad:
        raise ConfigurationError(f"densities {bad} are not percents in [0, 100]")

    if corpus is None:
        import tempfile

        with tempfile.TemporaryDirectory() as td:
            path = Path(td) / "bench.dape"
            gen_corpus(4, cfg.seed, (0, 1, 0), str(path), cfg)
            corpus = load_corpus(str(path))
    from .tensor import Tensor

    model = init_model(cfg)
    rows = []
    img = Tensor(corpus.images[0])
    txt = Tensor(corpus.texts[0])
    # the image levels do not depend on the density: build them once
    branches = prepare_branches(img, cfg.mu, cfg.kernels, model.nfa.conv_kernels)
    levels = image_levels(branches, cfg.grid, model.nfa.branch_projs)
    for density in densities:
        frac = float(density) / 100.0
        trace = Trace()
        with cost_scope(trace.counter, "nfa"):
            build_level_masks(
                levels, txt, cfg, trace=trace, density_rule=forced_density_rule(frac),
            )
        cosines, uniform = trace.counter.cosines["nfa"], trace.hierarchy[0].full_cosines
        rows.append(BenchRow(frac, cosines, uniform, cosines / uniform))
    return rows


def cmd_bench(cfg: DapeConfig, densities) -> list[BenchRow]:
    rows = bench_densities(cfg, densities, open_corpus(cfg, generate=True))
    out = run_dir_for(cfg)
    write_csv(
        out / "bench.csv",
        ["density", "cosines", "uniform", "ratio"],
        [[_fmt(r.density), str(r.cosines), str(r.uniform), _fmt(r.ratio)] for r in rows],
    )
    return rows
