"""The layered encoder: each layer runs coarse alignment then channel-wise
alignment; the fine-grained path either folds into the image stream every
layer (`pool_add`) or lives inside the periodic detail injection
(`slots_only`, the default). Mean-pooled, unit-normalized embeddings feed
a symmetric contrastive objective.

All parameters are created from one seeded generator in a fixed order, so
a model is bit-reproducible from (config, seed).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .coarse import ProjectionSet, coarse_align_block, tokenize_text
from .config import DapeConfig, mu_partition
from .costs import Replay, Trace, cost_scope
from .cwa import ChannelGate, cwa_block, fuse_text
from .errors import ConfigurationError, NumericError
from .nfa import (
    NfaWeights,
    build_hierarchy,
    nfa_attention,
    pool_children_to_parents,
)
from .phi import DetailState, LearnableTokens, PhiWeights, phi_inject
from .tensor import GradTape, Tensor


@dataclass
class Batch:
    """Featurized image maps, text sequences and their pairing labels."""

    images: np.ndarray   # (b, h, w, d)
    texts: np.ndarray    # (b, l, d)
    labels: np.ndarray   # (b,) scene ids; row i of each modality is a pair

    @property
    def size(self) -> int:
        return self.images.shape[0]


@dataclass
class LayerParams:
    img: ProjectionSet
    txt: ProjectionSet


@dataclass
class DapeModel:
    layers: list[LayerParams]
    gate: ChannelGate
    cwa_proj: Tensor
    nfa: NfaWeights
    phi: PhiWeights
    temperature: Tensor
    _names: list[tuple[str, Tensor]] = field(default_factory=list)

    def params(self) -> list[tuple[str, Tensor]]:
        return list(self._names)

    def param_tensors(self) -> list[Tensor]:
        return [t for _, t in self._names]


def _proj_set(rng, d: int, scale: float = 0.02) -> ProjectionSet:
    def w():
        return Tensor(np.eye(d) + scale * rng.standard_normal((d, d)))

    return ProjectionSet(w(), w(), w())


def init_model(cfg: DapeConfig) -> DapeModel:
    """Build all parameters from the config seed in a fixed order.

    Projection sets start at identity plus small noise so that early masks
    see feature directions comparable to the raw featurizer space; the
    depthwise kernels use uniform(-1/k, 1/k) per the kernel contract.
    """
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    d = cfg.d
    names: list[tuple[str, Tensor]] = []

    layers = []
    for i in range(cfg.n_layers):
        img = _proj_set(rng, d)
        txt = _proj_set(rng, d)
        layers.append(LayerParams(img, txt))
        for mod, ps in (("img", img), ("txt", txt)):
            names += [
                (f"layer{i}.{mod}.wq", ps.wq),
                (f"layer{i}.{mod}.wk", ps.wk),
                (f"layer{i}.{mod}.wv", ps.wv),
            ]

    gate = ChannelGate(
        Tensor(0.02 * rng.standard_normal((d, d))),
        Tensor(np.zeros(d)),
        Tensor(0.02 * rng.standard_normal((d, d))),
        Tensor(np.zeros(d)),
    )
    names += [
        ("cwa.gate.w1", gate.w1), ("cwa.gate.b1", gate.b1),
        ("cwa.gate.w2", gate.w2), ("cwa.gate.b2", gate.b2),
    ]
    n_positions = cfg.n_img_tokens
    cwa_proj = Tensor(rng.standard_normal((n_positions, d)) / np.sqrt(n_positions))
    names.append(("cwa.proj", cwa_proj))

    widths = mu_partition(d, cfg.mu)
    convs = tuple(
        Tensor(rng.uniform(-1.0 / k, 1.0 / k, size=(w, k, k)))
        for w, k in zip(widths, cfg.kernels)
    )
    projs = tuple(
        Tensor(rng.standard_normal((w, d)) / np.sqrt(w)) for w in widths
    )
    nfa_img = _proj_set(rng, d)
    nfa_txt = _proj_set(rng, d)
    nfa = NfaWeights(convs, projs, nfa_img, nfa_txt)
    for b in range(3):
        names.append((f"nfa.conv{b}", convs[b]))
        names.append((f"nfa.proj{b}", projs[b]))
    for mod, ps in (("img", nfa_img), ("txt", nfa_txt)):
        names += [
            (f"nfa.{mod}.wq", ps.wq), (f"nfa.{mod}.wk", ps.wk), (f"nfa.{mod}.wv", ps.wv),
        ]

    detail_proj = Tensor(rng.standard_normal((d, d)) / np.sqrt(d))
    learnable = LearnableTokens(Tensor(0.02 * rng.standard_normal((cfg.slot_count, d))))
    phi_q = _proj_set(rng, d)
    phi_kv = _proj_set(rng, d)
    phi = PhiWeights(detail_proj, learnable, phi_q, phi_kv)
    names.append(("phi.detail_proj", detail_proj))
    names.append(("phi.learnable", learnable.tokens))
    for mod, ps in (("q", phi_q), ("kv", phi_kv)):
        names += [
            (f"phi.{mod}.wq", ps.wq), (f"phi.{mod}.wk", ps.wk), (f"phi.{mod}.wv", ps.wv),
        ]

    temperature = Tensor(np.float64(cfg.temperature_init))
    names.append(("temperature", temperature))
    return DapeModel(layers, gate, cwa_proj, nfa, phi, temperature, names)


# ---------------------------------------------------------------------------
# Forward


def _nfa_per_layer(cfg) -> bool:
    return cfg.enable_nfa and cfg.nfa_merge == "pool_add"


def forward(
    model: DapeModel,
    batch: Batch,
    cfg: DapeConfig,
    trace: Trace | None = None,
    replay: Replay | None = None,
) -> tuple[Tensor, Tensor, Trace]:
    """Encode a batch into unit-norm image and text embeddings.

    The trace records masks, selections, density flags, token counts and
    every cost counter; passing `replay` freezes all of those decisions
    (the continuous path still recomputes, which is what the gradient
    checks need).
    """
    if trace is None:
        trace = Trace()
    counter = trace.counter if replay is None else Trace().counter
    img_embs, txt_embs = [], []
    n_tokens = cfg.n_img_tokens

    for i in range(batch.size):
        raw_map = Tensor(batch.images[i])
        m_stream: Tensor = raw_map
        t_stream = Tensor(batch.texts[i])
        detail: DetailState | Tensor = raw_map
        layer = 0
        try:
            for layer in range(cfg.n_layers):
                lp = model.layers[layer]
                inject_here = cfg.enable_phi and (layer % cfg.phi_period == cfg.phi_period - 1)
                pad = model.phi.learnable.tokens if inject_here else None
                with cost_scope(counter, "coarse"):
                    t1, m1, a0, img_tok, txt_tok, slots = coarse_align_block(
                        m_stream, t_stream, lp.img, lp.txt, cfg,
                        pad_tokens=pad,
                        trace=trace if replay is None else None,
                        replay=replay,
                    )
                if i == 0 and replay is None:
                    trace.token_counts[f"layer{layer}"] = {
                        "image": img_tok.n, "text": txt_tok.n
                    }

                if cfg.enable_cwa:
                    with cost_scope(counter, "cwa"):
                        spatial = T.gather_rows(m1, np.arange(n_tokens))
                        t2, _ac = cwa_block(
                            spatial, t1, model.gate, model.cwa_proj,
                            (lp.txt, lp.img), cfg,
                            trace=trace if replay is None else None,
                            replay=replay,
                        )
                        t_next = fuse_text(t1, t2)
                else:
                    t_next = t1

                m_next = m1
                if _nfa_per_layer(cfg):
                    with cost_scope(counter, "nfa"):
                        rows = t_stream.shape[0]
                        txt_base = tokenize_text(t_stream, rows // 4)
                        hier, q3, txt3 = build_hierarchy(
                            raw_map, txt_base, cfg, model.nfa,
                            trace=trace if replay is None else None,
                            replay=replay,
                        )
                        m2 = nfa_attention(
                            q3, txt3, hier.a_prime,
                            (model.nfa.img_ps, model.nfa.txt_ps), cfg,
                        )
                        update = pool_children_to_parents(m2)
                        top = T.add(T.gather_rows(m_next, np.arange(n_tokens)), update)
                        m_next = T.replace_rows(m_next, np.arange(n_tokens), top)

                if inject_here:
                    with cost_scope(counter, "phi"):
                        before = counter.total_macs()
                        m_next, detail = phi_inject(
                            m_next, slots, detail, t_stream, model.phi,
                            (model.nfa.img_ps, model.nfa.txt_ps), cfg, layer,
                            trace=trace if replay is None else None,
                            replay=replay,
                        )
                        if replay is None:
                            trace.injection_macs.append(counter.total_macs() - before)

                m_stream, t_stream = m_next, t_next
        except NumericError as e:
            raise NumericError(f"layer {layer}: {e}") from e

        img_embs.append(T.tmean(m_stream, axis=0))
        txt_embs.append(T.tmean(t_stream, axis=0))

    if replay is not None:
        replay.check_consumed()
    img_emb = T.l2_normalize_rows(T.stack_rows(img_embs))
    txt_emb = T.l2_normalize_rows(T.stack_rows(txt_embs))
    if replay is None:
        trace.fine_macs = counter.macs.get("nfa", 0)
    return img_emb, txt_emb, trace


# ---------------------------------------------------------------------------
# Objective, step, retrieval


def contrastive_loss(img_emb: Tensor, txt_emb: Tensor, temperature: Tensor) -> Tensor:
    """Symmetric cross-entropy over the cosine similarity matrix."""
    b = img_emb.shape[0]
    if b < 2:
        raise ConfigurationError("contrastive loss needs a batch of at least 2")
    if float(temperature.a.reshape(-1)[0]) <= 0.0:
        raise ConfigurationError("temperature must be positive")
    sim = T.matmul(img_emb, T.transpose(txt_emb))
    logits = T.mul(sim, T.reciprocal(temperature))
    diag = T.take_diag(logits)
    loss_i2t = T.tmean(T.sub(T.row_logsumexp(logits), diag))
    loss_t2i = T.tmean(T.sub(T.row_logsumexp(T.transpose(logits)), diag))
    return T.scale(T.add(loss_i2t, loss_t2i), 0.5)


def train_step(model: DapeModel, batch: Batch, cfg: DapeConfig) -> tuple[float, float, Trace]:
    """One forward/backward/update with plain gradient descent."""
    params = model.param_tensors()
    with GradTape() as tape:
        img_emb, txt_emb, trace = forward(model, batch, cfg)
        loss = contrastive_loss(img_emb, txt_emb, model.temperature)
    if not np.isfinite(loss.a).all():
        raise NumericError("non-finite loss")
    grads = tape.gradients(loss, params)
    sq = 0.0
    for g in grads:
        sq += float(np.sum(g * g))
    gnorm = float(np.sqrt(sq))
    for p, g in zip(params, grads):
        p.a -= cfg.learning_rate * g
    # projected step: the temperature's domain is (0, inf)
    np.clip(model.temperature.a, 1e-3, None, out=model.temperature.a)
    return loss.item(), gnorm, trace


def save_checkpoint(path: str, cfg: DapeConfig, model: DapeModel) -> None:
    from dataclasses import asdict

    from .container import save_tensors

    save_tensors(
        path,
        {"kind": "checkpoint", "config": asdict(cfg)},
        {name: t.a for name, t in model.params()},
    )


def load_checkpoint(path: str) -> tuple[DapeConfig, "DapeModel"]:
    from .container import load_tensors
    from .errors import FileFormatError

    meta, tensors = load_tensors(path)
    if meta.get("kind") != "checkpoint":
        raise FileFormatError(f"{path} is not a checkpoint container")
    cfg = DapeConfig.from_dict(meta["config"])
    model = init_model(cfg)
    for name, t in model.params():
        if name not in tensors:
            raise FileFormatError(f"checkpoint missing parameter {name}")
        if tensors[name].shape != t.a.shape:
            raise FileFormatError(
                f"parameter {name} shape {tensors[name].shape} != {t.a.shape}"
            )
        t.a[...] = tensors[name]
    return cfg, model


def embed_corpus(model: DapeModel, batch: Batch, cfg: DapeConfig) -> tuple[np.ndarray, np.ndarray]:
    """Embeddings without recording (evaluation path)."""
    with T.no_recording():
        img_emb, txt_emb, _ = forward(model, batch, cfg)
    return img_emb.a, txt_emb.a


def retrieval_at_k(img_emb: np.ndarray, txt_emb: np.ndarray, ks=(1, 5)) -> dict[int, float]:
    """Mean of image->text and text->image recall at each k."""
    sim = img_emb @ txt_emb.T
    n = sim.shape[0]
    out = {}
    for k in ks:
        hits_i2t = sum(i in np.argsort(-sim[i])[:k] for i in range(n))
        hits_t2i = sum(j in np.argsort(-sim[:, j])[:k] for j in range(n))
        out[k] = (hits_i2t + hits_t2i) / (2 * n)
    return out
