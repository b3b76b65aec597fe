"""The layered encoder: each layer runs coarse alignment then channel-wise
alignment; the fine-grained path either folds into the image stream every
layer (`pool_add`) or lives inside the periodic detail injection
(`slots_only`, the default). Mean-pooled, unit-normalized embeddings feed
a symmetric contrastive objective.

All parameters are created from one seeded generator in a fixed order, so
a model is bit-reproducible from (config, seed).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from . import tensor as T
from .coarse import KeyValueProjection, ProjectionSet, QueryProjection, coarse_align_block
from .config import DapeConfig, mu_partition
from .costs import Replay, Trace, cost_scope
from .cwa import ChannelGate, cwa_block, fuse_text
from .errors import ConfigurationError, NumericError
from .nfa import NfaWeights, build_hierarchy, nfa_attention, prepare_branches
from .phi import DetailState, LearnableTokens, PhiWeights, phi_inject
from .tensor import GradTape, Tensor


@dataclass
class Batch:
    """Featurized image maps and text sequences; row i of each modality is
    a pair."""

    images: np.ndarray   # (b, h, w, d)
    texts: np.ndarray    # (b, l, d)

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


def _projections(rng, d: int, kind=ProjectionSet, scale: float = 0.02):
    """Draw a query, a key and a value matrix, in that order, and keep the
    ones `kind` holds. An unread one is drawn all the same, so every later
    parameter keeps its seeded value."""
    drawn = {
        name: Tensor(np.eye(d) + scale * rng.standard_normal((d, d)))
        for name in ("wq", "wk", "wv")
    }
    return kind(**{f.name: drawn[f.name] for f in fields(kind)})


def _named(prefix: str, proj) -> list[tuple[str, Tensor]]:
    """(name, tensor) for each projection matrix, in field order."""
    return [(f"{prefix}.{f.name}", getattr(proj, f.name)) for f in fields(proj)]


def init_model(cfg: DapeConfig) -> DapeModel:
    """Build all parameters from the config seed in a fixed order.

    Projection sets start at identity plus small noise so that early masks
    see feature directions comparable to the raw featurizer space; the
    depthwise kernels use uniform(-1/k, 1/k) per the kernel contract.
    NFA and PHI keep only the query or key/value side each of their
    attentions reads.
    """
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    d = cfg.d
    names: list[tuple[str, Tensor]] = []

    layers = []
    for i in range(cfg.n_layers):
        img = _projections(rng, d)
        txt = _projections(rng, d)
        layers.append(LayerParams(img, txt))
        names += _named(f"layer{i}.img", img) + _named(f"layer{i}.txt", txt)

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
    nfa_img = _projections(rng, d, QueryProjection)
    nfa_txt = _projections(rng, d, KeyValueProjection)
    nfa = NfaWeights(convs, projs, nfa_img, nfa_txt)
    for b in range(3):
        names.append((f"nfa.conv{b}", convs[b]))
        names.append((f"nfa.proj{b}", projs[b]))
    names += _named("nfa.img", nfa_img) + _named("nfa.txt", nfa_txt)

    detail_proj = Tensor(rng.standard_normal((d, d)) / np.sqrt(d))
    learnable = LearnableTokens(Tensor(0.02 * rng.standard_normal((cfg.slot_count, d))))
    phi_q = _projections(rng, d, QueryProjection)
    phi_kv = _projections(rng, d, KeyValueProjection)
    phi = PhiWeights(detail_proj, learnable, phi_q, phi_kv)
    names.append(("phi.detail_proj", detail_proj))
    names.append(("phi.learnable", learnable.tokens))
    names += _named("phi.q", phi_q) + _named("phi.kv", phi_kv)

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
    """Encode a batch into unit-norm image and text embeddings, (b, d) each.

    The whole batch runs through every op at once: maps are (b, h, w, d),
    streams (b, n, d), masks (b, n, m). The trace records masks,
    selections, density flags and every cost counter, one
    decision entry per sample per decision point in layer-major order;
    passing `replay` freezes all of those decisions (the continuous path
    still recomputes, which is what the gradient checks need). A replay
    must come from a trace of the same batch size and use all of it.
    """
    if trace is None:
        trace = Trace()
    counter = trace.counter if replay is None else Trace().counter
    record = trace if replay is None else None
    image_rows = np.arange(cfg.n_img_tokens)  # the stream rows that are not slots
    raw_map = Tensor(batch.images)
    m_stream: Tensor = raw_map
    t_stream = Tensor(batch.texts)
    detail: DetailState | Tensor | None = raw_map
    if _nfa_per_layer(cfg):
        # the raw map's branch slices, layouts and bands are the same in every layer
        branches = prepare_branches(raw_map, cfg.mu, cfg.kernels, model.nfa.conv_kernels)
    layer = 0
    try:
        for layer in range(cfg.n_layers):
            lp = model.layers[layer]
            inject_here = cfg.enable_phi and (layer % cfg.phi_period == cfg.phi_period - 1)
            pad = model.phi.learnable.tokens if inject_here else None
            with cost_scope(counter, "coarse"):
                t1, m1, *_, slots = coarse_align_block(
                    m_stream, t_stream, lp.img, lp.txt, cfg,
                    pad_tokens=pad, trace=record, replay=replay,
                )

            if cfg.enable_cwa:
                with cost_scope(counter, "cwa"):
                    spatial = T.gather_rows(m1, image_rows)
                    t2, _ac = cwa_block(
                        spatial, t1, model.gate, model.cwa_proj,
                        (lp.txt, lp.img), cfg, trace=record, replay=replay,
                    )
                    t_next = fuse_text(t1, t2)
            else:
                t_next = t1

            m_next = m1
            if _nfa_per_layer(cfg):
                with cost_scope(counter, "nfa"):
                    # the level-3 queries come projected: one shared backward per step
                    hier, q3, txt3 = build_hierarchy(
                        branches, t_stream, cfg, model.nfa, trace=record, replay=replay,
                    )
                    m2 = nfa_attention(q3, txt3, hier.a_prime, (None, model.nfa.txt_ps))
                    # each parent's update is the mean of its four quadrant rows
                    m_next = T.add_rows(m_next, image_rows, T.pool_rows(m2, 4))

            if inject_here:
                with cost_scope(counter, "phi"):
                    before = counter.total_macs()
                    m_next, detail = phi_inject(
                        m_next, slots, detail, t_stream, model.phi,
                        (model.nfa.img_ps, model.nfa.txt_ps), cfg, layer,
                        trace=record, replay=replay,
                        carry=layer + cfg.phi_period < cfg.n_layers,
                    )
                    if record is not None:
                        trace.injection_macs.append(counter.total_macs() - before)

            m_stream, t_stream = m_next, t_next
    except NumericError as e:
        where = f"layer {layer}"
        if e.module is not None:
            where += f", module {e.module}"
        if e.index and e.shape[0] == batch.size:  # an activation: axis 0 is the batch
            where += f", sample {e.index[0]}"
        raise NumericError(f"{where}: {e}") from e

    if replay is not None:
        replay.check_consumed()
    img_emb = T.l2_normalize_rows(T.tmean(m_stream, axis=-2))
    txt_emb = T.l2_normalize_rows(T.tmean(t_stream, axis=-2))
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
    if not isinstance(meta.get("config"), dict):
        raise FileFormatError(f"{path} holds no config object")
    try:
        cfg = DapeConfig.from_dict(meta["config"])
    except ConfigurationError as e:
        raise FileFormatError(f"{path} holds an invalid config: {e}") from e
    model = init_model(cfg)
    for name, t in model.params():
        if name not in tensors:
            raise FileFormatError(f"checkpoint missing parameter {name}")
        if tensors[name].shape != t.a.shape:
            raise FileFormatError(
                f"parameter {name} shape {tensors[name].shape} != {t.a.shape}"
            )
        if not np.isfinite(tensors[name]).all():
            raise FileFormatError(f"{path}: checkpoint parameter {name} holds a non-finite value")
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
