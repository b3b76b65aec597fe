"""Channel-wise alignment: slice the image representation channel-first,
gate channels with a small MLP, keep the top-k per segment, and align the
resulting channel tokens to the text tokens.

Channel tokens have length P (spatial positions); a learned linear map
bridges them to width d before the cosine, since the similarity needs
equal-length vectors. The mask is coarse's matching rule
(`coarse.affinity_mask`) at threshold k_c. Gate weights only rank
channels for selection, so they sit outside the continuous gradient path
by construction.

Streams are (..., N, d); each sample gets its own selection and mask.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .coarse import ProjectionSet, affinity_mask
from .costs import decide
from .errors import ConfigurationError, DimensionError
from .tensor import Tensor


@dataclass
class ChannelGate:
    """Two-layer MLP predicting per-channel attention weights."""

    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor


def gate_channels(c: Tensor, gate: ChannelGate) -> Tensor:
    """Per-channel weights a = softmax(MLP(mean over positions)); (..., d),
    each sample's sums to 1."""
    if c.a.ndim < 2:
        raise DimensionError(f"expected (..., d, P) channel view, got {c.shape}")
    d = c.shape[-2]
    if gate.w1.shape[1] != d or gate.w2.shape[0] != d:
        raise DimensionError(
            f"gate dims {gate.w1.shape}/{gate.w2.shape} incompatible with d={d}"
        )
    lead = c.shape[:-2]
    pooled = T.reshape(T.tmean(c, axis=-1), lead + (d, 1))
    h = T.relu(T.add(T.matmul(gate.w1, pooled), T.reshape(gate.b1, (d, 1))))
    logits = T.add(T.matmul(gate.w2, h), T.reshape(gate.b2, (d, 1)))
    return T.reshape(T.row_softmax(T.transpose(logits)), lead + (d,))


def select_topk_segments_indices(a_weights: np.ndarray, big_l: int, k1: int) -> np.ndarray:
    """Within each of L equal channel segments, the k1 channels with the
    largest gate weight (ties -> lowest channel index), sorted: (..., d)
    weights give (..., L, k1) channel indices."""
    a_weights = np.asarray(a_weights, dtype=np.float64)
    d = a_weights.shape[-1]
    if big_l < 1 or d % big_l:
        raise ConfigurationError(f"L={big_l} must divide d={d}")
    seg = d // big_l
    if not 1 <= k1 <= seg:
        raise ConfigurationError(f"k1={k1} outside [1, {seg}]")
    segs = a_weights.reshape(a_weights.shape[:-1] + (big_l, seg))
    order = np.argsort(-segs, axis=-1, kind="stable")[..., :k1]
    return np.sort(order, axis=-1) + seg * np.arange(big_l)[:, None]


def cwa_block(
    m_spatial: Tensor,
    t1: Tensor,
    gate: ChannelGate,
    chan_proj: Tensor,
    projections: tuple[ProjectionSet, ProjectionSet],
    cfg,
    trace=None,
    replay=None,
) -> tuple[Tensor, np.ndarray]:
    """Channel-first view -> gate -> top-k per segment -> project to d ->
    affinity mask at k_c against the text tokens -> masked attention giving t2.
    Returns t2 and the (..., L, J) {0, 1} mask."""
    c = T.transpose(m_spatial)  # (..., d, P): one row per channel
    lead = c.shape[:-2]
    if chan_proj.shape[0] != c.shape[-1]:
        raise DimensionError(
            f"channel projector {chan_proj.shape} vs {c.shape[-1]} positions"
        )

    def compute_selection():
        with T.no_recording():
            a_weights = gate_channels(c, gate).a
        return select_topk_segments_indices(a_weights, cfg.L, cfg.k1)

    segments = decide(trace, replay, "cwa_topk", lead, compute_selection)
    b = T.gather_mean(c, segments)  # (..., L, P): mean of each segment's picks
    b_proj = T.matmul(b, chan_proj)

    a_c = decide(
        trace,
        replay,
        "cwa_mask",
        lead,
        lambda: affinity_mask(b_proj, t1, cfg.k_c),
    )
    txt_proj, img_proj = projections
    t2 = T.attention(
        t1, b_proj, txt_proj.wq, img_proj.wk, img_proj.wv, np.swapaxes(a_c, -1, -2)
    )
    return t2, a_c


def fuse_text(t1: Tensor, t2: Tensor) -> Tensor:
    """Elementwise sum of the two text updates."""
    if t1.shape != t2.shape:
        raise DimensionError(f"fuse shapes differ: {t1.shape} vs {t2.shape}")
    return T.add(t1, t2)
