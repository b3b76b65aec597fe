"""Channel-wise alignment: slice the image representation channel-first,
gate channels with a small MLP, keep the top-k per segment, and align the
resulting channel tokens to the text tokens.

Channel tokens have length P (spatial positions); a learned linear map
bridges them to width d before the cosine, since the similarity needs
equal-length vectors. Gate weights only rank channels for selection, so
they sit outside the continuous gradient path by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .coarse import AffinityMask, ProjectionSet, TokenSet, binarize, masked_cross_attention
from .costs import cosine_matrix, decide
from .errors import ConfigurationError, DimensionError
from .tensor import Tensor


@dataclass
class ChannelGate:
    """Two-layer MLP predicting per-channel attention weights."""

    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor


def channelize(m_spatial: Tensor) -> Tensor:
    """(h, w, d) or (N, d) -> (d, P) channel-first view; lossless."""
    if m_spatial.a.ndim == 3:
        h, w, d = m_spatial.shape
        flat = T.reshape(m_spatial, (h * w, d))
    elif m_spatial.a.ndim == 2:
        flat = m_spatial
    else:
        raise DimensionError(f"channelize expects 2-D or 3-D, got {m_spatial.shape}")
    return T.transpose(flat)


def gate_channels(c: Tensor, gate: ChannelGate) -> Tensor:
    """Per-channel weights a = softmax(MLP(mean over positions)); sums to 1."""
    if c.a.ndim != 2:
        raise DimensionError(f"expected (d, P) channel view, got {c.shape}")
    d = c.shape[0]
    if gate.w1.shape[1] != d or gate.w2.shape[0] != d:
        raise DimensionError(
            f"gate dims {gate.w1.shape}/{gate.w2.shape} incompatible with d={d}"
        )
    pooled = T.reshape(T.tmean(c, axis=1), (d, 1))
    h = T.relu(T.add(T.matmul(gate.w1, pooled), T.reshape(gate.b1, (d, 1))))
    logits = T.add(T.matmul(gate.w2, h), T.reshape(gate.b2, (d, 1)))
    return T.reshape(T.row_softmax(T.transpose(logits)), (d,))


def select_topk_segments_indices(a_weights: np.ndarray, big_l: int, k1: int) -> list[list[int]]:
    """Within each of L equal channel segments, the k1 channels with the
    largest gate weight (ties -> lowest channel index), sorted."""
    a_weights = np.asarray(a_weights, dtype=np.float64).reshape(-1)
    d = a_weights.shape[0]
    if big_l < 1 or d % big_l:
        raise ConfigurationError(f"L={big_l} must divide d={d}")
    seg = d // big_l
    if not 1 <= k1 <= seg:
        raise ConfigurationError(f"k1={k1} outside [1, {seg}]")
    out = []
    for l in range(big_l):
        lo = l * seg
        order = np.argsort(-a_weights[lo : lo + seg], kind="stable")[:k1]
        out.append(sorted(int(lo + i) for i in order))
    return out


def aggregate_segments(c: Tensor, segments: list[list[int]], agg: str) -> Tensor:
    """One (L, P) row per segment: the mean (or sum) of its selected
    channels' position maps."""
    rows = []
    for chosen in segments:
        picked = T.gather_rows(c, chosen)
        rows.append(T.tmean(picked, axis=0) if agg == "mean" else T.tsum(picked, axis=0))
    return T.stack_rows(rows)


def cwa_block(
    m_spatial: Tensor,
    t1_tokens: TokenSet | Tensor,
    gate: ChannelGate,
    chan_proj: Tensor,
    projections: tuple[ProjectionSet, ProjectionSet],
    cfg,
    trace=None,
    replay=None,
) -> tuple[Tensor, AffinityMask]:
    """Channelize -> gate -> top-k per segment -> project to d -> binarized
    affinity against the text tokens -> masked attention giving t2."""
    t1 = t1_tokens.tokens if isinstance(t1_tokens, TokenSet) else t1_tokens
    c = channelize(m_spatial)
    if chan_proj.shape[0] != c.shape[1]:
        raise DimensionError(
            f"channel projector {chan_proj.shape} vs {c.shape[1]} positions"
        )

    def compute_selection():
        with T.no_recording():
            a_weights = gate_channels(c, gate).a
        return select_topk_segments_indices(a_weights, cfg.L, cfg.k1)

    segments = decide(trace, replay, "cwa_topk", compute_selection)
    b = aggregate_segments(c, segments, cfg.cwa_agg)
    b_proj = T.matmul(b, chan_proj)

    counter = trace.counter if trace is not None else None
    a_c = decide(
        trace,
        replay,
        "cwa_mask",
        lambda: binarize(
            cosine_matrix(b_proj.a, t1.a, counter, "cwa"), cfg.k_c, 1.0, "channel"
        ),
    )
    txt_proj, img_proj = projections
    t2 = masked_cross_attention(
        t1, b_proj, a_c.transposed(), (txt_proj, img_proj), cfg.mask_mode
    )
    return t2, a_c


def fuse_text(t1: Tensor, t2: Tensor) -> Tensor:
    """Elementwise sum of the two text updates."""
    if t1.shape != t2.shape:
        raise DimensionError(f"fuse shapes differ: {t1.shape} vs {t2.shape}")
    return T.add(t1, t2)
