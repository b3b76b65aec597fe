"""Coarse masked alignment: token extraction, the binarized affinity mask,
and the two masked cross-attentions producing the updated text and image
streams. `affinity_mask` is the one matching rule of every alignment mask
(coarse, CWA and each fine-alignment level).

The mask multiplies the softmaxed score matrix entrywise before the value
sum (the only composition whose shapes close for I != J).

Token tensors are (..., N, d) and masks (..., N_q, N_kv): the leading axes
(none for one sample, (b,) for a batch) are carried through.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .costs import cosine_matrix
from .errors import ConfigurationError, DimensionError
from .tensor import Tensor

# ---------------------------------------------------------------------------
# Domain types


@dataclass
class ProjectionSet:
    """Query/key/value projections for one modality in one block whose
    attentions read the set in both roles (coarse, CWA)."""

    wq: Tensor
    wk: Tensor
    wv: Tensor


@dataclass
class QueryProjection:
    """The query side of an attention that reads its set only as queries."""

    wq: Tensor


@dataclass
class KeyValueProjection:
    """The key/value side of an attention that reads its set only as keys
    and values."""

    wk: Tensor
    wv: Tensor


# ---------------------------------------------------------------------------
# Tokenization


def tokenize_image(m0: Tensor, grid: tuple[int, int]) -> Tensor:
    """Mean-pool an (..., h, w, d) map into gy*gx cell tokens, row-major
    (parent-major pooling with one child per cell)."""
    gy, gx = grid
    return T.pool_parent_major(m0, gy, gx, 1, 1)


def tokenize_text(t: Tensor, j: int) -> Tensor:
    """Split l positions into j equal contiguous spans; token = span mean."""
    if t.a.ndim < 2:
        raise DimensionError(f"expected (..., l, d) sequence, got {t.shape}")
    l = t.shape[-2]
    if j < 1 or l % j:
        raise ConfigurationError(f"j={j} must divide l={l}")
    return T.pool_rows(t, l // j)


# ---------------------------------------------------------------------------
# Matching rule


def binarize(a: np.ndarray, threshold: float) -> np.ndarray:
    """Entries strictly above `threshold` map to 1, others to 0."""
    if not np.isfinite(threshold):
        raise ConfigurationError("threshold must be finite")
    return np.where(np.asarray(a, dtype=np.float64) > threshold, 1.0, 0.0)


def affinity_mask(x: Tensor, t: Tensor, threshold: float, weight: float = 1.0,
                  active: np.ndarray | None = None) -> np.ndarray:
    """The matching rule of every alignment mask (coarse, CWA and each NFA
    level): `weight` where the cosine of a row of x (..., n, d) and a text
    token of t (..., m, d) strictly exceeds `threshold`, else 0; (..., n, m)
    per sample.

    `active` flags rows per sample, (..., n); None means every row. Cosines
    run for the active (sample, row) pairs alone, so the active cost scope
    is billed exactly what ran, and inactive rows stay 0. Masks only gate
    attention, so this runs off-tape on raw arrays (stop-gradient by
    construction).
    """
    xa, ta = x.a, t.a
    if xa.shape[-1] != ta.shape[-1]:
        raise DimensionError(f"token widths differ: image {xa.shape[-1]} vs text {ta.shape[-1]}")
    if active is None:
        return weight * binarize(cosine_matrix(xa, ta), threshold)
    n, m = xa.shape[-2], ta.shape[-2]
    mask = np.zeros(xa.shape[:-1] + (m,))
    sample, row = np.nonzero(active.reshape(-1, n))
    if sample.size:
        rows = xa.reshape(-1, n, xa.shape[-1])[sample, row][:, None, :]
        sims = cosine_matrix(rows, ta.reshape((-1,) + ta.shape[-2:]), sample)[:, 0, :]
        mask.reshape(-1, n, m)[sample, row] = weight * binarize(sims, threshold)
    return mask


# ---------------------------------------------------------------------------
# Block


def coarse_align_block(
    m_map: Tensor,
    t_seq: Tensor,
    img_proj: ProjectionSet,
    txt_proj: ProjectionSet,
    cfg,
    *,
    pad_tokens: Tensor | None = None,
    trace=None,
    replay=None,
):
    """Tokenize -> affinity mask at k0 -> the two masked attentions.
    Returns (t1, m1, a0, img_tokens, txt_tokens, slots), where a0 is the
    (..., I, J) {0, 1} mask.

    The text input `t_seq` is (..., l, d); its leading axes are the batch's.
    `m_map` is either the (..., h, w, d) input map (first layer: pooled
    onto `cfg.grid`) or an (..., N, d) token stream
    whose rows are the tokens. `pad_tokens` appends learnable slots, shared by
    every sample, to the image side before alignment; `slots` gives their
    row indices. The mask is decided once per sample.
    """
    # Looked up on `costs` at call time, not bound at import: a wrapper
    # installed on `dape.costs.decide` (the benchmark's tracer) then sees
    # coarse's decisions too. Do not hoist this import.
    from .costs import decide

    if t_seq.a.ndim < 2:
        raise DimensionError(f"text input must be (..., l, d), got {t_seq.shape}")
    lead = t_seq.shape[:-2]
    if m_map.a.ndim == len(lead) + 3 and m_map.shape[:-3] == lead:
        img_tokens = tokenize_image(m_map, cfg.grid)
    elif m_map.a.ndim == len(lead) + 2 and m_map.shape[:-2] == lead:
        img_tokens = m_map
    else:
        raise DimensionError(
            f"image input {m_map.shape} does not match text input {t_seq.shape}"
        )

    slots = np.arange(0)
    if pad_tokens is not None:
        n_real = img_tokens.shape[-2]
        img_tokens = T.concat_rows([img_tokens, pad_tokens])
        slots = np.arange(n_real, n_real + pad_tokens.shape[0])

    # later layers carry j_text rows already: pooling at width 1 keeps them
    txt_tokens = tokenize_text(t_seq, cfg.j_text)

    a0 = decide(
        trace,
        replay,
        "coarse_mask",
        lead,
        lambda: affinity_mask(img_tokens, txt_tokens, cfg.k0),
    )

    # Text update: text queries over image keys/values, mask transposed to
    # (..., J, I). Image update: image queries over text, mask as stored
    # (..., I, J).
    t1 = T.attention(
        txt_tokens, img_tokens, txt_proj.wq, img_proj.wk, img_proj.wv,
        np.swapaxes(a0, -1, -2),
    )
    m1 = T.attention(img_tokens, txt_tokens, img_proj.wq, txt_proj.wk, txt_proj.wv, a0)
    return t1, m1, a0, img_tokens, txt_tokens, slots
