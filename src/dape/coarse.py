"""Coarse masked alignment: token extraction, binarized affinity, and the
two masked cross-attentions producing the updated text and image streams.

The mask multiplies the softmaxed score matrix entrywise before the value
sum (the only composition whose shapes close for I != J).

Token tensors are (..., N, d) and masks (..., N_q, N_kv): the leading axes
(none for one sample, (b,) for a batch) are carried through.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from math import prod

import numpy as np

from . import tensor as T
from .costs import cosine_matrix
from .errors import ConfigurationError, DimensionError
from .tensor import Tensor

# ---------------------------------------------------------------------------
# Domain types


def on_alphabet(values: np.ndarray, alphabet) -> bool:
    """Whether every entry of `values` is one of the sorted `alphabet`."""
    alphabet = np.asarray(alphabet)
    if alphabet.size == 2:
        lo, hi = alphabet
        return bool(((values == lo) | (values == hi)).all())
    at = np.minimum(np.searchsorted(alphabet, values), alphabet.size - 1)
    return bool((alphabet[at] == values).all())


@dataclass
class AffinityMask:
    """Non-negative (..., n, m) mask whose entries come from a declared value
    alphabet."""

    weights: np.ndarray
    alphabet: tuple[float, ...]

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.alphabet = tuple(sorted(set(float(v) for v in self.alphabet)))
        if any(v < 0 for v in self.alphabet):
            raise ConfigurationError("mask alphabet must be non-negative")
        if not on_alphabet(self.weights, self.alphabet):
            raise ConfigurationError(
                f"mask contains values outside alphabet {self.alphabet}"
            )

    @property
    def shape(self) -> tuple[int, ...]:
        return self.weights.shape

    @classmethod
    def _unchecked(cls, weights, alphabet) -> "AffinityMask":
        # fast path for values already known to sit in the alphabet
        m = object.__new__(cls)
        m.weights = weights
        m.alphabet = alphabet
        return m

    def transposed(self) -> "AffinityMask":
        """Each sample's mask transposed: (..., m, n)."""
        return AffinityMask._unchecked(np.swapaxes(self.weights, -1, -2), self.alphabet)

    def split(self, lead: tuple[int, ...]) -> list["AffinityMask"]:
        """One (n, m) mask per sample of the leading axes `lead`."""
        w = self.weights.reshape((prod(lead),) + self.weights.shape[len(lead):])
        return [AffinityMask._unchecked(x, self.alphabet) for x in w]


class _SquareProjections:
    """Checks on construction that every field is a square matrix."""

    def __post_init__(self):
        for f in fields(self):
            w = getattr(self, f.name)
            if w.a.ndim != 2 or w.shape[0] != w.shape[1]:
                raise DimensionError(f"projection must be square, got {w.shape}")


@dataclass
class ProjectionSet(_SquareProjections):
    """Query/key/value projections for one modality in one block whose
    attentions read the set in both roles (coarse, CWA)."""

    wq: Tensor
    wk: Tensor
    wv: Tensor


@dataclass
class QueryProjection(_SquareProjections):
    """The query side of an attention that reads its set only as queries."""

    wq: Tensor


@dataclass
class KeyValueProjection(_SquareProjections):
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
# Affinity and masking


def affinity(imgs: Tensor, txts: Tensor) -> np.ndarray:
    """Pairwise cosine matrix between image tokens (rows) and text tokens,
    per sample.

    Affinities only ever feed thresholding, so this runs off-tape on raw
    arrays (stop-gradient by construction).
    """
    if imgs.shape[-1] != txts.shape[-1]:
        raise DimensionError(
            f"token widths differ: image {imgs.shape[-1]} vs text {txts.shape[-1]}"
        )
    return cosine_matrix(imgs.a, txts.a)


def binarize(a: np.ndarray, threshold: float, hi: float = 1.0) -> AffinityMask:
    """Entries strictly above `threshold` map to `hi`, others to 0."""
    if not np.isfinite(threshold):
        raise ConfigurationError("threshold must be finite")
    if hi <= 0:
        raise ConfigurationError(f"hi must be positive, got {hi}")
    a = np.asarray(a, dtype=np.float64)
    weights = np.where(a > threshold, hi, 0.0)
    return AffinityMask(weights, (0.0, hi))


# ---------------------------------------------------------------------------
# Masked cross-attention


def masked_cross_attention(
    q_tokens: Tensor,
    kv_tokens: Tensor,
    mask: AffinityMask | None,
    projections: tuple[QueryProjection | ProjectionSet, KeyValueProjection | ProjectionSet],
) -> Tensor:
    """softmax(Q K^T / sqrt(d)) scaled entrywise by the mask, times V.

    The caller passes the mask oriented (..., N_q, N_kv). `mask=None` runs
    unmasked attention. Only `wq` of the query set and `wk`, `wv` of the
    key/value set are read.
    """
    q_proj, kv_proj = projections
    return T.attention(
        q_tokens, kv_tokens, q_proj.wq, kv_proj.wk, kv_proj.wv,
        None if mask is None else mask.weights,
    )


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
    """Tokenize -> affinity -> binarize -> the two masked attentions.
    Returns (t1, m1, a0_mask, img_tokens, txt_tokens, slots).

    The text input `t_seq` is (..., l, d); its leading axes are the batch's.
    `m_map` is either the (..., h, w, d) input map (first layer: pooled
    onto `cfg.grid`) or an (..., N, d) token stream
    whose rows are the tokens. `pad_tokens` appends learnable slots, shared by
    every sample, to the image side before alignment; `slots` gives their
    row indices. The mask is decided once per sample.
    """
    from .costs import decide  # local import to keep module deps one-way

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
        lambda: binarize(affinity(img_tokens, txt_tokens), cfg.k0),
    )

    # Text update: text queries over image keys/values, mask transposed to
    # (..., J, I). Image update: image queries over text, mask as stored
    # (..., I, J).
    t1 = masked_cross_attention(txt_tokens, img_tokens, a0.transposed(), (txt_proj, img_proj))
    m1 = masked_cross_attention(img_tokens, txt_tokens, a0, (img_proj, txt_proj))
    return t1, m1, a0, img_tokens, txt_tokens, slots
