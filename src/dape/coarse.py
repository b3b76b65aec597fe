"""Coarse masked alignment: token extraction, binarized affinity, and the
two masked cross-attentions producing the updated text and image streams.

The mask multiplies the softmaxed score matrix entrywise before the value
sum (the only composition whose shapes close for I != J).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .costs import CostCounter, cosine_matrix
from .errors import ConfigurationError, DimensionError
from .tensor import Tensor

# ---------------------------------------------------------------------------
# Domain types


@dataclass
class TokenSet:
    """N tokens of width d plus provenance of what each token covers.

    Provenance entries: ("cell", (y0, y1, x0, x1)) for image tokens,
    ("span", (s, e)) for text tokens, ("slot", i) for synthetic slots,
    ("row", i) for identity tokenization of an existing token stream.
    `source` keeps the underlying sequence so spans can be re-split.
    """

    tokens: Tensor
    provenance: list = field(default_factory=list)
    modality: str = "image"
    source: Tensor | None = None

    @property
    def n(self) -> int:
        return self.tokens.shape[0]

    @property
    def d(self) -> int:
        return self.tokens.shape[1]


@dataclass
class AffinityMask:
    """Non-negative mask whose entries come from a declared value alphabet."""

    weights: np.ndarray
    alphabet: tuple[float, ...]
    level: str = "coarse"

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.alphabet = tuple(sorted(set(float(v) for v in self.alphabet)))
        if any(v < 0 for v in self.alphabet):
            raise ConfigurationError("mask alphabet must be non-negative")
        if len(self.alphabet) == 2:
            lo, hi = self.alphabet
            ok = ((self.weights == lo) | (self.weights == hi)).all()
        else:
            ok = np.isin(self.weights, self.alphabet).all()
        if not ok:
            raise ConfigurationError(
                f"mask contains values outside alphabet {self.alphabet}"
            )

    @property
    def shape(self) -> tuple[int, int]:
        return self.weights.shape

    @classmethod
    def _unchecked(cls, weights, alphabet, level) -> "AffinityMask":
        # fast path for values already known to sit in the alphabet
        m = object.__new__(cls)
        m.weights = weights
        m.alphabet = alphabet
        m.level = level
        return m

    def transposed(self) -> "AffinityMask":
        return AffinityMask._unchecked(self.weights.T, self.alphabet, self.level)


@dataclass
class ProjectionSet:
    """Query/key/value projections for one modality in one block."""

    wq: Tensor
    wk: Tensor
    wv: Tensor

    def __post_init__(self):
        for w in (self.wq, self.wk, self.wv):
            if w.a.ndim != 2 or w.shape[0] != w.shape[1]:
                raise DimensionError(f"projection must be square, got {w.shape}")


# ---------------------------------------------------------------------------
# Tokenization


def tokenize_image(m0: Tensor, grid: tuple[int, int]) -> TokenSet:
    """Mean-pool an (h, w, d) map into gy*gx cell tokens, row-major."""
    if m0.a.ndim != 3:
        raise DimensionError(f"expected (h, w, d) map, got {m0.shape}")
    h, w, d = m0.shape
    gy, gx = grid
    if gy < 1 or gx < 1 or h % gy or w % gx:
        raise DimensionError(f"grid {grid} does not divide map {h}x{w}")
    cy, cx = h // gy, w // gx
    pooled = T.block_mean_2d(m0, cy, cx)
    tokens = T.reshape(pooled, (gy * gx, d))
    prov = [
        ("cell", (y * cy, (y + 1) * cy, x * cx, (x + 1) * cx))
        for y in range(gy)
        for x in range(gx)
    ]
    return TokenSet(tokens, prov, "image", source=m0)


def even_spans(length: int, parts: int) -> list[tuple[int, int]]:
    """Split [0, length) into contiguous spans with lengths differing by <= 1."""
    base, extra = divmod(length, parts)
    spans, start = [], 0
    for i in range(parts):
        end = start + base + (1 if i < extra else 0)
        spans.append((start, end))
        start = end
    return spans


def tokenize_text(t: Tensor, j: int) -> TokenSet:
    """Split l positions into j contiguous spans; token = span mean."""
    if t.a.ndim != 2:
        raise DimensionError(f"expected (l, d) sequence, got {t.shape}")
    l = t.shape[0]
    if j < 1 or j > l:
        raise ConfigurationError(f"j={j} must be in [1, {l}]")
    spans = even_spans(l, j)
    tokens = T.span_means(t, spans)
    return TokenSet(tokens, [("span", s) for s in spans], "text", source=t)


def identity_tokens(stream: Tensor, modality: str) -> TokenSet:
    """Each row of an existing token stream is its own token."""
    prov = [("row", i) for i in range(stream.shape[0])]
    return TokenSet(stream, prov, modality, source=stream)


# ---------------------------------------------------------------------------
# Affinity and masking


def affinity(imgs: TokenSet, txts: TokenSet, counter: CostCounter | None = None,
             module: str = "coarse") -> np.ndarray:
    """Pairwise cosine matrix between image tokens (rows) and text tokens.

    Affinities only ever feed thresholding, so this runs off-tape on raw
    arrays (stop-gradient by construction).
    """
    if imgs.d != txts.d:
        raise DimensionError(
            f"token widths differ: image {imgs.d} vs text {txts.d}"
        )
    return cosine_matrix(imgs.tokens.a, txts.tokens.a, counter, module)


def binarize(a: np.ndarray, threshold: float, hi: float = 1.0,
             level: str = "coarse") -> AffinityMask:
    """Entries strictly above `threshold` map to `hi`, others to 0."""
    if not np.isfinite(threshold):
        raise ConfigurationError("threshold must be finite")
    if hi <= 0:
        raise ConfigurationError(f"hi must be positive, got {hi}")
    a = np.asarray(a, dtype=np.float64)
    weights = np.where(a > threshold, hi, 0.0)
    return AffinityMask(weights, (0.0, hi), level)


# ---------------------------------------------------------------------------
# Masked cross-attention


def masked_cross_attention(
    q_tokens: Tensor,
    kv_tokens: Tensor,
    mask: AffinityMask | None,
    projections: tuple[ProjectionSet, ProjectionSet],
) -> Tensor:
    """softmax(Q K^T / sqrt(d)) scaled entrywise by the mask, times V.

    The caller passes the mask oriented (N_q, N_kv). `mask=None` runs
    unmasked attention.
    """
    q_proj, kv_proj = projections
    d = q_tokens.shape[1]
    if kv_tokens.shape[1] != d:
        raise DimensionError(
            f"query width {d} differs from key/value width {kv_tokens.shape[1]}"
        )
    n_q, n_kv = q_tokens.shape[0], kv_tokens.shape[0]
    if mask is not None and mask.shape != (n_q, n_kv):
        raise DimensionError(
            f"mask oriented {mask.shape}, attention needs ({n_q}, {n_kv})"
        )
    q = T.matmul(q_tokens, q_proj.wq)
    k = T.matmul(kv_tokens, kv_proj.wk)
    v = T.matmul(kv_tokens, kv_proj.wv)
    weights = T.row_softmax(T.scale(T.matmul(q, T.transpose(k)), 1.0 / np.sqrt(d)))
    if mask is not None:
        weights = T.mul(weights, Tensor(mask.weights))
    return T.matmul(weights, v)


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
    """Downsample -> tokenize -> affinity -> binarize -> the two masked
    attentions. Returns (t1, m1, a0_mask, img_tokens, txt_tokens, slots).

    `m_map` is either the (h, w, d) input map (first layer: downsampled by
    `cfg.s`, tokenized on `cfg.grid`) or an (N, d) token stream (identity
    tokenization). `pad_tokens` appends learnable slots to the image side
    before alignment; `slots` gives their row indices.
    """
    from .costs import decide  # local import to keep module deps one-way

    if m_map.a.ndim == 3:
        m0 = T.downsample_avg(m_map, cfg.s) if cfg.s > 1 else m_map
        img_tokens = tokenize_image(m0, cfg.grid)
    else:
        img_tokens = identity_tokens(m_map, "image")

    slots = np.arange(0)
    if pad_tokens is not None:
        n_real = img_tokens.n
        stacked = T.concat_rows([img_tokens.tokens, pad_tokens])
        prov = img_tokens.provenance + [
            ("slot", i) for i in range(pad_tokens.shape[0])
        ]
        img_tokens = TokenSet(stacked, prov, "image")
        slots = np.arange(n_real, n_real + pad_tokens.shape[0])

    if t_seq.a.ndim != 2:
        raise DimensionError(f"text input must be 2-D, got {t_seq.shape}")
    if t_seq.shape[0] == cfg.j_text:
        txt_tokens = identity_tokens(t_seq, "text")
    else:
        txt_tokens = tokenize_text(t_seq, cfg.j_text)

    counter = trace.counter if trace is not None else None
    a0 = decide(
        trace,
        replay,
        "coarse_mask",
        lambda: binarize(
            affinity(img_tokens, txt_tokens, counter, "coarse"), cfg.k0, 1.0, "coarse"
        ),
    )

    # Text update: text queries over image keys/values, mask transposed to
    # (J, I). Image update: image queries over text, mask as stored (I, J).
    t1 = masked_cross_attention(
        txt_tokens.tokens, img_tokens.tokens, a0.transposed(), (txt_proj, img_proj)
    )
    m1 = masked_cross_attention(
        img_tokens.tokens, txt_tokens.tokens, a0, (img_proj, txt_proj)
    )
    return t1, m1, a0, img_tokens, txt_tokens, slots
