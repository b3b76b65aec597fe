"""Non-uniform fine-grained alignment.

Channels split in a mu-ratio feed three depthwise convolutions; each branch
is pooled at its own granularity (whole cell, vertical halves, quadrants),
giving affinity matrices of I x J, 2I x 2J and 4I x 4J. Refinement is
density-triggered: level l+1 is evaluated only under rows of level l whose
nonzero fill exceeds tau_d. Upscaled masks sum into a single weight matrix
whose entries live on the subset-sum lattice of mu.

Token rows are ordered parent-major (the 2 halves, then the 4 quadrants of
parent p occupy rows 2p+dy and 4p+2dy+dx), which makes block-replication
upscaling coincide exactly with the refinement tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from . import tensor as T
from .coarse import AffinityMask, ProjectionSet, TokenSet, masked_cross_attention
from .config import mu_partition
from .costs import HierarchyCost, cosine_matrix, decide
from .errors import ConfigurationError, DimensionError
from .tensor import Tensor


@dataclass
class NfaWeights:
    """Learned pieces of the fine-alignment path."""

    conv_kernels: tuple[Tensor, Tensor, Tensor]
    branch_projs: tuple[Tensor, Tensor, Tensor]
    img_ps: ProjectionSet
    txt_ps: ProjectionSet


@dataclass
class HierarchicalMask:
    """The three upscaled level masks, their sum, and the dense-row sets."""

    a1: AffinityMask
    a2: AffinityMask
    a3: AffinityMask
    a_prime: np.ndarray
    dense_l1: np.ndarray
    dense_l2: np.ndarray

    def check_structure(self) -> None:
        total = self.a1.weights + self.a2.weights + self.a3.weights
        if not np.array_equal(total, self.a_prime):
            raise ConfigurationError("combined mask is not the sum of its levels")
        lattice = mask_lattice(
            self.a1.alphabet[-1], self.a2.alphabet[-1], self.a3.alphabet[-1]
        )
        if not np.isin(self.a_prime, lattice).all():
            raise ConfigurationError("combined mask leaves the mu lattice")
        n = self.a_prime.shape[0]
        allowed2 = np.zeros(n, dtype=bool)
        if self.dense_l1.size:
            allowed2[(4 * self.dense_l1[:, None] + np.arange(4)).reshape(-1)] = True
        if np.any(self.a2.weights[~allowed2] != 0.0):
            raise ConfigurationError("level-2 weight outside a dense level-1 row")
        allowed3 = np.zeros(n, dtype=bool)
        if self.dense_l2.size:
            allowed3[(2 * self.dense_l2[:, None] + np.arange(2)).reshape(-1)] = True
        if np.any(self.a3.weights[~allowed3] != 0.0):
            raise ConfigurationError("level-3 weight outside a dense level-2 row")


def mask_lattice(mu1: float, mu2: float, mu3: float) -> np.ndarray:
    """All subset sums of the three level weights (8 values incl. 0)."""
    vals = {0.0}
    for r in range(1, 4):
        for comb in combinations((mu1, mu2, mu3), r):
            vals.add(float(sum(comb)))
    return np.array(sorted(vals))


# ---------------------------------------------------------------------------
# Channel split and multiscale tokens


@lru_cache(maxsize=128)
def parent_major_perm(gy: int, gx: int, fy: int, fx: int) -> np.ndarray:
    """Row permutation taking row-major (fy*gy, fx*gx) cells to parent-major
    order: children of parent (a, b) become consecutive rows."""
    perm = np.empty(gy * gx * fy * fx, dtype=np.intp)
    i = 0
    for a in range(gy):
        for b in range(gx):
            for dy in range(fy):
                for dx in range(fx):
                    perm[i] = (fy * a + dy) * (fx * gx) + (fx * b + dx)
                    i += 1
    return perm


def _pool_tokens(m: Tensor, gy: int, gx: int, fy: int, fx: int) -> Tensor:
    """Pool a map on the (fy*gy, fx*gx) grid, rows in parent-major order."""
    h, w, c = m.shape
    pooled = T.block_mean_2d(m, h // (fy * gy), w // (fx * gx))
    flat = T.reshape(pooled, (fy * gy * fx * gx, c))
    if fy == 1 and fx == 1:
        return flat
    return T.gather_rows(flat, parent_major_perm(gy, gx, fy, fx))


def multiscale_tokens(
    m: Tensor,
    grid: tuple[int, int],
    mu: tuple[float, float, float],
    kernels: tuple[int, int, int],
    conv_kernels: tuple[Tensor, Tensor, Tensor],
) -> tuple[Tensor, Tensor, Tensor]:
    """Split channels by largest-remainder mu widths, convolve each part
    with its own depthwise kernel, and pool the branches at 1:2:4 token
    granularity, rows parent-major.

    Level 1 pools whole cells of the base grid (I tokens); level 2 pools
    the two vertical halves of each cell (2I); level 3 its four quadrants
    (4I). Levels 1 and 2 feed only mask construction, so their branches
    run off-tape; gradient reaches the branch-3 kernel through level 3.
    """
    gy, gx = grid
    h, w, c = m.shape
    if h % (4 * gy) or w % (4 * gx):
        raise DimensionError(
            f"grid {grid} needs map sides divisible by {4 * gy}x{4 * gx}, got {h}x{w}"
        )
    widths = mu_partition(c, mu)
    if min(widths) < 1:
        raise ConfigurationError(f"mu split {widths} leaves an empty branch (c={c})")

    def level(b: int, fy: int, fx: int) -> Tensor:
        lo = sum(widths[:b])
        part = T.slice_last(m, lo, lo + widths[b])
        branch = T.conv2d_local(part, kernels[b], conv_kernels[b])
        return _pool_tokens(branch, gy, gx, fy, fx)

    with T.no_recording():
        l1 = level(0, 1, 1)
        l2 = level(1, 2, 1)
    return l1, l2, level(2, 2, 2)


# ---------------------------------------------------------------------------
# Text refinement


def refine_text(t_tokens: TokenSet, factor: int) -> TokenSet:
    """Split every text span into `factor` contiguous sub-spans of the
    underlying sequence; sub-token = sub-span mean."""
    if factor < 1:
        raise ConfigurationError(f"refine factor must be >= 1, got {factor}")
    if factor == 1:
        return t_tokens
    if t_tokens.source is None:
        raise ConfigurationError("text tokens carry no source sequence to re-split")
    spans = []
    for kind, span in t_tokens.provenance:
        if kind != "span":
            raise ConfigurationError("refine_text needs span provenance")
        s, e = span
        if e - s < factor:
            raise ConfigurationError(
                f"span {span} shorter than refine factor {factor}"
            )
        base, extra = divmod(e - s, factor)
        start = s
        for i in range(factor):
            end = start + base + (1 if i < extra else 0)
            spans.append((start, end))
            start = end
    tokens = T.span_means(t_tokens.source, spans)
    return TokenSet(tokens, [("span", sp) for sp in spans], "text", source=t_tokens.source)


# ---------------------------------------------------------------------------
# Masks


def level_mask(
    xk: Tensor,
    tk: Tensor,
    k_thr: float,
    mu_k: float,
    active_rows: np.ndarray | None = None,
    counter=None,
    level: str = "fine-1",
) -> AffinityMask:
    """Binarized {0, mu_k} affinity, evaluated only on active rows."""
    xa, ta = xk.a, tk.a
    n, m = xa.shape[0], ta.shape[0]
    weights = np.zeros((n, m))
    if active_rows is None:
        active_rows = np.arange(n)
    active_rows = np.asarray(active_rows, dtype=np.intp)
    if active_rows.size:
        sims = cosine_matrix(xa[active_rows], ta, counter, "nfa")
        weights[active_rows] = np.where(sims > k_thr, mu_k, 0.0)
    return AffinityMask(weights, (0.0, mu_k), level)


def density_flag(mask: AffinityMask, tau_d: float) -> np.ndarray:
    """Rows whose nonzero fill fraction strictly exceeds tau_d."""
    if not 0.0 <= tau_d <= 1.0:
        raise ConfigurationError(f"tau_d={tau_d} outside [0, 1]")
    fill = np.count_nonzero(mask.weights, axis=1) / mask.weights.shape[1]
    return np.flatnonzero(fill > tau_d)


def upscale_mask(mask: AffinityMask, target: tuple[int, int]) -> AffinityMask:
    """Nearest-neighbor block replication to the target shape."""
    rows, cols = mask.shape
    tr, tc = target
    if tr % rows or tc % cols:
        raise DimensionError(f"target {target} not a multiple of {mask.shape}")
    w = np.repeat(np.repeat(mask.weights, tr // rows, axis=0), tc // cols, axis=1)
    return AffinityMask._unchecked(w, mask.alphabet, mask.level)


def _children(rows: np.ndarray) -> np.ndarray:
    """Rows at the next level descended from the given rows (2 each)."""
    if rows.size == 0:
        return rows.astype(np.intp)
    return np.sort(np.concatenate([2 * rows, 2 * rows + 1])).astype(np.intp)


def build_level_masks(
    img_levels: tuple,
    txt_levels: tuple,
    cfg,
    trace=None,
    replay=None,
    density_rule=None,
    max_level: int = 3,
) -> HierarchicalMask:
    """Density-triggered three-level mask build over prepared level tokens.

    `img_levels` and `txt_levels` hold the (I,)/(2I,)/(4I,) image tokens
    and (J,)/(2J,)/(4J,) text tokens already in similarity space.
    `density_rule(mask, level, active_rows)` overrides the tau_d fill rule
    (used by the density sweep in the bench command). `max_level=1`
    collapses the hierarchy to its coarsest level (fine-alignment toggle
    off).
    """
    mu1, mu2, mu3 = cfg.mu
    counter = trace.counter if trace is not None else None
    rule = density_rule or (lambda mask, level, active: density_flag(mask, cfg.tau_d))
    n1, m1 = img_levels[0].shape[0], txt_levels[0].shape[0]
    target = (4 * n1, 4 * m1)

    a1 = decide(
        trace, replay, "nfa_mask_l1",
        lambda: level_mask(img_levels[0], txt_levels[0], cfg.k_thr, mu1, None, counter, "fine-1"),
    )
    dense1 = decide(trace, replay, "nfa_dense_l1", lambda: rule(a1, 1, np.arange(n1)))
    dense1 = np.asarray(dense1, dtype=np.intp)

    active2 = _children(dense1) if max_level >= 2 else np.arange(0)
    a2 = decide(
        trace, replay, "nfa_mask_l2",
        lambda: level_mask(img_levels[1], txt_levels[1], cfg.k_thr, mu2, active2, counter, "fine-2"),
    )
    dense2 = decide(trace, replay, "nfa_dense_l2", lambda: rule(a2, 2, active2))
    dense2 = np.asarray(dense2, dtype=np.intp)

    active3 = _children(dense2) if max_level >= 3 else np.arange(0)
    a3 = decide(
        trace, replay, "nfa_mask_l3",
        lambda: level_mask(img_levels[2], txt_levels[2], cfg.k_thr, mu3, active3, counter, "fine-3"),
    )

    a1u = upscale_mask(a1, target)
    a2u = upscale_mask(a2, target)
    a3u = upscale_mask(a3, target)
    a_prime = a1u.weights + a2u.weights + a3u.weights
    hier = HierarchicalMask(a1u, a2u, a3u, a_prime, dense1, dense2)
    hier.check_structure()
    if trace is not None and replay is None:
        trace.hierarchy.append(
            HierarchyCost(
                n_rows_l1=n1,
                n_cols_l1=m1,
                active_l2=int(active2.size),
                active_l3=int(active3.size),
                cosines=n1 * m1 + active2.size * 2 * m1 + active3.size * 4 * m1,
            )
        )
    return hier


def text_pyramid(t_tokens: TokenSet) -> tuple[TokenSet, TokenSet, TokenSet]:
    """Base text tokens plus their 2x and 4x refinements.

    Only the finest level feeds the masked update's keys/values; the
    coarser two exist for mask construction and stay off-tape.
    """
    with T.no_recording():
        l2 = refine_text(t_tokens, 2)
    return t_tokens, l2, refine_text(t_tokens, 4)


def build_hierarchy(
    m: Tensor,
    t_tokens: TokenSet,
    cfg,
    weights: NfaWeights,
    trace=None,
    replay=None,
    density_rule=None,
    max_level: int = 3,
):
    """Full fine-alignment mask build from a feature map.

    Returns (HierarchicalMask, level-3 image tokens projected to d,
    level-3 text tokens) so the caller can run the masked update.

    Levels 1 and 2 feed only mask construction, so their projections run
    off-tape like their branches; gradient reaches the branch-3 kernel and
    projection through the masked update's queries.
    """
    tokens = multiscale_tokens(m, cfg.grid, cfg.mu, cfg.kernels, weights.conv_kernels)
    with T.no_recording():
        p1 = T.matmul(tokens[0], weights.branch_projs[0])
        p2 = T.matmul(tokens[1], weights.branch_projs[1])
    p3 = T.matmul(tokens[2], weights.branch_projs[2])
    txt_sets = text_pyramid(t_tokens)
    hier = build_level_masks(
        (p1, p2, p3),
        tuple(ts.tokens for ts in txt_sets),
        cfg,
        trace,
        replay,
        density_rule,
        max_level,
    )
    return hier, p3, txt_sets[2].tokens


def build_hierarchy_from_tokens(
    tokens: Tensor,
    grid: tuple[int, int],
    t_tokens: TokenSet,
    cfg,
    trace=None,
    replay=None,
    max_level: int = 3,
):
    """Fine-alignment mask build over an (N, d) token grid (detail path).

    Levels 1 and 2 (both modalities) feed only mask construction and pool
    off-tape; only the finest level rides the tape as the masked update's
    queries and keys/values.
    """
    gy_t, gx_t = grid
    n, d = tokens.shape
    if n != gy_t * gx_t:
        raise DimensionError(f"{n} tokens do not fill grid {grid}")
    if gy_t % 4 or gx_t % 4:
        raise DimensionError(f"token grid {grid} must be divisible by 4")
    gy, gx = gy_t // 4, gx_t // 4
    as_map = T.reshape(tokens, (gy_t, gx_t, d))
    with T.no_recording():
        img_l1 = _pool_tokens(as_map, gy, gx, 1, 1)
        img_l2 = _pool_tokens(as_map, gy, gx, 2, 1)
    q3 = _pool_tokens(as_map, gy, gx, 2, 2)
    txt_sets = text_pyramid(t_tokens)

    hier = build_level_masks(
        (img_l1, img_l2, q3),
        tuple(ts.tokens for ts in txt_sets),
        cfg,
        trace,
        replay,
        None,
        max_level,
    )
    return hier, q3, txt_sets[2].tokens


def nfa_attention(
    m_tokens: Tensor,
    t_tokens: Tensor,
    a_prime: np.ndarray,
    projections: tuple[ProjectionSet, ProjectionSet],
    cfg,
) -> Tensor:
    """Masked update over the finest tokens: softmaxed scores scaled by the
    combined lattice mask, then the text value sum."""
    if a_prime.shape != (m_tokens.shape[0], t_tokens.shape[0]):
        raise DimensionError(
            f"combined mask {a_prime.shape} vs tokens "
            f"({m_tokens.shape[0]}, {t_tokens.shape[0]})"
        )
    lattice = mask_lattice(*cfg.mu)
    mask = AffinityMask(a_prime, tuple(lattice), "combined")
    img_ps, txt_ps = projections
    return masked_cross_attention(
        m_tokens, t_tokens, mask, (img_ps, txt_ps), cfg.mask_mode,
        score_from_values=cfg.score_from_values,
    )


def pool_children_to_parents(update: Tensor) -> Tensor:
    """Average each parent's four quadrant rows: (4I, d) -> (I, d)."""
    n, d = update.shape
    if n % 4:
        raise DimensionError(f"row count {n} not a multiple of 4")
    return T.tmean(T.reshape(update, (n // 4, 4, d)), axis=1)
