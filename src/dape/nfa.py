"""Non-uniform fine-grained alignment.

Channels split in a mu-ratio feed three depthwise convolutions; each branch
is pooled at its own granularity (whole cell, vertical halves, quadrants),
giving masks of I x J, 2I x 2J and 4I x 4J: level k is coarse's matching
rule (`coarse.affinity_mask`) at k_thr with weight mu_k. Refinement is
density-triggered: level l+1 is evaluated only under rows of level l whose
nonzero fill exceeds tau_d. The level masks stay at their own resolutions;
`combine_levels` sums them on the finest grid into a single weight matrix
whose entries live on the subset-sum lattice of mu.

Each level source has one builder: `image_levels` (a map's branches,
convolved, pooled and projected) and `token_levels` (a detail token grid).
`build_level_masks` is the one mask step after either. The channel split
and each convolution's padded layout and banded taps do not change
between layers: `prepare_branches` builds them once per forward. Each
layer still rebuilds the level-3 tokens from them and projects them to
the masked update's queries, but those builds share one backward
(`tensor.shared`), run once per step: convolution, pool, projection and
query projection.

Token rows are ordered parent-major (the 2 halves, then the 4 quadrants of
parent p occupy rows 2p+dy and 4p+2dy+dx): row r of a level refines row
r // 2 of the level above, so block replication onto the finest grid
coincides exactly with the refinement tree.

Maps are (..., h, w, c), tokens (..., N, d), masks (..., N, M) and
dense-row flags (..., N). Refinement is exact per sample: each sample
descends under its own dense rows, and cosines run only for the active
(sample, row) pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations

import numpy as np

from . import tensor as T
from .coarse import KeyValueProjection, QueryProjection, affinity_mask
from .config import mu_partition
from .costs import HierarchyCost, decide
from .errors import ConfigurationError, DimensionError
from .tensor import Tensor


@dataclass
class NfaWeights:
    """Learned pieces of the fine-alignment path. Its attention has image
    queries over text keys/values, so it holds the image query projection
    and the text key/value projections only."""

    conv_kernels: tuple[Tensor, Tensor, Tensor]
    branch_projs: tuple[Tensor, Tensor, Tensor]
    img_ps: QueryProjection
    txt_ps: KeyValueProjection


@dataclass
class HierarchicalMask:
    """The three level masks ({0, mu_k} each) at their own resolutions,
    (..., I, J), (..., 2I, 2J) and (..., 4I, 4J), the dense-row flags
    ((..., I) at level 1, (..., 2I) at level 2) and the level weights mu."""

    levels: tuple[np.ndarray, np.ndarray, np.ndarray]
    dense_l1: np.ndarray
    dense_l2: np.ndarray
    mu: tuple[float, float, float]

    @cached_property
    def a_prime(self) -> np.ndarray:
        """The combined (..., 4I, 4J) weight matrix."""
        return combine_levels(self.levels)

    def check_structure(self) -> None:
        lattice = mask_lattice(*self.mu)
        at = np.minimum(np.searchsorted(lattice, self.a_prime), lattice.size - 1)
        if not (lattice[at] == self.a_prime).all():
            raise ConfigurationError("combined mask leaves the mu lattice")
        # row r of level l+1 sits under parent row r // 2 of level l
        _, a2, a3 = self.levels
        if (a2.any(axis=-1) & ~np.repeat(self.dense_l1, 2, axis=-1)).any():
            raise ConfigurationError("level-2 weight outside a dense level-1 row")
        if (a3.any(axis=-1) & ~np.repeat(self.dense_l2, 2, axis=-1)).any():
            raise ConfigurationError("level-3 weight outside a dense level-2 row")


def combine_levels(levels: tuple[np.ndarray, np.ndarray, np.ndarray]) -> np.ndarray:
    """Block-replicate level 1 by 4 and level 2 by 2 onto level 3's
    (..., 4I, 4J) grid and add the three, a1 then a2 then a3."""
    a1, a2, a3 = levels
    n, m = a1.shape[-2:]
    if a2.shape[-2:] != (2 * n, 2 * m) or a3.shape[-2:] != (4 * n, 4 * m):
        raise DimensionError(f"level masks {[a.shape for a in levels]} are not 1:2:4")
    return (
        np.repeat(np.repeat(a1, 4, axis=-2), 4, axis=-1)
        + np.repeat(np.repeat(a2, 2, axis=-2), 2, axis=-1)
        + a3
    )


@lru_cache(maxsize=16)
def mask_lattice(mu1: float, mu2: float, mu3: float) -> np.ndarray:
    """All subset sums of the three level weights (8 values incl. 0),
    sorted; read-only, since it is cached."""
    vals = {0.0}
    for r in range(1, 4):
        for comb in combinations((mu1, mu2, mu3), r):
            vals.add(float(sum(comb)))
    lattice = np.array(sorted(vals))
    lattice.flags.writeable = False
    return lattice


# ---------------------------------------------------------------------------
# Channel split and level tokens


def prepare_branches(
    m: Tensor,
    mu: tuple[float, float, float],
    kernels: tuple[int, int, int],
    conv_kernels: tuple[Tensor, Tensor, Tensor],
) -> tuple[T.DepthwiseConv, T.DepthwiseConv, T.DepthwiseConv]:
    """Split the channels of an (..., h, w, c) map by largest-remainder mu
    widths and prepare each part's depthwise convolution with its own
    kernel: the half of the fine-alignment path that does not change
    between layers, built once per forward and billed nothing.

    Only the level-3 slice rides the tape, as levels 1 and 2 feed only
    mask construction.
    """
    widths = mu_partition(m.shape[-1], mu)
    if min(widths) < 1:
        raise ConfigurationError(f"mu split {widths} leaves an empty branch (c={m.shape[-1]})")

    def branch(b: int) -> T.DepthwiseConv:
        lo = sum(widths[:b])
        part = T.slice_last(m, lo, lo + widths[b])
        return T.conv2d_prepare(part, kernels[b], conv_kernels[b])

    with T.no_recording():
        b1, b2 = branch(0), branch(1)
    return b1, b2, branch(2)


def image_levels(
    branches: tuple[T.DepthwiseConv, T.DepthwiseConv, T.DepthwiseConv],
    grid: tuple[int, int],
    projs: tuple[Tensor, Tensor, Tensor],
) -> tuple[Tensor, Tensor, Tensor]:
    """Run each prepared branch convolution, pool it at its 1:2:4 token
    granularity (rows parent-major) and project it to d.

    Level 1 pools whole cells of the base grid (I tokens); level 2 pools
    the two vertical halves of each cell (2I); level 3 its four quadrants
    (4I). Levels 1 and 2 feed only mask construction, so they run off-tape;
    level 3 also feeds the masked update's queries.
    """
    gy, gx = grid
    h, w = branches[0].x.shape[-3:-1]
    if h % (4 * gy) or w % (4 * gx):
        raise DimensionError(
            f"grid {grid} needs map sides divisible by {4 * gy}x{4 * gx}, got {h}x{w}"
        )

    def level(b: int, fy: int, fx: int) -> Tensor:
        return T.matmul(T.pool_parent_major(T.conv2d_apply(branches[b]), gy, gx, fy, fx), projs[b])

    with T.no_recording():
        l1 = level(0, 1, 1)
        l2 = level(1, 2, 1)
    return l1, l2, level(2, 2, 2)


def token_levels(tokens: Tensor, grid: tuple[int, int]) -> tuple[Tensor, Tensor, Tensor]:
    """An (..., N, d) token grid pooled into the 1:2:4 levels, rows
    parent-major: the quadrants, vertical halves and whole of each 4x4
    block. Levels 1 and 2 feed only mask construction and stay off-tape."""
    gy_t, gx_t = grid
    n, d = tokens.shape[-2:]
    if n != gy_t * gx_t:
        raise DimensionError(f"{n} tokens do not fill grid {grid}")
    if gy_t % 4 or gx_t % 4:
        raise DimensionError(f"token grid {grid} must be divisible by 4")
    as_map = T.reshape(tokens, tokens.shape[:-2] + (gy_t, gx_t, d))
    l3 = T.pool_parent_major(as_map, gy_t // 4, gx_t // 4, 2, 2)
    # A half (row 2p+dy) is the mean of quadrant rows 4p+2dy+{0,1}, a whole
    # cell (row p) the mean of its two halves: every block pools equally
    # many tokens, so one pool of the map serves all three levels.
    with T.no_recording():
        l2 = T.pool_rows(l3, 2)
        l1 = T.pool_rows(l2, 2)
    return l1, l2, l3


# ---------------------------------------------------------------------------
# Masks


def density_flag(mask: np.ndarray, tau_d: float) -> np.ndarray:
    """Flags (..., n) of the rows of an (..., n, m) mask whose nonzero fill
    fraction strictly exceeds tau_d."""
    if not 0.0 <= tau_d <= 1.0:
        raise ConfigurationError(f"tau_d={tau_d} outside [0, 1]")
    fill = (mask != 0.0).sum(axis=-1) / mask.shape[-1]
    return fill > tau_d


def text_pyramid(t: Tensor) -> tuple[Tensor, Tensor, Tensor]:
    """An (..., l, d) text stream's base tokens (runs of 4 rows pooled) and
    their 2x and 4x refinements (runs of 2, and the rows themselves).

    Only the finest level feeds the masked update's keys/values; the
    coarser two exist for mask construction and stay off-tape.
    """
    with T.no_recording():
        return T.pool_rows(t, 4), T.pool_rows(t, 2), t


def build_level_masks(
    img_levels: tuple,
    t_stream: Tensor,
    cfg,
    trace=None,
    replay=None,
    density_rule=None,
    max_level: int = 3,
) -> tuple[HierarchicalMask, Tensor, Tensor]:
    """Density-triggered three-level mask build over image level tokens
    against the (..., l, d) text stream's `text_pyramid`.

    `img_levels` holds the (..., I)/(2I)/(4I) image tokens already in
    similarity space (`image_levels` or `token_levels`); each sample
    refines under its own dense rows. `density_rule(mask, level, active)`
    overrides the tau_d fill rule with flags from the level mask and the
    (..., n) active-row flags (used by the density sweep in the bench
    command). `max_level=1` collapses the hierarchy to its coarsest level
    (fine-alignment toggle off).

    Returns (HierarchicalMask, level-3 image tokens, level-3 text tokens)
    so the caller can run the masked update.
    """
    txt_levels = text_pyramid(t_stream)
    rule = density_rule or (lambda mask, level, active: density_flag(mask, cfg.tau_d))
    lead = img_levels[0].shape[:-2]
    n1, m1 = img_levels[0].shape[-2], txt_levels[0].shape[-2]

    masks, dense_flags, refined = [], [], []
    active = np.ones(lead + (n1,), bool)
    for level, (xk, tk, mu_k) in enumerate(zip(img_levels, txt_levels, cfg.mu), start=1):
        if level > 1:
            # the two children of each dense row refine; past max_level none do
            active = np.repeat(dense_flags[-1], 2, axis=-1) & (level <= max_level)
            refined.append(active)
        a = decide(
            trace, replay, f"nfa_mask_l{level}", lead,
            lambda: affinity_mask(xk, tk, cfg.k_thr, mu_k, active if level > 1 else None),
        )
        masks.append(a)
        if level < 3:
            dense_flags.append(
                decide(trace, replay, f"nfa_dense_l{level}", lead, lambda: rule(a, level, active))
            )

    hier = HierarchicalMask(tuple(masks), *dense_flags, cfg.mu)
    hier.check_structure()
    if trace is not None and replay is None:
        per_sample = zip(*(f.reshape(-1, f.shape[-1]).sum(axis=1).tolist() for f in refined))
        trace.hierarchy.extend(HierarchyCost(n1, m1, n2, n3) for n2, n3 in per_sample)
    return hier, img_levels[2], txt_levels[2]


def build_hierarchy(
    branches: tuple[T.DepthwiseConv, T.DepthwiseConv, T.DepthwiseConv],
    t_stream: Tensor,
    cfg,
    weights: NfaWeights,
    trace=None,
    replay=None,
    density_rule=None,
):
    """Full fine-alignment mask build from a feature map's branches, as
    `prepare_branches` made them from the map and `weights.conv_kernels`:
    `image_levels`, then `build_level_masks`. Returns (HierarchicalMask,
    the masked update's queries: the level-3 tokens projected by
    `weights.img_ps`, level-3 text tokens); `nfa_attention` takes them
    with no query projection.

    The levels and the queries are one `tensor.shared` build keyed by the
    branches, the grid and both projections, which every layer of a
    forward passes alike: every call runs and bills it, but its backward
    (level-3 conv, pool, projection and query projection) runs once per
    tape, on the queries' summed gradient."""
    wq = weights.img_ps.wq

    def levels_and_queries() -> tuple[Tensor, Tensor, Tensor, Tensor]:
        levels = image_levels(branches, cfg.grid, weights.branch_projs)
        return *levels, T.matmul(levels[2], wq)

    *levels, queries = T.shared(
        (branches, cfg.grid, weights.branch_projs, wq), levels_and_queries
    )
    hier, _, txt3 = build_level_masks(levels, t_stream, cfg, trace, replay, density_rule)
    return hier, queries, txt3


def build_hierarchy_from_tokens(
    tokens: Tensor,
    grid: tuple[int, int],
    t_stream: Tensor,
    cfg,
    trace=None,
    replay=None,
    max_level: int = 3,
):
    """Fine-alignment mask build over an (..., N, d) token grid (detail
    path): `token_levels`, then `build_level_masks`."""
    levels = token_levels(tokens, grid)
    return build_level_masks(levels, t_stream, cfg, trace, replay, None, max_level)


def nfa_attention(
    m_tokens: Tensor,
    t_tokens: Tensor,
    a_prime: np.ndarray,
    projections: tuple[QueryProjection | None, KeyValueProjection],
) -> Tensor:
    """Masked update over the finest tokens: softmaxed scores scaled by the
    combined lattice mask (already checked by `check_structure`), then the
    text value sum. A `None` query projection reads m_tokens as queries
    already projected (`build_hierarchy`'s)."""
    q_proj, kv_proj = projections
    wq = None if q_proj is None else q_proj.wq
    return T.attention(m_tokens, t_tokens, wq, kv_proj.wk, kv_proj.wv, a_prime)
