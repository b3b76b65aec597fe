"""Progressive high-frequency detail injection.

Every K-th layer, learnable slot tokens ride through the coarse alignment,
then query a pool of high-pass detail tokens. The pool starts as the
high-pass filtered full-resolution feature map (projected to token space)
and thereafter carries the previous injection's fine-alignment output, so
detail evolves across the depth of the stack.

Streams are (..., N, d) and maps (..., h, w, c); every sample shares the
slot parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np

from . import tensor as T
from .coarse import KeyValueProjection, QueryProjection
from .costs import cost_scope
from .errors import ConfigurationError, ContractError, IndexRangeError
from .nfa import build_hierarchy_from_tokens, nfa_attention
from .tensor import Tensor


@dataclass
class DetailState:
    """Carried (..., N, d) detail tokens, row-major on `grid`."""

    detail_tokens: Tensor
    grid: tuple[int, int]


@dataclass
class LearnableTokens:
    """Slot parameters padded onto the image tokens at injection layers."""

    tokens: Tensor                      # (P, d)


@dataclass
class PhiWeights:
    """Learned pieces of the injection path."""

    detail_proj: Tensor                 # (c, d)
    learnable: LearnableTokens
    q_ps: QueryProjection               # slot queries
    kv_ps: KeyValueProjection           # detail keys/values


def extract_slots(m1_plus: Tensor, positions) -> Tensor:
    """Rows of the aligned stream at the learnable slot positions."""
    positions = np.asarray(positions, dtype=np.intp)
    if positions.size and (positions.min() < 0 or positions.max() >= m1_plus.shape[-2]):
        raise IndexRangeError(
            f"slot positions {positions} out of range for {m1_plus.shape[-2]} rows"
        )
    return T.gather_rows(m1_plus, positions)


def make_detail_tokens(
    source: Tensor | DetailState, proj: Tensor, cutoff_frac: float,
    pool: int = 1,
) -> tuple[Tensor, tuple[int, int]]:
    """Detail tokens and their grid.

    First injection: per-channel high-pass of the (..., h, w, c) map at full
    resolution, then pool*pool cells aggregate and project to token width
    (pooling followed by a projection is still one linear map of the
    enhanced image). Later injections pass the carried tokens through
    untouched.
    """
    if isinstance(source, DetailState):
        return source.detail_tokens, source.grid
    if source.a.ndim < 3:
        raise ConfigurationError(
            f"first detail source must be an (..., h, w, c) map, got {source.shape}"
        )
    h, w, c = source.shape[-3:]
    if proj.shape[0] != c:
        raise ConfigurationError(
            f"detail projector {proj.shape} incompatible with {c} channels"
        )
    # The filter acts on input data, not parameters: no gradient flows
    # through it, so it runs as one fused raw matmul off the tape.
    cells = Tensor(T.pooled_highpass_cells(source.a, cutoff_frac, pool), check=False)
    gy, gx = h // pool, w // pool
    return T.matmul(cells, proj), (gy, gx)


def phi_inject(
    m1_plus: Tensor,
    slots: np.ndarray,
    detail: Tensor | DetailState,
    t_prev: Tensor,
    weights: PhiWeights,
    nfa_projections: tuple[QueryProjection, KeyValueProjection],
    cfg,
    layer_index: int,
    trace=None,
    replay=None,
    carry: bool = True,
) -> tuple[Tensor, DetailState | None]:
    """One detail injection.

    Builds (or carries) the detail pool, runs the fine-alignment
    interaction against the incoming text tokens to get the refreshed pool
    m2, lets the slot tokens query m2 through cross-attention, applies the
    residual, and writes the slots back. Returns the updated stream and
    the carried state, or None with `carry=False` (no later injection
    reads it).
    """
    if layer_index % cfg.phi_period != cfg.phi_period - 1:
        raise ContractError(
            f"injection at layer {layer_index} violates period {cfg.phi_period}"
        )
    det_tokens, det_grid = make_detail_tokens(
        detail, weights.detail_proj, cfg.cutoff_frac, cfg.detail_pool
    )
    # the nested fine-alignment build bills to its own module, whichever
    # counter the caller installed
    with cost_scope(T._COST_SINK, "nfa"):
        hier, q3, txt3 = build_hierarchy_from_tokens(
            det_tokens, det_grid, t_prev, cfg, trace, replay,
            max_level=3 if cfg.enable_nfa else 1,
        )
        m2 = nfa_attention(q3, txt3, hier.a_prime, nfa_projections)

    m_in = extract_slots(m1_plus, slots)
    m3 = T.attention(m_in, m2, weights.q_ps.wq, weights.kv_ps.wk, weights.kv_ps.wv, None)
    m_out = T.add_rows(m1_plus, slots, m3)  # the residual, on the slot rows only
    if trace is not None and replay is None:
        trace.injections += prod(t_prev.shape[:-2])
    if not carry:
        return m_out, None

    # Carry m2 forward, reordered from parent-major quadrants to row-major
    # on the halved grid so the next injection can re-tile it: row-major
    # quadrant (a, dy, b, dx) is parent-major row ((a*gx + b)*2 + dy)*2 + dx.
    gy, gx = det_grid[0] // 4, det_grid[1] // 4
    row_major = np.arange(m2.shape[-2]).reshape(gy, gx, 2, 2).transpose(0, 2, 1, 3)
    carried = T.gather_rows(m2, row_major.reshape(-1))
    return m_out, DetailState(carried, (det_grid[0] // 2, det_grid[1] // 2))
