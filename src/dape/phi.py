"""Progressive high-frequency detail injection.

Every K-th layer, learnable slot tokens ride through the coarse alignment,
then query a pool of high-pass detail tokens. The pool starts as the
high-pass filtered full-resolution feature map (projected to token space)
and thereafter carries the previous injection's fine-alignment output, so
detail evolves across the depth of the stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .coarse import ProjectionSet, masked_cross_attention, tokenize_text
from .costs import cost_scope
from .errors import ConfigurationError, ContractError, IndexRangeError
from .nfa import build_hierarchy_from_tokens, nfa_attention, parent_major_perm
from .tensor import Tensor


@dataclass
class DetailState:
    """Carried detail tokens (row-major on `grid`) and injection count."""

    detail_tokens: Tensor
    grid: tuple[int, int]
    generation: int = 0


@dataclass
class LearnableTokens:
    """Slot parameters padded onto the image tokens at injection layers."""

    tokens: Tensor                      # (P, d)


@dataclass
class PhiWeights:
    """Learned pieces of the injection path."""

    detail_proj: Tensor                 # (c, d)
    learnable: LearnableTokens
    q_ps: ProjectionSet                 # slot queries
    kv_ps: ProjectionSet                # detail keys/values


def extract_slots(m1_plus: Tensor, positions) -> Tensor:
    """Rows of the aligned stream at the learnable slot positions."""
    positions = np.asarray(positions, dtype=np.intp)
    if positions.size and (positions.min() < 0 or positions.max() >= m1_plus.shape[0]):
        raise IndexRangeError(
            f"slot positions {positions} out of range for {m1_plus.shape[0]} rows"
        )
    return T.gather_rows(m1_plus, positions)


def make_detail_tokens(
    source: Tensor | DetailState, proj: Tensor, cutoff_frac: float,
    pool: int = 1,
) -> tuple[Tensor, tuple[int, int], bool]:
    """Detail tokens, their grid, and whether this was a first build.

    First injection: per-channel high-pass of the (h, w, c) map at full
    resolution, then pool*pool cells aggregate and project to token width
    (pooling followed by a projection is still one linear map of the
    enhanced image). Later injections pass the carried tokens through
    untouched.
    """
    if isinstance(source, DetailState):
        return source.detail_tokens, source.grid, False
    if source.a.ndim != 3:
        raise ConfigurationError(
            f"first detail source must be an (h, w, c) map, got {source.shape}"
        )
    h, w, c = source.shape
    if proj.shape[0] != c:
        raise ConfigurationError(
            f"detail projector {proj.shape} incompatible with {c} channels"
        )
    # The filter acts on input data, not parameters: no gradient flows
    # through it, so it runs as one fused raw matmul off the tape.
    cells = Tensor(T.pooled_highpass_cells(source.a, cutoff_frac, pool), check=False)
    gy, gx = h // pool, w // pool
    return T.matmul(cells, proj), (gy, gx), True


def phi_inject(
    m1_plus: Tensor,
    slots: np.ndarray,
    detail: Tensor | DetailState,
    t_prev: Tensor,
    weights: PhiWeights,
    nfa_projections: tuple[ProjectionSet, ProjectionSet],
    cfg,
    layer_index: int,
    trace=None,
    replay=None,
) -> tuple[Tensor, DetailState]:
    """One detail injection.

    Builds (or carries) the detail pool, runs the fine-alignment
    interaction against the incoming text tokens to get the refreshed pool
    m2, lets the slot tokens query m2 through cross-attention, applies the
    residual, and writes the slots back. Returns the updated stream and
    the carried state.
    """
    if layer_index % cfg.phi_period != cfg.phi_period - 1:
        raise ContractError(
            f"injection at layer {layer_index} violates period {cfg.phi_period}"
        )
    det_tokens, det_grid, _first = make_detail_tokens(
        detail, weights.detail_proj, cfg.cutoff_frac, cfg.detail_pool
    )
    n_txt = t_prev.shape[0]
    if n_txt % 4:
        raise ConfigurationError(
            f"text stream length {n_txt} must be divisible by 4 for injection"
        )
    txt_base = tokenize_text(t_prev, n_txt // 4)
    # the nested fine-alignment build bills to its own module, whichever
    # counter the caller installed
    with cost_scope(T._COST_SINK, "nfa"):
        hier, q3, txt3 = build_hierarchy_from_tokens(
            det_tokens, det_grid, txt_base, cfg, trace, replay,
            max_level=3 if cfg.enable_nfa else 1,
        )
        m2 = nfa_attention(q3, txt3, hier.a_prime, nfa_projections, cfg)

    m_in = extract_slots(m1_plus, slots)
    m3 = masked_cross_attention(m_in, m2, None, (weights.q_ps, weights.kv_ps))
    m_in_new = T.add(m_in, m3)
    m_out = T.replace_rows(m1_plus, slots, m_in_new)

    # Carry m2 forward, reordered from parent-major quadrants to row-major
    # on the halved grid so the next injection can re-tile it.
    gy, gx = det_grid[0] // 4, det_grid[1] // 4
    perm = parent_major_perm(gy, gx, 2, 2)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(perm.size)
    carried = T.gather_rows(m2, inv)
    prev_gen = detail.generation if isinstance(detail, DetailState) else 0
    state = DetailState(carried, (det_grid[0] // 2, det_grid[1] // 2), prev_gen + 1)
    if trace is not None and replay is None:
        trace.injections += 1
    return m_out, state
