"""Detail injection: slot padding/extraction, detail token building, and
the injection pipeline with its carried state."""

import numpy as np
import pytest

import oracles
from dape import phi as P
from dape import tensor as T
from dape.coarse import ProjectionSet, coarse_align_block, tokenize_image
from dape.config import DapeConfig
from dape.costs import Trace
from dape.errors import ContractError, IndexRangeError
from dape.tensor import Tensor


def rng(seed=0):
    return np.random.default_rng(seed)


def phi_cfg(**over):
    base = dict(
        d=8, n_layers=2, s=2, grid=(2, 2), j_text=4, text_len=16,
        image_size=8, L=2, k1=2, phi_period=2, enable_cwa=False,
        nfa_merge="slots_only", detail_pool=1,
    )
    base.update(over)
    cfg = DapeConfig(**base)
    cfg.validate()
    return cfg


def eye_ps(d):
    i = Tensor(np.eye(d))
    return ProjectionSet(i, i, i)


def make_weights(g, c, d, p):
    return P.PhiWeights(
        detail_proj=Tensor(g.standard_normal((c, d)) * 0.5),
        learnable=P.LearnableTokens(Tensor(g.standard_normal((p, d)) * 0.02)),
        q_ps=eye_ps(d),
        kv_ps=eye_ps(d),
    )


# ---------------------------------------------------------------------------
# pad (inside the coarse block) / extract


def pad_case(seed, pad_tokens):
    """Coarse pass over a (4, 4, 3) map on a 2x2 grid; returns the image
    tokens, the slot rows and the map."""
    g = rng(seed)
    m = Tensor(g.standard_normal((4, 4, 3)))
    t = Tensor(g.standard_normal((2, 3)))
    _, _, _, img_tokens, _, slots = coarse_align_block(
        m, t, eye_ps(3), eye_ps(3), DapeConfig(d=3, s=1, grid=(2, 2), j_text=2),
        pad_tokens=pad_tokens,
    )
    return img_tokens, slots, m


def test_pad_zero_slots_identity():
    img_tokens, slots, m = pad_case(1, None)
    assert np.array_equal(img_tokens.tokens.a, tokenize_image(m, (2, 2)).tokens.a)
    assert slots.size == 0


def test_pad_counts_and_slot_positions():
    img_tokens, slots, _ = pad_case(2, Tensor(rng(3).standard_normal((2, 3))))
    assert img_tokens.n == 6
    assert list(slots) == [4, 5]
    assert img_tokens.provenance[4] == ("slot", 0)
    # slot provenance disjoint from real-token provenance
    assert all(p[0] == "cell" for p in img_tokens.provenance[:4])


def test_pad_extract_round_trip_bit_identical():
    m_in = rng(4).standard_normal((3, 3))
    img_tokens, slots, _ = pad_case(4, Tensor(m_in))
    back = P.extract_slots(img_tokens.tokens, slots)
    assert np.array_equal(back.a, m_in)


def test_extract_all_positions_is_whole_matrix():
    x = rng(5).standard_normal((4, 3))
    got = P.extract_slots(Tensor(x), np.arange(4))
    assert np.array_equal(got.a, x)


def test_extract_single_row():
    x = rng(6).standard_normal((4, 3))
    assert np.array_equal(P.extract_slots(Tensor(x), [2]).a, x[[2]])


def test_extract_matches_gather_oracle():
    x = rng(7).standard_normal((6, 4))
    idx = [5, 1, 3]
    got = P.extract_slots(Tensor(x), idx).a
    assert np.array_equal(got, np.stack([x[i] for i in idx]))


def test_extract_out_of_range():
    with pytest.raises(IndexRangeError):
        P.extract_slots(Tensor(np.zeros((3, 2))), [3])


# ---------------------------------------------------------------------------
# make_detail_tokens


def test_detail_tokens_constant_image_bias_free_projection_gives_zero():
    c, d = 3, 4
    src = Tensor(np.ones((8, 8, c)) * 2.0)
    proj = Tensor(rng(8).standard_normal((c, d)))
    tokens, grid, first = P.make_detail_tokens(src, proj, 0.25)
    assert first and grid == (8, 8)
    assert np.max(np.abs(tokens.a)) < 1e-10  # high-pass kills a constant map


def test_detail_tokens_pass_through_carried_state():
    carried = Tensor(rng(9).standard_normal((16, 4)))
    state = P.DetailState(carried, (4, 4), generation=1)
    tokens, grid, first = P.make_detail_tokens(state, Tensor(np.zeros((3, 4))), 0.25)
    assert tokens is carried and grid == (4, 4) and not first


def test_detail_tokens_match_highpass_then_project_oracle():
    c, d = 1, 3
    g = rng(10)
    src = g.standard_normal((8, 8, 1))
    proj = g.standard_normal((1, d))
    tokens, _, _ = P.make_detail_tokens(Tensor(src), Tensor(proj), 0.4)
    hp = oracles.highpass_naive(src[..., 0], 0.4)
    want = hp.reshape(-1, 1) @ proj
    assert np.max(np.abs(tokens.a - want)) < 1e-9


# ---------------------------------------------------------------------------
# phi_inject


def inject_case(seed, cfg=None):
    cfg = cfg or phi_cfg()
    g = rng(seed)
    d = cfg.d
    n_tokens = cfg.n_img_tokens
    p = cfg.slot_count
    m1_plus = Tensor(g.standard_normal((n_tokens + p, d)))
    slots = np.arange(n_tokens, n_tokens + p)
    detail_src = Tensor(g.standard_normal((cfg.image_size, cfg.image_size, d)))
    t_prev = Tensor(g.standard_normal((cfg.j_text, d)))
    weights = make_weights(g, d, d, p)
    return cfg, g, m1_plus, slots, detail_src, t_prev, weights


def test_inject_wrong_phase_rejected():
    cfg, g, m1p, slots, src, t_prev, weights = inject_case(11)
    with pytest.raises(ContractError):
        P.phi_inject(m1p, slots, src, t_prev, weights, (eye_ps(cfg.d), eye_ps(cfg.d)),
                     cfg, layer_index=0)


def test_inject_default_period_is_four():
    assert DapeConfig().phi_period == 4


def test_inject_zero_detail_leaves_slots_unchanged():
    cfg, g, m1p, slots, src, t_prev, weights = inject_case(12)
    zero_state = P.DetailState(Tensor(np.zeros((64, cfg.d))), (8, 8), 1)
    m_out, state = P.phi_inject(
        m1p, slots, zero_state, t_prev, weights, (eye_ps(cfg.d), eye_ps(cfg.d)),
        cfg, layer_index=1,
    )
    # zero detail -> m2 = 0 -> attention over zero values -> m3 = 0
    assert np.array_equal(m_out.a, m1p.a)
    assert state.generation == 2


def test_inject_touches_only_slot_rows():
    cfg, g, m1p, slots, src, t_prev, weights = inject_case(13)
    m_out, _ = P.phi_inject(
        m1p, slots, src, t_prev, weights, (eye_ps(cfg.d), eye_ps(cfg.d)),
        cfg, layer_index=1,
    )
    non_slots = np.setdiff1d(np.arange(m1p.shape[0]), slots)
    assert np.array_equal(m_out.a[non_slots], m1p.a[non_slots])


def test_inject_matches_composed_pipeline_oracle():
    """Steps 1-5 recomposed from the package's own verified parts."""
    from dape.nfa import build_hierarchy_from_tokens, nfa_attention
    from dape.coarse import masked_cross_attention, tokenize_text

    cfg, g, m1p, slots, src, t_prev, weights = inject_case(14)
    m_out, state = P.phi_inject(
        m1p, slots, src, t_prev, weights, (eye_ps(cfg.d), eye_ps(cfg.d)),
        cfg, layer_index=1,
    )
    det, grid, _ = P.make_detail_tokens(src, weights.detail_proj, cfg.cutoff_frac)
    txt_base = tokenize_text(t_prev, cfg.j_text // 4)
    hier, q3, txt3 = build_hierarchy_from_tokens(det, grid, txt_base, cfg)
    m2 = nfa_attention(q3, txt3, hier.a_prime, (eye_ps(cfg.d), eye_ps(cfg.d)), cfg)
    m_in = m1p.a[slots]
    m3 = masked_cross_attention(Tensor(m_in), m2, None, (weights.q_ps, weights.kv_ps))
    assert np.max(np.abs(m_out.a[slots] - (m_in + m3.a))) < 1e-12


def test_inject_state_carries_and_grid_halves():
    cfg, g, m1p, slots, src, t_prev, weights = inject_case(15)
    m_out, state = P.phi_inject(
        m1p, slots, src, t_prev, weights, (eye_ps(cfg.d), eye_ps(cfg.d)),
        cfg, layer_index=1,
    )
    assert state.generation == 1
    assert state.grid == (cfg.image_size // 2, cfg.image_size // 2)
    assert state.detail_tokens.shape == ((cfg.image_size // 2) ** 2, cfg.d)
    # second injection consumes the carried state
    m_out2, state2 = P.phi_inject(
        m_out, slots, state, t_prev, weights, (eye_ps(cfg.d), eye_ps(cfg.d)),
        cfg, layer_index=1,
    )
    assert state2.generation == 2
    assert state2.grid == (cfg.image_size // 4, cfg.image_size // 4)


def test_inject_bandlimited_detail_reduces_to_fixed_perturbation():
    """With every frequency of the detail source removed, all detail tokens
    coincide, so the injection adds one fixed vector independent of the
    slot values."""
    cfg, g, m1p, slots, src, t_prev, weights = inject_case(16)
    # a low-frequency-only map: the near-1 cutoff removes everything
    low = np.ones((cfg.image_size, cfg.image_size, cfg.d)) * g.standard_normal(cfg.d)
    cfg.cutoff_frac = 0.999
    m_out, _ = P.phi_inject(
        Tensor(m1p.a), slots, Tensor(low), t_prev, weights,
        (eye_ps(cfg.d), eye_ps(cfg.d)), cfg, layer_index=1,
    )
    delta = m_out.a[slots] - m1p.a[slots]
    other = Tensor(m1p.a + g.standard_normal(m1p.shape))
    m_out2, _ = P.phi_inject(
        other, slots, Tensor(low), t_prev, weights,
        (eye_ps(cfg.d), eye_ps(cfg.d)), cfg, layer_index=1,
    )
    delta2 = m_out2.a[slots] - other.a[slots]
    assert np.max(np.abs(delta - delta2)) < 1e-12
    assert np.max(np.abs(delta - delta[0])) < 1e-12  # same vector every slot


def test_carried_state_depends_on_text():
    """Perturbing the incoming text changes the next generation's pool."""
    cfg, g, m1p, slots, src, t_prev, weights = inject_case(
        17, phi_cfg(k_thr=0.0, tau_d=0.0)
    )
    _, state_a = P.phi_inject(
        m1p, slots, src, t_prev, weights, (eye_ps(cfg.d), eye_ps(cfg.d)),
        cfg, layer_index=1,
    )
    t_other = Tensor(t_prev.a + 0.5 * rng(18).standard_normal(t_prev.shape))
    _, state_b = P.phi_inject(
        m1p, slots, src, t_other, weights, (eye_ps(cfg.d), eye_ps(cfg.d)),
        cfg, layer_index=1,
    )
    assert np.max(np.abs(state_a.detail_tokens.a - state_b.detail_tokens.a)) > 1e-8


def test_inject_counts_into_trace():
    cfg, g, m1p, slots, src, t_prev, weights = inject_case(19)
    trace = Trace()
    P.phi_inject(m1p, slots, src, t_prev, weights, (eye_ps(cfg.d), eye_ps(cfg.d)),
                 cfg, layer_index=1, trace=trace)
    assert trace.injections == 1
    assert len(trace.hierarchy) == 1
