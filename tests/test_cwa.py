"""Channel-wise alignment: channelization, gating, top-k selection, fusion."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from dape import cwa as W
from dape import tensor as T
from dape.coarse import ProjectionSet
from dape.config import DapeConfig
from dape.errors import ConfigurationError, DimensionError
from dape.tensor import Tensor


def rng(seed=0):
    return np.random.default_rng(seed)


def eye_proj(d):
    i = Tensor(np.eye(d))
    return ProjectionSet(i, i, i)


def zero_gate(d):
    z = Tensor(np.zeros((d, d)))
    zb = Tensor(np.zeros(d))
    return W.ChannelGate(z, zb, z, zb)


# ---------------------------------------------------------------------------
# channelize


def test_channelize_single_cell():
    x = rng(1).standard_normal((1, 5))
    c = W.channelize(Tensor(x))
    assert c.shape == (5, 1)
    assert np.array_equal(c.a[:, 0], x[0])


def test_channelize_round_trip_bit_exact():
    x = rng(2).standard_normal((12, 6))
    c = W.channelize(Tensor(x))
    back = c.a.T
    assert np.array_equal(back, x)


def test_channelize_index_arithmetic():
    x = rng(3).standard_normal((4, 3))
    c = W.channelize(Tensor(x)).a
    # channel ch, position p must map to x[p, ch]
    for ch in range(3):
        for p in range(4):
            assert c[ch, p] == x[p, ch]


# ---------------------------------------------------------------------------
# gate_channels


def test_zero_gate_gives_uniform_weights():
    d = 6
    c = Tensor(rng(4).standard_normal((d, 10)))
    a = W.gate_channels(c, zero_gate(d))
    assert np.allclose(a.a, np.full(d, 1 / d), atol=1e-15)


def test_gate_matches_direct_mlp_oracle():
    d = 2
    g = rng(5)
    c = g.standard_normal((d, 3))
    w1, w2 = g.standard_normal((d, d)), g.standard_normal((d, d))
    b1, b2 = g.standard_normal(d), g.standard_normal(d)
    got = W.gate_channels(
        Tensor(c), W.ChannelGate(Tensor(w1), Tensor(b1), Tensor(w2), Tensor(b2))
    ).a
    pooled = c.mean(axis=1)
    logits = w2 @ np.maximum(w1 @ pooled + b1, 0.0) + b2
    want = oracles.softmax_rows_direct(logits[None, :])[0]
    assert np.max(np.abs(got - want)) < 1e-12


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_gate_weights_sum_to_one(seed):
    d = 4
    g = rng(seed)
    gate = W.ChannelGate(
        Tensor(g.standard_normal((d, d))),
        Tensor(g.standard_normal(d)),
        Tensor(g.standard_normal((d, d))),
        Tensor(g.standard_normal(d)),
    )
    a = W.gate_channels(Tensor(g.standard_normal((d, 5))), gate).a
    assert abs(a.sum() - 1.0) < 1e-12
    assert np.all(a >= 0.0)


# ---------------------------------------------------------------------------
# select_topk_segments_indices / aggregate_segments


def select_and_aggregate(c, a, big_l, k1):
    segments = W.select_topk_segments_indices(a, big_l, k1)
    return segments, W.aggregate_segments(Tensor(c), segments)


def test_select_all_equals_segment_mean():
    d, big_l = 4, 2
    c = rng(6).standard_normal((d, 5))
    a = rng(7).uniform(size=d)
    _, b = select_and_aggregate(c, a, big_l, k1=2)
    assert np.allclose(b.a[0], c[0:2].mean(axis=0), atol=1e-12)
    assert np.allclose(b.a[1], c[2:4].mean(axis=0), atol=1e-12)


def test_topk_picks_argmax_against_exhaustive_oracle():
    d, big_l, k1 = 4, 2, 1
    g = rng(8)
    c = g.standard_normal((d, 3))
    a = np.array([0.1, 0.4, 0.3, 0.2])
    segments, b = select_and_aggregate(c, a, big_l, k1)
    # oracle: enumerate all choices, keep the max-gate-weight subset
    for l, chosen in enumerate(segments):
        seg_idx = list(range(l * 2, l * 2 + 2))
        best = max(
            itertools.combinations(seg_idx, k1), key=lambda comb: sum(a[list(comb)])
        )
        assert tuple(chosen) == best
    assert np.allclose(b.a[0], c[1], atol=1e-15)
    assert np.allclose(b.a[1], c[2], atol=1e-15)


def test_topk_tie_goes_to_lowest_index():
    a = np.array([0.5, 0.5, 0.25, 0.25])
    assert W.select_topk_segments_indices(a, 2, 1) == [[0], [2]]


def test_topk_divisibility_error():
    with pytest.raises(ConfigurationError):
        W.select_topk_segments_indices(np.zeros(5), 2, 1)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_topk_exact_against_enumeration(seed):
    d, big_l, k1 = 8, 2, 2
    g = rng(seed)
    a = g.uniform(size=d)
    got = W.select_topk_segments_indices(a, big_l, k1)
    for l in range(big_l):
        seg_idx = list(range(l * 4, (l + 1) * 4))
        best = max(
            itertools.combinations(seg_idx, k1),
            key=lambda comb: (sum(a[list(comb)]), [-i for i in comb]),
        )
        assert sorted(best) == got[l]


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_topk_permutation_stability_within_segment(seed):
    d, big_l, k1 = 6, 2, 2
    g = rng(seed)
    c = g.standard_normal((d, 4))
    a = g.uniform(size=d)
    # permute channels inside segment 0 together with their weights
    perm = np.concatenate([g.permutation(3), np.arange(3, 6)])
    _, base = select_and_aggregate(c, a, big_l, k1)
    _, permuted = select_and_aggregate(c[perm], a[perm], big_l, k1)
    # ties may reorder, but the aggregated rows must carry the same values
    assert np.max(np.abs(np.sort(base.a, axis=0) - np.sort(permuted.a, axis=0))) < 1e-12


# ---------------------------------------------------------------------------
# cwa_block / fuse


def small_cfg(**over):
    base = dict(
        d=4, n_layers=1, s=1, grid=(2, 2), j_text=2, text_len=4,
        image_size=2, L=2, k1=1, enable_phi=False, enable_nfa=False,
    )
    base.update(over)
    return DapeConfig(**base)


def test_cwa_block_orthogonal_gives_zero_t2():
    cfg = small_cfg()
    d = cfg.d
    m = np.zeros((4, d))
    m[:, 0] = 1.0
    t1 = np.zeros((2, d))
    t1[:, 1] = 1.0
    proj = Tensor(np.eye(4, d))
    t2, a_c = W.cwa_block(
        Tensor(m), Tensor(t1), zero_gate(d), proj, (eye_proj(d), eye_proj(d)), cfg
    )
    assert np.array_equal(a_c.weights, np.zeros((cfg.L, 2)))
    assert np.array_equal(t2.a, np.zeros((2, d)))


def test_cwa_block_single_segment_matches_composed_oracle():
    cfg = small_cfg(L=1, k1=1, j_text=1, text_len=4)
    d = cfg.d
    g = rng(10)
    m = g.standard_normal((4, d))
    t1 = g.standard_normal((1, d))
    proj = g.standard_normal((4, d))
    gate = zero_gate(d)  # uniform weights -> tie -> channel 0 selected
    t2, a_c = W.cwa_block(
        Tensor(m), Tensor(t1), gate, Tensor(proj), (eye_proj(d), eye_proj(d)), cfg
    )
    c = m.T
    b = c[0]  # k1=1, tie -> lowest index
    bp = b @ proj
    cos = oracles.cosine_direct(bp, t1[0])
    mask = np.array([[1.0 if cos > cfg.k_c else 0.0]])
    want = oracles.masked_attention_loops(t1, bp[None, :], mask.T, np.eye(d), np.eye(d), np.eye(d))
    assert a_c.weights[0, 0] == mask[0, 0]
    assert np.max(np.abs(t2.a - want)) < 1e-10


def test_cwa_mask_alphabet_binary():
    cfg = small_cfg()
    g = rng(11)
    m = Tensor(g.standard_normal((4, cfg.d)))
    t1 = Tensor(g.standard_normal((2, cfg.d)))
    proj = Tensor(g.standard_normal((4, cfg.d)))
    _, a_c = W.cwa_block(m, t1, zero_gate(cfg.d), proj, (eye_proj(cfg.d), eye_proj(cfg.d)), cfg)
    assert set(np.unique(a_c.weights)) <= {0.0, 1.0}
    assert a_c.shape == (cfg.L, 2)


def test_fuse_zero_identity_and_double():
    g = rng(12)
    t1 = Tensor(g.standard_normal((3, 4)))
    z = Tensor(np.zeros((3, 4)))
    assert np.array_equal(W.fuse_text(t1, z).a, t1.a)
    assert np.allclose(W.fuse_text(t1, t1).a, 2 * t1.a, atol=1e-15)


def test_fuse_commutative_and_matches_elementwise_oracle():
    g = rng(13)
    a, b = g.standard_normal((3, 4)), g.standard_normal((3, 4))
    ab = W.fuse_text(Tensor(a), Tensor(b)).a
    ba = W.fuse_text(Tensor(b), Tensor(a)).a
    assert np.array_equal(ab, ba)
    assert np.array_equal(ab, a + b)


def test_fuse_shape_mismatch():
    with pytest.raises(DimensionError):
        W.fuse_text(Tensor(np.zeros((2, 2))), Tensor(np.zeros((3, 2))))


def test_gradients_through_gate_and_projection():
    """Masks and selections frozen; gradient flows through the projection
    and (trivially, by frozen selection) the gate."""
    cfg = small_cfg()
    d = cfg.d
    g = rng(14)
    m = Tensor(g.standard_normal((4, d)))
    t1 = Tensor(g.standard_normal((2, d)))
    proj = Tensor(g.standard_normal((4, d)))
    gate = W.ChannelGate(
        Tensor(g.standard_normal((d, d)) * 0.3),
        Tensor(np.zeros(d)),
        Tensor(g.standard_normal((d, d)) * 0.3),
        Tensor(np.zeros(d)),
    )
    from dape.costs import Replay, Trace

    trace = Trace()
    W.cwa_block(m, t1, gate, proj, (eye_proj(d), eye_proj(d)), cfg, trace=trace)

    def f():
        t2, _ = W.cwa_block(
            m, t1, gate, proj, (eye_proj(d), eye_proj(d)), cfg, replay=Replay(trace)
        )
        return T.tsum(T.mul(t2, t2))

    params = [proj, gate.w1, gate.b1, gate.w2, gate.b2]
    assert T.grad_check(f, params) < 1e-4
