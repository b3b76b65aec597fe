"""Coarse alignment: tokenization, binarized affinity, masked attention."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from dape import coarse as C
from dape import tensor as T
from dape.config import DapeConfig
from dape.errors import ConfigurationError, DimensionError
from dape.tensor import Tensor


def rng(seed=0):
    return np.random.default_rng(seed)


def small_cfg(**over):
    base = dict(
        d=4, n_layers=1, s=1, grid=(2, 2), j_text=2, text_len=4,
        image_size=2, L=2, k1=1, enable_phi=False, enable_nfa=False,
        enable_cwa=False,
    )
    base.update(over)
    return DapeConfig(**base)


def eye_proj(d):
    i = Tensor(np.eye(d))
    return C.ProjectionSet(i, i, i)


# ---------------------------------------------------------------------------
# tokenize_image


def test_tokenize_image_degenerate_grid_is_global_mean():
    x = rng(1).standard_normal((4, 4, 3))
    ts = C.tokenize_image(Tensor(x), (1, 1))
    assert ts.n == 1
    assert np.allclose(ts.tokens.a[0], x.reshape(-1, 3).mean(axis=0), atol=1e-12)


def test_tokenize_image_block_means():
    x = rng(2).standard_normal((4, 4, 3))
    ts = C.tokenize_image(Tensor(x), (2, 2))
    want = oracles.block_mean(x, 2, 2).reshape(4, 3)
    assert np.max(np.abs(ts.tokens.a - want)) < 1e-12
    assert ts.provenance[1] == ("cell", (0, 2, 2, 4))


def test_tokenize_image_identity_grid():
    x = rng(3).standard_normal((3, 2, 5))
    ts = C.tokenize_image(Tensor(x), (3, 2))
    assert np.array_equal(ts.tokens.a, x.reshape(6, 5))


def test_tokenize_image_non_divisible_grid():
    with pytest.raises(DimensionError):
        C.tokenize_image(Tensor(np.zeros((4, 4, 1))), (3, 2))


def test_tokenize_image_provenance_partitions_map():
    ts = C.tokenize_image(Tensor(rng(4).standard_normal((4, 6, 2))), (2, 3))
    covered = np.zeros((4, 6), dtype=int)
    for kind, (y0, y1, x0, x1) in ts.provenance:
        assert kind == "cell"
        covered[y0:y1, x0:x1] += 1
    assert np.all(covered == 1)


# ---------------------------------------------------------------------------
# tokenize_text


def test_tokenize_text_identity():
    x = rng(5).standard_normal((3, 4))
    ts = C.tokenize_text(Tensor(x), 3)
    assert np.array_equal(ts.tokens.a, x)


def test_tokenize_text_pair_means():
    x = rng(6).standard_normal((4, 3))
    ts = C.tokenize_text(Tensor(x), 2)
    want = oracles.span_mean_rows(x, [(0, 2), (2, 4)])
    assert np.max(np.abs(ts.tokens.a - want)) < 1e-12
    assert [p[1] for p in ts.provenance] == [(0, 2), (2, 4)]


def test_tokenize_text_single_token():
    x = rng(7).standard_normal((5, 3))
    ts = C.tokenize_text(Tensor(x), 1)
    assert np.allclose(ts.tokens.a[0], x.mean(axis=0), atol=1e-12)


def test_tokenize_text_too_many_tokens():
    with pytest.raises(ConfigurationError):
        C.tokenize_text(Tensor(np.zeros((3, 2))), 4)


def test_tokenize_text_uneven_spans_differ_by_at_most_one():
    spans = C.even_spans(10, 3)
    lengths = [e - s for s, e in spans]
    assert max(lengths) - min(lengths) <= 1
    assert sum(lengths) == 10


# ---------------------------------------------------------------------------
# affinity / binarize


def test_affinity_identical_single_tokens():
    t = C.identity_tokens(Tensor([[1.0, 2.0]]), "image")
    u = C.identity_tokens(Tensor([[1.0, 2.0]]), "text")
    assert np.allclose(C.affinity(t, u), [[1.0]], atol=1e-12)


def test_affinity_orthogonal_tokens():
    t = C.identity_tokens(Tensor([[1.0, 0.0]]), "image")
    u = C.identity_tokens(Tensor([[0.0, 1.0]]), "text")
    assert C.affinity(t, u)[0, 0] == 0.0


def test_affinity_matches_pairwise_loop():
    a = rng(8).standard_normal((3, 5))
    b = rng(9).standard_normal((2, 5))
    got = C.affinity(
        C.identity_tokens(Tensor(a), "image"), C.identity_tokens(Tensor(b), "text")
    )
    for i in range(3):
        for j in range(2):
            assert got[i, j] == pytest.approx(oracles.cosine_direct(a[i], b[j]), abs=1e-12)


def test_affinity_dimension_mismatch():
    with pytest.raises(DimensionError):
        C.affinity(
            C.identity_tokens(Tensor(np.zeros((2, 3))), "image"),
            C.identity_tokens(Tensor(np.zeros((2, 4))), "text"),
        )


def test_binarize_basic_threshold():
    m = C.binarize(np.array([[0.4, 0.6]]), 0.5, 1.0)
    assert np.array_equal(m.weights, [[0.0, 1.0]])
    assert m.alphabet == (0.0, 1.0)


def test_binarize_all_below():
    m = C.binarize(np.array([[0.1, 0.2]]), 0.5)
    assert np.array_equal(m.weights, np.zeros((1, 2)))


def test_binarize_mu_level():
    m = C.binarize(np.array([[0.7]]), 0.6, 1 / 7)
    assert m.weights[0, 0] == 1 / 7


def test_binarize_strict_inequality_at_threshold():
    m = C.binarize(np.array([[0.5]]), 0.5)
    assert m.weights[0, 0] == 0.0


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.floats(-0.9, 0.9))
def test_binarize_idempotent_in_mask_space(seed, thr):
    a = rng(seed).uniform(-1, 1, size=(3, 4))
    once = C.binarize(a, thr, 1.0)
    twice = C.binarize(once.weights, thr, 1.0)
    # re-thresholding a {0,1} mask at thr<1 keeps the 1s iff 1>thr; for
    # thr in (-1,1) strict '>' maps 1->1 and 0->(0 if thr>=0 else 1); the
    # mask-space idempotence claim is for non-negative thresholds
    if thr >= 0.0:
        assert np.array_equal(once.weights, twice.weights)


def test_alphabet_violation_rejected():
    with pytest.raises(ConfigurationError):
        C.AffinityMask(np.array([[0.5]]), (0.0, 1.0))


# ---------------------------------------------------------------------------
# masked_cross_attention


def test_attention_single_token_all_one_mask_returns_value_row():
    d = 3
    g = rng(10)
    q = Tensor(g.standard_normal((1, d)))
    kv = Tensor(g.standard_normal((1, d)))
    mask = C.AffinityMask(np.ones((1, 1)), (0.0, 1.0))
    out = C.masked_cross_attention(q, kv, mask, (eye_proj(d), eye_proj(d)))
    assert np.max(np.abs(out.a - kv.a)) < 1e-12


def test_attention_zero_mask_zero_output():
    d = 3
    g = rng(11)
    q = Tensor(g.standard_normal((2, d)))
    kv = Tensor(g.standard_normal((4, d)))
    mask = C.AffinityMask(np.zeros((2, 4)), (0.0, 1.0))
    out = C.masked_cross_attention(q, kv, mask, (eye_proj(d), eye_proj(d)))
    assert np.array_equal(out.a, np.zeros((2, d)))


def test_attention_matches_explicit_loop_oracle():
    d = 4
    g = rng(12)
    q = g.standard_normal((2, d))
    kv = g.standard_normal((3, d))
    mask = (g.uniform(size=(2, 3)) > 0.5).astype(float)
    got = C.masked_cross_attention(
        Tensor(q), Tensor(kv),
        C.AffinityMask(mask, (0.0, 1.0)),
        (eye_proj(d), eye_proj(d)),
    )
    want = oracles.masked_attention_loops(q, kv, mask, np.eye(d), np.eye(d), np.eye(d))
    assert np.max(np.abs(got.a - want)) < 1e-10


def test_attention_all_ones_mask_equals_unmasked_oracle():
    d = 4
    g = rng(13)
    q = g.standard_normal((3, d))
    kv = g.standard_normal((5, d))
    wq, wk, wv = (g.standard_normal((d, d)) for _ in range(3))
    projs = (
        C.ProjectionSet(Tensor(wq), Tensor(wk), Tensor(wv)),
        C.ProjectionSet(Tensor(wq), Tensor(wk), Tensor(wv)),
    )
    got = C.masked_cross_attention(
        Tensor(q), Tensor(kv),
        C.AffinityMask(np.ones((3, 5)), (0.0, 1.0)),
        projs,
    )
    want = oracles.masked_attention_loops(q, kv, np.ones((3, 5)), wq, wk, wv)
    assert np.max(np.abs(got.a - want)) < 1e-10


def test_attention_orientation_mismatch():
    d = 3
    q = Tensor(np.zeros((2, d)))
    kv = Tensor(np.zeros((4, d)))
    with pytest.raises(DimensionError):
        C.masked_cross_attention(
            q, kv, C.AffinityMask(np.zeros((4, 2)), (0.0,  1.0)), (eye_proj(d), eye_proj(d))
        )


# ---------------------------------------------------------------------------
# coarse_align_block


def _orthogonal_case(cfg):
    d = cfg.d
    img = np.zeros((2, 2, d))
    img[..., 0] = 1.0
    txt = np.zeros((4, d))
    txt[:, 1] = 1.0
    return Tensor(img), Tensor(txt)


def test_block_orthogonal_tokens_zero_everything():
    cfg = small_cfg()
    m, t = _orthogonal_case(cfg)
    t1, m1, a0, *_ = C.coarse_align_block(m, t, eye_proj(cfg.d), eye_proj(cfg.d), cfg)
    assert np.array_equal(a0.weights, np.zeros((4, 2)))
    assert np.array_equal(t1.a, np.zeros((2, cfg.d)))
    assert np.array_equal(m1.a, np.zeros((4, cfg.d)))


def test_block_matches_composed_oracles():
    cfg = small_cfg(d=4, image_size=4, s=2)
    g = rng(14)
    m = g.standard_normal((4, 4, 4))
    t = g.standard_normal((4, 4))
    wqi, wki, wvi, wqt, wkt, wvt = (g.standard_normal((4, 4)) for _ in range(6))
    img_ps = C.ProjectionSet(Tensor(wqi), Tensor(wki), Tensor(wvi))
    txt_ps = C.ProjectionSet(Tensor(wqt), Tensor(wkt), Tensor(wvt))
    t1, m1, a0, *_ = C.coarse_align_block(Tensor(m), Tensor(t), img_ps, txt_ps, cfg)

    # Oracle: independent block means, pairwise cosine, threshold, loops.
    m0 = oracles.block_mean(m, 2, 2)
    img_tok = oracles.block_mean(m0, 1, 1).reshape(4, 4)
    txt_tok = oracles.span_mean_rows(t, [(0, 2), (2, 4)])
    aff = np.array(
        [[oracles.cosine_direct(img_tok[i], txt_tok[j]) for j in range(2)] for i in range(4)]
    )
    mask = (aff > cfg.k0).astype(float)
    want_t1 = oracles.masked_attention_loops(txt_tok, img_tok, mask.T, wqt, wki, wvi)
    want_m1 = oracles.masked_attention_loops(img_tok, txt_tok, mask, wqi, wkt, wvt)
    assert np.array_equal(a0.weights, mask)
    assert np.max(np.abs(t1.a - want_t1)) < 1e-10
    assert np.max(np.abs(m1.a - want_m1)) < 1e-10


def test_block_alphabet_is_binary_and_default_threshold():
    cfg = small_cfg()
    assert cfg.k0 == 0.5
    g = rng(15)
    m = Tensor(g.standard_normal((2, 2, 4)))
    t = Tensor(g.standard_normal((4, 4)))
    *_, a0, _, _, _ = C.coarse_align_block(m, t, eye_proj(4), eye_proj(4), cfg)
    assert a0.alphabet == (0.0, 1.0)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_permuting_image_tokens_permutes_mask_rows(seed):
    g = rng(seed)
    imgs = g.standard_normal((4, 3))
    txts = g.standard_normal((2, 3))
    perm = g.permutation(4)
    a = C.affinity(C.identity_tokens(Tensor(imgs), "image"), C.identity_tokens(Tensor(txts), "text"))
    b = C.affinity(
        C.identity_tokens(Tensor(imgs[perm]), "image"), C.identity_tokens(Tensor(txts), "text")
    )
    assert np.max(np.abs(a[perm] - b)) < 1e-12


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.floats(0.1, 10.0))
def test_scaling_image_features_leaves_mask_unchanged(seed, alpha):
    g = rng(seed)
    imgs = g.standard_normal((4, 3))
    txts = g.standard_normal((2, 3))
    a = C.binarize(
        C.affinity(C.identity_tokens(Tensor(imgs), "image"), C.identity_tokens(Tensor(txts), "text")),
        0.3,
    )
    b = C.binarize(
        C.affinity(
            C.identity_tokens(Tensor(alpha * imgs), "image"),
            C.identity_tokens(Tensor(txts), "text"),
        ),
        0.3,
    )
    assert np.array_equal(a.weights, b.weights)


def test_zero_mask_column_gives_exactly_zero_text_row():
    d = 4
    g = rng(16)
    q = g.standard_normal((3, d))
    kv = g.standard_normal((5, d))
    mask = np.ones((3, 5))
    mask[1, :] = 0.0  # text token 1 sees nothing
    out = C.masked_cross_attention(
        Tensor(q), Tensor(kv),
        C.AffinityMask(mask, (0.0, 1.0)),
        (eye_proj(d), eye_proj(d)),
    )
    assert np.array_equal(out.a[1], np.zeros(d))
    assert np.any(out.a[0] != 0.0)
