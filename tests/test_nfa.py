"""Non-uniform fine-grained alignment: channel split, level tokens,
density-triggered masks, and the combined lattice update."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from dape import nfa as N
from dape import tensor as T
from dape.coarse import ProjectionSet, affinity_mask
from dape.config import DapeConfig, mu_partition
from dape.costs import Trace, cost_report, cost_scope
from dape.errors import ConfigurationError, DimensionError
from dape.tensor import Tensor

MU = (1 / 7, 2 / 7, 4 / 7)


def rng(seed=0):
    return np.random.default_rng(seed)


def nfa_cfg(**over):
    base = dict(
        d=8, n_layers=1, grid=(2, 2), j_text=4, text_len=16,
        image_size=8, L=2, k1=2, enable_phi=False, enable_cwa=False,
    )
    base.update(over)
    cfg = DapeConfig(**base)
    cfg.validate()
    return cfg


def identity_kernels(widths, kernels):
    out = []
    for wd, k in zip(widths, kernels):
        w = np.zeros((wd, k, k))
        w[:, k // 2, k // 2] = 1.0
        out.append(Tensor(w))
    return tuple(out)


def seeded_weights(g, c, d, kernels=(3, 5, 7), mu=MU):
    widths = mu_partition(c, mu)
    convs = tuple(Tensor(g.standard_normal((wd, k, k)) * 0.3) for wd, k in zip(widths, kernels))
    projs = tuple(Tensor(g.standard_normal((wd, d))) for wd in widths)
    eye = lambda: ProjectionSet(Tensor(np.eye(d)), Tensor(np.eye(d)), Tensor(np.eye(d)))
    return N.NfaWeights(convs, projs, eye(), eye())


# ---------------------------------------------------------------------------
# image_levels: channel split, depthwise conv, parent-major pooling,
# projection (identity projections keep the pooled branch tokens)

LEVEL_FACTORS = ((1, 1), (2, 1), (2, 2))  # cell, vertical halves, quadrants


def identity_projs(widths):
    return tuple(Tensor(np.eye(wd)) for wd in widths)


def region_means(branch, grid, fy, fx):
    """Mean of each (fy, fx) sub-region of every grid cell, parent-major."""
    gy, gx = grid
    h, w = branch.shape[0], branch.shape[1]
    cy, cx = h // (fy * gy), w // (fx * gx)
    rows = []
    for a in range(gy):
        for b in range(gx):
            for dy in range(fy):
                for dx in range(fx):
                    y0, x0 = (fy * a + dy) * cy, (fx * b + dx) * cx
                    rows.append(
                        branch[y0 : y0 + cy, x0 : x0 + cx].reshape(-1, branch.shape[2]).mean(axis=0)
                    )
    return np.stack(rows)


def test_split_widths_c7():
    assert mu_partition(7, MU) == (1, 2, 4)


def test_split_widths_c14_largest_remainder():
    assert mu_partition(14, MU) == oracles.largest_remainder_widths(14, MU) == (2, 4, 8)


def test_split_identity_kernels_copy_channels():
    g = rng(1)
    m = g.standard_normal((4, 4, 3))
    mu = (1 / 3, 1 / 3, 1 / 3)
    widths = mu_partition(3, mu)
    branches = N.prepare_branches(Tensor(m), mu, (3, 5, 7), identity_kernels(widths, (3, 5, 7)))
    levels = N.image_levels(branches, (1, 1), identity_projs(widths))
    assert [t.shape[1] for t in levels] == [1, 1, 1]
    for i, (tokens, (fy, fx)) in enumerate(zip(levels, LEVEL_FACTORS)):
        copied = T.pool_parent_major(Tensor(m[..., i : i + 1]), 1, 1, fy, fx)
        assert np.max(np.abs(tokens.a - copied.a)) < 1e-15


def test_split_empty_branch_rejected():
    with pytest.raises(ConfigurationError):
        N.prepare_branches(
            Tensor(np.zeros((4, 4, 2))), MU, (3, 5, 7), identity_kernels((1, 1, 0), (3, 5, 7))
        )


def make_levels(g, h=8, w=8, c=7):
    """Image levels of a random map under identity kernels and
    projections, plus the branches those kernels copy out of the map."""
    widths = mu_partition(c, MU)
    m = Tensor(g.standard_normal((h, w, c)))
    levels = N.image_levels(
        N.prepare_branches(m, MU, (3, 5, 7), identity_kernels(widths, (3, 5, 7))), (2, 2),
        identity_projs(widths),
    )
    bounds = np.cumsum((0,) + widths)
    return levels, [m.a[..., lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]


def test_multiscale_counts():
    levels, _ = make_levels(rng(2))
    assert [t.shape[0] for t in levels] == [4, 8, 16]  # 1 : 2 : 4 tokens
    assert [t.shape[1] for t in levels] == [1, 2, 4]   # mu widths at c=7


def test_multiscale_constant_map_tokens_identical_within_level():
    c = 7
    m = Tensor(np.ones((8, 8, c)) * 2.5)
    widths = mu_partition(c, MU)
    levels = N.image_levels(
        N.prepare_branches(m, MU, (3, 5, 7), identity_kernels(widths, (3, 5, 7))), (2, 2),
        identity_projs(widths),
    )
    for tokens in levels:
        # interior cells match exactly; padding-affected border cells of a
        # constant map still agree within each level for identity kernels
        assert np.max(np.abs(tokens.a - tokens.a[0])) < 1e-12


def test_image_levels_match_region_means():
    levels, branches = make_levels(rng(3))
    for tokens, branch, (fy, fx) in zip(levels, branches, LEVEL_FACTORS):
        assert np.max(np.abs(tokens.a - region_means(branch, (2, 2), fy, fx))) < 1e-12


def test_prepare_branches_records_only_the_level3_slice():
    g = rng(6)
    widths = mu_partition(7, MU)
    m = Tensor(g.standard_normal((8, 8, 7)))
    with T.GradTape() as tape:
        branches = N.prepare_branches(m, MU, (3, 5, 7), identity_kernels(widths, (3, 5, 7)))
    assert [b.x.shape[-1] for b in branches] == list(widths)
    assert [id(out) for out, _, _ in tape.entries] == [id(branches[2].x)]


def test_multiscale_divisibility_error():
    with pytest.raises(DimensionError):
        make_levels(rng(4), h=6, w=8)


def test_parent_major_order_alternates_halves():
    (_, l2, l3), (_, b2, b3) = make_levels(rng(5))

    def mean(branch, y0, y1, x0, x1):
        return branch[y0:y1, x0:x1].reshape(-1, branch.shape[2]).mean(axis=0)

    # rows 0, 1 are the top and bottom halves of parent cell 0 ([0:4, 0:4])
    assert np.max(np.abs(l2.a[0] - mean(b2, 0, 2, 0, 4))) < 1e-12
    assert np.max(np.abs(l2.a[1] - mean(b2, 2, 4, 0, 4))) < 1e-12
    # rows 0..3 are the four quadrants of parent cell 0
    quadrants = [(0, 2, 0, 2), (0, 2, 2, 4), (2, 4, 0, 2), (2, 4, 2, 4)]
    for row, region in enumerate(quadrants):
        assert np.max(np.abs(l3.a[row] - mean(b3, *region))) < 1e-12


# ---------------------------------------------------------------------------
# text_pyramid


def test_refine_factor_one_is_identity():
    """The finest text level is the stream itself; the coarser two, which
    only build masks, record nothing."""
    t = Tensor(rng(6).standard_normal((8, 3)))
    with T.GradTape() as tape:
        levels = N.text_pyramid(t)
    assert levels[2] is t and not tape.entries


def test_refine_single_span_of_four():
    seq = Tensor(rng(7).standard_normal((4, 3)))
    base, halves, quarters = N.text_pyramid(seq)
    assert np.allclose(base.a, seq.a.mean(axis=0, keepdims=True), atol=1e-15)
    assert np.allclose(halves.a, oracles.span_mean_rows(seq.a, [(0, 2), (2, 4)]), atol=1e-15)
    assert quarters is seq  # one-row spans are the rows themselves


def test_refine_seeded_matches_span_split_oracle():
    """The three levels are the stream's span means at widths 4, 2 and 1."""
    seq = rng(8).standard_normal((16, 3))
    levels = N.text_pyramid(Tensor(seq))
    for level, w in zip(levels, (4, 2, 1)):
        spans = [(s, s + w) for s in range(0, 16, w)]
        assert np.max(np.abs(level.a - oracles.span_mean_rows(seq, spans))) < 1e-12


def test_refine_span_too_short():
    """A stream whose row count is not a multiple of 4 cannot refine."""
    for rows in (2, 6, 10):
        with pytest.raises(DimensionError):
            N.text_pyramid(Tensor(rng(9).standard_normal((rows, 3))))


# ---------------------------------------------------------------------------
# level masks (affinity_mask) / density_flag / combine_levels


def test_level_mask_default_threshold_value():
    assert nfa_cfg().k_thr == 0.6


def test_level_mask_empty_active_set():
    g = rng(10)
    m = affinity_mask(Tensor(g.standard_normal((3, 4))), Tensor(g.standard_normal((2, 4))),
                      0.6, 0.5, np.zeros(3, dtype=bool))
    assert np.array_equal(m, np.zeros((3, 2)))


def test_level_mask_matches_per_entry_oracle():
    g = rng(11)
    x = g.standard_normal((2, 4))
    t = g.standard_normal((2, 4))
    m = affinity_mask(Tensor(x), Tensor(t), 0.2, 2 / 7)
    for i in range(2):
        for j in range(2):
            want = (2 / 7) if oracles.cosine_direct(x[i], t[j]) > 0.2 else 0.0
            assert m[i, j] == want


def test_level_mask_inactive_rows_exactly_zero():
    g = rng(12)
    m = affinity_mask(Tensor(g.standard_normal((4, 3))), Tensor(g.standard_normal((2, 3))),
                      -1.0, 1 / 7, np.array([False, True, False, True]))
    assert np.array_equal(m[[0, 2]], np.zeros((2, 2)))
    assert np.all(m[[1, 3]] == 1 / 7)  # threshold -1 catches all


def test_density_all_zero_mask():
    assert np.flatnonzero(N.density_flag(np.zeros((3, 4)), 0.5)).size == 0


def test_density_tau_zero_any_hit():
    w = np.zeros((3, 4))
    w[1, 2] = 1.0
    assert list(np.flatnonzero(N.density_flag(w, 0.0))) == [1]


def test_density_hand_counting_case():
    w = np.zeros((3, 4))
    w[0, 0] = 1.0            # 25% fill: not > 0.25
    w[1, :2] = 1.0           # 50%
    w[2, :] = 1.0            # 100%
    assert list(np.flatnonzero(N.density_flag(w, 0.25))) == [1, 2]


def test_upscale_single_cell():
    """A lone level-1 cell covers the whole 4x4 finest grid."""
    up = N.combine_levels((np.array([[1 / 7]]), np.zeros((2, 2)), np.zeros((4, 4))))
    assert up.shape == (4, 4) and np.all(up == 1 / 7)


def test_upscale_identity():
    """Level 3 is already on the finest grid: it passes through unchanged."""
    m = (rng(13).uniform(size=(4, 4)) > 0.5).astype(float)
    assert np.array_equal(N.combine_levels((np.zeros((1, 1)), np.zeros((2, 2)), m)), m)


def test_upscale_replication_index_oracle():
    g = rng(14)
    a1, a2, a3 = (g.uniform(size=(2 * f, 3 * f)) for f in (1, 2, 4))
    up = N.combine_levels((a1, a2, a3))
    assert up.shape == (8, 12)
    for i in range(8):
        for j in range(12):
            assert up[i, j] == a1[i // 4, j // 4] + a2[i // 2, j // 2] + a3[i, j]


def test_combine_levels_batched_per_sample():
    g = rng(15)
    levels = tuple(g.uniform(size=(3, 2 * f, f)) for f in (1, 2, 4))
    up = N.combine_levels(levels)
    for s in range(3):
        assert np.array_equal(up[s], N.combine_levels(tuple(a[s] for a in levels)))


def test_upscale_non_multiple_rejected():
    """Levels that are not at 1:2:4 resolutions do not combine."""
    with pytest.raises(DimensionError):
        N.combine_levels((np.zeros((2, 2)), np.zeros((4, 4)), np.zeros((5, 8))))
    with pytest.raises(DimensionError):
        N.combine_levels((np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((8, 8))))


# ---------------------------------------------------------------------------
# build_hierarchy


def build_case(seed, k_thr=None, tau_d=None, c=7):
    cfg = nfa_cfg()
    if k_thr is not None:
        cfg.k_thr = k_thr
    if tau_d is not None:
        cfg.tau_d = tau_d
    g = rng(seed)
    m = Tensor(g.standard_normal((cfg.image_size, cfg.image_size, c)))
    t = Tensor(g.standard_normal((cfg.text_len, cfg.d)))
    weights = seeded_weights(g, c, cfg.d)
    return cfg, m, t, weights


def hierarchy(m, t_stream, cfg, weights, **kw):
    """`build_hierarchy` over the branches prepared from map m."""
    branches = N.prepare_branches(m, cfg.mu, cfg.kernels, weights.conv_kernels)
    return N.build_hierarchy(branches, t_stream, cfg, weights, **kw)


def full_materialization_oracle(cfg, m, t_stream, weights):
    """Materialize every level everywhere, then zero inactive rows."""
    widths = oracles.largest_remainder_widths(m.shape[2], cfg.mu)
    branches, lo = [], 0
    for wd, k, kw in zip(widths, cfg.kernels, weights.conv_kernels):
        branches.append(oracles.conv2d_sliding(m.a[..., lo : lo + wd], kw.a))
        lo += wd
    img = [
        region_means(branches[lvl], cfg.grid, fy, fx) @ weights.branch_projs[lvl].a
        for lvl, (fy, fx) in enumerate(LEVEL_FACTORS)
    ]
    seq = t_stream.a
    width = 4  # base text tokens pool runs of 4 rows
    spans1 = [(s, s + width) for s in range(0, seq.shape[0], width)]

    def split_spans(spans, f):
        out = []
        for s, e in spans:
            step = (e - s) // f
            for i in range(f):
                out.append((s + i * step, s + (i + 1) * step))
        return out

    txt = [
        oracles.span_mean_rows(seq, spans1),
        oracles.span_mean_rows(seq, split_spans(spans1, 2)),
        oracles.span_mean_rows(seq, split_spans(spans1, 4)),
    ]
    masks = []
    for lvl in range(3):
        a = np.array(
            [
                [oracles.cosine_direct(xi, tj) for tj in txt[lvl]]
                for xi in img[lvl]
            ]
        )
        masks.append(np.where(a > cfg.k_thr, cfg.mu[lvl], 0.0))
    # density-driven zeroing
    dense1 = [i for i in range(masks[0].shape[0])
              if np.count_nonzero(masks[0][i]) / masks[0].shape[1] > cfg.tau_d]
    allowed2 = {2 * p + dy for p in dense1 for dy in (0, 1)}
    for r in range(masks[1].shape[0]):
        if r not in allowed2:
            masks[1][r] = 0.0
    dense2 = [r for r in sorted(allowed2)
              if np.count_nonzero(masks[1][r]) / masks[1].shape[1] > cfg.tau_d]
    allowed3 = {2 * r + dx for r in dense2 for dx in (0, 1)}
    for r in range(masks[2].shape[0]):
        if r not in allowed3:
            masks[2][r] = 0.0
    i1, j1 = masks[0].shape
    out = np.zeros((4 * i1, 4 * j1))
    for lvl, f in ((0, 4), (1, 2), (2, 1)):
        out += np.repeat(np.repeat(masks[lvl], f, axis=0), f, axis=1)
    return out, dense1, dense2


def test_hierarchy_no_dense_rows_collapses_to_level1():
    cfg, m, t, weights = build_case(20, tau_d=1.0)  # nothing can exceed fill 1.0
    hier, _, _ = hierarchy(m, t, cfg, weights)
    assert np.flatnonzero(hier.dense_l1).size == 0
    a1, a2, a3 = hier.levels
    assert not a2.any() and not a3.any()
    assert np.array_equal(hier.a_prime, np.repeat(np.repeat(a1, 4, axis=0), 4, axis=1))


def test_hierarchy_saturated_case_all_ones():
    cfg, m, t, weights = build_case(21, k_thr=-1.0, tau_d=0.0)
    # threshold -1 passes every cosine; tau 0 makes every row dense
    hier, _, _ = hierarchy(m, t, cfg, weights)
    assert np.allclose(hier.a_prime, 1.0, atol=1e-12)


def test_hierarchy_matches_full_materialization_oracle():
    for seed in (22, 23, 24):
        cfg, m, t, weights = build_case(seed, k_thr=0.1)
        hier, _, _ = hierarchy(m, t, cfg, weights)
        want, dense1, dense2 = full_materialization_oracle(cfg, m, t, weights)
        assert np.array_equal(np.flatnonzero(hier.dense_l1), dense1)
        assert np.max(np.abs(hier.a_prime - want)) < 1e-12


def test_hierarchy_lattice_and_bounds():
    cfg, m, t, weights = build_case(25, k_thr=0.0, tau_d=0.0)
    hier, _, _ = hierarchy(m, t, cfg, weights)
    lattice = N.mask_lattice(*cfg.mu)
    assert np.isin(hier.a_prime, lattice).all()
    assert hier.a_prime.max() <= 1.0 + 1e-12


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 5000))
def test_hierarchy_monotonicity_in_tau_and_threshold(seed):
    cfg, m, t, weights = build_case(seed, k_thr=0.1, tau_d=0.1)
    base, _, _ = hierarchy(m, t, cfg, weights)
    cfg_hi_tau = nfa_cfg()
    cfg_hi_tau.k_thr = 0.1
    cfg_hi_tau.tau_d = 0.5
    hi_tau, _, _ = hierarchy(m, t, cfg_hi_tau, weights)
    assert set(np.flatnonzero(hi_tau.dense_l1)) <= set(np.flatnonzero(base.dense_l1))
    cfg_hi_thr = nfa_cfg()
    cfg_hi_thr.k_thr = 0.4
    cfg_hi_thr.tau_d = 0.1
    hi_thr, _, _ = hierarchy(m, t, cfg_hi_thr, weights)
    assert np.all((hi_thr.levels[0] > 0) <= (base.levels[0] > 0))


def test_hierarchy_cost_dominance_and_counts():
    cfg, m, t, weights = build_case(26, k_thr=0.1)
    trace = Trace()
    with cost_scope(trace.counter, "nfa"):
        hierarchy(m, t, cfg, weights, trace=trace)
    (hc,) = trace.hierarchy
    rep = cost_report(trace)
    assert 0 < rep.fine_cosines < hc.full_cosines
    # every level-1 pair, then each refined row against its level's columns
    n1, m1 = hc.n_rows_l1, hc.n_cols_l1
    assert rep.fine_cosines == n1 * m1 + hc.active_l2 * 2 * m1 + hc.active_l3 * 4 * m1
    # a trace billed outside `forward` reports its fine MACs all the same
    assert rep.fine_macs == trace.counter.macs["nfa"] > 0
    # saturated build reaches the full-materialization count exactly
    cfg2, m2, t2, weights2 = build_case(26, k_thr=-1.0, tau_d=0.0)
    trace2 = Trace()
    with cost_scope(trace2.counter, "nfa"):
        hierarchy(m2, t2, cfg2, weights2, trace=trace2)
    (hc2,) = trace2.hierarchy
    assert trace2.counter.cosines["nfa"] == hc2.full_cosines


def test_hierarchy_deterministic():
    a = hierarchy(*build_case(27)[1:3], nfa_cfg(), build_case(27)[3])
    b = hierarchy(*build_case(27)[1:3], nfa_cfg(), build_case(27)[3])
    # identical inputs, bit-identical masks
    assert np.array_equal(a[0].a_prime, b[0].a_prime)


def test_hierarchy_structure_checker_catches_violation():
    """Each of the three structural checks fires on its own violation: the
    other two hold in every case."""
    cfg, m, t, weights = build_case(28, k_thr=0.1)
    hier, _, _ = hierarchy(m, t, cfg, weights)
    hier.check_structure()
    _, mu2, mu3 = cfg.mu

    def levels(a1=hier.levels[0], a2=hier.levels[1], a3=hier.levels[2], **flags):
        return replace(hier, levels=(a1, a2, a3), **flags)

    def with_entry(a, value):
        a = a.copy()
        a[0, 0] = value
        return a

    n1, n2 = hier.dense_l1.size, hier.dense_l2.size
    a1, a2, a3 = hier.levels
    cases = [
        # 1/2 = 3.5/7: off the lattice of sevenths whatever a2 and a3 add
        (levels(a1=with_entry(a1, 0.5)), "leaves the mu lattice"),
        (levels(a2=with_entry(a2, mu2), dense_l1=np.zeros(n1, bool)),
         "level-2 weight outside a dense level-1 row"),
        (levels(a3=with_entry(a3, mu3), dense_l1=np.ones(n1, bool),
                dense_l2=np.zeros(n2, bool)),
         "level-3 weight outside a dense level-2 row"),
    ]
    for bad, message in cases:
        with pytest.raises(ConfigurationError, match=message):
            bad.check_structure()


# ---------------------------------------------------------------------------
# nfa_attention


def test_nfa_attention_zero_mask_zero_output():
    cfg = nfa_cfg()
    g = rng(30)
    m_tok = Tensor(g.standard_normal((8, cfg.d)))
    t_tok = Tensor(g.standard_normal((4, cfg.d)))
    eye = ProjectionSet(Tensor(np.eye(cfg.d)), Tensor(np.eye(cfg.d)), Tensor(np.eye(cfg.d)))
    out = N.nfa_attention(m_tok, t_tok, np.zeros((8, 4)), (eye, eye))
    assert np.array_equal(out.a, np.zeros((8, cfg.d)))


def test_nfa_attention_single_token_scalar_chain():
    cfg = nfa_cfg()
    g = rng(31)
    m_tok = Tensor(g.standard_normal((1, cfg.d)))
    t_tok = Tensor(g.standard_normal((1, cfg.d)))
    eye = ProjectionSet(Tensor(np.eye(cfg.d)), Tensor(np.eye(cfg.d)), Tensor(np.eye(cfg.d)))
    out = N.nfa_attention(m_tok, t_tok, np.full((1, 1), 1 / 7), (eye, eye))
    # softmax of a single score is 1; the mask scales the value row
    assert np.max(np.abs(out.a - t_tok.a / 7)) < 1e-12


def test_nfa_attention_matches_explicit_loop_oracle():
    cfg = nfa_cfg()
    d = cfg.d
    g = rng(32)
    m_tok = g.standard_normal((4, d))
    t_tok = g.standard_normal((4, d))
    lattice = N.mask_lattice(*cfg.mu)
    mask = g.choice(lattice, size=(4, 4))
    wq, wk, wv = (g.standard_normal((d, d)) for _ in range(3))
    img = ProjectionSet(Tensor(wq), Tensor(np.eye(d)), Tensor(np.eye(d)))
    txt = ProjectionSet(Tensor(np.eye(d)), Tensor(wk), Tensor(wv))
    got = N.nfa_attention(Tensor(m_tok), Tensor(t_tok), mask, (img, txt))
    want = oracles.masked_attention_loops(m_tok, t_tok, mask, wq, wk, wv)
    assert np.max(np.abs(got.a - want)) < 1e-10


def test_pool_children_to_parents():
    g = rng(34)
    x = g.standard_normal((8, 3))
    out = T.pool_rows(Tensor(x), 4)  # how pool_add folds quadrants into parents
    assert np.allclose(out.a[0], x[0:4].mean(axis=0), atol=1e-15)
    assert np.allclose(out.a[1], x[4:8].mean(axis=0), atol=1e-15)


def test_token_grid_hierarchy_matches_map_pooling():
    """The detail-path build pools a token grid exactly like cells."""
    cfg = nfa_cfg()
    g = rng(35)
    tokens = g.standard_normal((64, cfg.d))
    t = Tensor(g.standard_normal((cfg.text_len, cfg.d)))
    hier, q3, txt3 = N.build_hierarchy_from_tokens(Tensor(tokens), (8, 8), t, cfg)
    assert hier.a_prime.shape == (4 * 4, 4 * cfg.j_text)
    assert q3.shape == (16, cfg.d)
    grid_map = tokens.reshape(8, 8, cfg.d)
    # quadrant token 0 covers the top-left 2x2 of parent cell 0 (4x4 tokens)
    want = grid_map[0:2, 0:2].reshape(-1, cfg.d).mean(axis=0)
    assert np.max(np.abs(q3.a[0] - want)) < 1e-12
