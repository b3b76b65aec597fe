"""Kernel-level tests: each op against an independent oracle, plus the
algebraic properties the rest of the stack leans on."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from dape import tensor as T
from dape.costs import CostCounter, cost_scope
from dape.errors import ConfigurationError, DimensionError, NumericError


def rng(seed=0):
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# matmul


def test_matmul_identity():
    i2 = T.Tensor(np.eye(2))
    a = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(T.matmul(i2, a).a, a.a)


def test_matmul_annihilating():
    a = T.Tensor([[1.0, 0.0], [0.0, 0.0]])
    b = T.Tensor([[0.0, 0.0], [0.0, 1.0]])
    assert np.array_equal(T.matmul(a, b).a, np.zeros((2, 2)))


def test_matmul_against_triple_loop():
    a = rng(1).standard_normal((3, 4))
    b = rng(2).standard_normal((4, 2))
    got = T.matmul(T.Tensor(a), T.Tensor(b)).a
    assert np.max(np.abs(got - oracles.matmul_loops(a, b))) < 1e-12


def test_matmul_shape_error_names_shapes():
    with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 2\)"):
        T.matmul(T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((2, 2))))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_matmul_associativity(seed):
    g = rng(seed)
    a, b, c = (g.standard_normal((3, 3)) for _ in range(3))
    left = oracles.matmul_loops(oracles.matmul_loops(a, b), c)
    right = T.matmul(T.Tensor(a), T.matmul(T.Tensor(b), T.Tensor(c))).a
    assert np.max(np.abs(left - right)) < 1e-9


# ---------------------------------------------------------------------------
# row_softmax


def test_row_softmax_symmetry():
    out = T.row_softmax(T.Tensor([[0.0, 0.0]])).a
    assert np.allclose(out, [[0.5, 0.5]], atol=1e-15)


def test_row_softmax_large_values_no_overflow():
    out = T.row_softmax(T.Tensor([[1000.0, 0.0]])).a
    assert out[0, 0] > 1.0 - 1e-12
    assert out[0, 1] < 1e-12


def test_row_softmax_against_direct_formula():
    a = np.array([[1.0, 2.0, 3.0]])
    got = T.row_softmax(T.Tensor(a)).a
    assert np.max(np.abs(got - oracles.softmax_rows_direct(a))) < 1e-12


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.floats(-5, 5))
def test_row_softmax_rows_sum_to_one_and_shift_invariant(seed, shift):
    a = rng(seed).standard_normal((4, 6))
    out = T.row_softmax(T.Tensor(a)).a
    assert np.max(np.abs(out.sum(axis=1) - 1.0)) < 1e-12
    assert np.all(out >= 0.0)
    shifted = T.row_softmax(T.Tensor(a + shift)).a
    assert np.max(np.abs(out - shifted)) < 1e-12


# ---------------------------------------------------------------------------
# attention

# d = 6, so that the 1/sqrt(d) scale is inexact and its place in the
# gradient shows in the bits
ATTENTION_SHAPES = {
    "single": ((3, 6), (5, 6)),
    "batched": ((2, 3, 6), (2, 5, 6)),
    "shared_kv": ((2, 3, 6), (5, 6)),  # 2-D keys/values serve every sample
}
INPUTS = ("xq", "xkv", "wq", "wk", "wv")


def attention_inputs(shapes, masked, seed=0):
    """Query/key-value tokens, three weights and a {0, 1/7, 2/7} mask, laid
    out transposed like the coarse text update's."""
    (q_shape, kv_shape) = ATTENTION_SHAPES[shapes]
    g = rng(seed)
    xs = [T.Tensor(g.standard_normal(q_shape)), T.Tensor(g.standard_normal(kv_shape))]
    ws = [T.Tensor(0.5 * g.standard_normal((6, 6))) for _ in range(3)]
    mask = None
    if masked:
        lead = q_shape[:-2] or kv_shape[:-2]
        stored = g.choice([0.0, 1 / 7, 2 / 7], size=lead + (kv_shape[-2], q_shape[-2]))
        mask = np.swapaxes(stored, -1, -2)
    return xs + ws, mask


def billed_run(fn, inputs, mask, sources, seed=1):
    """Output, billed MACs, tape length and gradients of sum(out * G) +
    sum(xkv * H) with respect to `sources`, a subset of the five inputs by
    name. The second term reaches xkv first in backward, so the order in
    which the attention adds its two parts to xkv's gradient shows in the
    bits."""
    counter = CostCounter()
    g = rng(seed)
    with T.GradTape() as tape:
        with cost_scope(counter, "attention"):
            out = fn(*inputs, mask)
        n_entries = len(tape.entries)
        target = T.add(
            T.tsum(T.mul(out, T.Tensor(g.standard_normal(out.shape)))),
            T.tsum(T.mul(inputs[1], T.Tensor(g.standard_normal(inputs[1].shape)))),
        )
    grads = tape.gradients(target, [inputs[INPUTS.index(s)] for s in sources])
    return out.a, counter.macs["attention"], n_entries, grads


@pytest.mark.parametrize("sources", [INPUTS, ("wq",), ("xkv", "wv"), ("wk", "xq"), ("wv",)])
@pytest.mark.parametrize("masked", [True, False], ids=["mask", "no_mask"])
@pytest.mark.parametrize("shapes", list(ATTENTION_SHAPES))
def test_attention_equals_the_op_chain_bit_for_bit(shapes, masked, sources):
    inputs, mask = attention_inputs(shapes, masked)
    out, macs, n_fused, grads = billed_run(T.attention, inputs, mask, sources)
    want, want_macs, n_chain, want_grads = billed_run(
        oracles.attention_chain, inputs, mask, sources
    )
    assert (n_fused, n_chain) == (1, 9 if masked else 8)
    assert np.array_equal(out, want)
    assert macs == want_macs
    for name, got, exp in zip(sources, grads, want_grads):
        assert np.array_equal(got, exp), name
        assert np.any(got != 0.0), name


@pytest.mark.parametrize("sources", [INPUTS, ("wq",), ("xkv", "wv"), ("wk", "xq"), ("wv",)])
@pytest.mark.parametrize("live", [0, 1], ids=["all_zero", "one_entry"])
@pytest.mark.parametrize("shapes", list(ATTENTION_SHAPES))
def test_attention_with_an_all_zero_mask_is_a_constant(shapes, live, sources):
    """An all-zero mask gives exact zeros, billed as the chain bills them,
    with no tape entry: every gradient is the chain's, which is that of a
    constant output. One nonzero mask entry puts the op back on the tape."""
    inputs, mask = attention_inputs(shapes, True)
    mask = np.zeros(mask.shape)
    mask[(0,) * (mask.ndim - 2) + (1, 2)] = live * 2 / 7
    out, macs, n_fused, grads = billed_run(T.attention, inputs, mask, sources)
    want, want_macs, n_chain, want_grads = billed_run(
        oracles.attention_chain, inputs, mask, sources
    )
    assert (n_fused, n_chain) == (live, 9)
    assert np.array_equal(out, want)
    assert macs == want_macs
    for name, got, exp in zip(sources, grads, want_grads):
        assert np.array_equal(got, exp), name
    if not live:
        assert not out.any()

        def constant(*args):
            return T.Tensor(np.zeros(out.shape))

        _, _, _, const_grads = billed_run(constant, inputs, mask, sources)
        for name, got, exp in zip(sources, grads, const_grads):
            assert np.array_equal(got, exp), name
            # xkv keeps only the gradient of billed_run's own xkv term
            assert name == "xkv" or not got.any(), name


@pytest.mark.parametrize("masked", [True, False], ids=["mask", "no_mask"])
@pytest.mark.parametrize("shapes", list(ATTENTION_SHAPES))
def test_attention_gradients_match_finite_differences(shapes, masked):
    inputs, mask = attention_inputs(shapes, masked, seed=2)
    g = T.Tensor(rng(3).standard_normal(T.attention(*inputs, mask).shape))
    err = T.grad_check(lambda: T.tsum(T.mul(T.attention(*inputs, mask), g)), inputs)
    assert err < 1e-6


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_attention_non_finite_mask_raises(bad):
    inputs, mask = attention_inputs("batched", True)
    mask = mask.copy()
    mask[1, 2, 0] = bad
    with pytest.raises(NumericError, match="attention mask") as err:
        T.attention(*inputs, mask)
    assert err.value.index == (1, 2, 0)


@pytest.mark.parametrize("masked", [True, False], ids=["mask", "no_mask"])
@pytest.mark.parametrize("shapes", list(ATTENTION_SHAPES))
def test_attention_on_projected_queries_equals_the_projecting_call(shapes, masked):
    """`wq=None` over queries projected by an explicit `matmul`: the values
    are the projecting call's bit for bit, the op bills exactly the query
    projection less, and the gradients to xq and wq, now through the
    matmul, match to 1e-12 relative."""
    inputs, mask = attention_inputs(shapes, masked)
    xq, xkv, wq, wk, wv = inputs
    out, macs, n_entries, grads = billed_run(T.attention, inputs, mask, INPUTS)

    def projected(xq, xkv, wq, wk, wv, mask):
        return T.attention(T.matmul(xq, wq), xkv, None, wk, wv, mask)

    counter = CostCounter()
    with cost_scope(counter, "attention"):
        alone = T.attention(T.Tensor(xq.a @ wq.a), xkv, None, wk, wv, mask)
    got, got_macs, got_entries, got_grads = billed_run(projected, inputs, mask, INPUTS)
    assert np.array_equal(alone.a, out) and np.array_equal(got, out)
    assert counter.macs["attention"] == macs - xq.size * wq.shape[0]
    assert (got_macs, got_entries) == (macs, n_entries + 1)
    for name, a, b in zip(INPUTS, got_grads, grads):
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b)), name


def test_attention_on_projected_queries_shape_mismatch():
    (xq, xkv, _, wk, wv), mask = attention_inputs("batched", True)
    with pytest.raises(DimensionError):
        T.attention(xq, xkv, None, wk, wv, mask[..., :-1])
    with pytest.raises(DimensionError):  # queries wider than the keys
        T.attention(T.Tensor(np.ones((2, 3, 5))), xkv, None, wk, wv, mask)
    with pytest.raises(DimensionError):
        T.attention(xq, xkv, None, wk, T.Tensor(np.eye(3)), mask)
    with pytest.raises(DimensionError):
        T.attention(xq, T.Tensor(np.ones((3, 5, 6))), None, wk, wv, None)


def test_attention_shape_mismatch():
    (xq, xkv, wq, wk, wv), mask = attention_inputs("batched", True)
    with pytest.raises(DimensionError):
        T.attention(xq, xkv, wq, wk, wv, mask[..., :-1])
    with pytest.raises(DimensionError):
        T.attention(xq, xkv, wq, wk, T.Tensor(np.eye(3)), mask)
    with pytest.raises(DimensionError):  # a non-square (d, d') projection
        T.attention(xq, xkv, wq, T.Tensor(np.ones((6, 5))), wv, mask)
    with pytest.raises(DimensionError):
        T.attention(xq, T.Tensor(np.ones((3, 5, 6))), wq, wk, wv, None)


# ---------------------------------------------------------------------------
# cosine


def test_cosine_self_similarity():
    v = T.Tensor([3.0, -1.0, 2.0])
    assert T.cosine(v, v).item() == pytest.approx(1.0, abs=1e-12)


def test_cosine_orthogonal():
    assert T.cosine(T.Tensor([1.0, 0.0]), T.Tensor([0.0, 1.0])).item() == 0.0


def test_cosine_hand_value():
    # cos([1,2],[2,1]) = 4/5
    assert T.cosine(T.Tensor([1.0, 2.0]), T.Tensor([2.0, 1.0])).item() == pytest.approx(
        0.8, abs=1e-15
    )


def test_cosine_both_zero_defined_as_zero():
    z = T.Tensor([0.0, 0.0])
    assert T.cosine(z, z).item() == 0.0


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.floats(0.01, 100.0))
def test_cosine_symmetric_and_scale_invariant(seed, alpha):
    g = rng(seed)
    u, v = g.standard_normal(5), g.standard_normal(5)
    c_uv = T.cosine(T.Tensor(u), T.Tensor(v)).item()
    c_vu = T.cosine(T.Tensor(v), T.Tensor(u)).item()
    c_scaled = T.cosine(T.Tensor(alpha * u), T.Tensor(v)).item()
    assert abs(c_uv - c_vu) < 1e-12
    assert abs(c_uv - c_scaled) < 1e-12
    assert abs(c_uv - oracles.cosine_direct(u, v)) < 1e-12


# ---------------------------------------------------------------------------
# conv2d_local


def test_conv_identity_kernel():
    x = rng(3).standard_normal((5, 4, 2))
    w = np.zeros((2, 3, 3))
    w[:, 1, 1] = 1.0
    out = T.conv2d_local(T.Tensor(x), 3, T.Tensor(w))
    assert np.max(np.abs(out.a - x)) < 1e-15


def test_conv_constant_field_interior():
    x = np.full((5, 5, 1), 2.0)
    w = np.ones((1, 3, 3))
    out = T.conv2d_local(T.Tensor(x), 3, T.Tensor(w)).a
    assert out[2, 2, 0] == pytest.approx(18.0)  # 9 * 2
    assert out[0, 0, 0] == pytest.approx(8.0)  # zero padding at the corner


def test_conv_against_sliding_window():
    x = rng(4).standard_normal((5, 5, 3))
    w = rng(5).standard_normal((3, 3, 3))
    got = T.conv2d_local(T.Tensor(x), 3, T.Tensor(w)).a
    assert np.max(np.abs(got - oracles.conv2d_sliding(x, w))) < 1e-12


@pytest.mark.parametrize("k", [3, 5, 7])
def test_conv_batched_non_square_against_sliding_window(k):
    g = rng(20 + k)
    x = g.standard_normal((2, 6, 9, 3))
    w = g.standard_normal((3, k, k))
    got = T.conv2d_local(T.Tensor(x), k, T.Tensor(w)).a
    for n in range(2):
        assert np.max(np.abs(got[n] - oracles.conv2d_sliding(x[n], w))) < 1e-12


@pytest.mark.parametrize("k", [5, 7])
def test_conv_grad_check_input_and_weights(k):
    g = rng(30 + k)
    x = T.Tensor(g.standard_normal((2, 6, 9, 2)))
    kw = T.Tensor(g.standard_normal((2, k, k)))
    assert T.grad_check(lambda: T.tsum(T.mul(T.conv2d_local(x, k, kw), x)), [x, kw]) < 1e-6


@pytest.mark.parametrize("k", [3, 5, 7])
def test_conv_bills_k_squared_macs_per_input_entry(k):
    counter = CostCounter()
    x = T.Tensor(rng(40).standard_normal((2, 6, 9, 3)))
    with cost_scope(counter, "conv"):
        T.conv2d_local(x, k, T.Tensor(rng(41).standard_normal((3, k, k))))
    assert counter.macs == {"conv": x.size * k * k}


def test_conv_at_benchmark_shape_matches_tap_loop():
    # the largest branch of the dense-refinement workload: b=8, 16x16, 37 channels
    g = rng(50)
    x = g.standard_normal((8, 16, 16, 37))
    w = g.standard_normal((37, 7, 7))
    up = g.standard_normal(x.shape)
    want_y, want_gx, want_gw = oracles.conv2d_taps(x, w, up)
    xt, wt = T.Tensor(x), T.Tensor(w)
    with T.GradTape() as tape:
        y = T.conv2d_local(xt, 7, wt)
        loss = T.tsum(T.mul(y, T.Tensor(up)))
    gx, gw = tape.gradients(loss, [xt, wt])
    for got, want in ((y.a, want_y), (gx, want_gx), (gw, want_gw)):
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def _branch_case(seed, k, lead, n_ups):
    """An (..., 6, 9, 3) map, its (3, k, k) conv weights, a (3, 4)
    projection and n_ups output weights for the branch below."""
    g = rng(seed)
    x = T.Tensor(g.standard_normal(lead + (6, 9, 3)))
    w = T.Tensor(g.standard_normal((3, k, k)))
    proj = T.Tensor(g.standard_normal((3, 4)))
    return x, w, proj, [T.Tensor(g.standard_normal(lead + (9, 4))) for _ in range(n_ups)]


def _branch(conv, proj):
    """conv -> pool -> projection, the chain `nfa.image_levels` builds."""
    return T.matmul(T.pool_parent_major(T.conv2d_apply(conv), 3, 3, 1, 1), proj)


def _shared_branch(conv, proj):
    (y,) = T.shared((conv, proj), lambda: (_branch(conv, proj),))
    return y


def _weighted_sum(ys, ups):
    total = T.mul(ys[0], ups[0])
    for y, u in zip(ys[1:], ups[1:]):
        total = T.add(total, T.mul(y, u))
    return T.tsum(total)


def _separate_branch_grads(x, k, w, proj, ups):
    """Gradients of x, w and proj through one unshared branch per up, each
    preparing its convolution anew."""
    with T.GradTape() as tape:
        loss = _weighted_sum([_branch(T.conv2d_prepare(x, k, w), proj) for _ in ups], ups)
    return tape.gradients(loss, [x, w, proj])


def _assert_close(got, want):
    for a, b in zip(got, want):
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))


@pytest.mark.parametrize("lead", [(), (2,)], ids=["unbatched", "batched"])
@pytest.mark.parametrize("k", [3, 5, 7])
def test_conv_apply_of_one_preparation_equals_conv2d_local_calls(k, lead):
    """Three applies of one prepared convolution match three conv2d_local
    calls bit for bit: values, billed MACs and gradients, since each apply
    records its own backward. Three `shared` builds of the branch over it
    match three separate branches in values and MACs bit for bit, and in
    the gradients of x, the weights and the projection to 1e-12 relative:
    their one backward takes the sum before the products, not after
    (measured at most 4.4e-16)."""
    x, w, proj, ups = _branch_case(60 + k, k, lead, 3)
    conv_ups = [T.Tensor(rng(70 + k).standard_normal(x.shape)) for _ in ups]

    def run(build, ups):
        counter = CostCounter()
        with T.GradTape() as tape:
            with cost_scope(counter, "branch"):
                ys = [build() for _ in ups]
            loss = _weighted_sum(ys, ups)
        return [y.a for y in ys], dict(counter.macs), tape.gradients(loss, [x, w, proj])

    prepared = T.conv2d_prepare(x, k, w)
    got = run(lambda: T.conv2d_apply(prepared), conv_ups)
    want = run(lambda: T.conv2d_local(x, k, w), conv_ups)
    assert got[1] == want[1] == {"branch": 3 * x.size * k * k}
    for a, b in zip(got[0] + got[2], want[0] + want[2]):
        assert np.array_equal(a, b)

    got = run(lambda: _shared_branch(prepared, proj), ups)
    want = run(lambda: _branch(T.conv2d_prepare(x, k, w), proj), ups)
    assert got[1] == want[1]
    for a, b in zip(got[0], want[0]):
        assert np.array_equal(a, b)
    _assert_close(got[2], want[2])


@pytest.mark.parametrize("lead", [(), (2,)], ids=["unbatched", "batched"])
@pytest.mark.parametrize("k", [3, 5, 7])
def test_conv_applies_on_two_tapes_each_get_the_full_gradient(k, lead):
    """One key shared on two tapes: each tape's first build keeps the real
    backward for its own builds."""
    x, w, proj, ups = _branch_case(80 + k, k, lead, 4)
    prepared = T.conv2d_prepare(x, k, w)
    grads = []
    for pair in (ups[:2], ups[2:]):
        with T.GradTape() as tape:
            loss = _weighted_sum([_shared_branch(prepared, proj) for _ in pair], pair)
        grads.append((tape.gradients(loss, [x, w, proj]), pair))
    for got, pair in grads:
        _assert_close(got, _separate_branch_grads(x, k, w, proj, pair))


@pytest.mark.parametrize("lead", [(), (2,)], ids=["unbatched", "batched"])
@pytest.mark.parametrize("k", [3, 5, 7])
def test_conv_apply_off_the_tape_joins_no_shared_backward(k, lead):
    """Built once unrecorded and twice recorded on one tape: the
    unrecorded output is a constant, and the two recorded builds get the
    gradient of two separate branches."""
    x, w, proj, ups = _branch_case(90 + k, k, lead, 3)
    prepared = T.conv2d_prepare(x, k, w)
    with T.GradTape() as tape:
        with T.no_recording():
            y0 = _shared_branch(prepared, proj)
        loss = _weighted_sum([y0] + [_shared_branch(prepared, proj) for _ in ups[1:]], ups)
    assert np.array_equal(y0.a, _branch(prepared, proj).a)
    _assert_close(
        tape.gradients(loss, [x, w, proj]), _separate_branch_grads(x, k, w, proj, ups[1:])
    )


@pytest.mark.parametrize("k", [3, 5, 7])
def test_conv_prepared_after_another_is_freed_keeps_its_own_gradient(k):
    """Two prepared convolutions of equal shapes on one tape, the first
    dropped by its caller before the second is prepared: the second's
    build must not pass for a later build of the first. A key that shares
    the convolution but not the projection does not share either."""
    xa, wa, proj, (ua, uc) = _branch_case(100 + k, k, (), 2)
    xb, wb, _, (ub,) = _branch_case(110 + k, k, (), 1)
    proj_c = T.Tensor(rng(120 + k).standard_normal(proj.shape))
    with T.GradTape() as tape:
        first = T.conv2d_prepare(xa, k, wa)
        ya = _shared_branch(first, proj)
        yc = _shared_branch(first, proj_c)
        del first
        yb = _shared_branch(T.conv2d_prepare(xb, k, wb), proj)
        loss = _weighted_sum([ya, yb, yc], [ua, ub, uc])
    assert len(tape.entries) == 3 * 3 + 6  # three full branches, 3 mul, 2 add, 1 sum
    got = tape.gradients(loss, [xb, wb, proj_c])
    with T.GradTape() as tape:
        loss = _weighted_sum([_branch(T.conv2d_prepare(xb, k, wb), proj)], [ub])
    assert all(np.array_equal(a, b) for a, b in zip(got[:2], tape.gradients(loss, [xb, wb])))
    with T.GradTape() as tape:
        loss = _weighted_sum([_branch(T.conv2d_prepare(xa, k, wa), proj_c)], [uc])
    assert np.array_equal(got[2], tape.gradients(loss, [proj_c])[0])


@pytest.mark.parametrize("lead", [(), (2,)], ids=["unbatched", "batched"])
def test_conv_backward_contracts_weights_once_per_preparation(monkeypatch, lead):
    """Each key's branch backward runs once however often it is built: one
    conv and one projection weight contraction per key, and one link
    entry per later build."""
    calls = []

    def counted(name):
        real = getattr(T, name)

        def run(*args):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(T, name, run)

    counted("_conv_dw")
    counted("_matmul_dw")
    xa, wa, pa, ups_a = _branch_case(120, 3, lead, 3)
    xb, wb, pb, ups_b = _branch_case(121, 7, lead, 2)
    a, b = T.conv2d_prepare(xa, 3, wa), T.conv2d_prepare(xb, 7, wb)
    with T.GradTape() as tape:
        ys = [_shared_branch(a, pa) for _ in ups_a] + [_shared_branch(b, pb) for _ in ups_b]
        loss = _weighted_sum(ys, ups_a + ups_b)
    # 3 entries per key's first build, 1 per later build, then the sum's 2 per build and 1
    assert len(tape.entries) == 3 * 2 + (len(ys) - 2) + 2 * len(ys)
    tape.gradients(loss, [wa, wb, pa, pb])
    assert sorted(calls) == ["_conv_dw"] * 2 + ["_matmul_dw"] * 2


def test_shared_build_links_only_its_last_output():
    """A build of (tokens, queries), as `nfa.build_hierarchy` shares the
    level-3 branch: every build returns both at the first build's values,
    a later build records one link, for the queries alone, and the
    gradients through the queries are those of separate branches."""
    x, w, proj, ups = _branch_case(130, 5, (2,), 3)
    wq = T.Tensor(rng(131).standard_normal((4, 4)))
    prepared = T.conv2d_prepare(x, 5, w)

    def build():
        tokens = _branch(prepared, proj)
        return tokens, T.matmul(tokens, wq)

    with T.GradTape() as tape:
        outs = [T.shared((prepared, proj, wq), build) for _ in ups]
        n_built = len(tape.entries)
        loss = _weighted_sum([queries for _, queries in outs], ups)
    assert n_built == 4 + len(ups) - 1  # conv, pool, projection, query projection
    for later in outs[1:]:
        assert all(np.array_equal(a.a, b.a) for a, b in zip(later, outs[0]))
    got = tape.gradients(loss, [x, w, proj, wq])
    with T.GradTape() as tape:
        separate = [T.matmul(_branch(T.conv2d_prepare(x, 5, w), proj), wq) for _ in ups]
        loss = _weighted_sum(separate, ups)
    _assert_close(got, tape.gradients(loss, [x, w, proj, wq]))


def test_conv_preparation_is_read_only():
    x = T.Tensor(rng(70).standard_normal((6, 9, 3)))
    prepared = T.conv2d_prepare(x, 5, T.Tensor(rng(71).standard_normal((3, 5, 5))))
    for arr in (prepared.xp, prepared.band):
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 1.0


def test_conv_even_kernel_rejected():
    x = T.Tensor(np.zeros((4, 4, 1)))
    with pytest.raises(ConfigurationError):
        T.conv2d_local(x, 4, T.Tensor(np.zeros((1, 4, 4))))


# ---------------------------------------------------------------------------
# pool_parent_major


def test_pool_parent_major_matches_block_mean_then_reorder():
    x = rng(8).standard_normal((3, 8, 12, 2))  # a batch of 3 maps
    gy, gx, fy, fx = 2, 3, 2, 2
    got = T.pool_parent_major(T.Tensor(x), gy, gx, fy, fx).a
    for s in range(3):
        cells = oracles.block_mean(x[s], 8 // (fy * gy), 12 // (fx * gx))
        want = [
            cells[fy * a + dy, fx * b + dx]
            for a in range(gy) for b in range(gx) for dy in range(fy) for dx in range(fx)
        ]
        assert np.max(np.abs(got[s] - np.array(want))) < 1e-12


def test_pool_parent_major_gradient():
    x = T.Tensor(rng(9).standard_normal((2, 4, 8, 3)))
    w = T.Tensor(rng(10).standard_normal((2, 8, 3)))

    def f():
        return T.tsum(T.mul(T.pool_parent_major(x, 1, 2, 2, 2), w))

    assert T.grad_check(f, [x]) < 1e-6


def test_span_means_of_single_rows_is_the_input():
    a = T.Tensor(rng(11).standard_normal((2, 4, 3)))
    assert T.pool_rows(a, 1) is a


@pytest.mark.parametrize("width", [2, 4])
def test_pool_rows_is_the_reshape_mean(width):
    x = rng(12).standard_normal((2, 8, 3))
    want = x.reshape(2, 8 // width, width, 3).mean(axis=-2)
    assert np.array_equal(T.pool_rows(T.Tensor(x), width).a, want)


@pytest.mark.parametrize("width", [0, 3, 16])
def test_pool_rows_rejects_a_width_that_does_not_divide(width):
    with pytest.raises(DimensionError):
        T.pool_rows(T.Tensor(np.zeros((8, 3))), width)


# ---------------------------------------------------------------------------
# high-pass filter: pooled_highpass_cells with one cell per pixel


def highpass(x, cutoff_frac):
    """The filter on a 2-D map, through the production fused filter+pool."""
    return T.pooled_highpass_cells(x[..., None], cutoff_frac, 1).reshape(x.shape)


def test_highpass_constant_image_goes_to_zero():
    x = np.full((8, 8), 3.7)
    out = highpass(x, 0.5)
    assert np.max(np.abs(out)) < 1e-12


def test_highpass_tiny_cutoff_removes_only_dc():
    x = rng(8).standard_normal((8, 8))
    out = highpass(x, 1e-12)
    assert np.max(np.abs(out - (x - x.mean()))) < 1e-10


def test_highpass_impulse_against_naive_dft():
    x = np.zeros((8, 8))
    x[2, 5] = 1.0
    got = highpass(x, 0.4)
    want = oracles.highpass_naive(x, 0.4)
    assert np.max(np.abs(got - want)) < 1e-9


def test_highpass_cutoff_out_of_range():
    for bad in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ConfigurationError):
            highpass(np.zeros((4, 4)), bad)


@pytest.mark.parametrize("h, w", [(8, 8), (16, 16), (32, 32), (8, 12)])
def test_highpass_operator_row_by_row_equals_one_shot_build(h, w):
    got = T._highpass_operator(h, w, 0.25)
    assert got.shape == (h * w, h * w) and got.flags.c_contiguous
    assert np.array_equal(got, oracles.highpass_operator_oneshot(h, w, 0.25))


@pytest.mark.parametrize("h, w", [(8, 8), (16, 16), (32, 32), (8, 12)])
def test_pooled_highpass_operator_equals_pooling_matmul(h, w):
    """With a power-of-two pool the cell weights are exact, so pooling each
    row block as it is filled matches the pooling matmul bit for bit."""
    got = T._highpass_operator(h, w, 0.25, 2)
    assert got.shape == (h * w // 4, h * w) and got.flags.c_contiguous
    assert np.array_equal(got, oracles.pooled_highpass_operator_matmul(h, w, 0.25, 2))


def test_pooled_highpass_operator_odd_pool_within_rounding():
    got = T._highpass_operator(12, 12, 0.25, 3)
    want = oracles.pooled_highpass_operator_matmul(12, 12, 0.25, 3)
    assert np.max(np.abs(got - want)) < 1e-12


@pytest.mark.parametrize(
    "cached",
    [
        lambda: T._dft_matrix(8),
        lambda: T._highpass_keep(8, 8, 0.25),
        lambda: T._highpass_operator(8, 8, 0.25, 2),
    ],
    ids=["dft_matrix", "highpass_keep", "highpass_operator"],
)
def test_cached_operators_are_read_only(cached):
    arr = cached()
    before = arr.copy()
    assert not arr.flags.writeable
    with pytest.raises(ValueError):
        arr[(0,) * arr.ndim] = 1
    assert np.array_equal(cached(), before)


def test_pooled_highpass_build_never_holds_the_unpooled_operator():
    """The 32x32 unpooled operator alone is 4x the pooled one's bytes (the
    pooling-matmul build peaked at 6x)."""
    import tracemalloc

    T._highpass_operator.cache_clear()
    tracemalloc.start()
    try:
        op = T._highpass_operator(32, 32, 0.3, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * op.nbytes
    assert T._highpass_operator.cache_info().currsize == 1


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000))
def test_highpass_output_zero_mean(seed):
    x = rng(seed).standard_normal((8, 8))
    out = highpass(x, 0.3)
    assert abs(out.mean()) < 1e-9


# ---------------------------------------------------------------------------
# tape / gradients


def test_grad_quadratic():
    x = T.Tensor([1.0, 2.0])
    with T.GradTape() as tape:
        y = T.tsum(T.mul(x, x))
    (g,) = tape.gradients(y, [x])
    assert np.allclose(g, [2.0, 4.0], atol=1e-12)


def test_grad_softmax_rows_sum_constant():
    x = T.Tensor(rng(9).standard_normal((3, 4)))
    with T.GradTape() as tape:
        y = T.tsum(T.row_softmax(x))
    (g,) = tape.gradients(y, [x])
    assert np.max(np.abs(g)) < 1e-12


def test_grad_check_quadratic():
    x = T.Tensor([1.0, 2.0])
    err = T.grad_check(lambda: T.tsum(T.mul(x, x)), [x])
    assert err < 1e-6


def test_grad_check_each_op():
    g = rng(10)
    a = T.Tensor(g.standard_normal((3, 4)))
    b = T.Tensor(g.standard_normal((4, 3)))
    v = T.Tensor(g.standard_normal(6))
    w = T.Tensor(g.standard_normal(6))
    x = T.Tensor(g.standard_normal((4, 4, 2)))
    kw = T.Tensor(g.standard_normal((2, 3, 3)))
    m = T.Tensor(g.standard_normal((4, 4)))
    r = T.Tensor([0.3])

    def grid_pool():
        return T.pool_parent_major(x, 2, 2, 1, 1)

    cases = {
        "matmul": (lambda: T.tsum(T.matmul(a, b)), [a, b]),
        "softmax": (lambda: T.tsum(T.mul(T.row_softmax(a), a)), [a]),
        "cosine": (lambda: T.cosine(v, w), [v, w]),
        "conv": (lambda: T.tsum(T.mul(T.conv2d_local(x, 3, kw), x)), [x, kw]),
        "grid_pool": (lambda: T.tsum(T.mul(grid_pool(), grid_pool())), [x]),
        "attention": (lambda: T.tsum(T.mul(T.attention(a, a, m, m, m, None), a)), [a, m]),
        "logsumexp": (lambda: T.tsum(T.row_logsumexp(a)), [a]),
        "l2norm": (lambda: T.tsum(T.mul(T.l2_normalize_rows(a), a)), [a]),
        "pool_rows": (lambda: T.tsum(T.mul(T.pool_rows(b, 2), T.pool_rows(b, 2))), [b]),
        "diag": (lambda: T.tsum(T.take_diag(m)), [m]),
        "recip": (lambda: T.tsum(T.reciprocal(r)), [r]),
    }
    for name, (f, params) in cases.items():
        err = T.grad_check(f, params)
        assert err < 1e-4, f"{name}: relative error {err}"


def test_grad_structural_ops():
    g = rng(11)
    base = T.Tensor(g.standard_normal((5, 3)))
    rows = T.Tensor(g.standard_normal((2, 3)))

    def f():
        out = T.add_rows(base, [1, 3], rows)
        picked = T.gather_rows(out, [0, 1, 3])
        return T.tsum(T.mul(picked, picked))

    assert T.grad_check(f, [base, rows]) < 1e-6


def test_add_rows_adds_to_the_named_rows_of_each_sample():
    base = rng(12).standard_normal((2, 5, 3))
    delta = rng(13).standard_normal((2, 2, 3))
    got = T.add_rows(T.Tensor(base), [4, 1], T.Tensor(delta)).a
    want = base.copy()
    want[:, [4, 1]] += delta
    assert np.array_equal(got, want)
    with pytest.raises(DimensionError):
        T.add_rows(T.Tensor(base), [1, 1], T.Tensor(delta))


def test_backward_skips_what_no_source_reaches():
    """Only tensors computed from a source get a gradient: an op output
    built from constants alone is skipped, its backward never runs."""
    g = rng(14)
    c = T.Tensor(g.standard_normal((3, 4)))  # data: not a source
    w = T.Tensor(g.standard_normal((4, 4)))
    seen = {}

    def probe(x, name):
        out = T.Tensor(x.a.copy())

        def backward(grad, acc):
            seen[name] = T._wants(acc, x)
            T._acc(acc, x, grad)

        T._rec(out, backward, x)
        return out

    with T.GradTape() as tape:
        k = probe(T.scale(c, 2.0), "constant")
        v = probe(T.matmul(c, w), "from_source")
        loss = T.tsum(T.mul(k, v))
    (gw,) = tape.gradients(loss, [w])
    assert seen == {"from_source": True}
    assert np.allclose(gw, c.a.T @ (2.0 * c.a))


def test_conv_weight_gradient_over_constant_input():
    g = rng(15)
    x = T.Tensor(g.standard_normal((2, 4, 4, 2)))  # a batch of constant maps
    kw = T.Tensor(g.standard_normal((2, 3, 3)))
    assert T.grad_check(lambda: T.tsum(T.mul(T.conv2d_local(x, 3, kw), x)), [kw]) < 1e-6


def test_gradients_require_scalar_target():
    x = T.Tensor(np.ones((2, 2)))
    with T.GradTape() as tape:
        y = T.mul(x, x)
    with pytest.raises(DimensionError):
        tape.gradients(y, [x])


def test_no_recording_blocks_gradient():
    x = T.Tensor([2.0])
    with T.GradTape() as tape:
        with T.no_recording():
            h = T.mul(x, x)
        y = T.tsum(h)
    (g,) = tape.gradients(y, [x])
    assert np.array_equal(g, np.zeros(1))


def test_untouched_param_gets_zero_gradient():
    x, z = T.Tensor([1.0]), T.Tensor([1.0, 2.0])
    with T.GradTape() as tape:
        y = T.tsum(T.mul(x, x))
    gx, gz = tape.gradients(y, [x, z])
    assert gx[0] == pytest.approx(2.0)
    assert np.array_equal(gz, np.zeros(2))


# ---------------------------------------------------------------------------
# invariants of the carrier type


def test_tensor_rejects_nan():
    with pytest.raises(NumericError):
        T.Tensor([float("nan")])
