"""Model stack: end-to-end equivalence against the straight-line oracle,
objective properties, training behavior, toggles, and checkpointing."""

import hashlib

import numpy as np
import pytest

import monolithic
import oracles
from dape import tensor as T
from dape.config import DapeConfig
from dape.errors import ConfigurationError, ContractError, NumericError
from dape.model import (
    Batch,
    contrastive_loss,
    embed_corpus,
    forward,
    init_model,
    load_checkpoint,
    retrieval_at_k,
    save_checkpoint,
    train_step,
)
from dape.synth import gen_corpus, load_corpus
from dape.tensor import Tensor


def rng(seed=0):
    return np.random.default_rng(seed)


def oracle_cfg(**over):
    """The d=16, I=16, J=4, 2-layer seeded config with every path active."""
    base = dict(
        d=16, n_layers=2, grid=(4, 4), j_text=4, text_len=16,
        image_size=16, L=4, k1=2, phi_period=2, detail_pool=2,
        nfa_merge="pool_add", k0=0.3, k_thr=0.3, tau_d=0.2, seed=11,
    )
    base.update(over)
    cfg = DapeConfig(**base)
    cfg.validate()
    return cfg


@pytest.fixture
def corpus_batch(tmp_path):
    """`corpus_batch(cfg, n, seed)`: the first n scenes of a generated
    corpus as a batch, the corpus written in the test's own directory."""

    def make(cfg, n=4, seed=5):
        path = str(tmp_path / "batch_corpus.dape")
        gen_corpus(max(n, 4), seed, (1, 1, 1), path, cfg)
        return load_corpus(path).batch(range(n))

    return make


# ---------------------------------------------------------------------------
# forward


def assert_forward_matches_monolithic(cfg, batch):
    model = init_model(cfg)
    ie, te, trace = forward(model, batch, cfg)
    params = {name: t.a for name, t in model.params()}
    want_i, want_t = monolithic.straight_line_forward(params, batch.images, batch.texts, cfg)
    assert np.max(np.abs(ie.a - want_i)) < 1e-10
    assert np.max(np.abs(te.a - want_t)) < 1e-10
    return trace


def test_forward_matches_monolithic_oracle(corpus_batch):
    cfg = oracle_cfg()
    trace = assert_forward_matches_monolithic(cfg, corpus_batch(cfg, n=2))
    assert trace.injections == 2  # one per sample at layer 1


def test_forward_matches_monolithic_oracle_through_the_carry(corpus_batch):
    """Four layers at period 2: the second injection reads the detail the
    first carried, reordered from parent-major to row-major rows."""
    cfg = oracle_cfg(n_layers=4)
    trace = assert_forward_matches_monolithic(cfg, corpus_batch(cfg, n=2))
    assert trace.injections == 4  # one per sample at layers 1 and 3


def test_forward_all_masked_out_is_deterministic_zero(corpus_batch):
    cfg = oracle_cfg(k0=1.0, k_c=1.0, k_thr=1.0, n_layers=1, phi_period=4,
                    enable_phi=False, nfa_merge="slots_only")
    model = init_model(cfg)
    batch = corpus_batch(cfg, n=2)
    ie, te, _ = forward(model, batch, cfg)
    assert np.array_equal(ie.a, np.zeros_like(ie.a))
    assert np.array_equal(te.a, np.zeros_like(te.a))
    ie2, te2, _ = forward(model, batch, cfg)
    assert np.array_equal(ie.a, ie2.a)


def test_forward_batch_symmetry(corpus_batch):
    cfg = oracle_cfg()
    model = init_model(cfg)
    batch = corpus_batch(cfg, n=2)
    dup = Batch(np.stack([batch.images[0]] * 3), np.stack([batch.texts[0]] * 3))
    ie, te, _ = forward(model, dup, cfg)
    assert np.max(np.abs(ie.a - ie.a[0])) < 1e-12
    assert np.max(np.abs(te.a - te.a[0])) < 1e-12


def test_forward_unit_norm_embeddings(corpus_batch):
    cfg = oracle_cfg()
    model = init_model(cfg)
    batch = corpus_batch(cfg, n=4)
    ie, te, _ = forward(model, batch, cfg)
    assert np.max(np.abs(np.linalg.norm(ie.a, axis=1) - 1.0)) < 1e-10
    assert np.max(np.abs(np.linalg.norm(te.a, axis=1) - 1.0)) < 1e-10


# ---------------------------------------------------------------------------
# contrastive loss


def test_loss_matches_direct_softmax_ce_oracle():
    g = rng(1)
    ie = g.standard_normal((2, 4))
    te = g.standard_normal((2, 4))
    ie /= np.linalg.norm(ie, axis=1, keepdims=True)
    te /= np.linalg.norm(te, axis=1, keepdims=True)
    temp = 0.5
    got = contrastive_loss(Tensor(ie), Tensor(te), Tensor(np.float64(temp))).item()
    logits = ie @ te.T / temp
    p_rows = oracles.softmax_rows_direct(logits)
    p_cols = oracles.softmax_rows_direct(logits.T)
    want = 0.5 * (
        -np.mean([np.log(p_rows[i, i]) for i in range(2)])
        - np.mean([np.log(p_cols[i, i]) for i in range(2)])
    )
    assert got == pytest.approx(want, abs=1e-12)


def test_loss_perfect_alignment_small_temperature():
    ie = np.eye(4)
    got = contrastive_loss(Tensor(ie), Tensor(ie), Tensor(np.float64(1e-3))).item()
    assert got < 1e-6


def test_loss_permutation_invariant():
    g = rng(2)
    ie = g.standard_normal((5, 6))
    te = g.standard_normal((5, 6))
    perm = g.permutation(5)
    a = contrastive_loss(Tensor(ie), Tensor(te), Tensor(np.float64(0.2))).item()
    b = contrastive_loss(Tensor(ie[perm]), Tensor(te[perm]), Tensor(np.float64(0.2))).item()
    assert a == pytest.approx(b, abs=1e-12)


def test_loss_rejects_bad_inputs():
    ie = Tensor(np.eye(2))
    with pytest.raises(ConfigurationError):
        contrastive_loss(Tensor(np.eye(1)), Tensor(np.eye(1)), Tensor(np.float64(0.1)))
    with pytest.raises(ConfigurationError):
        contrastive_loss(ie, ie, Tensor(np.float64(0.0)))


# ---------------------------------------------------------------------------
# training


def test_train_step_zero_lr_keeps_parameters_bit_exact(corpus_batch):
    cfg = oracle_cfg(learning_rate=0.0)
    model = init_model(cfg)
    batch = corpus_batch(cfg, n=2)
    before = [t.a.copy() for _, t in model.params()]
    train_step(model, batch, cfg)
    for b, (_, t) in zip(before, model.params()):
        assert np.array_equal(b, t.a)


def test_train_step_with_non_finite_loss_raises_before_any_update(corpus_batch):
    """A temperature whose reciprocal overflows makes the loss non-finite:
    the loss's own ops raise, so no parameter moves."""
    cfg = oracle_cfg()
    model = init_model(cfg)
    batch = corpus_batch(cfg, n=2)
    model.temperature.a[...] = 1e-320
    before = [t.a.copy() for _, t in model.params()]
    with np.errstate(over="ignore"), pytest.raises(NumericError, match="reciprocal"):
        train_step(model, batch, cfg)
    for b, (_, t) in zip(before, model.params()):
        assert np.array_equal(b, t.a)


def test_repeated_step_on_fixed_batch_nonincreasing(corpus_batch):
    cfg = oracle_cfg(learning_rate=1e-3)
    model = init_model(cfg)
    batch = corpus_batch(cfg, n=4)
    losses = [train_step(model, batch, cfg)[0] for _ in range(20)]
    for a, b in zip(losses, losses[1:]):
        assert b <= a + 1e-9


def test_training_determinism_bit_identical_losses(corpus_batch):
    def run():
        cfg = oracle_cfg()
        model = init_model(cfg)
        batch = corpus_batch(cfg, n=4)
        return [train_step(model, batch, cfg)[0] for _ in range(10)]

    assert run() == run()


def test_gradient_norm_matches_finite_differences_d8(corpus_batch):
    """Sampled-coordinate check on a d=8 full model, masks frozen."""
    cfg = DapeConfig(
        d=8, n_layers=2, grid=(2, 2), j_text=4, text_len=16,
        image_size=8, L=2, k1=2, phi_period=2, detail_pool=1,
        nfa_merge="pool_add", k0=0.2, k_thr=0.2, tau_d=0.1, seed=3,
    )
    cfg.validate()
    model = init_model(cfg)
    batch = corpus_batch(cfg, n=2, seed=9)
    from dape.costs import Replay, Trace

    trace = Trace()
    forward(model, batch, cfg, trace=trace)

    def f():
        ie, te, _ = forward(model, batch, cfg, replay=Replay(trace))
        return contrastive_loss(ie, te, model.temperature)

    err = T.grad_check(f, model.param_tensors(), max_coords=6, seed=0)
    assert err < 1e-3


def test_replay_leaving_decisions_unconsumed_is_rejected(corpus_batch):
    """Replaying a 3-sample trace over 2 samples leaves the third sample's
    decisions unused; the structure diverged, so forward must refuse."""
    from dape.costs import Replay

    cfg = oracle_cfg()
    model = init_model(cfg)
    batch = corpus_batch(cfg, n=3)
    _, _, trace = forward(model, batch, cfg)
    short = Batch(batch.images[:2], batch.texts[:2])
    with pytest.raises(ContractError, match="unconsumed"):
        forward(model, short, cfg, replay=Replay(trace))


@pytest.mark.parametrize("replay_n", [2, 4])
def test_replay_over_another_batch_size_is_rejected_before_consuming(replay_n, corpus_batch):
    """A 3-sample trace replayed over 2 or 4 samples is refused at the first
    decision, whose per-sample entries would otherwise cross into the next
    decision point's; the same replay then serves the 3-sample batch."""
    from dape.costs import Replay

    cfg = oracle_cfg()
    model = init_model(cfg)
    batch = corpus_batch(cfg, n=4)
    three = Batch(batch.images[:3], batch.texts[:3])
    ie, te, trace = forward(model, three, cfg)
    other = Batch(batch.images[:replay_n], batch.texts[:replay_n])
    replay = Replay(trace)
    with pytest.raises(ContractError, match="unconsumed"):
        forward(model, other, cfg, replay=replay)
    ie2, te2, _ = forward(model, three, cfg, replay=replay)
    assert np.array_equal(ie.a, ie2.a) and np.array_equal(te.a, te2.a)


def test_replayed_masks_off_the_hierarchy_are_refused(corpus_batch):
    """A replay is the one way a mask reaches `check_structure` without
    being built: a level-2 weight under a non-dense level-1 row, or a
    level-1 entry off the mu lattice, must stop the replayed forward."""
    from dape.costs import Replay, Trace

    cfg = DapeConfig(nfa_merge="pool_add", k_thr=0.1)
    model = init_model(cfg)
    batch = corpus_batch(cfg, n=8, seed=7)
    _, _, trace = forward(model, batch, cfg)
    kinds = [kind for kind, _, _ in trace.points]

    def tampered(kind, edit):
        """A copy of the trace whose first `kind` point went through `edit`."""
        points = list(trace.points)
        at = kinds.index(kind)
        _, value, lead = points[at]
        value = value.copy()
        edit(value)
        points[at] = (kind, value, lead)
        return Trace(points=points, samples=trace.samples)

    # a build decides its level-1 dense flags just before its level-2 mask
    dense_kind, dense_l1, _ = trace.points[kinds.index("nfa_mask_l2") - 1]
    assert dense_kind == "nfa_dense_l1"
    sample, parent = np.argwhere(~dense_l1)[0]

    def level2_under_sparse_parent(a2):
        a2[sample, 2 * parent, 0] = cfg.mu[1]

    def off_lattice(a1):
        a1[0, 0, 0] = 0.5

    cases = [
        (tampered("nfa_mask_l2", level2_under_sparse_parent),
         "level-2 weight outside a dense level-1 row"),
        (tampered("nfa_mask_l1", off_lattice), "leaves the mu lattice"),
    ]
    for bad, message in cases:
        with pytest.raises(ConfigurationError, match=message):
            forward(model, batch, cfg, replay=Replay(bad))
    # the untouched trace replays cleanly
    forward(model, batch, cfg, replay=Replay(trace))


def per_sample_counts(trace):
    return (dict(trace.counter.macs), dict(trace.counter.cosines), len(trace.decisions),
            trace.injections, len(trace.hierarchy))


@pytest.mark.parametrize(
    "over, density_mix",
    [({}, (1, 1, 1)), ({"nfa_merge": "pool_add", "k_thr": 0.1}, (0, 0, 1))],
    ids=["default", "pool_add_dense"],
)
def test_batched_forward_equals_forward_per_sample(tmp_path, over, density_mix):
    """One forward over b samples gives each sample's b=1 embedding, and
    its counts are the sum of the per-sample runs'; on dense scenes with
    refinement live, samples refine different rows."""
    cfg = DapeConfig(**over)
    path = tmp_path / "c.dape"
    gen_corpus(4, 5, density_mix, str(path), cfg)
    batch = load_corpus(str(path)).batch(range(4))
    model = init_model(cfg)
    ie, te, trace = forward(model, batch, cfg)
    sums = None
    injection_macs = []
    for i in range(batch.size):
        one = Batch(batch.images[i : i + 1], batch.texts[i : i + 1])
        ie1, te1, tr1 = forward(model, one, cfg)
        injection_macs.append(tr1.injection_macs)
        assert np.max(np.abs(ie1.a[0] - ie.a[i])) < 1e-12
        assert np.max(np.abs(te1.a[0] - te.a[i])) < 1e-12
        counts = per_sample_counts(tr1)
        if sums is None:
            sums = counts
        else:
            macs, cos, dec, inj, hier = sums
            sums = (
                {k: macs.get(k, 0) + v for k, v in counts[0].items()},
                {k: cos.get(k, 0) + v for k, v in counts[1].items()},
                dec + counts[2], inj + counts[3], hier + counts[4],
            )
    assert per_sample_counts(trace) == sums
    # injection_macs: one batch total per injection layer, while
    # injections counts per sample
    assert trace.injection_macs == [sum(layer) for layer in zip(*injection_macs)]
    assert len(trace.injection_macs) * batch.size == trace.injections
    if over:
        active = {(h.active_l2, h.active_l3) for h in trace.hierarchy}
        assert len(active) > 1  # refinement differs between samples and layers


def test_train_step_tape_size_is_independent_of_batch_size(tmp_path, monkeypatch):
    cfg = DapeConfig()
    path = tmp_path / "c.dape"
    gen_corpus(8, 5, (1, 1, 1), str(path), cfg)
    corpus = load_corpus(str(path))
    entries = []
    gradients = T.GradTape.gradients

    def counting(tape, *args):
        entries.append(len(tape.entries))
        return gradients(tape, *args)

    monkeypatch.setattr(T.GradTape, "gradients", counting)
    for b in (2, 8):
        train_step(init_model(cfg), corpus.batch(range(b)), cfg)
    assert entries[0] == entries[1]


@pytest.mark.parametrize(
    "over", [{}, {"nfa_merge": "pool_add", "k_thr": 0.1}], ids=["default", "pool_add_k_thr_0.1"]
)
def test_warm_train_steps_reuse_freed_heap(over, corpus_batch):
    """On glibc the tensor kernel keeps freed heap, so once warm a b=8
    step reuses its pages; with glibc's default trim threshold each
    default step faults in 500 to 850 fresh ones. Blocks of 128 KiB or
    more (the dense config's level-3 maps and conv temporaries) stay on
    the heap too: with the trim threshold alone, glibc maps each afresh,
    600 to 1,600 faults per dense step."""
    import os
    import resource

    try:
        glibc = bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, OSError, ValueError):
        glibc = False
    assert T.HEAP_KEPT == glibc
    if not glibc:
        return
    cfg = DapeConfig(**over)
    batch = corpus_batch(cfg, n=8, seed=7)
    model = init_model(cfg)
    for _ in range(3):
        train_step(model, batch, cfg)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(5):
        train_step(model, batch, cfg)
    per_step = (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 5
    assert per_step < 100


def test_blas_runs_one_thread_without_moving_a_bit(corpus_batch):
    """Where numpy's OpenBLAS exports a thread setter, importing the tensor
    kernel pins it to one thread; two steps' losses and gradient norms are
    the same bits at two threads as at one, at the defaults and with
    refinement live."""
    import ctypes

    try:
        from numpy._core import _multiarray_umath as core
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as core
    lib = ctypes.CDLL(core.__file__)
    pairs = [
        (getattr(lib, prefix + "set_num_threads" + suffix, None),
         getattr(lib, prefix + "get_num_threads" + suffix, None))
        for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", ""))
    ]
    pairs = [pair for pair in pairs if pair[0] is not None]
    assert T.BLAS_PINNED == bool(pairs)
    if not pairs:
        return
    set_threads, get_threads = pairs[0]
    assert get_threads is None or get_threads() == 1
    for over in ({}, {"nfa_merge": "pool_add", "k_thr": 0.1}):
        cfg = DapeConfig(**over)
        batch = corpus_batch(cfg, n=8, seed=7)
        runs = []
        for threads in (2, 1):
            set_threads(threads)
            try:
                model = init_model(cfg)
                runs.append([train_step(model, batch, cfg)[:2] for _ in range(2)])
            finally:
                set_threads(1)
        assert runs[0] == runs[1], over


# ---------------------------------------------------------------------------
# toggles and cost monotonicity


def test_disabling_cwa_equals_zero_channel_projection(corpus_batch):
    cfg_off = oracle_cfg(enable_cwa=False)
    cfg_on = oracle_cfg(enable_cwa=True)
    model = init_model(cfg_on)
    batch = corpus_batch(cfg_on, n=2)
    ie_off, te_off, _ = forward(model, batch, cfg_off)
    model.cwa_proj.a[...] = 0.0  # zero projection -> zero-vector cosine -> t2 = 0
    ie_z, te_z, _ = forward(model, batch, cfg_on)
    assert np.max(np.abs(ie_off.a - ie_z.a)) < 1e-12
    assert np.max(np.abs(te_off.a - te_z.a)) < 1e-12


def test_disabling_nfa_collapses_hierarchy_to_level1(corpus_batch):
    cfg = oracle_cfg(enable_nfa=False, nfa_merge="slots_only")
    model = init_model(cfg)
    batch = corpus_batch(cfg, n=2)
    _, _, trace = forward(model, batch, cfg)
    masks = [v for k, v in trace.decisions if k in ("nfa_mask_l2", "nfa_mask_l3")]
    assert masks and all(np.array_equal(m, np.zeros_like(m)) for m in masks)


def test_disabling_phi_zeroes_generation_count(corpus_batch):
    cfg = oracle_cfg(enable_phi=False)
    model = init_model(cfg)
    batch = corpus_batch(cfg, n=2)
    _, _, trace = forward(model, batch, cfg)
    assert trace.injections == 0


def test_mac_monotonicity_across_toggles(corpus_batch):
    batch = None
    totals = {}
    for name, over in (
        ("base", dict(enable_cwa=False, enable_nfa=False, enable_phi=False)),
        ("cwa", dict(enable_cwa=True, enable_nfa=False, enable_phi=False)),
        ("cwa+nfa", dict(enable_cwa=True, enable_nfa=True, enable_phi=False)),
    ):
        cfg = oracle_cfg(**over)
        model = init_model(cfg)
        if batch is None:
            batch = corpus_batch(cfg, n=2)
        _, _, trace = forward(model, batch, cfg)
        totals[name] = trace.counter.total_macs()
    assert totals["base"] <= totals["cwa"] <= totals["cwa+nfa"]

    # One-injection cost is the measured MAC delta of a single-injection
    # run (injection work plus the padded coarse pass); with more layers
    # the added cost stays within (n_layers/K) of it, since carried detail
    # pools only shrink.
    def added_macs(n_layers):
        cfg_phi = oracle_cfg(enable_phi=True, n_layers=n_layers)
        cfg_off = oracle_cfg(enable_phi=False, n_layers=n_layers)
        model = init_model(cfg_phi)
        _, _, on = forward(model, batch, cfg_phi)
        _, _, off = forward(model, batch, cfg_off)
        return on.counter.total_macs() - off.counter.total_macs()

    k = oracle_cfg().phi_period
    one = added_macs(k)
    assert added_macs(2 * k) <= (2 * k // k) * one


def test_generation_count_follows_layer_count(corpus_batch):
    for n_layers, want in ((2, 1), (4, 2)):
        cfg = oracle_cfg(n_layers=n_layers)
        model = init_model(cfg)
        batch = corpus_batch(cfg, n=2)
        _, _, trace = forward(model, batch, cfg)
        assert trace.injections == want * 2  # per sample


# ---------------------------------------------------------------------------
# checkpointing


def test_checkpoint_round_trip_and_byte_stability(tmp_path, corpus_batch):
    cfg = oracle_cfg()
    model = init_model(cfg)
    batch = corpus_batch(cfg, n=2)
    train_step(model, batch, cfg)
    p1, p2 = tmp_path / "a.dape", tmp_path / "b.dape"
    save_checkpoint(str(p1), cfg, model)
    save_checkpoint(str(p2), cfg, model)
    assert p1.read_bytes() == p2.read_bytes()
    cfg2, model2 = load_checkpoint(str(p1))
    for (n1, t1), (n2, t2) in zip(model.params(), model2.params()):
        assert n1 == n2
        assert np.array_equal(t1.a, t2.a)
    ie1, _, _ = forward(model, batch, cfg)
    ie2, _, _ = forward(model2, batch, cfg2)
    assert np.array_equal(ie1.a, ie2.a)


# NFA and PHI once held full projection sets; of those, their attentions
# never read these six. init_model still draws and drops them, and older
# checkpoints still carry them.
UNREAD_PROJECTIONS = ("nfa.img.wk", "nfa.img.wv", "nfa.txt.wq", "phi.q.wk", "phi.q.wv", "phi.kv.wq")


def test_default_init_keeps_its_seeded_values():
    # SHA-256 over (name, bytes) of every parameter in name order, as the
    # model drew them when it also held the unread projections
    params = dict(init_model(DapeConfig()).params())
    assert len(params) == 56
    assert sum(t.a.size for t in params.values()) == 192_169
    h = hashlib.sha256()
    for name in sorted(params):
        h.update(name.encode())
        h.update(np.ascontiguousarray(params[name].a).tobytes())
    assert h.hexdigest() == "df3ec941974121b01f2c9b1ad192d2470699f65b9cd98105c294296d311ed291"


def test_checkpoint_with_the_unread_projections_still_loads(tmp_path):
    from dataclasses import asdict

    from dape.container import load_tensors, save_tensors

    cfg = DapeConfig()
    g = rng(3)
    old = {name: t.a + g.standard_normal(t.a.shape) for name, t in init_model(cfg).params()}
    old.update({name: g.standard_normal((cfg.d, cfg.d)) for name in UNREAD_PROJECTIONS})
    path = tmp_path / "old.dape"
    save_tensors(path, {"kind": "checkpoint", "config": asdict(cfg)}, old)
    _, model = load_checkpoint(str(path))
    assert len(old) == 62 and len(model.params()) == 56
    for name, t in model.params():
        assert np.array_equal(t.a, old[name])

    save_checkpoint(str(path), cfg, model)
    _, tensors = load_tensors(path)
    assert sorted(tensors) == sorted(old.keys() - set(UNREAD_PROJECTIONS))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_checkpoint_with_a_non_finite_parameter_is_a_file_format_error(tmp_path, bad):
    from dape.container import load_tensors, save_tensors
    from dape.errors import FileFormatError

    cfg = DapeConfig()
    path = tmp_path / "ck.dape"
    save_checkpoint(str(path), cfg, init_model(cfg))
    meta, tensors = load_tensors(path)
    tensors = {name: t.copy() for name, t in tensors.items()}
    tensors["temperature"][...] = bad
    save_tensors(path, meta, tensors)
    with pytest.raises(FileFormatError, match="parameter temperature holds a non-finite"):
        load_checkpoint(str(path))


@pytest.mark.parametrize("config", ["missing", 7, [1, 2]])
def test_checkpoint_without_config_object_is_a_file_format_error(tmp_path, config):
    from dape.container import save_tensors
    from dape.errors import FileFormatError

    meta = {"kind": "checkpoint"}
    if config != "missing":
        meta["config"] = config
    p = tmp_path / "ck.dape"
    save_tensors(p, meta, {"temperature": np.float64(0.07)})
    with pytest.raises(FileFormatError, match="config"):
        load_checkpoint(str(p))


@pytest.mark.parametrize("weight, module", [
    ("layer1.img.wq", "coarse"), ("layer1.img.wv", "cwa"), ("layer1.txt.wk", "coarse"),
    ("phi.q.wq", "phi"),
])
def test_overflow_names_layer_module_and_sample(weight, module, corpus_batch):
    cfg = oracle_cfg()
    batch = corpus_batch(cfg, n=4)
    # sample 2 carries a thousand times the signal, so it overflows first
    batch.images[2] *= 1e3
    batch.texts[2] *= 1e3
    model = init_model(cfg)
    w = dict(model.params())[weight]
    base = w.a.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        for e in range(295, 309):  # up to float64's largest power of ten
            w.a[...] = base * 10.0**e
            try:
                forward(model, batch, cfg)
            except NumericError as err:
                msg = str(err)
                break
        else:
            pytest.fail("no finite scale overflowed")
    assert e > 295
    assert msg.startswith(f"layer 1, module {module}, sample 2: non-finite values in ")


# Tape entries of one b=8 step. Each fused attention is one entry, or none
# when its mask is all zero. At the defaults that holds for CWA's 6 (k_c
# 0.5) and PHI's nested fine-alignment attention (k_thr 0.6), so 13 of the
# 69 entries are attentions: coarse 12 and PHI's slot attention. At k_thr
# 0.1 the nested one is live and CWA's 6 are still off; pool_add slices the
# raw map's level-3 channels once per forward, not once in each of the 6
# layers. The first layer builds the level-3 queries as 4 entries (conv,
# pool, projection, query projection); each of the 5 later layers rebuilds
# them off the tape and records 1 link entry that adds the queries'
# gradient to the first build's (`tensor.shared`), 15 fewer than
# rebuilding on the tape. The level-3 tokens a later build makes for the
# masks get no link, as no gradient could reach them. The first layer
# pools the raw map onto the grid as one entry (`pool_parent_major`).
@pytest.mark.parametrize(
    "over, entries",
    [({}, 69), ({"nfa_merge": "pool_add", "k_thr": 0.1}, 98)],
    ids=["default", "pool_add_k_thr_0.1"],
)
def test_train_step_records_one_tape_entry_per_live_attention(
    over, entries, monkeypatch, corpus_batch
):
    cfg = DapeConfig(**over)
    batch = corpus_batch(cfg, n=8)
    lengths, gradients = [], T.GradTape.gradients

    def counted(tape, target, sources):
        lengths.append(len(tape.entries))
        return gradients(tape, target, sources)

    monkeypatch.setattr(T.GradTape, "gradients", counted)
    train_step(init_model(cfg), batch, cfg)
    assert lengths == [entries]


@pytest.mark.parametrize("enable_phi, products", [(True, 2), (False, 1)], ids=["phi", "no_phi"])
def test_pool_add_step_projects_the_nfa_query_gradient_once(
    enable_phi, products, monkeypatch, corpus_batch
):
    """The six pool_add layers read their level-3 queries from one shared
    build, so a step runs the query projection's dx and dw once on the
    summed gradient (not once per layer); PHI's live nested attention
    still projects its own queries, one more of each."""
    cfg = DapeConfig(nfa_merge="pool_add", k_thr=0.1, enable_phi=enable_phi)
    model = init_model(cfg)
    wq = model.nfa.img_ps.wq
    calls = {"_matmul_dx": 0, "_matmul_dw": 0}

    def counting(name):
        real = getattr(T, name)

        def counted(g, x, w):
            if w is wq.a:
                calls[name] += 1
            return real(g, x, w)

        return counted

    for name in calls:
        monkeypatch.setattr(T, name, counting(name))
    train_step(model, corpus_batch(cfg, n=8), cfg)
    assert calls == {"_matmul_dx": products, "_matmul_dw": products}


@pytest.mark.parametrize("n_layers", [2, 6])
def test_pool_add_forward_prepares_each_branch_once(n_layers, monkeypatch, corpus_batch):
    cfg = DapeConfig(nfa_merge="pool_add", k_thr=0.1, n_layers=n_layers)
    prepared, prepare = [], T.conv2d_prepare

    def counted(x, kernel_size, weights):
        prepared.append(kernel_size)
        return prepare(x, kernel_size, weights)

    monkeypatch.setattr(T, "conv2d_prepare", counted)
    forward(init_model(cfg), corpus_batch(cfg, n=2), cfg)
    assert prepared == list(cfg.kernels)


def test_pool_add_steps_match_the_per_layer_conv_oracle(monkeypatch, corpus_batch):
    """Two pool_add train steps over branches prepared once per forward
    match, bit for bit, the steps that convolve the raw map anew and
    project its level-3 queries in every layer: losses, gradient norms and
    the fine-alignment gradients. The exceptions are `nfa.conv2`,
    `nfa.proj2` and `nfa.img.wq`: the six level-3 query builds per step
    share one backward that runs on their summed gradient, so those match
    to 1e-12 relative (measured at most 9.4e-16, 8.3e-16 and 5.7e-16)."""
    import dape.model as model_module

    cfg = DapeConfig(nfa_merge="pool_add", k_thr=0.1)
    batch = corpus_batch(cfg, n=8)

    def run():
        model = init_model(cfg)
        names = [name for name, _ in model.params()]
        steps, gradients = [], T.GradTape.gradients

        def kept(tape, target, sources):
            grads = gradients(tape, target, sources)
            steps[-1].append({
                n: g for n, g in zip(names, grads)
                if n.startswith(("nfa.conv", "nfa.proj", "nfa.img"))
            })
            return grads

        with monkeypatch.context() as mp:
            mp.setattr(T.GradTape, "gradients", kept)
            for _ in range(2):
                steps.append([])
                loss, gnorm, _ = train_step(model, batch, cfg)
                steps[-1] += [loss, gnorm]
        return steps

    got = run()
    with monkeypatch.context() as mp:
        mp.setattr(model_module, "prepare_branches", lambda m, *_: m)
        mp.setattr(model_module, "build_hierarchy", oracles.per_layer_hierarchy)
        want = run()
    for (grads, loss, gnorm), (want_grads, want_loss, want_gnorm) in zip(got, want):
        assert (loss, gnorm) == (want_loss, want_gnorm)
        assert sorted(grads) == sorted(want_grads) and len(grads) == 7
        for name, g in grads.items():
            want_g = want_grads[name]
            if name in ("nfa.conv2", "nfa.proj2", "nfa.img.wq"):
                assert np.max(np.abs(g - want_g)) <= 1e-12 * np.max(np.abs(want_g))
            else:
                assert np.array_equal(g, want_g), name


def test_init_model_bit_reproducible():
    cfg = oracle_cfg()
    a, b = init_model(cfg), init_model(cfg)
    for (_, ta), (_, tb) in zip(a.params(), b.params()):
        assert np.array_equal(ta.a, tb.a)


def test_retrieval_at_k_perfect_and_random():
    ie = np.eye(8)
    assert retrieval_at_k(ie, ie)[1] == 1.0
    g = rng(3)
    r = retrieval_at_k(g.standard_normal((8, 16)), g.standard_normal((8, 16)))
    assert 0.0 <= r[1] <= 1.0


def test_cost_report_aggregates_trace(corpus_batch):
    from dape.costs import cost_report

    cfg = oracle_cfg()
    model = init_model(cfg)
    batch = corpus_batch(cfg, n=2)
    _, _, trace = forward(model, batch, cfg)
    rep = cost_report(trace)
    assert rep.total_macs == trace.counter.total_macs() > 0
    assert rep.fine_cosines == trace.counter.cosines["nfa"] > 0
    assert rep.fine_cosines_uniform == sum(h.full_cosines for h in trace.hierarchy)
    assert 0.0 < rep.fine_ratio <= 1.0
    assert rep.injections == trace.injections
    # sparse extreme: nothing dense -> fine count collapses to level 1
    cfg_sparse = oracle_cfg(tau_d=1.0)
    _, _, tr = forward(init_model(cfg_sparse), batch, cfg_sparse)
    rep_sparse = cost_report(tr)
    assert rep_sparse.fine_cosines == sum(h.n_rows_l1 * h.n_cols_l1 for h in tr.hierarchy)
    # saturated extreme: everything dense -> uniform-baseline count exactly
    cfg_dense = oracle_cfg(k_thr=-1.0, tau_d=0.0)
    _, _, tr2 = forward(init_model(cfg_dense), batch, cfg_dense)
    rep_dense = cost_report(tr2)
    assert rep_dense.fine_cosines == rep_dense.fine_cosines_uniform
    assert rep_dense.fine_ratio == 1.0
    # strict dominance whenever some row is not dense
    assert rep_sparse.fine_cosines < rep_sparse.fine_cosines_uniform


def test_blocks_bill_their_cosines_to_the_active_scope(corpus_batch):
    """Called without a trace, each block bills its mask cosines to the
    scope it runs in, as it does its MACs."""
    from dape.coarse import coarse_align_block
    from dape.costs import CostCounter, cost_scope
    from dape.cwa import cwa_block
    from dape.nfa import build_hierarchy, prepare_branches

    cfg = oracle_cfg(k_thr=-1.0, tau_d=0.0)  # every row refines: 21*I*J fine cosines
    model = init_model(cfg)
    batch = corpus_batch(cfg, n=2)
    lp = model.layers[0]
    images, texts = Tensor(batch.images), Tensor(batch.texts)
    counter = CostCounter()
    with cost_scope(counter, "coarse"):
        t1, m1, *_ = coarse_align_block(images, texts, lp.img, lp.txt, cfg)
    with cost_scope(counter, "cwa"):
        cwa_block(m1, t1, model.gate, model.cwa_proj, (lp.txt, lp.img), cfg)
    with cost_scope(counter, "nfa"):
        branches = prepare_branches(images, cfg.mu, cfg.kernels, model.nfa.conv_kernels)
        build_hierarchy(branches, texts, cfg, model.nfa)
    b, i, j = 2, cfg.n_img_tokens, cfg.j_text
    assert dict(counter.cosines) == {"coarse": b * i * j, "cwa": b * cfg.L * j, "nfa": b * 21 * i * j}


def test_every_alignment_mask_thresholds_through_one_rule(monkeypatch, corpus_batch):
    """Coarse, CWA and every fine-alignment level decide their masks with
    the one matching rule: `coarse.binarize` runs once per mask point. At
    this config every build refines, so every level computes cosines."""
    import dape.coarse

    calls, binarize = [], dape.coarse.binarize

    def counted(a, threshold):
        calls.append(threshold)
        return binarize(a, threshold)

    monkeypatch.setattr(dape.coarse, "binarize", counted)
    cfg = DapeConfig(nfa_merge="pool_add", k_thr=0.1)
    _, _, trace = forward(init_model(cfg), corpus_batch(cfg, n=4), cfg)
    kinds = [kind for kind, _, _ in trace.points
             if kind in ("coarse_mask", "cwa_mask") or kind.startswith("nfa_mask_l")]
    assert {"coarse_mask", "cwa_mask", "nfa_mask_l1", "nfa_mask_l2", "nfa_mask_l3"} <= set(kinds)
    assert all(value.any() for kind, value, _ in trace.points if kind.startswith("nfa_dense"))
    thresholds = {"coarse_mask": cfg.k0, "cwa_mask": cfg.k_c}
    assert calls == [thresholds.get(kind, cfg.k_thr) for kind in kinds]
