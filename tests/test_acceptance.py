"""Acceptance gate: every shipping criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion. Thresholds are pinned here; corpora and seeds are pinned in
the fixtures.
"""

import time

import numpy as np
import pytest

import monolithic
from dape import tensor as T
from dape.config import DapeConfig
from dape.costs import Replay, Trace
from dape.harness import bench_densities, cmd_ablate, cmd_bench, cmd_train
from dape.model import (
    contrastive_loss,
    embed_corpus,
    forward,
    init_model,
    retrieval_at_k,
    train_step,
)
from dape.synth import gen_corpus, load_corpus


def report(criterion: str, ok: bool, detail: str = ""):
    line = f"[{criterion}] {'PASS' if ok else 'FAIL'}" + (f"  {detail}" if detail else "")
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def mixed_corpus(tmp_path_factory):
    """The pinned 80-scene corpus: 64 train / 16 eval, mixed densities."""
    path = tmp_path_factory.mktemp("corpus") / "mixed80.dape"
    cfg = DapeConfig()
    gen_corpus(80, 7, (1, 1, 1), str(path), cfg)
    return load_corpus(str(path))


def oracle_cfg(**over):
    base = dict(
        d=16, n_layers=2, grid=(4, 4), j_text=4, text_len=16,
        image_size=16, L=4, k1=2, phi_period=2, detail_pool=2,
        nfa_merge="pool_add", k0=0.3, k_thr=0.3, tau_d=0.2, seed=11,
    )
    base.update(over)
    cfg = DapeConfig(**base)
    cfg.validate()
    return cfg


def small_corpus_batch(cfg, n, seed, tmp_path):
    path = tmp_path / f"c{n}_{seed}.dape"
    gen_corpus(max(n, 4), seed, (1, 1, 1), str(path), cfg)
    return load_corpus(str(path)).batch(range(n))


# ---------------------------------------------------------------------------
# 1. Oracle equivalence


def test_acceptance_1_oracle_equivalence(tmp_path):
    t0 = time.perf_counter()
    cfg = oracle_cfg()
    model = init_model(cfg)
    batch = small_corpus_batch(cfg, 2, 5, tmp_path)
    ie, te, _ = forward(model, batch, cfg)
    params = {name: t.a for name, t in model.params()}
    want_i, want_t = monolithic.straight_line_forward(params, batch.images, batch.texts, cfg)
    err = max(np.max(np.abs(ie.a - want_i)), np.max(np.abs(te.a - want_t)))
    elapsed = time.perf_counter() - t0
    report(
        "A1 oracle-equivalence",
        err < 1e-10 and elapsed < 10.0,
        f"max|delta|={err:.2e} runtime={elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 2. Gradient fidelity


def d8_cfg():
    cfg = DapeConfig(
        d=8, n_layers=2, grid=(2, 2), j_text=4, text_len=16,
        image_size=8, L=2, k1=2, phi_period=2, detail_pool=1,
        nfa_merge="pool_add", k0=0.2, k_thr=0.2, tau_d=0.1, seed=3,
    )
    cfg.validate()
    return cfg


def test_acceptance_2_gradient_fidelity(tmp_path):
    t0 = time.perf_counter()
    cfg = d8_cfg()
    model = init_model(cfg)
    batch = small_corpus_batch(cfg, 2, 9, tmp_path)
    trace = Trace()
    forward(model, batch, cfg, trace=trace)

    def full():
        ie, te, _ = forward(model, batch, cfg, replay=Replay(trace))
        return contrastive_loss(ie, te, model.temperature)

    full_err = T.grad_check(full, model.param_tensors(), max_coords=6, seed=0)

    # per-module closures, masks frozen where applicable
    g = np.random.default_rng(1)
    a = T.Tensor(g.standard_normal((3, 4)))
    u, v = T.Tensor(g.standard_normal(6)), T.Tensor(g.standard_normal(6))
    x = T.Tensor(g.standard_normal((4, 4, 2)))
    kw = T.Tensor(g.standard_normal((2, 3, 3)))
    per_module = {
        "tensor-core": max(
            T.grad_check(lambda: T.tsum(T.mul(T.row_softmax(a), a)), [a]),
            T.grad_check(lambda: T.cosine(u, v), [u, v]),
            T.grad_check(lambda: T.tsum(T.mul(T.conv2d_local(x, 3, kw), x)), [x, kw]),
        ),
    }
    from dape.coarse import ProjectionSet, coarse_align_block
    from dape.tensor import Tensor

    d = cfg.d
    ps = lambda: ProjectionSet(
        Tensor(np.eye(d) + 0.05 * g.standard_normal((d, d))),
        Tensor(np.eye(d) + 0.05 * g.standard_normal((d, d))),
        Tensor(np.eye(d) + 0.05 * g.standard_normal((d, d))),
    )
    img_ps, txt_ps = ps(), ps()
    m_map = Tensor(batch.images[0])
    t_seq = Tensor(batch.texts[0])
    ctrace = Trace()
    coarse_align_block(m_map, t_seq, img_ps, txt_ps, cfg, trace=ctrace)

    def coarse_loss():
        t1, m1, *_ = coarse_align_block(
            m_map, t_seq, img_ps, txt_ps, cfg, replay=Replay(ctrace)
        )
        return T.add(T.tsum(T.mul(t1, t1)), T.tsum(T.mul(m1, m1)))

    coarse_params = [img_ps.wq, img_ps.wk, img_ps.wv, txt_ps.wq, txt_ps.wk, txt_ps.wv]
    per_module["coarse-align"] = T.grad_check(coarse_loss, coarse_params, max_coords=8)

    from dape.cwa import ChannelGate, cwa_block
    gate = ChannelGate(
        Tensor(0.3 * g.standard_normal((d, d))), Tensor(np.zeros(d)),
        Tensor(0.3 * g.standard_normal((d, d))), Tensor(np.zeros(d)),
    )
    chan_proj = Tensor(g.standard_normal((cfg.n_img_tokens, d)))
    m_spatial = Tensor(g.standard_normal((cfg.n_img_tokens, d)))
    t1_fixed = Tensor(g.standard_normal((cfg.j_text, d)))
    wtrace = Trace()
    cwa_block(m_spatial, t1_fixed, gate, chan_proj, (txt_ps, img_ps), cfg, trace=wtrace)

    def cwa_loss():
        t2, _ = cwa_block(
            m_spatial, t1_fixed, gate, chan_proj, (txt_ps, img_ps), cfg,
            replay=Replay(wtrace),
        )
        return T.tsum(T.mul(t2, t2))

    per_module["cwa"] = T.grad_check(
        cwa_loss, [chan_proj, gate.w1, gate.b1, gate.w2, gate.b2], max_coords=8
    )

    from dape.phi import PhiWeights, LearnableTokens, phi_inject
    weights = PhiWeights(
        Tensor(g.standard_normal((d, d)) * 0.4),
        LearnableTokens(Tensor(0.02 * g.standard_normal((cfg.slot_count, d)))),
        ps(), ps(),
    )
    m1p = Tensor(g.standard_normal((cfg.n_img_tokens + cfg.slot_count, d)))
    slots = np.arange(cfg.n_img_tokens, cfg.n_img_tokens + cfg.slot_count)
    src = Tensor(batch.images[1])
    t_prev = Tensor(g.standard_normal((cfg.j_text, d)))
    ptrace = Trace()
    phi_inject(m1p, slots, src, t_prev, weights, (img_ps, txt_ps), cfg, 1, trace=ptrace)

    def phi_loss():
        m_out, _ = phi_inject(
            m1p, slots, src, t_prev, weights, (img_ps, txt_ps), cfg, 1,
            replay=Replay(ptrace),
        )
        return T.tsum(T.mul(m_out, m_out))

    per_module["phi+nfa"] = T.grad_check(
        phi_loss,
        [weights.detail_proj, img_ps.wq, txt_ps.wk, txt_ps.wv,
         weights.q_ps.wq, weights.kv_ps.wk, weights.kv_ps.wv],
        max_coords=8,
    )

    elapsed = time.perf_counter() - t0
    worst_module = max(per_module.values())
    report(
        "A2 gradient-fidelity",
        full_err < 1e-3 and worst_module < 1e-4 and elapsed < 60.0,
        f"full={full_err:.2e} modules={worst_module:.2e} runtime={elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 3. Mask algebra


def test_acceptance_3_mask_algebra(tmp_path):
    t0 = time.perf_counter()
    from dape.coarse import binarize
    from dape.nfa import build_hierarchy, mask_lattice, NfaWeights, prepare_branches
    from dape.coarse import ProjectionSet
    from dape.config import mu_partition
    from dape.tensor import Tensor

    cfg = d8_cfg()
    lattice = mask_lattice(*cfg.mu)
    ok = True
    detail = ""
    for seed in range(100):
        g = np.random.default_rng(seed)
        a0 = binarize(g.uniform(-1, 1, size=(4, 3)), cfg.k0)
        ac = binarize(g.uniform(-1, 1, size=(2, 3)), cfg.k_c)
        if not (np.isin(a0, (0.0, 1.0)).all() and np.isin(ac, (0.0, 1.0)).all()):
            ok, detail = False, f"alphabet violated at seed {seed}"
            break
        widths = mu_partition(cfg.d, cfg.mu)
        weights = NfaWeights(
            tuple(Tensor(g.standard_normal((w, k, k)) * 0.3)
                  for w, k in zip(widths, cfg.kernels)),
            tuple(Tensor(g.standard_normal((w, cfg.d))) for w in widths),
            ProjectionSet(Tensor(np.eye(cfg.d)), Tensor(np.eye(cfg.d)), Tensor(np.eye(cfg.d))),
            ProjectionSet(Tensor(np.eye(cfg.d)), Tensor(np.eye(cfg.d)), Tensor(np.eye(cfg.d))),
        )
        m = Tensor(g.standard_normal((cfg.image_size, cfg.image_size, cfg.d)))
        t = Tensor(g.standard_normal((cfg.text_len, cfg.d)))
        branches = prepare_branches(m, cfg.mu, cfg.kernels, weights.conv_kernels)
        hier, _, _ = build_hierarchy(branches, t, cfg, weights)
        if not np.isin(hier.a_prime, lattice).all() or hier.a_prime.max() > 1.0 + 1e-12:
            ok, detail = False, f"lattice violated at seed {seed}"
            break
        try:
            hier.check_structure()
        except Exception as e:  # noqa: BLE001 - report any structural break
            ok, detail = False, f"structure violated at seed {seed}: {e}"
            break
    elapsed = time.perf_counter() - t0
    report(
        "A3 mask-algebra",
        ok and elapsed < 10.0,
        detail or f"100 instances, runtime={elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 4. Efficiency analog


def test_acceptance_4_efficiency_counts(mixed_corpus):
    cfg = DapeConfig()
    rows = bench_densities(cfg, [0, 25, 50, 75, 100], mixed_corpus)
    ratios = [r.ratio for r in rows]
    i1, j1 = cfg.n_img_tokens, cfg.text_len // 4
    fine_at_25 = rows[1].cosines - i1 * j1
    fine_uniform = rows[-1].uniform - i1 * j1
    ok = (
        fine_at_25 <= 0.60 * fine_uniform
        and rows[1].cosines <= 0.60 * rows[1].uniform
        and all(a <= b for a, b in zip(ratios, ratios[1:]))
        and ratios[0] == pytest.approx(1 / 21, abs=0)
        and ratios[-1] == 1.0
    )
    report(
        "A4 efficiency-counts",
        ok,
        f"fine@25%={fine_at_25}/{fine_uniform} ratio25={ratios[1]:.4f} "
        f"endpoints=({ratios[0]:.4f},{ratios[-1]:.1f})",
    )


# ---------------------------------------------------------------------------
# 5. Injection cost bound


def test_acceptance_5_phi_cost_bound(mixed_corpus):
    # exact MAC accounting from traces
    def added_macs(n_layers):
        on = DapeConfig(enable_phi=True, n_layers=n_layers)
        off = DapeConfig(enable_phi=False, n_layers=n_layers)
        model = init_model(on)
        batch = mixed_corpus.batch(range(4))
        _, _, tr_on = forward(model, batch, on)
        _, _, tr_off = forward(model, batch, off)
        return tr_on.counter.total_macs() - tr_off.counter.total_macs()

    k = DapeConfig().phi_period
    one_injection = added_macs(k)
    added = added_macs(2 * k)
    mac_ok = added <= (2 * k // k) * one_injection

    # wall-clock: interleaved rounds, median ratio
    cfg_on, cfg_off = DapeConfig(enable_phi=True), DapeConfig(enable_phi=False)
    m_on, m_off = init_model(cfg_on), init_model(cfg_off)
    batch = mixed_corpus.batch(range(8))
    train_step(m_on, batch, cfg_on)
    train_step(m_off, batch, cfg_off)
    ratios, step_ms = [], {"on": [], "off": []}
    for _ in range(7):
        t0 = time.perf_counter()
        for _ in range(10):
            train_step(m_on, batch, cfg_on)
        t_on = time.perf_counter() - t0
        t0 = time.perf_counter()
        for _ in range(10):
            train_step(m_off, batch, cfg_off)
        t_off = time.perf_counter() - t0
        ratios.append(t_off / t_on)
        step_ms["on"].append(100 * t_on)
        step_ms["off"].append(100 * t_off)
    median = sorted(ratios)[len(ratios) // 2]
    rounds = " ".join(f"{r:.3f}" for r in ratios)
    times = " ".join(f"{k}={sorted(v)[len(v) // 2]:.2f}" for k, v in step_ms.items())
    report(
        "A5 phi-cost-bound",
        mac_ok and median >= 0.8,
        f"added={added} budget={2 * one_injection} steps/sec ratio median={median:.3f} "
        f"rounds=[{rounds}] median step ms: phi {times}",
    )


# ---------------------------------------------------------------------------
# 6. Training sanity


def test_acceptance_6_training_sanity(mixed_corpus):
    from dape.harness import _batches

    cfg = DapeConfig()  # pinned defaults: 200 steps, lr 2e-3, seed 0
    assert cfg.steps == 200 and len(mixed_corpus.train_ids) == 64
    model = init_model(cfg)
    batches = _batches(cfg, mixed_corpus.train_ids)
    losses = []
    for _ in range(cfg.steps):
        loss, _, _ = train_step(model, mixed_corpus.batch(next(batches)), cfg)
        losses.append(loss)
    initial = float(np.mean(losses[:10]))
    final = float(np.mean(losses[-10:]))
    ie, te = embed_corpus(model, mixed_corpus.batch(mixed_corpus.eval_ids), cfg)
    r1 = retrieval_at_k(ie, te)[1]
    ok = final < 0.5 * initial and r1 >= 3.0 * (1 / 16)
    report(
        "A6 training-sanity",
        ok,
        f"loss {initial:.4f}->{final:.4f} (ratio {final / initial:.3f}) "
        f"eval R@1={r1:.3f} vs baseline {1 / 16:.4f}",
    )


# ---------------------------------------------------------------------------
# 7. Ablation structure


def test_acceptance_7_ablation_structure(mixed_corpus, tmp_path, monkeypatch):
    monkeypatch.setenv("DAPE_RUN_DIR", str(tmp_path / "runs"))
    corpus_path = tmp_path / "mixed.dape"
    gen_corpus(20, 7, (1, 1, 1), str(corpus_path), DapeConfig())
    cfg = DapeConfig(steps=8, eval_interval=4, corpus=str(corpus_path))
    rows = cmd_ablate(cfg)
    names = [r.variant for r in rows]
    by = {r.variant: r for r in rows}
    ok = (
        names == ["base", "+CWA", "+NFA", "+PHI", "+DAPE"]
        and by["+NFA"].total_macs > by["base"].total_macs
        and by["+PHI"].fine_macs < by["+NFA"].fine_macs
    )
    report(
        "A7 ablation-structure",
        ok,
        f"rows={names} nfa_macs={by['+NFA'].total_macs} base={by['base'].total_macs} "
        f"fine: phi={by['+PHI'].fine_macs} < nfa={by['+NFA'].fine_macs}",
    )


# ---------------------------------------------------------------------------
# 8. Determinism


def test_acceptance_8_byte_determinism(tmp_path, monkeypatch):
    root = tmp_path / "runs"
    monkeypatch.setenv("DAPE_RUN_DIR", str(root))
    corpus_a = tmp_path / "a.dape"
    corpus_b = tmp_path / "b.dape"
    gen_corpus(8, 21, (1, 1, 1), str(corpus_a), DapeConfig())
    gen_corpus(8, 21, (1, 1, 1), str(corpus_b), DapeConfig())
    gen_same = corpus_a.read_bytes() == corpus_b.read_bytes()

    cfg = DapeConfig(steps=6, eval_interval=3, corpus=str(corpus_a))
    cmd_train(cfg)
    run = root / cfg.hash()
    m1 = (run / "metrics.csv").read_bytes()
    c1 = (run / "checkpoint.dape").read_bytes()
    cmd_train(cfg)
    train_same = (
        (run / "metrics.csv").read_bytes() == m1
        and (run / "checkpoint.dape").read_bytes() == c1
    )

    b1 = cmd_bench(cfg, [0, 50, 100])
    bench1 = (run / "bench.csv").read_bytes()
    cmd_bench(cfg, [0, 50, 100])
    bench_same = (run / "bench.csv").read_bytes() == bench1

    report(
        "A8 determinism",
        gen_same and train_same and bench_same,
        f"gen={gen_same} train={train_same} bench={bench_same}",
    )
