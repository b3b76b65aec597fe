"""Self-check suites: one per module, runnable via `dape check`.

Each suite re-verifies a handful of invariants and oracle identities on
seeded inputs. Checks call through module attributes (`coarse.binarize`,
not a local alias) so fault injection on the module surface is caught.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import coarse, costs, cwa, model as model_mod, nfa, phi, synth, tensor as T
from .config import DapeConfig
from .errors import DapeError
from .tensor import Tensor


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


def _result(name, ok, detail=""):
    return CheckResult(name, bool(ok), detail if not ok else "")


def _rng(seed=0):
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------


def check_tensor_core() -> list[CheckResult]:
    out = []
    g = _rng(1)
    a, b, c = (g.standard_normal((3, 3)) for _ in range(3))
    left = T.matmul(T.matmul(Tensor(a), Tensor(b)), Tensor(c)).a
    right = T.matmul(Tensor(a), T.matmul(Tensor(b), Tensor(c))).a
    out.append(_result("matmul associativity", np.max(np.abs(left - right)) < 1e-9))
    sm = T.row_softmax(Tensor(g.standard_normal((4, 5)))).a
    out.append(_result("softmax rows sum to one", np.max(np.abs(sm.sum(1) - 1)) < 1e-12))
    u, v = g.standard_normal(6), g.standard_normal(6)
    c1 = T.cosine(Tensor(u), Tensor(v)).item()
    c2 = T.cosine(Tensor(3.0 * u), Tensor(v)).item()
    out.append(_result("cosine scale invariance", abs(c1 - c2) < 1e-12))
    x = g.standard_normal((4, 4, 2))
    ds = T.downsample_avg(Tensor(x), 2).a
    out.append(_result("downsample preserves mean", abs(ds.mean() - x.mean()) < 1e-12))
    hp = T.highpass_fourier(Tensor(g.standard_normal((8, 8))), 0.3).a
    out.append(_result("highpass zero mean", abs(hp.mean()) < 1e-9))
    p = Tensor(g.standard_normal(4))
    err = T.grad_check(lambda: T.tsum(T.mul(p, p)), [p])
    out.append(_result("gradient check quadratic", err < 1e-6, f"err={err:.2e}"))
    return out


def check_coarse_align() -> list[CheckResult]:
    out = []
    g = _rng(2)
    a = g.uniform(-1, 1, size=(4, 3))
    m = coarse.binarize(a, 0.5, 1.0)
    out.append(_result("binary alphabet", m.alphabet == (0.0, 1.0)))
    again = coarse.binarize(m.weights, 0.5, 1.0)
    out.append(_result("binarize idempotent", np.array_equal(m.weights, again.weights)))
    at_thr = coarse.binarize(np.array([[0.5]]), 0.5, 1.0)
    out.append(_result("strict threshold tie rule", at_thr.weights[0, 0] == 0.0))
    imgs = coarse.identity_tokens(Tensor(g.standard_normal((4, 3))), "image")
    txts = coarse.identity_tokens(Tensor(g.standard_normal((2, 3))), "text")
    aff = coarse.affinity(imgs, txts)
    perm = g.permutation(4)
    aff_p = coarse.affinity(
        coarse.identity_tokens(Tensor(imgs.tokens.a[perm]), "image"), txts
    )
    out.append(_result("permutation equivariance", np.max(np.abs(aff[perm] - aff_p)) < 1e-12))
    aff_s = coarse.affinity(
        coarse.identity_tokens(Tensor(2.5 * imgs.tokens.a), "image"), txts
    )
    same = np.array_equal(
        coarse.binarize(aff, 0.3).weights, coarse.binarize(aff_s, 0.3).weights
    )
    out.append(_result("mask scale invariance", same))
    d = 3
    eye = coarse.ProjectionSet(Tensor(np.eye(d)), Tensor(np.eye(d)), Tensor(np.eye(d)))
    mask = coarse.AffinityMask(np.zeros((2, 4)), (0.0, 1.0))
    z = coarse.masked_cross_attention(
        Tensor(g.standard_normal((2, d))), Tensor(g.standard_normal((4, d))),
        mask, (eye, eye),
    )
    out.append(_result("zero mask annihilates", np.array_equal(z.a, np.zeros((2, d)))))
    return out


def check_cwa() -> list[CheckResult]:
    out = []
    g = _rng(3)
    d = 8
    c = Tensor(g.standard_normal((d, 5)))
    zero_gate = cwa.ChannelGate(
        Tensor(np.zeros((d, d))), Tensor(np.zeros(d)),
        Tensor(np.zeros((d, d))), Tensor(np.zeros(d)),
    )
    w = cwa.gate_channels(c, zero_gate).a
    out.append(_result("zero gate uniform", np.max(np.abs(w - 1 / d)) < 1e-12))
    out.append(_result("gate sums to one", abs(w.sum() - 1.0) < 1e-12))
    a = np.array([0.1, 0.9, 0.3, 0.8, 0.2, 0.4, 0.7, 0.6])
    sel = cwa.select_topk_segments_indices(a, 2, 2)
    want = [sorted(np.argsort(-a[:4], kind="stable")[:2].tolist()),
            sorted((4 + np.argsort(-a[4:], kind="stable")[:2]).tolist())]
    out.append(_result("top-k exact selection", sel == want))
    t1 = Tensor(g.standard_normal((3, 4)))
    zero = Tensor(np.zeros((3, 4)))
    out.append(_result("fuse zero identity", np.array_equal(cwa.fuse_text(t1, zero).a, t1.a)))
    t2 = Tensor(g.standard_normal((3, 4)))
    out.append(_result(
        "fuse commutative",
        np.array_equal(cwa.fuse_text(t1, t2).a, cwa.fuse_text(t2, t1).a),
    ))
    return out


def check_nfa() -> list[CheckResult]:
    out = []
    g = _rng(4)
    from .config import mu_partition

    out.append(_result("mu widths 1:2:4 at c=7", mu_partition(7, (1/7, 2/7, 4/7)) == (1, 2, 4)))
    w = np.zeros((3, 4))
    w[0, 0] = 1.0  # fill exactly tau_d: must not flag under strict '>'
    w[1, :2] = 1.0
    w[2, :] = 1.0
    dense = nfa.density_flag(coarse.AffinityMask(w, (0.0, 1.0)), 0.25)
    out.append(_result("density fill rule", list(dense) == [1, 2]))
    m = coarse.AffinityMask(np.array([[0.0, 1/7], [0.0, 0.0]]), (0.0, 1/7))
    up = nfa.upscale_mask(m, (4, 4)).weights
    ok = all(up[i, j] == m.weights[i // 2, j // 2] for i in range(4) for j in range(4))
    out.append(_result("upscale block replication", ok))
    cfg = DapeConfig(
        d=8, s=2, grid=(2, 2), j_text=4, text_len=16, image_size=8, L=2, k1=2,
        enable_phi=False, k_thr=0.1,
    )
    widths = mu_partition(8, cfg.mu)
    weights = nfa.NfaWeights(
        tuple(Tensor(g.standard_normal((wd, k, k)) * 0.3) for wd, k in zip(widths, cfg.kernels)),
        tuple(Tensor(g.standard_normal((wd, 8))) for wd in widths),
        coarse.ProjectionSet(Tensor(np.eye(8)), Tensor(np.eye(8)), Tensor(np.eye(8))),
        coarse.ProjectionSet(Tensor(np.eye(8)), Tensor(np.eye(8)), Tensor(np.eye(8))),
    )
    mmap = Tensor(g.standard_normal((8, 8, 8)))
    ttok = coarse.tokenize_text(Tensor(g.standard_normal((16, 8))), 4)
    trace = costs.Trace()
    hier, _, _ = nfa.build_hierarchy(mmap, ttok, cfg, weights, trace=trace)
    lattice = nfa.mask_lattice(*cfg.mu)
    out.append(_result("mu lattice membership", bool(np.isin(hier.a_prime, lattice).all())))
    out.append(_result("mask max at most one", hier.a_prime.max() <= 1.0 + 1e-12))
    try:
        hier.check_structure()
        out.append(_result("hierarchy consistency", True))
    except DapeError as e:
        out.append(_result("hierarchy consistency", False, str(e)))
    hc = trace.hierarchy[0]
    out.append(_result("cost dominance", hc.cosines <= hc.full_cosines))
    return out


def check_phi() -> list[CheckResult]:
    out = []
    g = _rng(5)
    d = 8
    eye = coarse.ProjectionSet(Tensor(np.eye(d)), Tensor(np.eye(d)), Tensor(np.eye(d)))
    slot_tokens = Tensor(g.standard_normal((2, d)))
    _, _, _, padded, _, slots = coarse.coarse_align_block(
        Tensor(g.standard_normal((4, 4, d))), Tensor(g.standard_normal((2, d))),
        eye, eye, DapeConfig(d=d, s=1, grid=(2, 2), j_text=2), pad_tokens=slot_tokens,
    )
    out.append(_result("pad appends slots", padded.n == 6 and list(slots) == [4, 5]))
    back = phi.extract_slots(padded.tokens, slots)
    out.append(_result("pad/extract round trip", np.array_equal(back.a, slot_tokens.a)))
    const = Tensor(np.full((8, 8, 3), 2.0))
    tokens, grid, first = phi.make_detail_tokens(const, Tensor(g.standard_normal((3, d))), 0.25)
    out.append(_result("constant map yields zero detail", np.max(np.abs(tokens.a)) < 1e-9))
    carried = Tensor(g.standard_normal((16, d)))
    state = phi.DetailState(carried, (4, 4), 1)
    t2, g2, f2 = phi.make_detail_tokens(state, Tensor(np.zeros((3, d))), 0.25)
    out.append(_result("carried tokens pass through", t2 is carried and not f2))
    return out


def check_model_stack() -> list[CheckResult]:
    out = []
    cfg = DapeConfig(
        d=8, n_layers=2, s=2, grid=(2, 2), j_text=4, text_len=16, image_size=8,
        L=2, k1=2, phi_period=2, detail_pool=1, seed=2,
    )
    m = model_mod.init_model(cfg)
    m2 = model_mod.init_model(cfg)
    same = all(np.array_equal(a.a, b.a) for (_, a), (_, b) in zip(m.params(), m2.params()))
    out.append(_result("init bit-reproducible", same))
    g = _rng(6)
    batch = model_mod.Batch(
        g.standard_normal((2, 8, 8, 8)), g.standard_normal((2, 16, 8)), np.arange(2)
    )
    ie, te, trace = model_mod.forward(m, batch, cfg)
    out.append(_result(
        "unit-norm embeddings",
        np.max(np.abs(np.linalg.norm(ie.a, axis=1) - 1.0)) < 1e-10,
    ))
    out.append(_result("injection count", trace.injections == 2))
    ie2, _, _ = model_mod.forward(m, batch, cfg)
    out.append(_result("forward deterministic", np.array_equal(ie.a, ie2.a)))
    loss = model_mod.contrastive_loss(ie, te, m.temperature).item()
    perm_loss = model_mod.contrastive_loss(
        Tensor(ie.a[::-1].copy()), Tensor(te.a[::-1].copy()), m.temperature
    ).item()
    out.append(_result("loss permutation invariant", abs(loss - perm_loss) < 1e-12))
    return out


def check_harness() -> list[CheckResult]:
    out = []
    import tempfile
    from pathlib import Path

    cfg = DapeConfig()
    with tempfile.TemporaryDirectory() as td:
        p1 = Path(td) / "a.dape"
        p2 = Path(td) / "b.dape"
        synth.gen_corpus(4, 13, (1, 0, 0), str(p1), cfg)
        synth.gen_corpus(4, 13, (1, 0, 0), str(p2), cfg)
        out.append(_result("corpus byte determinism", p1.read_bytes() == p2.read_bytes()))
        corpus = synth.load_corpus(str(p1))
        n_shapes = [c.count(" a ") + 1 for c in corpus.meta["captions"]]
        out.append(_result("sparse density one shape", all(n == 1 for n in n_shapes)))
        words = [len(c.split()) for c in corpus.meta["captions"]]
        ok = all(w == 3 + 4 * (n - 1) for w, n in zip(words, n_shapes))
        out.append(_result("caption grammar word count", ok))
    train_ids, eval_ids = synth.split_ids(80, 7)
    out.append(_result("80/20 split exact", len(eval_ids) == 16 and len(train_ids) == 64))
    return out


SUITES = {
    "tensor-core": check_tensor_core,
    "coarse-align": check_coarse_align,
    "cwa": check_cwa,
    "nfa": check_nfa,
    "phi": check_phi,
    "model-stack": check_model_stack,
    "harness-cli": check_harness,
}


def run_checks(suite: str | None = None) -> dict:
    """Run the invariant suites; returns a JSON-ready report."""
    names = [suite] if suite else list(SUITES)
    if suite and suite not in SUITES:
        raise KeyError(f"unknown suite {suite!r}; have {sorted(SUITES)}")
    report = {"suites": {}, "passed": True}
    for name in names:
        t0 = time.perf_counter()
        try:
            results = SUITES[name]()
        except DapeError as e:
            results = [CheckResult("suite crashed", False, str(e))]
        ms = (time.perf_counter() - t0) * 1e3
        ok = all(r.ok for r in results)
        report["suites"][name] = {
            "passed": ok,
            "ms": round(ms, 2),
            "checks": [
                {"name": r.name, "ok": r.ok, **({"detail": r.detail} if r.detail else {})}
                for r in results
            ],
        }
        report["passed"] = report["passed"] and ok
    return report
