"""CLI and harness: command surfaces, exit codes, artifact determinism,
fault injection against the check suites."""

import json
import os
from dataclasses import asdict

import numpy as np
import pytest

import dape.coarse
import dape.cwa
import dape.nfa
import dape.tensor
from dape.check import run_checks
from dape.cli import main
from dape.config import DapeConfig
from dape.errors import ConfigurationError
from dape.harness import bench_densities, cmd_ablate, cmd_bench, cmd_train


@pytest.fixture
def run_root(tmp_path, monkeypatch):
    root = tmp_path / "runs"
    monkeypatch.setenv("DAPE_RUN_DIR", str(root))
    return root


def tiny_cfg(tmp_path, **over):
    base = dict(
        d=16, n_layers=2, s=2, grid=(4, 4), j_text=4, text_len=16,
        image_size=16, L=4, k1=2, phi_period=2, detail_pool=2,
        steps=4, eval_interval=2, batch_size=4, seed=1,
        corpus=str(tmp_path / "corpus.dape"),
    )
    base.update(over)
    cfg = DapeConfig(**base)
    cfg.validate()
    return cfg


def write_cfg(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(asdict(cfg)))
    return str(p)


# ---------------------------------------------------------------------------
# config file handling


def test_pinned_default_hyperparameters():
    cfg = DapeConfig()
    assert cfg.k0 == 0.5
    assert cfg.k_c == 0.5
    assert (cfg.L, cfg.k1) == (8, 4)
    assert cfg.mu == (1 / 7, 2 / 7, 4 / 7)
    assert cfg.k_thr == 0.6
    assert cfg.phi_period == 4
    assert cfg.temperature_init == 0.07
    assert cfg.slot_count == -(-cfg.n_img_tokens // 4)


def test_unknown_config_key_rejected(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"d": 16, "learnig_rate": 0.1}))
    with pytest.raises(ConfigurationError, match="learnig_rate"):
        DapeConfig.from_file(str(p))


def test_cli_bad_config_is_usage_error(tmp_path, run_root, capsys):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"d": -1}))
    assert main(["train", "--config", str(p)]) == 2


def test_cli_missing_corpus_is_io_error(tmp_path, run_root):
    cfg = tiny_cfg(tmp_path, corpus=str(tmp_path / "nope.dape"))
    assert main(["train", "--config", write_cfg(tmp_path, cfg)]) == 3
    assert not run_root.exists()


# ---------------------------------------------------------------------------
# gen


def test_gen_writes_deterministic_corpus(tmp_path, run_root, capsys):
    rc = main(["gen", "--n", "4", "--seed", "9", "--density", "1,0,0",
               "--out", str(tmp_path / "c1.dape")])
    assert rc == 0
    rc = main(["gen", "--n", "4", "--seed", "9", "--density", "1,0,0",
               "--out", str(tmp_path / "c2.dape")])
    assert rc == 0
    assert (tmp_path / "c1.dape").read_bytes() == (tmp_path / "c2.dape").read_bytes()


# ---------------------------------------------------------------------------
# check + mutation testing


def test_check_passes_on_clean_build():
    report = run_checks()
    assert report["passed"]
    assert len(report["suites"]) >= 7  # one per module


def test_check_cli_json_report(tmp_path, run_root, capsys):
    out = tmp_path / "report.json"
    assert main(["check", "--suite", "tensor-core", "--json", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["suites"]["tensor-core"]["passed"]


def test_check_unknown_suite_is_usage_error(run_root):
    assert main(["check", "--suite", "nope"]) == 2


def test_mutation_flipped_binarize_comparison_caught(monkeypatch):
    """Fault: '>' becomes '>=' in the threshold rule."""
    real = dape.coarse.binarize

    def flipped(a, threshold, hi=1.0, level="coarse"):
        a = np.asarray(a, dtype=np.float64)
        weights = np.where(a >= threshold, hi, 0.0)
        return dape.coarse.AffinityMask(weights, (0.0, hi), level)

    monkeypatch.setattr(dape.coarse, "binarize", flipped)
    report = run_checks("coarse-align")
    assert not report["passed"]
    failing = [
        c["name"] for c in report["suites"]["coarse-align"]["checks"] if not c["ok"]
    ]
    assert "strict threshold tie rule" in failing


def test_mutation_noncommutative_fuse_caught(monkeypatch):
    """Fault: the fusion doubles its second operand."""
    def lopsided(t1, t2):
        return dape.tensor.add(t1, dape.tensor.scale(t2, 2.0))

    monkeypatch.setattr(dape.cwa, "fuse_text", lopsided)
    report = run_checks("cwa")
    assert not report["passed"]
    failing = [c["name"] for c in report["suites"]["cwa"]["checks"] if not c["ok"]]
    assert "fuse commutative" in failing


def test_mutation_flipped_density_rule_caught(monkeypatch):
    """Fault: dense iff fill >= tau_d instead of strictly greater."""
    def flipped(mask, tau_d):
        fill = np.count_nonzero(mask.weights, axis=1) / mask.weights.shape[1]
        return np.flatnonzero(fill >= tau_d)

    monkeypatch.setattr(dape.nfa, "density_flag", flipped)
    report = run_checks("nfa")
    assert not report["passed"]
    failing = [c["name"] for c in report["suites"]["nfa"]["checks"] if not c["ok"]]
    assert "density fill rule" in failing


def test_mutation_transposed_upscale_caught(monkeypatch):
    """Fault: the upscale replicates the transposed source."""
    real_mask = dape.coarse.AffinityMask

    def transposed(mask, target):
        rows, cols = mask.shape
        tr, tc = target
        w = np.repeat(np.repeat(mask.weights.T, tr // cols, axis=0), tc // rows, axis=1)
        return real_mask._unchecked(w, mask.alphabet, mask.level)

    monkeypatch.setattr(dape.nfa, "upscale_mask", transposed)
    report = run_checks("nfa")
    assert not report["passed"]
    # caught either by the replication spot check or, earlier, by the
    # structural validator inside the hierarchy build
    failing = [c for c in report["suites"]["nfa"]["checks"] if not c["ok"]]
    assert any(
        c["name"] == "upscale block replication"
        or "dense level-1 row" in c.get("detail", "")
        for c in failing
    )


# ---------------------------------------------------------------------------
# train / ablate / bench artifacts


def prepared_corpus(tmp_path, cfg, n=8, seed=4):
    from dape.synth import gen_corpus

    gen_corpus(n, seed, (1, 1, 1), cfg.corpus, cfg)


def test_train_writes_byte_stable_artifacts(tmp_path, run_root):
    cfg = tiny_cfg(tmp_path)
    prepared_corpus(tmp_path, cfg)
    s1 = cmd_train(cfg)
    metrics1 = (run_root / cfg.hash() / "metrics.csv").read_bytes()
    ckpt1 = (run_root / cfg.hash() / "checkpoint.dape").read_bytes()
    s2 = cmd_train(cfg)
    assert (run_root / cfg.hash() / "metrics.csv").read_bytes() == metrics1
    assert (run_root / cfg.hash() / "checkpoint.dape").read_bytes() == ckpt1
    assert s1["final_loss"] == s2["final_loss"]


def test_train_steps_zero_checkpoint_equals_init(tmp_path, run_root):
    cfg = tiny_cfg(tmp_path, steps=0)
    prepared_corpus(tmp_path, cfg)
    cmd_train(cfg)
    from dape.model import init_model, load_checkpoint

    _, loaded = load_checkpoint(str(run_root / cfg.hash() / "checkpoint.dape"))
    fresh = init_model(cfg)
    for (_, a), (_, b) in zip(loaded.params(), fresh.params()):
        assert np.array_equal(a.a, b.a)


def test_ablate_has_five_variant_rows(tmp_path, run_root):
    cfg = tiny_cfg(tmp_path, steps=2, eval_interval=1)
    prepared_corpus(tmp_path, cfg)
    rows = cmd_ablate(cfg)
    assert [r.variant for r in rows] == ["base", "+CWA", "+NFA", "+PHI", "+DAPE"]
    csv = (run_root / cfg.hash() / "ablation.csv").read_text().splitlines()
    assert len(csv) == 6  # header + 5 variants
    by_name = {r.variant: r for r in rows}
    assert by_name["+NFA"].total_macs > by_name["base"].total_macs
    assert by_name["+PHI"].fine_macs < by_name["+NFA"].fine_macs


def test_ablate_base_row_matches_plain_train(tmp_path, run_root):
    """The base variant is exactly a training run with every toggle off."""
    from dape.harness import train_model
    from dape.synth import load_corpus

    cfg = tiny_cfg(tmp_path, steps=3, eval_interval=1)
    prepared_corpus(tmp_path, cfg)
    rows = cmd_ablate(cfg)
    base = rows[0]
    off = tiny_cfg(
        tmp_path, steps=3, eval_interval=1,
        enable_cwa=False, enable_nfa=False, enable_phi=False,
    )
    _, metrics, _, trace = train_model(off, load_corpus(cfg.corpus))
    assert base.r_at_1 == metrics[-1].r_at_1
    assert base.r_at_5 == metrics[-1].r_at_5
    assert base.total_macs == trace.counter.total_macs()


def test_bench_endpoints_and_monotonicity(tmp_path, run_root):
    cfg = tiny_cfg(tmp_path)
    prepared_corpus(tmp_path, cfg)
    rows = cmd_bench(cfg, [0, 25, 50, 75, 100])
    ratios = [r.ratio for r in rows]
    assert ratios[0] == pytest.approx(1 / 21, abs=1e-12)  # level-1-only floor
    assert ratios[-1] == 1.0
    assert all(a <= b for a, b in zip(ratios, ratios[1:]))
    csv = (run_root / cfg.hash() / "bench.csv").read_text()
    assert csv.count("\n") == 6


def test_bench_counts_match_closed_form(tmp_path, run_root):
    cfg = tiny_cfg(tmp_path)
    prepared_corpus(tmp_path, cfg)
    i1 = cfg.n_img_tokens
    j1 = cfg.text_len // 4
    for row in bench_densities(cfg, [0, 25, 50, 100]):
        d1 = int(np.ceil(row.density * i1))
        d2 = int(np.ceil(row.density * 2 * d1))
        want = i1 * j1 + 2 * d1 * 2 * j1 + 2 * d2 * 4 * j1
        assert row.cosines == want
        assert row.uniform == 21 * i1 * j1


def test_cli_end_to_end_train(tmp_path, run_root, capsys):
    cfg = tiny_cfg(tmp_path)
    prepared_corpus(tmp_path, cfg)
    rc = main(["train", "--config", write_cfg(tmp_path, cfg)])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert "final_loss" in out and "steps_per_sec" in out


# ---------------------------------------------------------------------------
# corpus gate: one check for train, ablate and bench, before any run dir

COMMANDS = [["train"], ["ablate"], ["bench", "--densities", "0,100"]]


def run_cmd(tmp_path, cfg, command):
    return main([command[0], "--config", write_cfg(tmp_path, cfg), *command[1:]])


def test_train_on_truncated_corpus_is_io_error(tmp_path, run_root, capsys):
    cfg = tiny_cfg(tmp_path)
    prepared_corpus(tmp_path, cfg)
    path = tmp_path / "corpus.dape"
    path.write_bytes(path.read_bytes()[:-100])
    assert run_cmd(tmp_path, cfg, ["train"]) == 3
    assert "payload" in capsys.readouterr().err
    assert not run_root.exists()


@pytest.mark.parametrize("command", COMMANDS[:2], ids=["train", "ablate"])
def test_empty_corpus_path_is_usage_error(tmp_path, run_root, command):
    assert run_cmd(tmp_path, tiny_cfg(tmp_path, corpus=""), command) == 2
    assert not run_root.exists()


def test_bench_without_corpus_generates_its_own(tmp_path, run_root, capsys):
    assert run_cmd(tmp_path, tiny_cfg(tmp_path, corpus=""), COMMANDS[2]) == 0


@pytest.mark.parametrize("command", COMMANDS[1:], ids=["ablate", "bench"])
def test_missing_corpus_is_io_error(tmp_path, run_root, command):
    cfg = tiny_cfg(tmp_path, corpus=str(tmp_path / "nope.dape"))
    assert run_cmd(tmp_path, cfg, command) == 3
    assert not run_root.exists()


@pytest.mark.parametrize("command", COMMANDS, ids=["train", "ablate", "bench"])
@pytest.mark.parametrize("key,value", [("d", 32), ("image_size", 32), ("text_len", 32)])
def test_corpus_geometry_mismatch_is_usage_error(tmp_path, run_root, capsys, command, key, value):
    cfg = tiny_cfg(tmp_path)
    prepared_corpus(tmp_path, tiny_cfg(tmp_path, **{key: value}))
    assert run_cmd(tmp_path, cfg, command) == 2
    assert f"{key}={value}" in capsys.readouterr().err
    assert not run_root.exists()
