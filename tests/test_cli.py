"""CLI and harness: command surfaces, exit codes, artifact determinism,
fault injection against the check suites."""

import json
import os
from dataclasses import asdict

import numpy as np
import pytest

import oracles
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
        d=16, n_layers=2, grid=(4, 4), j_text=4, text_len=16,
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


@pytest.mark.parametrize("removed", [{"s": 2}, {"p_slots": 0}])
def test_removed_field_is_an_unknown_key_before_a_run_dir(tmp_path, run_root, removed):
    """The first-layer downsample `s` and the slot count `p_slots` are gone:
    a config naming either is a usage error."""
    with pytest.raises(ConfigurationError, match="unknown config keys"):
        DapeConfig.from_dict(removed)
    p = tmp_path / "old.json"
    p.write_text(json.dumps(dict(removed, corpus=str(tmp_path / "none.dape"))))
    assert main(["train", "--config", str(p)]) == 2
    assert not run_root.exists()


def test_cli_bad_config_is_usage_error(tmp_path, run_root, capsys):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"d": -1}))
    assert main(["train", "--config", str(p)]) == 2


# Wrong types and out-of-range values: each must fail in validate, before
# it can divide by zero, index past a tuple or reach init_model.
BAD_FIELDS = [
    {"grid": [4, 0]}, {"j_text": 0}, {"grid": [4]}, {"grid": 4},
    {"kernels": [3.5, 5, 7]}, {"n_layers": 2.5}, {"d": 64.0}, {"d": True},
    {"kernels": [3, 5]}, {"kernels": [3, 5, 9]}, {"image_size": 0},
    {"text_len": 0}, {"enable_cwa": "no"}, {"mu": [float("inf"), 0.5, 0.5]},
    {"cutoff_frac": 1.5}, {"seed": -1}, {"eval_interval": 0}, {"corpus": 3},
    # per-layer fine alignment pools text in quarters, PHI on or off
    {"j_text": 2, "nfa_merge": "pool_add", "enable_phi": False},
    {"j_text": 6, "text_len": 24, "nfa_merge": "pool_add", "enable_phi": False},
]


@pytest.mark.parametrize("over", BAD_FIELDS, ids=lambda o: json.dumps(o))
def test_field_of_wrong_type_or_range_is_a_configuration_error(over):
    with pytest.raises(ConfigurationError, match=next(iter(over))):
        DapeConfig.from_dict(over)


@pytest.mark.parametrize("over", [{"grid": [4, 0]}, {"kernels": [3, 5, 9]}, {"enable_cwa": "no"},
                                  *BAD_FIELDS[-2:]])
def test_cli_bad_field_is_usage_error_before_a_run_dir(tmp_path, run_root, over):
    # a missing corpus would be an I/O error (3): the config is rejected first
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(dict(over, corpus=str(tmp_path / "none.dape"))))
    assert main(["train", "--config", str(p)]) == 2
    assert not run_root.exists()


# One value past each size field's limit, in a config that the range and
# divisibility rules would otherwise accept.
OVER_LIMIT = {
    "d": {"d": 1024},
    "n_layers": {"n_layers": 65},
    "j_text": {"j_text": 512, "text_len": 512},
    "text_len": {"text_len": 1024},
    "image_size": {"image_size": 128},
    "canvas": {"canvas": 2048},
    "L": {"d": 256, "L": 128, "k1": 1},
    "k1": {"d": 512, "L": 4, "k1": 128},
    "phi_period": {"phi_period": 65},
    "detail_pool": {"detail_pool": 16, "image_size": 64},
    "eval_interval": {"eval_interval": 10**6 + 1},
    "batch_size": {"batch_size": 1025},
    "steps": {"steps": 10**6 + 1},
}


def test_every_size_limit_has_an_over_limit_case():
    from dape.config import LIMITS

    assert set(OVER_LIMIT) == set(LIMITS)
    for name, over in OVER_LIMIT.items():
        assert over[name] > LIMITS[name]
        assert all(v <= LIMITS[k] for k, v in over.items() if k != name)


@pytest.mark.parametrize("name", list(OVER_LIMIT))
def test_over_limit_size_is_a_usage_error_before_a_run_dir(tmp_path, run_root, name):
    with pytest.raises(ConfigurationError, match=f"^{name}=.*limit"):
        DapeConfig.from_dict(OVER_LIMIT[name])
    # a missing corpus would be an I/O error (3): the config is rejected first
    p = tmp_path / "big.json"
    p.write_text(json.dumps(dict(OVER_LIMIT[name], corpus=str(tmp_path / "none.dape"))))
    assert main(["train", "--config", str(p)]) == 2
    assert not run_root.exists()


# Each injection halves the carried detail grid. At the defaults (an 8x8
# detail grid) a third injection would have to tile a 2x2 grid by 4.
UNCARRIABLE = [{"n_layers": 12}, {"n_layers": 6, "phi_period": 2}, {"n_layers": 8, "phi_period": 2}]


@pytest.mark.parametrize("over", UNCARRIABLE, ids=lambda o: json.dumps(o))
def test_detail_grid_too_small_for_a_later_injection_is_a_usage_error_before_a_run_dir(
    tmp_path, run_root, over
):
    with pytest.raises(ConfigurationError, match="injections"):
        DapeConfig.from_dict(over)
    base = DapeConfig(steps=1, eval_interval=1, batch_size=2, corpus=str(tmp_path / "c.dape"))
    prepared_corpus(tmp_path, base)
    p = tmp_path / "deep.json"
    p.write_text(json.dumps(dict(asdict(base), **over)))
    assert main(["train", "--config", str(p)]) == 2
    assert not run_root.exists()


def test_two_injections_on_the_default_detail_grid_train(tmp_path, run_root):
    cfg = DapeConfig(n_layers=4, phi_period=2, steps=1, eval_interval=1, batch_size=2,
                     corpus=str(tmp_path / "c.dape"))
    cfg.validate()
    prepared_corpus(tmp_path, cfg)
    assert main(["train", "--config", write_cfg(tmp_path, cfg)]) == 0


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


@pytest.mark.parametrize("mix", ["nan,1,1", "inf,1,1"])
def test_gen_non_finite_density_is_usage_error(tmp_path, run_root, mix):
    out = tmp_path / "sub" / "c.dape"
    assert main(["gen", "--n", "4", "--seed", "9", "--density", mix, "--out", str(out)]) == 2
    assert main(["gen", "--n", "4", "--seed", "9", "--density", mix]) == 2
    assert not (tmp_path / "sub").exists()
    assert not run_root.exists()


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
    def flipped(a, threshold):
        return np.where(np.asarray(a, dtype=np.float64) >= threshold, 1.0, 0.0)

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
        fill = np.count_nonzero(mask, axis=-1) / mask.shape[-1]
        return fill >= tau_d

    monkeypatch.setattr(dape.nfa, "density_flag", flipped)
    report = run_checks("nfa")
    assert not report["passed"]
    failing = [c["name"] for c in report["suites"]["nfa"]["checks"] if not c["ok"]]
    assert "density fill rule" in failing


def test_mutation_transposed_upscale_caught(monkeypatch):
    """Fault: the level composition replicates the transposed levels 1 and 2."""
    def transposed(levels):
        a1, a2, a3 = levels
        a1, a2 = np.swapaxes(a1, -1, -2), np.swapaxes(a2, -1, -2)
        return (np.repeat(np.repeat(a1, 4, axis=-2), 4, axis=-1)
                + np.repeat(np.repeat(a2, 2, axis=-2), 2, axis=-1) + a3)

    monkeypatch.setattr(dape.nfa, "combine_levels", transposed)
    report = run_checks("nfa")
    assert not report["passed"]
    failing = [c["name"] for c in report["suites"]["nfa"]["checks"] if not c["ok"]]
    assert "level composition" in failing


def test_mutation_dropped_shared_conv_gradient_caught(monkeypatch):
    """Fault: the later builds of a shared branch lose their gradient, as
    if the shared backward dropped their link."""
    real, built = dape.tensor.shared, []

    def dropping(key, build):
        ids = tuple(map(id, key))
        if ids in built:
            with dape.tensor.no_recording():
                return build()
        built.append(ids)
        return real(key, build)

    monkeypatch.setattr(dape.tensor, "shared", dropping)
    report = run_checks("tensor-core")
    assert not report["passed"]
    failing = [c["name"] for c in report["suites"]["tensor-core"]["checks"] if not c["ok"]]
    assert failing == ["shared branch backward"]


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


def test_bench_rows_match_the_per_layer_conv_oracle(tmp_path, run_root, monkeypatch):
    """`dape bench` builds the image levels once for all densities, each
    branch convolved once, and writes the rows of the build that convolved
    the map anew for each density."""
    from dape.costs import Trace, cost_scope
    from dape.harness import BenchRow, forced_density_rule
    from dape.model import init_model
    from dape.synth import load_corpus
    from dape.tensor import Tensor

    cfg = tiny_cfg(tmp_path)
    prepared_corpus(tmp_path, cfg)
    densities = [0, 10, 25, 50, 75, 100]
    applied, apply = [], dape.tensor.conv2d_apply

    def counted(conv):
        applied.append(conv.band.shape[0])
        return apply(conv)

    with monkeypatch.context() as mp:
        mp.setattr(dape.tensor, "conv2d_apply", counted)
        rows = cmd_bench(cfg, densities)
    assert applied == list(cfg.kernels)

    corpus, model = load_corpus(cfg.corpus), init_model(cfg)
    img, txt = Tensor(corpus.images[0]), Tensor(corpus.texts[0])
    want_rows = []
    for density in densities:
        trace = Trace()
        with cost_scope(trace.counter, "nfa"):
            oracles.per_layer_hierarchy(
                img, txt, cfg, model.nfa, trace=trace,
                density_rule=forced_density_rule(density / 100),
            )
        cosines, uniform = trace.counter.cosines["nfa"], trace.hierarchy[0].full_cosines
        want_rows.append(BenchRow(density / 100, cosines, uniform, cosines / uniform))
    assert rows == want_rows
    want_csv = "density,cosines,uniform,ratio\n" + "".join(
        f"{r.density:.17g},{r.cosines},{r.uniform},{r.ratio:.17g}\n" for r in want_rows
    )
    assert (run_root / cfg.hash() / "bench.csv").read_bytes() == want_csv.encode()


@pytest.mark.parametrize("value", ["nan", "-5", "250", "inf"])
def test_bench_density_outside_percent_range_is_usage_error(tmp_path, run_root, value):
    cfg = tiny_cfg(tmp_path)
    prepared_corpus(tmp_path, cfg)
    assert run_cmd(tmp_path, cfg, ["bench", "--densities", f"0,{value}"]) == 2
    assert not run_root.exists()


def test_bench_densities_are_percents(tmp_path, run_root):
    cfg = tiny_cfg(tmp_path)
    prepared_corpus(tmp_path, cfg)
    assert run_cmd(tmp_path, cfg, ["bench", "--densities", "1"]) == 0
    csv = (run_root / cfg.hash() / "bench.csv").read_text().splitlines()
    assert float(csv[1].split(",")[0]) == 0.01


def test_cli_end_to_end_train(tmp_path, run_root, capsys):
    cfg = tiny_cfg(tmp_path)
    prepared_corpus(tmp_path, cfg)
    rc = main(["train", "--config", write_cfg(tmp_path, cfg)])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert "final_loss" in out and "steps_per_sec" in out


def test_cli_train_zero_steps_prints_strict_json(tmp_path, run_root, capsys):
    """No step ran, so there is no loss or R@1: they read null, never NaN."""
    def reject(token):
        raise ValueError(f"not JSON: {token}")

    cfg = tiny_cfg(tmp_path, steps=0)
    prepared_corpus(tmp_path, cfg)
    assert main(["train", "--config", write_cfg(tmp_path, cfg)]) == 0
    out = json.loads(capsys.readouterr().out, parse_constant=reject)
    assert out["final_loss"] is None and out["r_at_1"] is None


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


@pytest.mark.parametrize("command", COMMANDS, ids=["train", "ablate", "bench"])
def test_non_finite_corpus_is_io_error(tmp_path, run_root, capsys, command):
    from dape.container import load_tensors, save_tensors

    cfg = tiny_cfg(tmp_path)
    prepared_corpus(tmp_path, cfg, n=12)
    meta, tensors = load_tensors(cfg.corpus)
    tensors["txt/0009"] = tensors["txt/0009"].copy()
    tensors["txt/0009"][3, 1] = np.nan
    save_tensors(cfg.corpus, meta, tensors)
    assert run_cmd(tmp_path, cfg, command) == 3
    assert "txt scene 9" in capsys.readouterr().err
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


# ---------------------------------------------------------------------------
# splits: train and ablate need a scene in each; load_corpus checks the ids


def set_splits(path, **splits):
    from dape.container import load_tensors, save_tensors

    meta, tensors = load_tensors(path)
    save_tensors(path, {**meta, **splits}, tensors)


def bounded(fn, seconds=60):
    """fn(), raising instead of hanging once it runs past `seconds`."""
    import signal

    def on_alarm(*_):
        raise TimeoutError(f"still running after {seconds} s")

    old = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(seconds)
    try:
        return fn()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def test_four_scene_corpus_has_no_eval_split_so_training_is_a_usage_error(tmp_path, run_root):
    cfg = tiny_cfg(tmp_path)
    gen = ["gen", "--n", "4", "--seed", "4", "--density", "1,1,1", "--out", cfg.corpus]
    assert main([*gen, "--config", write_cfg(tmp_path, cfg)]) == 0
    for command in COMMANDS[:2]:
        assert run_cmd(tmp_path, cfg, command) == 2
    assert not run_root.exists()
    assert run_cmd(tmp_path, cfg, COMMANDS[2]) == 0  # bench needs no split


@pytest.mark.parametrize("command", COMMANDS[:2], ids=["train", "ablate"])
def test_corpus_without_train_scenes_is_usage_error(tmp_path, run_root, command):
    cfg = tiny_cfg(tmp_path)
    prepared_corpus(tmp_path, cfg)
    set_splits(cfg.corpus, train_ids=[], eval_ids=list(range(8)))
    assert bounded(lambda: run_cmd(tmp_path, cfg, command)) == 2
    assert not run_root.exists()


BAD_SPLITS = {
    "eval id past n": dict(eval_ids=[999]),
    "negative id": dict(eval_ids=[-1]),
    "id not an int": dict(eval_ids=["1"]),
    "repeated id": dict(eval_ids=[1, 1]),
    "id in both splits": dict(train_ids=[0, 1, 2, 3], eval_ids=[3, 4]),
    "not a list": dict(train_ids=None),
}


@pytest.mark.parametrize("command", COMMANDS, ids=["train", "ablate", "bench"])
@pytest.mark.parametrize("splits", BAD_SPLITS.values(), ids=BAD_SPLITS)
def test_malformed_corpus_splits_are_io_errors(tmp_path, run_root, command, splits):
    cfg = tiny_cfg(tmp_path)
    prepared_corpus(tmp_path, cfg)
    set_splits(cfg.corpus, **splits)
    assert bounded(lambda: run_cmd(tmp_path, cfg, command)) == 3
    assert not run_root.exists()


def test_ablate_with_zero_steps_is_usage_error_before_training(tmp_path, run_root, monkeypatch):
    import dape.harness

    def no_training(*_, **__):
        raise AssertionError("ablate trained a variant")

    monkeypatch.setattr(dape.harness, "train_model", no_training)
    cfg = tiny_cfg(tmp_path, steps=0)
    prepared_corpus(tmp_path, cfg)
    assert run_cmd(tmp_path, cfg, ["ablate"]) == 2
    assert not run_root.exists()
