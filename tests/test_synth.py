"""Corpus generation: determinism, grammar, split, container format."""

import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dape.config import DapeConfig
from dape.container import MAGIC, load_tensors, save_tensors
from dape.errors import ConfigurationError, FileFormatError
from dape.synth import (
    DENSITY_SHAPES,
    Featurizer,
    PALETTE,
    SyntheticScene,
    SceneShape,
    gen_corpus,
    generate_scene,
    load_corpus,
    render_scene,
    split_ids,
)


def test_gen_corpus_byte_deterministic(tmp_path):
    cfg = DapeConfig()
    a, b = tmp_path / "a.dape", tmp_path / "b.dape"
    gen_corpus(4, 42, (1, 1, 1), str(a), cfg)
    gen_corpus(4, 42, (1, 1, 1), str(b), cfg)
    assert a.read_bytes() == b.read_bytes()


def test_sparse_mix_gives_single_shape_scenes(tmp_path):
    p = tmp_path / "c.dape"
    meta = gen_corpus(8, 3, (1, 0, 0), str(p), DapeConfig())
    assert all(d == "sparse" for d in meta["densities"])
    for caption in meta["captions"]:
        assert len(caption.split()) == 3  # "a <color> <kind>"


def test_caption_word_count_matches_grammar_oracle():
    for n_shapes in (1, 2, 3, 6):
        scene = SyntheticScene(
            64,
            [SceneShape("circle", "red", "small", (0, i)) for i in range(n_shapes)],
            "mixed",
        )
        words = scene.caption.split()
        assert len(words) == 3 + 4 * (n_shapes - 1)
        # every shape mentioned exactly once
        assert words.count("circle") == n_shapes


def test_density_class_shape_counts():
    rng = np.random.default_rng(0)
    for density, count in DENSITY_SHAPES.items():
        scene = generate_scene(rng, density, 64)
        assert len(scene.shapes) == count
        cells = {s.cell for s in scene.shapes}
        assert len(cells) == count  # distinct placement cells


def test_render_deterministic_and_one_hot():
    rng = np.random.default_rng(1)
    scene = generate_scene(rng, "dense", 64)
    a, b = render_scene(scene), render_scene(scene)
    assert np.array_equal(a, b)
    assert a.shape == (64, 64, len(PALETTE))
    assert set(np.unique(a)) <= {0.0, 1.0}
    assert np.all(a.sum(axis=2) <= 1.0)  # at most one color plane per pixel


def test_split_is_exact_eighty_twenty_and_stable():
    t1, e1 = split_ids(80, 7)
    t2, e2 = split_ids(80, 7)
    assert (t1, e1) == (t2, e2)
    assert len(e1) == 16 and len(t1) == 64
    assert sorted(t1 + e1) == list(range(80))
    _, e_other = split_ids(80, 8)
    assert e_other != e1  # seed moves the split


def test_featurizer_word_vectors_separate_colors():
    cfg = DapeConfig()
    feat = Featurizer(cfg)
    reds = feat.words["red"]
    blues = feat.words["blue"]
    assert abs(np.linalg.norm(reds) - 1.0) < 1e-12
    assert abs(float(reds @ blues)) < 0.5  # distinct palette directions
    assert np.array_equal(feat.words["a"], np.zeros(cfg.d))


def test_featurizer_rejects_unknown_word():
    feat = Featurizer(DapeConfig())
    with pytest.raises(ConfigurationError):
        feat.featurize_text("a crimson dodecahedron")


def test_matching_scene_gets_high_affinity(tmp_path):
    """The fixed featurizers stand in for aligned encoders: a scene's own
    caption must produce above-threshold cosine somewhere."""
    cfg = DapeConfig()
    p = tmp_path / "d.dape"
    gen_corpus(8, 11, (1, 1, 1), str(p), cfg)
    corpus = load_corpus(str(p))
    for i in range(8):
        img = corpus.images[i].reshape(-1, cfg.d)
        txt = corpus.texts[i]
        ni = np.linalg.norm(img, axis=1, keepdims=True)
        nt = np.linalg.norm(txt, axis=1, keepdims=True)
        sims = (img / np.where(ni == 0, 1, ni)) @ (txt / np.where(nt == 0, 1, nt)).T
        assert sims.max() > cfg.k0


def test_corpus_too_small_rejected(tmp_path):
    with pytest.raises(ConfigurationError):
        gen_corpus(3, 0, (1, 1, 1), str(tmp_path / "x.dape"), DapeConfig())


def test_bad_density_mix_rejected(tmp_path):
    with pytest.raises(ConfigurationError):
        gen_corpus(4, 0, (0, 0, 0), str(tmp_path / "x.dape"), DapeConfig())


# ---------------------------------------------------------------------------
# container


def test_container_round_trip(tmp_path):
    p = tmp_path / "t.dape"
    g = np.random.default_rng(5)
    tensors = {"a/b": g.standard_normal((3, 4)), "c": g.standard_normal(7)}
    save_tensors(p, {"kind": "test", "note": "x"}, tensors)
    meta, loaded = load_tensors(p)
    assert meta["note"] == "x"
    for k, v in tensors.items():
        assert np.array_equal(loaded[k], v)


def test_container_rejects_garbage(tmp_path):
    p = tmp_path / "bad.dape"
    p.write_bytes(b"not a container")
    with pytest.raises(FileFormatError):
        load_tensors(p)
    with pytest.raises(FileFormatError):
        load_tensors(tmp_path / "missing.dape")


def test_corpus_loader_rejects_checkpoint(tmp_path):
    p = tmp_path / "ck.dape"
    save_tensors(p, {"kind": "checkpoint"}, {"w": np.zeros(2)})
    with pytest.raises(FileFormatError):
        load_corpus(str(p))


# ---------------------------------------------------------------------------
# malformed containers: every defect is a FileFormatError


def write_raw(path, header, payload=b"", length=None):
    body = json.dumps(header).encode()
    n = len(body) if length is None else length
    path.write_bytes(MAGIC + struct.pack("<Q", n) + body + payload)


@pytest.mark.parametrize("tail", [b"", b"\x01\x02\x03"])
def test_container_ending_inside_header_length_rejected(tmp_path, tail):
    p = tmp_path / "short.dape"
    p.write_bytes(MAGIC + tail)
    with pytest.raises(FileFormatError, match="header length"):
        load_tensors(p)


def test_container_header_length_past_eof_rejected(tmp_path):
    p = tmp_path / "long.dape"
    header = {"meta": {}, "manifest": []}
    write_raw(p, header, length=len(json.dumps(header)) + 100)
    with pytest.raises(FileFormatError, match="past the end"):
        load_tensors(p)


@pytest.mark.parametrize("missing", ["meta", "manifest"])
def test_container_header_missing_section_rejected(tmp_path, missing):
    p = tmp_path / "nohead.dape"
    header = {"meta": {"kind": "test"}, "manifest": []}
    del header[missing]
    write_raw(p, header)
    with pytest.raises(FileFormatError, match="meta object and a manifest"):
        load_tensors(p)


def test_container_truncated_payload_rejected(tmp_path):
    p = tmp_path / "t.dape"
    save_tensors(p, {"kind": "test"}, {"a": np.ones((3, 4)), "b": np.ones(5)})
    p.write_bytes(p.read_bytes()[:-8])
    with pytest.raises(FileFormatError, match="'b'.*payload"):
        load_tensors(p)


def test_container_offset_past_payload_rejected(tmp_path):
    p = tmp_path / "t.dape"
    write_raw(p, {"meta": {}, "manifest": [{"name": "a", "shape": [2], "offset": 8}]},
              payload=bytes(16))
    with pytest.raises(FileFormatError, match="'a'.*payload"):
        load_tensors(p)


@pytest.mark.parametrize("entry", ["img/0001", "txt/0003"])
def test_corpus_missing_entry_rejected(tmp_path, entry):
    p = tmp_path / "c.dape"
    gen_corpus(4, 2, (1, 0, 0), str(p), DapeConfig())
    meta, tensors = load_tensors(p)
    del tensors[entry]
    save_tensors(p, meta, tensors)
    with pytest.raises(FileFormatError, match=entry):
        load_corpus(str(p))


@pytest.mark.parametrize("defect", ["no scene count", "entry shapes differ"])
def test_corpus_bad_meta_or_entry_shape_rejected(tmp_path, defect):
    p = tmp_path / "c.dape"
    gen_corpus(4, 2, (1, 0, 0), str(p), DapeConfig())
    meta, tensors = load_tensors(p)
    if defect == "no scene count":
        del meta["n"]
    else:
        tensors["img/0002"] = tensors["img/0002"][:-1]
    save_tensors(p, meta, tensors)
    with pytest.raises(FileFormatError):
        load_corpus(str(p))


@pytest.fixture(scope="module")
def saved_container(tmp_path_factory):
    """Bytes of a saved container, and a path to write cut copies to."""
    d = tmp_path_factory.mktemp("prefix")
    g = np.random.default_rng(6)
    save_tensors(
        d / "full.dape", {"kind": "test", "note": "prefix"},
        {"s": np.float64(2.5), "m": g.standard_normal((3, 4)), "v": g.standard_normal(5)},
    )
    return (d / "full.dape").read_bytes(), d / "cut.dape"


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_any_strict_prefix_is_a_file_format_error(saved_container, data):
    full, p = saved_container
    p.write_bytes(full[: data.draw(st.integers(0, len(full) - 1))])
    with pytest.raises(FileFormatError):
        load_tensors(p)
