"""Corpus generation: determinism, grammar, split, container format."""

import hashlib
import json
import struct
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from dape.config import DapeConfig
from dape.container import MAGIC, load_tensors, save_tensors
from dape.errors import ConfigurationError, FileFormatError
from dape.model import init_model, load_checkpoint, save_checkpoint
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
    _shape_mask,
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


@pytest.mark.parametrize(
    "records, payload, match",
    [
        # b starts inside a
        ([("a", 2, 0), ("b", 2, 8)], 24, "'b'.*overlaps"),
        # both claim the same bytes
        ([("a", 1, 0), ("b", 1, 0)], 8, "overlaps"),
        # bytes 8..16 belong to no tensor
        ([("a", 1, 0), ("b", 1, 16)], 24, "'b'.*gap after byte 8"),
        # the first tensor does not start the payload
        ([("a", 1, 8)], 16, "'a'.*gap after byte 0"),
        ([("a", 1, 0)], 16, "8 payload bytes after the last tensor"),
    ],
)
def test_container_extents_must_tile_the_payload(tmp_path, records, payload, match):
    p = tmp_path / "t.dape"
    manifest = [{"name": n, "shape": [k], "offset": off} for n, k, off in records]
    write_raw(p, {"meta": {}, "manifest": manifest}, payload=bytes(payload))
    with pytest.raises(FileFormatError, match=match):
        load_tensors(p)


def test_saved_extents_are_back_to_back(tmp_path):
    p = tmp_path / "t.dape"
    tensors = {"z": np.ones((2, 3)), "a": np.ones(4), "m": np.float64(1.0), "e": np.ones((0, 2))}
    save_tensors(p, {"kind": "test"}, tensors)
    raw = p.read_bytes()
    n = struct.unpack("<Q", raw[len(MAGIC) : len(MAGIC) + 8])[0]
    manifest = json.loads(raw[len(MAGIC) + 8 : len(MAGIC) + 8 + n])["manifest"]
    end = 0
    for rec in sorted(manifest, key=lambda r: r["offset"]):
        assert rec["offset"] == end
        end += 8 * int(np.prod(rec["shape"]))
    assert end == len(raw) - len(MAGIC) - 8 - n
    assert set(load_tensors(p)[1]) == set(tensors)


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


@pytest.fixture(scope="module")
def saved_files(saved_container, tmp_path_factory):
    """Bytes of a saved container and of a default-config checkpoint."""
    p = tmp_path_factory.mktemp("ckpt") / "ckpt.dape"
    cfg = DapeConfig()
    save_checkpoint(str(p), cfg, init_model(cfg))
    return {"container": saved_container[0], "checkpoint": p.read_bytes()}


@pytest.mark.parametrize("kind", ["container", "checkpoint"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_any_header_bit_flip_loads_or_is_a_file_format_error(
    saved_files, tmp_path_factory, kind, data
):
    """One flipped bit in the magic, the header length or the JSON header
    either still parses to a valid file or is reported as corrupt; no other
    exception (a config that fails validation included) escapes."""
    raw = bytearray(saved_files[kind])
    n = struct.unpack("<Q", raw[len(MAGIC) : len(MAGIC) + 8])[0]
    pos = data.draw(st.integers(0, len(MAGIC) + 8 + n - 1), label="byte")
    raw[pos] ^= 1 << data.draw(st.integers(0, 7), label="bit")
    p = tmp_path_factory.getbasetemp() / f"flipped-{kind}.dape"
    p.write_bytes(raw)
    try:
        (load_tensors if kind == "container" else load_checkpoint)(str(p))
    except FileFormatError:
        pass


def test_checkpoint_with_invalid_config_is_a_file_format_error(tmp_path):
    cfg = DapeConfig()
    meta = {"kind": "checkpoint", "config": dict(asdict(cfg), grid=[4, 0])}
    save_tensors(tmp_path / "ck.dape", meta, {n: t.a for n, t in init_model(cfg).params()})
    with pytest.raises(FileFormatError, match="invalid config.*grid"):
        load_checkpoint(str(tmp_path / "ck.dape"))


# ---------------------------------------------------------------------------
# pinned bytes and memory: one payload copy at a time


def test_save_writes_the_blob_writers_bytes(tmp_path):
    g = np.random.default_rng(9)
    tensors = {
        "scalar": np.float64(-0.5),                  # 0-d, saved with shape [1]
        "empty": np.ones((0, 3)),
        "mat": g.standard_normal((4, 5)),
        "fortran": np.asfortranarray(g.standard_normal((3, 2))),
        "strided": g.standard_normal((6, 4))[::2, 1:],
        "f32": g.standard_normal(7).astype(np.float32),
        "ints": np.arange(5),
        "big": g.standard_normal((2, 3)).astype(">f8"),
    }
    meta = {"kind": "test", "note": "bytes"}
    want, got = tmp_path / "blobs.dape", tmp_path / "direct.dape"
    oracles.save_tensors_blobs(want, meta, tensors)
    save_tensors(got, meta, tensors)
    assert got.read_bytes() == want.read_bytes()
    _, loaded = load_tensors(want)  # a file the blob writer wrote still loads
    for name, arr in tensors.items():
        assert np.array_equal(loaded[name], np.atleast_1d(arr))


@pytest.mark.parametrize(
    "mix, digest",
    [
        ((1, 1, 1), "23b2873c978bd9fdab9762b8bb76df11c2f727cef3c5021c586f79ed4e31d3a9"),
        ((0, 0, 1), "96dde6173b29a24e0135deeb413db636182e1641487332f55e5a0c41e299ba75"),
    ],
)
def test_gen_corpus_bytes_are_pinned(tmp_path, mix, digest):
    p = tmp_path / "c.dape"
    gen_corpus(80, 7, mix, str(p), DapeConfig())
    assert hashlib.sha256(p.read_bytes()).hexdigest() == digest


def test_load_returns_native_contiguous_float64(tmp_path):
    g = np.random.default_rng(4)
    tensors = {"a": g.standard_normal((3, 4)), "b": g.standard_normal(5), "e": np.ones((0, 2))}
    save_tensors(tmp_path / "t.dape", {"kind": "test"}, tensors)
    _, loaded = load_tensors(tmp_path / "t.dape")
    for name, arr in tensors.items():
        got = loaded[name]
        assert got.dtype == np.float64 and got.dtype.isnative
        assert got.flags.c_contiguous and got.flags.aligned
        assert np.array_equal(got, arr)


def test_cached_shape_mask_is_read_only():
    mask = _shape_mask("circle", 8, 3)
    assert mask is _shape_mask("circle", 8, 3)
    with pytest.raises(ValueError):
        mask[0, 0] = True


def traced_peak(fn):
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_gen_corpus_holds_one_payload_copy(tmp_path):
    """The scenes' arrays go to the file as they are: no blob copies."""
    p = str(tmp_path / "c.dape")
    gen_corpus(4, 7, (1, 1, 1), p, DapeConfig())  # warm caches outside the trace
    _, peak = traced_peak(lambda: gen_corpus(80, 7, (1, 1, 1), p, DapeConfig()))
    corpus = load_corpus(p)
    payload = corpus.images.nbytes + corpus.texts.nbytes
    assert peak < 1.5 * payload


def test_load_corpus_holds_one_payload_copy(tmp_path):
    """The read buffer is the corpus: each modality is one view of it,
    equal to the entries stacked."""
    p = str(tmp_path / "c.dape")
    gen_corpus(80, 7, (1, 1, 1), p, DapeConfig())
    load_corpus(p)
    corpus, peak = traced_peak(lambda: load_corpus(p))
    payload = corpus.images.nbytes + corpus.texts.nbytes
    assert peak < 1.2 * payload
    _, tensors = load_tensors(p)
    for kind, got in (("img", corpus.images), ("txt", corpus.texts)):
        assert np.array_equal(got, np.stack([tensors[f"{kind}/{i:04d}"] for i in range(80)]))
        assert not got.flags.writeable


def write_corpus(path, entries):
    """A corpus container holding `entries` (name, array) in the given
    order, back to back, whatever order save_tensors would choose."""
    n = len(entries) // 2
    manifest, payload = [], b""
    for name, arr in entries:
        manifest.append({"name": name, "shape": list(arr.shape), "offset": len(payload)})
        payload += arr.astype("<f8").tobytes()
    meta = {"kind": "corpus", "n": n, "train_ids": list(range(1, n)), "eval_ids": [0]}
    write_raw(path, {"meta": meta, "manifest": manifest}, payload)


def scene_entries(n):
    img = [(f"img/{i:04d}", np.full((2, 2, 3), float(i))) for i in range(n)]
    txt = [(f"txt/{i:04d}", np.full((4, 3), -float(i))) for i in range(n)]
    return img, txt


def test_hand_laid_corpus_in_save_order_loads(tmp_path):
    p = tmp_path / "c.dape"
    img, txt = scene_entries(3)
    write_corpus(p, img + txt)
    corpus = load_corpus(str(p))
    assert np.array_equal(corpus.images, np.stack([a for _, a in img]))
    assert np.array_equal(corpus.texts, np.stack([a for _, a in txt]))


@pytest.mark.parametrize("layout", ["swapped", "interleaved", "shapes_differ"])
def test_corpus_entries_not_laid_out_as_saved_rejected(tmp_path, layout):
    p = tmp_path / "c.dape"
    img, txt = scene_entries(3)
    if layout == "swapped":
        entries = [img[1], img[0], img[2]] + txt
    elif layout == "interleaved":
        entries = [e for pair in zip(img, txt) for e in pair]
    else:
        entries = txt[:2] + [("txt/0002", np.zeros((5, 3)))] + img
    write_corpus(p, entries)
    assert len(load_tensors(p)[1]) == 6  # a sound container, a malformed corpus
    with pytest.raises(FileFormatError, match="corpus entry"):
        load_corpus(str(p))


def test_corpus_past_ten_thousand_scenes_loads_in_index_order(tmp_path):
    """save_tensors stores "img/10000" between "img/1000" and "img/1001"."""
    p = tmp_path / "big.dape"
    n = 10_002
    tensors = {f"img/{i:04d}": np.full((1, 1, 1), float(i)) for i in range(n)}
    tensors.update({f"txt/{i:04d}": np.full((1, 1), -float(i)) for i in range(n)})
    save_tensors(p, {"kind": "corpus", "n": n, "train_ids": [0], "eval_ids": [1]}, tensors)
    corpus = load_corpus(str(p))
    assert np.array_equal(corpus.images.reshape(-1), np.arange(n))
    assert np.array_equal(corpus.texts.reshape(-1), -np.arange(n))
