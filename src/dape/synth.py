"""Synthetic scene corpus: procedural shapes, template captions, and fixed
seeded featurizers for both modalities.

Scenes rasterize onto per-color canvas planes (one channel per palette
entry), and the image featurizer is a seeded random linear map over small
pixel patches. Color words embed as the featurizer's own response to a
solid patch of that color, which plays the role the pretrained, already
aligned encoders play at full scale: matching content lands in matching
directions without any training. Function words embed as zero, carrying
no affinity.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .config import DapeConfig
from .container import load_tensors, save_tensors
from .errors import ConfigurationError, FileFormatError
from .model import Batch

def seed_from(*parts) -> int:
    """Stable 64-bit seed derived from a tag tuple (cross-platform)."""
    digest = hashlib.sha256(repr(parts).encode()).digest()
    return int.from_bytes(digest[:8], "little")


PALETTE = ("red", "green", "blue", "yellow", "purple", "orange", "cyan", "magenta")
KINDS = ("circle", "square", "triangle")
SIZES = ("small", "large")
DENSITY_SHAPES = {"sparse": 1, "mixed": 3, "dense": 6}
PLACEMENT_GRID = 4  # shapes sit on a 4x4 cell lattice


@dataclass
class SceneShape:
    kind: str
    color: str
    size: str
    cell: tuple[int, int]


@dataclass
class SyntheticScene:
    canvas: int
    shapes: list[SceneShape]
    density: str

    @property
    def caption(self) -> str:
        parts = []
        for i, s in enumerate(self.shapes):
            lead = "a" if i == 0 else "and a"
            parts.append(f"{lead} {s.color} {s.kind}")
        return " ".join(parts)


def generate_scene(rng: np.random.Generator, density: str, canvas: int) -> SyntheticScene:
    count = DENSITY_SHAPES[density]
    cells = rng.choice(PLACEMENT_GRID * PLACEMENT_GRID, size=count, replace=False)
    shapes = [
        SceneShape(
            kind=KINDS[rng.integers(len(KINDS))],
            color=PALETTE[rng.integers(len(PALETTE))],
            size=SIZES[rng.integers(len(SIZES))],
            cell=(int(c) // PLACEMENT_GRID, int(c) % PLACEMENT_GRID),
        )
        for c in cells
    ]
    return SyntheticScene(canvas, shapes, density)


@lru_cache(maxsize=64)
def _shape_mask(kind: str, cell_px: int, radius: int) -> np.ndarray:
    """Boolean (cell_px, cell_px) footprint; cached, so it is read-only."""
    c = (cell_px - 1) / 2.0
    yy, xx = np.mgrid[0:cell_px, 0:cell_px]
    if kind == "circle":
        mask = (yy - c) ** 2 + (xx - c) ** 2 <= radius**2
    elif kind == "square":
        mask = (np.abs(yy - c) <= radius) & (np.abs(xx - c) <= radius)
    elif kind == "triangle":
        # upward triangle: widening rows from the apex
        h = 2 * radius
        top = int(c - radius)
        rows = yy - top
        mask = (rows >= 0) & (rows < h) & (np.abs(xx - c) <= rows / 2.0)
    else:
        raise ConfigurationError(f"unknown shape kind {kind!r}")
    mask.flags.writeable = False
    return mask


def render_scene(scene: SyntheticScene) -> np.ndarray:
    """Rasterize to (canvas, canvas, len(PALETTE)) one-hot color planes."""
    canvas = np.zeros((scene.canvas, scene.canvas, len(PALETTE)))
    cell_px = scene.canvas // PLACEMENT_GRID
    for s in scene.shapes:
        radius = cell_px * (5 if s.size == "small" else 7) // 16
        mask = _shape_mask(s.kind, cell_px, radius)
        y0, x0 = s.cell[0] * cell_px, s.cell[1] * cell_px
        plane = PALETTE.index(s.color)
        canvas[y0 : y0 + cell_px, x0 : x0 + cell_px, plane][mask] = 1.0
    return canvas


# ---------------------------------------------------------------------------
# Featurizers


class Featurizer:
    """Fixed seeded linear patch featurizer plus the derived word vectors."""

    def __init__(self, cfg: DapeConfig):
        if cfg.canvas % cfg.image_size:
            raise ConfigurationError(
                f"canvas {cfg.canvas} not divisible by feature side {cfg.image_size}"
            )
        self.cfg = cfg
        self.patch = cfg.canvas // cfg.image_size
        rng = np.random.default_rng(seed_from("featurizer", cfg.seed, cfg.d, cfg.image_size))
        in_dim = self.patch * self.patch * len(PALETTE)
        self.w_img = rng.standard_normal((in_dim, cfg.d)) / np.sqrt(in_dim)
        self.words: dict[str, np.ndarray] = {}
        for i, color in enumerate(PALETTE):
            proto = np.zeros((self.patch, self.patch, len(PALETTE)))
            proto[..., i] = 1.0
            v = proto.reshape(-1) @ self.w_img
            self.words[color] = v / np.linalg.norm(v)
        for kind in KINDS:
            v = rng.standard_normal(cfg.d)
            self.words[kind] = v / np.linalg.norm(v)
        for stop in ("a", "and"):
            self.words[stop] = np.zeros(cfg.d)

    def featurize_image(self, canvas: np.ndarray) -> np.ndarray:
        h = self.cfg.image_size
        p = self.patch
        patches = canvas.reshape(h, p, h, p, len(PALETTE)).transpose(0, 2, 1, 3, 4)
        flat = patches.reshape(h, h, p * p * len(PALETTE))
        return flat @ self.w_img

    def featurize_text(self, caption: str) -> np.ndarray:
        words = caption.split()
        l = self.cfg.text_len
        out = np.zeros((l, self.cfg.d))
        for i in range(l):
            w = words[i * len(words) // l]
            if w not in self.words:
                raise ConfigurationError(f"word {w!r} outside the template grammar")
            out[i] = self.words[w]
        return out


# ---------------------------------------------------------------------------
# Corpus


def split_ids(n: int, seed: int) -> tuple[list[int], list[int]]:
    """Deterministic 80/20 split: rank scenes by a keyed hash, the bottom
    fifth evaluates. Exactly n//5 scenes land in eval."""
    keyed = sorted(
        range(n),
        key=lambda i: hashlib.sha256(f"{seed}:{i}".encode()).hexdigest(),
    )
    n_eval = n // 5
    eval_ids = sorted(keyed[:n_eval])
    train_ids = sorted(set(range(n)) - set(eval_ids))
    return train_ids, eval_ids


def gen_corpus(
    n: int,
    seed: int,
    density_mix: tuple[float, float, float],
    out_path: str,
    cfg: DapeConfig | None = None,
) -> dict:
    """Render n scenes, featurize both modalities, write one container
    (creating its directory)."""
    if n < 4:
        raise ConfigurationError(f"corpus needs n >= 4, got {n}")
    mix = np.asarray(density_mix, dtype=np.float64)
    if mix.size != 3 or not np.isfinite(mix).all() or mix.min() < 0 or mix.sum() <= 0:
        raise ConfigurationError(f"bad density mix {density_mix}")
    cfg = cfg or DapeConfig(seed=seed)
    feat = Featurizer(cfg)
    probs = mix / mix.sum()
    names = ("sparse", "mixed", "dense")

    tensors: dict[str, np.ndarray] = {}
    captions, densities = [], []
    for i in range(n):
        rng = np.random.default_rng(seed_from("scene", seed, i))
        density = names[rng.choice(3, p=probs)]
        scene = generate_scene(rng, density, cfg.canvas)
        tensors[f"img/{i:04d}"] = feat.featurize_image(render_scene(scene))
        tensors[f"txt/{i:04d}"] = feat.featurize_text(scene.caption)
        captions.append(scene.caption)
        densities.append(density)
    train_ids, eval_ids = split_ids(n, seed)
    meta = {
        "kind": "corpus",
        "n": n,
        "seed": seed,
        "density_mix": list(map(float, density_mix)),
        "d": cfg.d,
        "image_size": cfg.image_size,
        "canvas": cfg.canvas,
        "text_len": cfg.text_len,
        "captions": captions,
        "densities": densities,
        "train_ids": train_ids,
        "eval_ids": eval_ids,
    }
    Path(out_path).parent.mkdir(parents=True, exist_ok=True)
    save_tensors(out_path, meta, tensors)
    return meta


@dataclass
class Corpus:
    meta: dict
    images: np.ndarray  # (n, h, w, d)
    texts: np.ndarray   # (n, l, d)

    @property
    def train_ids(self) -> list[int]:
        return list(self.meta["train_ids"])

    @property
    def eval_ids(self) -> list[int]:
        return list(self.meta["eval_ids"])

    def batch(self, ids) -> Batch:
        ids = list(ids)
        return Batch(self.images[ids], self.texts[ids], np.asarray(ids))


def load_corpus(path: str) -> Corpus:
    meta, tensors = load_tensors(path)
    if meta.get("kind") != "corpus":
        raise FileFormatError(f"{path} is not a corpus container")
    n = meta.get("n")
    if not isinstance(n, int) or n < 1:
        raise FileFormatError(f"{path}: corpus meta has no positive scene count")
    for key in ("train_ids", "eval_ids"):
        ids = meta.get(key)
        if not (isinstance(ids, list) and all(type(i) is int and 0 <= i < n for i in ids)):
            raise FileFormatError(f"{path}: corpus {key} is not a list of scene ids in [0, {n})")
    split = meta["train_ids"] + meta["eval_ids"]
    if len(set(split)) != len(split):
        raise FileFormatError(f"{path}: corpus train_ids and eval_ids repeat a scene id")
    return Corpus(meta, _stacked(path, tensors, "img", n), _stacked(path, tensors, "txt", n))


def _stacked(path: str, tensors: dict[str, np.ndarray], kind: str, n: int) -> np.ndarray:
    """Entries `kind/0000` ... as one (n, ...) array. `save_tensors` stores
    them back to back in name order, so it is a read-only view of the
    container's buffer. Name order is index order below 10,001 scenes;
    past that ("img/10000" sorts before "img/1001") the view is put in
    index order as a copy."""
    names = [f"{kind}/{i:04d}" for i in range(n)]
    order = sorted(range(n), key=names.__getitem__)
    try:
        parts = [tensors[names[i]] for i in order]
    except KeyError as e:
        raise FileFormatError(f"{path}: corpus has no entry {e}") from e
    first = parts[0]
    start = first.__array_interface__["data"][0]
    for j, (i, part) in enumerate(zip(order, parts)):
        if part.shape != first.shape:
            raise FileFormatError(
                f"{path}: corpus entry {names[i]} has shape {part.shape}, not {first.shape}"
            )
        if part.__array_interface__["data"][0] != start + j * first.nbytes:
            raise FileFormatError(
                f"{path}: corpus entry {names[i]} is not stored where save_tensors puts it"
            )
    block = np.lib.stride_tricks.as_strided(
        first, (n,) + first.shape, (first.nbytes,) + first.strides, writeable=False
    )
    return block if order == list(range(n)) else block[np.argsort(order)]
