"""Run configuration: every hyperparameter of the model and harness.

A config is a flat JSON object; unknown keys are rejected so typos fail
loudly. The config hash names the run directory, so identical configs
share artifacts.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, fields

from .errors import ConfigurationError
from .tensor import KERNEL_SIZES


@dataclass
class DapeConfig:
    # embedding / geometry
    d: int = 64                      # feature dimension (also featurizer output)
    n_layers: int = 6
    grid: tuple[int, int] = (4, 4)   # coarse image token grid -> I = gy*gx
    j_text: int = 8                  # coarse text token count J
    text_len: int = 32               # featurized caption length l
    image_size: int = 16             # featurized map side (h = w)
    canvas: int = 64                 # rendered scene side in pixels

    # thresholds and partitions
    k0: float = 0.5                  # coarse binarization threshold
    k_c: float = 0.5                 # channel-alignment threshold
    L: int = 8                       # channel segments
    k1: int = 4                      # channels kept per segment
    mu: tuple[float, float, float] = (1 / 7, 2 / 7, 4 / 7)
    kernels: tuple[int, int, int] = (3, 5, 7)
    k_thr: float = 0.6               # fine-alignment threshold
    tau_d: float = 0.25              # dense-row fill fraction
    phi_period: int = 4              # inject detail every K layers
    cutoff_frac: float = 0.25        # high-pass radial cutoff
    detail_pool: int = 2             # cell size pooled into one detail token
                                     # (high-pass runs at full resolution first)

    # behavior flags
    nfa_merge: str = "slots_only"    # slots_only | pool_add
    enable_cwa: bool = True
    enable_nfa: bool = True
    enable_phi: bool = True

    # training
    seed: int = 0
    learning_rate: float = 2e-3
    batch_size: int = 8
    temperature_init: float = 0.07
    steps: int = 200
    eval_interval: int = 50
    corpus: str = ""                 # path to a generated corpus file

    def __post_init__(self):
        # JSON gives lists; anything else is left for validate() to reject
        for name in ("grid", "mu", "kernels"):
            if isinstance(getattr(self, name), list):
                setattr(self, name, tuple(getattr(self, name)))

    # derived --------------------------------------------------------------
    @property
    def n_img_tokens(self) -> int:
        return self.grid[0] * self.grid[1]

    @property
    def slot_count(self) -> int:
        return -(-self.n_img_tokens // 4)

    def validate(self) -> None:
        err = ConfigurationError
        for f in fields(self):
            v = getattr(self, f.name)
            if not _has_type(v, f.type):
                raise err(f"{f.name}={v!r} is not of type {f.type}")
        for name in _POSITIVE:
            if getattr(self, name) < 1:
                raise err(f"{name}={getattr(self, name)} must be >= 1")
        for name in ("seed", "steps"):
            if getattr(self, name) < 0:
                raise err(f"{name}={getattr(self, name)} must be >= 0")
        for name, top in LIMITS.items():
            if getattr(self, name) > top:
                raise err(f"{name}={getattr(self, name)} exceeds its limit {top}")
        if min(self.grid) < 1:
            raise err(f"grid {self.grid} needs two positive entries")
        if any(k not in KERNEL_SIZES for k in self.kernels):
            raise err(f"kernels {self.kernels} must be three sizes from {KERNEL_SIZES}")
        if not 0.0 < self.cutoff_frac < 1.0:
            raise err(f"cutoff_frac={self.cutoff_frac} outside (0, 1)")
        if self.learning_rate < 0:
            raise err(f"learning_rate={self.learning_rate} must be >= 0")
        for name in ("k0", "k_c", "k_thr"):
            v = getattr(self, name)
            if not -1.0 <= v <= 1.0:
                raise err(f"threshold {name}={v} outside [-1, 1]")
        if not 0.0 <= self.tau_d <= 1.0:
            raise err(f"tau_d={self.tau_d} outside [0, 1]")
        if self.d % self.L:
            raise err(f"L={self.L} must divide d={self.d}")
        if not 1 <= self.k1 <= self.d // self.L:
            raise err(f"k1={self.k1} outside [1, d/L={self.d // self.L}]")
        if any(m <= 0 for m in self.mu):
            raise err("mu must be three positive fractions")
        if abs(sum(self.mu) - 1.0) > 1e-12:
            raise err(f"mu must sum to 1, got {sum(self.mu)}")
        gy, gx = self.grid
        h = self.image_size
        if h % gy or h % gx:
            raise err(f"grid {self.grid} does not divide image_size={h}")
        if self.text_len % self.j_text:
            raise err(f"j_text={self.j_text} does not divide text_len={self.text_len}")
        if self.text_len % 4:
            raise err("text_len must be divisible by 4 for fine text refinement")
        nfa_per_layer = self.enable_nfa and self.nfa_merge == "pool_add"
        if nfa_per_layer and (h % (4 * gy) or h % (4 * gx)):
            raise err(f"fine-alignment grid 4*{self.grid} does not divide map {h}x{h}")
        if (nfa_per_layer or self.enable_phi) and self.j_text % 4:
            raise err("j_text must be divisible by 4 when fine alignment runs (pool_add or PHI)")
        if self.enable_phi:
            if h % self.detail_pool:
                raise err(
                    f"detail_pool={self.detail_pool} does not divide image_size={h}"
                )
            if (h // self.detail_pool) % 4:
                raise err("detail grid must be divisible by 4 when injection is on")
            # each injection halves the carried grid, and the last one still tiles it by 4
            k = self.n_layers // self.phi_period
            if k >= 2 and (h // self.detail_pool) % (4 << (k - 1)):
                raise err(f"detail grid {h // self.detail_pool} must be divisible by "
                          f"{4 << (k - 1)} for {k} injections, which halve it")
        if self.nfa_merge not in ("slots_only", "pool_add"):
            raise err(f"nfa_merge={self.nfa_merge!r} not in {{slots_only, pool_add}}")
        if self.temperature_init <= 0:
            raise err("temperature_init must be positive")
        if self.batch_size < 2:
            raise err("batch_size must be >= 2 for the contrastive objective")
        widths = mu_partition(self.d, self.mu)
        if min(widths) < 1:
            raise err(f"mu partition {widths} leaves an empty branch for d={self.d}")

    # serialization ----------------------------------------------------------
    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))

    def hash(self) -> str:
        return hashlib.sha256(self.to_json().encode()).hexdigest()[:12]

    @classmethod
    def from_dict(cls, raw: dict) -> "DapeConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
        cfg = cls(**raw)
        cfg.validate()
        return cfg

    @classmethod
    def from_file(cls, path: str) -> "DapeConfig":
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ConfigurationError(f"config {path} must hold a JSON object")
        return cls.from_dict(raw)


# int fields that must be >= 1 (batch_size has its own bound below)
_POSITIVE = (
    "d", "n_layers", "j_text", "text_len", "image_size", "canvas", "L", "k1",
    "phi_period", "detail_pool", "eval_interval",
)


# Largest value of each size field. With the other fields at their
# defaults, each keeps what it allocates (the (h*w)^2 high-pass operator,
# 6*n_layers d*d projections, the rendered canvases) to a few hundred MB.
LIMITS = {
    "d": 512, "n_layers": 64, "j_text": 256, "text_len": 512,
    "image_size": 64, "canvas": 1024, "L": 64, "k1": 64, "phi_period": 64,
    "detail_pool": 8, "eval_interval": 10**6, "batch_size": 1024, "steps": 10**6,
}


def _has_type(v, kind: str) -> bool:
    """Whether v is a value of the annotated field type: ints are not
    bools, reals are ints or floats well inside float64's finite range,
    tuples have their length."""
    if kind.startswith("tuple["):
        items = kind[len("tuple["):-1].split(", ")
        return (
            isinstance(v, tuple) and len(v) == len(items)
            and all(_has_type(x, t) for x, t in zip(v, items))
        )
    if kind == "int":
        return isinstance(v, int) and not isinstance(v, bool)
    if kind == "float":
        return isinstance(v, (int, float)) and not isinstance(v, bool) and -1e300 < v < 1e300
    return isinstance(v, {"bool": bool, "str": str}[kind])


def mu_partition(c: int, mu: tuple[float, ...]) -> tuple[int, ...]:
    """Largest-remainder rounding of mu*c into integer channel widths."""
    exact = [m * c for m in mu]
    floors = [int(math.floor(v)) for v in exact]
    rem = c - sum(floors)
    order = sorted(range(len(mu)), key=lambda i: (-(exact[i] - floors[i]), i))
    for i in order[:rem]:
        floors[i] += 1
    return tuple(floors)
