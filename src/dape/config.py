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


@dataclass
class DapeConfig:
    # embedding / geometry
    d: int = 64                      # feature dimension (also featurizer output)
    n_layers: int = 6
    s: int = 2                       # coarse downsample factor (first layer)
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
    p_slots: int = 0                 # learnable slot count; 0 -> ceil(I/4)
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
        self.grid = tuple(self.grid)
        self.mu = tuple(self.mu)
        self.kernels = tuple(self.kernels)

    # derived --------------------------------------------------------------
    @property
    def n_img_tokens(self) -> int:
        return self.grid[0] * self.grid[1]

    @property
    def slot_count(self) -> int:
        return self.p_slots if self.p_slots > 0 else -(-self.n_img_tokens // 4)

    def validate(self) -> None:
        err = ConfigurationError
        if self.d < 1 or self.n_layers < 1 or self.s < 1:
            raise err("d, n_layers and s must be positive")
        for name in ("k0", "k_c", "k_thr"):
            v = getattr(self, name)
            if not -1.0 <= v <= 1.0:
                raise err(f"threshold {name}={v} outside [-1, 1]")
        if not 0.0 <= self.tau_d <= 1.0:
            raise err(f"tau_d={self.tau_d} outside [0, 1]")
        if self.L < 1 or self.d % self.L:
            raise err(f"L={self.L} must divide d={self.d}")
        if not 1 <= self.k1 <= self.d // self.L:
            raise err(f"k1={self.k1} outside [1, d/L={self.d // self.L}]")
        if len(self.mu) != 3 or any(m <= 0 for m in self.mu):
            raise err("mu must be three positive fractions")
        if abs(sum(self.mu) - 1.0) > 1e-12:
            raise err(f"mu must sum to 1, got {sum(self.mu)}")
        if self.phi_period < 1:
            raise err("phi_period must be >= 1")
        gy, gx = self.grid
        h = self.image_size
        if h % self.s:
            raise err(f"s={self.s} does not divide image_size={h}")
        hp = h // self.s
        if hp % gy or hp % gx:
            raise err(f"grid {self.grid} does not divide downsampled map {hp}x{hp}")
        if self.text_len % self.j_text:
            raise err(f"j_text={self.j_text} does not divide text_len={self.text_len}")
        if self.text_len % 4:
            raise err("text_len must be divisible by 4 for fine text refinement")
        if self.enable_nfa and self.nfa_merge == "pool_add":
            if h % (4 * gy) or h % (4 * gx):
                raise err(
                    f"fine-alignment grid 4*{self.grid} does not divide map {h}x{h}"
                )
        if self.enable_phi:
            if self.j_text % 4:
                raise err("j_text must be divisible by 4 when detail injection is on")
            if self.detail_pool < 1 or h % self.detail_pool:
                raise err(
                    f"detail_pool={self.detail_pool} does not divide image_size={h}"
                )
            if (h // self.detail_pool) % 4:
                raise err("detail grid must be divisible by 4 when injection is on")
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


def mu_partition(c: int, mu: tuple[float, ...]) -> tuple[int, ...]:
    """Largest-remainder rounding of mu*c into integer channel widths."""
    exact = [m * c for m in mu]
    floors = [int(math.floor(v)) for v in exact]
    rem = c - sum(floors)
    order = sorted(range(len(mu)), key=lambda i: (-(exact[i] - floors[i]), i))
    for i in order[:rem]:
        floors[i] += 1
    return tuple(floors)
