"""Run configuration: a flat INI document with strict key checking.

Sections are [map], [algorithm], [seeds], [output].  Unknown keys are
errors, not warnings: a silently ignored typo in a tolerance is the
main field hazard for batch runs.
"""

import configparser
import math
import os
from dataclasses import dataclass, field, fields

from .errors import ConfigError

_MAP_KEYS = {"name", "k", "observable", "escape_bound"}
_ALGORITHM_KEYS = {
    "epsilon", "gamma", "delta_adapt", "delta_chaos", "adapt_gate",
    "k_init", "k_max", "delta_k", "eps_rat", "p_max", "top_modes",
    "unit_circle_tol", "gamma_max", "validation_j", "k_values", "n_samples",
}
_SEED_KEYS = {"mode", "x", "y_min", "y_max", "count", "seeds"}
_OUTPUT_KEYS = {"table", "circles", "workers"}

WORKERS_ENV_VAR = "BIRKHOFF_RRE_WORKERS"


@dataclass
class RunConfig:
    map_name: str = "standard-map"
    k: float = 0.7
    observable: str = "embedding"   # embedding | identity | x | y
    escape_bound: float = 1e6
    epsilon: float = 0.0
    gamma: float = 3.0
    delta_adapt: float = 1e-10
    delta_chaos: float = None
    adapt_gate: str = "scale_free"
    k_init: int = 50
    k_max: int = 600
    delta_k: int = 50
    eps_rat: float = 1e-8
    p_max: int = 50
    top_modes: int = 10
    unit_circle_tol: float = 1e-7
    gamma_max: float = 0.5
    validation_j: int = 128
    k_values: list = field(default_factory=list)
    n_samples: int = 10000
    seeds: list = field(default_factory=list)
    table: str = "results.csv"
    circles: str = None
    workers: int = 1

    def __post_init__(self):
        if self.delta_chaos is None:
            self.delta_chaos = self.delta_adapt

    def validate(self):
        for name in (f.name for f in fields(self) if f.type is float):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if not all(math.isfinite(c) for seed in self.seeds for c in seed):
            raise ConfigError("seed coordinates must be finite")
        if self.map_name != "standard-map":
            raise ConfigError(f"unknown map {self.map_name!r}")
        if self.observable not in ("embedding", "identity", "x", "y"):
            raise ConfigError(f"unknown observable {self.observable!r}")
        if self.adapt_gate not in ("scale_free", "residual"):
            raise ConfigError(f"unknown adapt_gate {self.adapt_gate!r}")
        if self.epsilon < 0:
            raise ConfigError("epsilon must be >= 0")
        for name in ("delta_adapt", "delta_chaos", "eps_rat", "unit_circle_tol",
                     "escape_bound"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be > 0")
        if not 0.0 < self.gamma_max <= 0.5:
            raise ConfigError("gamma_max must be in (0, 0.5]")
        for name, least in (("p_max", 1), ("top_modes", 1), ("validation_j", 8)):
            if getattr(self, name) < least:
                raise ConfigError(f"{name} must be >= {least}")
        if self.k_init > self.k_max:
            raise ConfigError(f"k_init {self.k_init} exceeds k_max {self.k_max}")
        if self.delta_k < 1 or self.k_init < 1:
            raise ConfigError("k_init and delta_k must be >= 1")
        if self.gamma < 1:
            raise ConfigError("gamma must be >= 1")
        if not self.seeds:
            raise ConfigError("no seeds configured")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        return self

    def effective_workers(self):
        override = os.environ.get(WORKERS_ENV_VAR)
        if override:
            try:
                value = int(override)
            except ValueError as exc:
                raise ConfigError(f"bad {WORKERS_ENV_VAR}={override!r}") from exc
            if value < 1:
                raise ConfigError(f"{WORKERS_ENV_VAR} must be >= 1")
            return value
        return self.workers


def _check_keys(parser, section, allowed):
    if not parser.has_section(section):
        return
    unknown = set(parser.options(section)) - allowed
    if unknown:
        raise ConfigError(
            f"unknown keys in [{section}]: {', '.join(sorted(unknown))}"
        )


def _get(parser, section, key, cast, default):
    if parser.has_section(section) and parser.has_option(section, key):
        raw = parser.get(section, key)
        try:
            return cast(raw)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"bad value for [{section}] {key}: {raw!r}") from exc
    return default


def _parse_seed_list(raw):
    seeds = []
    for chunk in raw.replace("\n", ";").split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.replace(",", " ").split()
        if len(parts) != 2:
            raise ConfigError(f"seed entry {chunk!r} is not an x y pair")
        seeds.append((float(parts[0]), float(parts[1])))
    if not seeds:
        raise ConfigError("empty seed list")
    return seeds


def _parse_seeds(parser):
    if not parser.has_section("seeds"):
        raise ConfigError("missing [seeds] section")
    mode = _get(parser, "seeds", "mode", str, "list").strip()
    if mode == "list":
        raw = _get(parser, "seeds", "seeds", str, None)
        if raw is None:
            raise ConfigError("[seeds] mode=list requires a seeds key")
        return _parse_seed_list(raw)
    if mode == "line":
        x = _get(parser, "seeds", "x", float, None)
        y_min = _get(parser, "seeds", "y_min", float, None)
        y_max = _get(parser, "seeds", "y_max", float, None)
        count = _get(parser, "seeds", "count", int, None)
        if None in (x, y_min, y_max, count):
            raise ConfigError("[seeds] mode=line requires x, y_min, y_max, count")
        if count < 1:
            raise ConfigError("[seeds] count must be >= 1")
        if count == 1:
            return [(x, y_min)]
        step = (y_max - y_min) / (count - 1)
        return [(x, y_min + i * step) for i in range(count)]
    raise ConfigError(f"unknown seeds mode {mode!r}")


def _parse_k_values(raw):
    values = [int(tok) for tok in raw.replace(",", " ").split()]
    if not values or any(v < 1 for v in values):
        raise ConfigError(f"bad k_values: {raw!r}")
    return values


def load_config(path):
    """Parse and validate a run configuration file."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")
    known_sections = {"map", "algorithm", "seeds", "output"}
    unknown_sections = set(parser.sections()) - known_sections
    if unknown_sections:
        raise ConfigError(f"unknown sections: {', '.join(sorted(unknown_sections))}")
    _check_keys(parser, "map", _MAP_KEYS)
    _check_keys(parser, "algorithm", _ALGORITHM_KEYS)
    _check_keys(parser, "seeds", _SEED_KEYS)
    _check_keys(parser, "output", _OUTPUT_KEYS)
    defaults = RunConfig(seeds=[(0.0, 0.0)])
    cfg = RunConfig(
        map_name=_get(parser, "map", "name", str, defaults.map_name).strip(),
        k=_get(parser, "map", "k", float, defaults.k),
        observable=_get(parser, "map", "observable", str, defaults.observable).strip(),
        escape_bound=_get(parser, "map", "escape_bound", float, defaults.escape_bound),
        epsilon=_get(parser, "algorithm", "epsilon", float, defaults.epsilon),
        gamma=_get(parser, "algorithm", "gamma", float, defaults.gamma),
        delta_adapt=_get(parser, "algorithm", "delta_adapt", float, defaults.delta_adapt),
        delta_chaos=_get(parser, "algorithm", "delta_chaos", float, None),
        adapt_gate=_get(parser, "algorithm", "adapt_gate", str, defaults.adapt_gate).strip(),
        k_init=_get(parser, "algorithm", "k_init", int, defaults.k_init),
        k_max=_get(parser, "algorithm", "k_max", int, defaults.k_max),
        delta_k=_get(parser, "algorithm", "delta_k", int, defaults.delta_k),
        eps_rat=_get(parser, "algorithm", "eps_rat", float, defaults.eps_rat),
        p_max=_get(parser, "algorithm", "p_max", int, defaults.p_max),
        top_modes=_get(parser, "algorithm", "top_modes", int, defaults.top_modes),
        unit_circle_tol=_get(parser, "algorithm", "unit_circle_tol", float,
                             defaults.unit_circle_tol),
        gamma_max=_get(parser, "algorithm", "gamma_max", float, defaults.gamma_max),
        validation_j=_get(parser, "algorithm", "validation_j", int,
                          defaults.validation_j),
        k_values=_get(parser, "algorithm", "k_values", _parse_k_values, []),
        n_samples=_get(parser, "algorithm", "n_samples", int, defaults.n_samples),
        seeds=_parse_seeds(parser),
        table=_get(parser, "output", "table", str, defaults.table).strip(),
        circles=_get(parser, "output", "circles", str, None),
        workers=_get(parser, "output", "workers", int, defaults.workers),
    )
    return cfg.validate()
