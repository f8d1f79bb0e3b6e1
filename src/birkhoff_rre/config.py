"""Run configuration: a flat INI document with strict key checking.

Sections are [map], [algorithm], [seeds], [output].  Unknown keys are
errors, not warnings: a silently ignored typo in a tolerance is the
main field hazard for batch runs.  The numerical keys are the fields of
``spectral.ClassifyParams``, which holds their defaults and checks.
"""

import configparser
import math
import os
from dataclasses import dataclass, field, fields

from .errors import ConfigError, ContractViolation
from .maps import CoordinateObservable, EmbeddingObservable
from .spectral import ClassifyParams

_MAP_KEYS = {"name", "k", "observable", "escape_bound"}
_ALGORITHM_KEYS = (
    {f.name for f in fields(ClassifyParams)} - _MAP_KEYS) | {"k_values", "n_samples"}
# [seeds] mode -> the keys that mode reads, besides mode itself
_SEED_MODE_KEYS = {"list": ("seeds",), "line": ("x", "y_min", "y_max", "count")}
_SEED_KEYS = {"mode"}.union(*_SEED_MODE_KEYS.values())
_OUTPUT_KEYS = {"table", "circles", "workers"}

# [map] observable: name -> constructor of the observable.  Each is smooth
# on the cylinder: weighted Birkhoff averages converge fast only for smooth
# observables, so none may carry the angle x, which jumps where it wraps at 1
OBSERVABLES = {
    "embedding": EmbeddingObservable,
    "y": lambda: CoordinateObservable(1),
}


@dataclass
class RunConfig:
    map_name: str = "standard-map"
    k: float = 0.7
    observable: str = "embedding"   # a key of OBSERVABLES
    params: ClassifyParams = field(default_factory=ClassifyParams)
    k_values: list = field(default_factory=list)  # converge: half-lengths to sweep
    n_samples: int = 10000                         # average: orbit length
    seeds: list = field(default_factory=list)
    table: str = "results.csv"
    circles: str = None
    workers: int = 1

    def validate(self):
        if not math.isfinite(self.k):
            raise ConfigError(f"k must be finite, got {self.k}")
        if not all(math.isfinite(c) for seed in self.seeds for c in seed):
            raise ConfigError("seed coordinates must be finite")
        if self.map_name != "standard-map":
            raise ConfigError(f"unknown map {self.map_name!r}")
        if self.observable not in OBSERVABLES:
            raise ConfigError(
                f"unknown observable {self.observable!r}: choose one of "
                f"{', '.join(OBSERVABLES)}; an observable that carries the angle x, "
                "which wraps at 1, is not smooth")
        if self.params.escape_bound < 1:  # it bounds every coordinate, and x spans [0, 1)
            raise ConfigError(f"escape_bound must be >= 1, got {self.params.escape_bound}")
        if not self.seeds:
            raise ConfigError("no seeds configured")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if self.n_samples < 1:
            raise ConfigError("n_samples must be >= 1")
        # checked before any seed runs, so a long run never dies at the write
        if os.path.isdir(self.table) or not os.path.isdir(os.path.dirname(self.table) or "."):
            raise ConfigError(f"cannot write table {self.table!r}: it is a directory, "
                              "or its directory does not exist")
        if self.circles:
            ancestor = os.path.abspath(self.circles)
            while not os.path.exists(ancestor):
                ancestor = os.path.dirname(ancestor)
            if not os.path.isdir(ancestor):
                raise ConfigError(f"circles path {self.circles!r} is or lies under a file, "
                                  "not a directory")
        return self


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
        try:
            seeds.append((float(parts[0]), float(parts[1])))
        except ValueError as exc:
            raise ConfigError(f"seed entry {chunk!r} is not numeric") from exc
    if not seeds:
        raise ConfigError("empty seed list")
    return seeds


def _parse_seeds(parser):
    if not parser.has_section("seeds"):
        raise ConfigError("missing [seeds] section")
    mode = _get(parser, "seeds", "mode", str, "list").strip()
    if mode not in _SEED_MODE_KEYS:
        raise ConfigError(f"unknown seeds mode {mode!r}")
    keys = _SEED_MODE_KEYS[mode]
    other = set(parser.options("seeds")) - {"mode", *keys}
    if other:
        raise ConfigError(f"[seeds] mode={mode} does not read {', '.join(sorted(other))}")
    if not all(parser.has_option("seeds", key) for key in keys):
        raise ConfigError(f"[seeds] mode={mode} requires {', '.join(keys)}")
    if mode == "list":
        return _parse_seed_list(parser.get("seeds", "seeds"))
    x, y_min, y_max = (_get(parser, "seeds", key, float, None) for key in ("x", "y_min", "y_max"))
    count = _get(parser, "seeds", "count", int, None)
    if count < 1:
        raise ConfigError("[seeds] count must be >= 1")
    if count == 1:
        return [(x, y_min)]
    step = (y_max - y_min) / (count - 1)
    return [(x, y_min + i * step) for i in range(count)]


def _parse_k_values(raw):
    values = [int(tok) for tok in raw.replace(",", " ").split()]
    if not values or any(v < 1 for v in values):
        raise ConfigError(f"bad k_values: {raw!r}")
    return values


def load_config(path):
    """Parse and validate a run configuration file."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None)
    try:
        read = parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"malformed config file {path!r}: {exc}") from exc
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
    values = {}
    for f in fields(ClassifyParams):
        section = "map" if f.name in _MAP_KEYS else "algorithm"
        value = _get(parser, section, f.name, f.type, None)
        if value is not None:
            values[f.name] = value
    try:
        params = ClassifyParams(**values)
    except ContractViolation as exc:
        raise ConfigError(str(exc)) from exc
    cfg = RunConfig(
        map_name=_get(parser, "map", "name", str, RunConfig.map_name).strip(),
        k=_get(parser, "map", "k", float, RunConfig.k),
        observable=_get(parser, "map", "observable", str, RunConfig.observable).strip(),
        params=params,
        k_values=_get(parser, "algorithm", "k_values", _parse_k_values, []),
        n_samples=_get(parser, "algorithm", "n_samples", int, RunConfig.n_samples),
        seeds=_parse_seeds(parser),
        table=_get(parser, "output", "table", str, RunConfig.table).strip(),
        circles=_get(parser, "output", "circles", str, None),
        workers=_get(parser, "output", "workers", int, RunConfig.workers),
    )
    return cfg.validate()
