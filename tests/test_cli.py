import ast
import configparser
import importlib.util
import io
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from birkhoff_rre import cli
from birkhoff_rre.cli import _circle_text, classify_seed, figure2_errors, main
from birkhoff_rre.config import OBSERVABLES, RunConfig, load_config
from birkhoff_rre.errors import ConfigError
from birkhoff_rre.fourier import FourierCircle
from birkhoff_rre.maps import DynamicalMap, EmbeddingObservable, Observable, StandardMap
from birkhoff_rre.spectral import ClassifyParams, classify_trajectory
from checks import CounterMap, IdentityObservable, NanFromObservable


def write_config(path, body):
    # a lone surrogate \udcXX in ``body`` becomes the raw byte 0xXX
    path.write_text(body, encoding="utf-8", errors="surrogateescape")
    return str(path)


BASE = """
[map]
name = standard-map
k = 0.7
observable = embedding

[algorithm]
epsilon = 0
gamma = 3
delta_adapt = 1e-10
k_init = 50
k_max = 200
delta_k = 50

[seeds]
mode = list
seeds = 0.0 0.0; 0.1 0.0; 0.5 0.05

[output]
table = {table}
"""


# (line of BASE, its replacement): each makes one config key non-finite or
# out of range
BAD_VALUES = [
    ("k = 0.7", "k = nan"),
    ("k = 0.7", "k = 0.7\nescape_bound = inf"),
    ("k = 0.7", "k = 0.7\nescape_bound = nan"),
    ("epsilon = 0", "epsilon = nan"),
    ("gamma = 3", "gamma = nan"),
    ("gamma = 3", "gamma = 0.5"),
    ("k_init = 50", "k_init = 700"),
    ("delta_k = 50", "delta_k = 0"),
    ("delta_adapt = 1e-10", "delta_adapt = nan"),
    ("delta_adapt = 1e-10", "delta_adapt = inf"),
    ("delta_k = 50", "delta_k = 50\neps_rat = inf"),
    ("delta_k = 50", "delta_k = 50\np_max = 0"),
    ("delta_k = 50", "delta_k = 50\nn_samples = 0"),
    ("seeds = 0.0 0.0;", "seeds = nan 0.0;"),
    ("seeds = 0.0 0.0;", "seeds = 0.0 inf;"),
    ("observable = embedding", "observable = identity"),
    ("observable = embedding", "observable = x"),
]


# (id, text of BASE, its replacement): each makes the file unreadable as a
# run configuration, or names an output location that cannot be written.
# "{tmp}" stands for the test's directory, which holds a plain file "taken".
MALFORMED = [
    ("key before any section", "\n[map]", "\nk = 0.7\n[map]"),
    ("duplicate key", "k = 0.7", "k = 0.7\nk = 0.8"),
    ("duplicate section", "[seeds]", "[map]\nname = standard-map\n\n[seeds]"),
    ("broken first header", "[map]", "[map"),
    ("broken later header", "[seeds]", "[seeds"),
    ("percent in value", "k = 0.7", "k = 70%"),
    ("non-numeric seed", "seeds = 0.0 0.0;", "seeds = 0 abc;"),
    ("table directory missing", "table = {tmp}/t.csv", "table = {tmp}/nodir/t.csv"),
    ("table is a directory", "table = {tmp}/t.csv", "table = {tmp}"),
    ("circles path is a file", "table = {tmp}/t.csv",
     "table = {tmp}/t.csv\ncircles = {tmp}/taken"),
    ("circles path under a file", "table = {tmp}/t.csv",
     "table = {tmp}/t.csv\ncircles = {tmp}/taken/sub"),
    ("not UTF-8", "name = standard-map", "name = standard-map\udcff\udcfe"),
    ("line keys in list mode", "seeds = 0.0 0.0;", "x = 3\ncount = 5\nseeds = 0.0 0.0;"),
    ("list key in line mode", "mode = list",
     "mode = line\nx = 0.05\ny_min = 0\ny_max = 0.1\ncount = 3"),
]


class HalvingMap(DynamicalMap):
    """(x, y) -> (x/2, y/2): every orbit decays geometrically to the origin,
    so the converged filter has no root on the unit circle."""

    def step(self, point):
        return np.asarray(point, dtype=float) / 2.0


class FlipHalvingMap(DynamicalMap):
    """(s, u) -> (-s, u/2): s flips sign every step, a chain of period 2,
    while u decays to 0, so the stacked signal of that chain decays and
    its filter has no root on the unit circle."""

    def step(self, point):
        s, u = np.asarray(point, dtype=float)
        return np.array([-s, u / 2.0])


class DriftMap(DynamicalMap):
    """(x, y) -> (x, y + 1): from y = 0, the orbit leaves an escape bound b
    at step floor(b) + 1."""

    def step(self, point):
        return np.asarray(point, dtype=float) + (0.0, 1.0)


class TorusRotation(DynamicalMap):
    """(x, y) -> (x + 1/2, y + 17/94) mod 1.

    The orbit carries the frequency 1/2, an island chain of period 2, and
    17/94, whose denominator is above the default p_max = 50.  Every
    second step moves y by 17/47, so the stacked signal's rotation is
    rational.
    """

    def step(self, point):
        return np.array(((point[0] + 0.5) % 1.0, (point[1] + 17.0 / 94.0) % 1.0))


class TorusObservable(Observable):
    """(x, y) -> (cos 2pi x, sin 2pi x, cos 2pi y / 2, sin 2pi y / 2), invertible."""

    output_dimension = 4

    def evaluate(self, point):
        x, y = 2.0 * math.pi * point[0], 2.0 * math.pi * point[1]
        return np.array((math.cos(x), math.sin(x), 0.5 * math.cos(y), 0.5 * math.sin(y)))

    def invert(self, value):
        return np.array([(math.atan2(s, c) / (2.0 * math.pi)) % 1.0
                         for c, s in (value[:2], value[2:])])


# (flag, class, k, observable, seed, ClassifyParams overrides): each case
# reaches its flag through classify_seed; a DynamicalMap in place of k, or
# an Observable in place of the observable name, is patched into cli
FLAG_CASES = [
    ("fixed_point", "integrable", 0.7, "embedding", (0.0, 0.0), {}),
    ("escape", "chaotic", 2.0, "embedding", (0.5, 0.0), {"escape_bound": 1.5}),
    ("periodic_orbit", "integrable", 0.7, "embedding", (0.0, 0.5), {}),
    ("no_unit_circle_roots", "indeterminate", HalvingMap(), IdentityObservable(), (0.3, 0.2),
     {"k_init": 1, "k_max": 1, "delta_k": 1}),
    ("no_unit_circle_roots_stacked", "indeterminate", FlipHalvingMap(), IdentityObservable(),
     (0.3, 0.2), {"k_init": 2, "k_max": 2, "delta_k": 1}),
    ("stacked_signal_too_short", "indeterminate", 0.7, "embedding",
     (0.05, 0.042424242424242427), {"eps_rat": 1e-4}),
    ("stacked_rational:17/47", "integrable", TorusRotation(), TorusObservable(), (0.1, 0.2),
     {}),
    ("fit_failed:NotImplementedError", "integrable", 0.7, "y", (0.05, 0.1), {}),
    ("stalled", "chaotic", 2.0, "embedding", (0.5, 0.0), {}),
]


def flag_name(token):
    """A flag token without its ``:detail`` suffix."""
    return token.split(":", 1)[0]


# keys that are not [algorithm] parameters, each with a value in range, so
# only the key itself can be rejected: the chaos gate is the adaptive
# solve's own convergence verdict, the adaptive gate is always R_G, and the
# other four are module constants
REMOVED_KEYS = [("delta_chaos", "1e-10"), ("top_modes", "10"), ("unit_circle_tol", "1e-7"),
                ("gamma_max", "0.5"), ("validation_j", "128"), ("adapt_gate", "scale_free")]


def read_body(path):
    """CSV contents with the version-stamp header stripped."""
    lines = open(path).read().splitlines()
    assert lines[0].startswith("# birkhoff-rre ")
    return "\n".join(lines[1:])


class TestConfig:
    def test_unknown_key_rejected(self, tmp_path):
        cfg = write_config(tmp_path / "bad.ini", BASE.format(table="t.csv") + "\n[algorithm]\n")
        bad = cfg.replace("bad.ini", "bad2.ini")
        (tmp_path / "bad2.ini").write_text(
            BASE.format(table="t.csv").replace("epsilon = 0", "epsilonn = 0")
        )
        with pytest.raises(ConfigError, match="epsilonn"):
            load_config(bad)

    def test_unknown_section_rejected(self, tmp_path):
        cfg = write_config(tmp_path / "bad.ini",
                           BASE.format(table="t.csv") + "\n[plotting]\nstyle = dark\n")
        with pytest.raises(ConfigError, match="plotting"):
            load_config(cfg)

    def test_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(str(tmp_path / "nope.ini"))

    def test_exit_code_two_on_bad_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "bad.ini",
                           BASE.format(table="t.csv").replace("k = 0.7", "k = seven"))
        assert main(["classify", cfg]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("old, new", BAD_VALUES,
                             ids=[new.split("\n")[-1] for _, new in BAD_VALUES])
    def test_bad_value_exits_two(self, tmp_path, capsys, old, new):
        body = BASE.format(table=tmp_path / "t.csv")
        assert old in body
        cfg = write_config(tmp_path / "bad.ini", body.replace(old, new, 1))
        assert main(["classify", cfg]) == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("command", ["classify", "converge", "average"])
    def test_non_smooth_observable_exits_two(self, tmp_path, capsys, command):
        # the angle x jumps where it wraps at 1, so no observable carries it
        body = BASE.format(table=tmp_path / "t.csv").replace(
            "observable = embedding", "observable = x")
        assert main([command, write_config(tmp_path / "bad.ini", body)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "not smooth" in err
        assert f"choose one of {', '.join(OBSERVABLES)};" in err
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("old, new", [case[1:] for case in MALFORMED],
                             ids=[case[0] for case in MALFORMED])
    def test_malformed_file_exits_two(self, tmp_path, capsys, old, new):
        (tmp_path / "taken").write_text("")
        body = BASE.format(table=tmp_path / "t.csv")
        old, new = (text.replace("{tmp}", str(tmp_path)) for text in (old, new))
        assert old in body
        cfg = write_config(tmp_path / "bad.ini", body.replace(old, new, 1))
        assert main(["classify", cfg]) == 2
        assert "config error" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["bad.ini", "taken"]  # nothing written

    def test_escape_bound_below_one_exits_two(self, tmp_path, capsys):
        # the bound applies to every coordinate, and the angle x leaves any
        # bound below 1: at 0.2 the k = 0.7 circle seed (0.05, 0.1) would
        # escape at step 4, with x = 0.931
        body = BASE.format(table=tmp_path / "t.csv").replace(
            "k = 0.7", "k = 0.7\nescape_bound = 0.999")
        assert main(["classify", write_config(tmp_path / "bad.ini", body)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "escape_bound" in err
        assert not (tmp_path / "t.csv").exists()
        cfg = load_config(write_config(tmp_path / "ok.ini", body.replace("0.999", "1")))
        assert cfg.params.escape_bound == 1.0

    @pytest.mark.parametrize("key, value", REMOVED_KEYS, ids=[k for k, _ in REMOVED_KEYS])
    def test_removed_key_is_unknown(self, tmp_path, capsys, key, value):
        body = BASE.format(table=tmp_path / "t.csv").replace(
            "delta_k = 50", f"delta_k = 50\n{key} = {value}")
        assert main(["classify", write_config(tmp_path / "bad.ini", body)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and key in err
        assert not (tmp_path / "t.csv").exists()

    def test_readme_example_is_the_default(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        example = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        cfg = load_config(write_config(tmp_path / "readme.ini", example))
        parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
        parser.read_string(example)
        keys = parser.options("algorithm")
        assert keys
        defaults = ClassifyParams()
        for key in keys:
            assert getattr(cfg.params, key) == getattr(defaults, key), key

    def test_readme_names_every_parameter(self):
        # the ini example's [algorithm] keys plus the keys listed in the
        # paragraph after it are exactly the ClassifyParams fields
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        example, after = readme.split("```ini\n", 1)[1].split("```", 1)
        parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
        parser.read_string(example)
        listed = after.split("The numerical keys (", 1)[1].split(")", 1)[0]
        named = parser.options("algorithm") + re.findall(r"`(?:\[map\] )?(\w+)`", listed)
        assert sorted(named) == sorted(f.name for f in fields(ClassifyParams))

    def test_readme_lists_every_flag(self):
        # the flags README's "Output formats" list names are exactly the
        # flags FLAG_CASES reaches
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        listed = readme.split("### Output formats", 1)[1].split("drawn from:", 1)[1]
        listed = listed.split("An `error` row", 1)[0]
        named = re.findall(r"^- `([^`]+)`", listed, flags=re.MULTILINE)
        assert sorted(flag_name(flag) for flag in named) == sorted(
            flag_name(case[0]) for case in FLAG_CASES)

    def test_readme_lists_every_observable(self):
        # the names in the comment of README's example observable line are
        # exactly the observables a run configuration accepts
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        comment = re.search(r"^observable = embedding +# (.*)$", readme, flags=re.MULTILINE)
        assert sorted(name.strip() for name in comment.group(1).split("|")) == sorted(
            OBSERVABLES)

    def test_line_seed_grid(self, tmp_path):
        body = BASE.format(table="t.csv").replace(
            "mode = list\nseeds = 0.0 0.0; 0.1 0.0; 0.5 0.05",
            "mode = line\nx = 0.05\ny_min = 0.0\ny_max = 0.6\ncount = 4",
        )
        cfg = load_config(write_config(tmp_path / "line.ini", body))
        assert np.allclose(cfg.seeds,
                           [(0.05, 0.0), (0.05, 0.2), (0.05, 0.4), (0.05, 0.6)],
                           atol=1e-15)

    def test_benchmark_configs_load(self, tmp_path):
        # every benchmark workload's config stays a valid run configuration
        path = Path(__file__).parents[1] / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        for name in workloads.WORKLOADS:
            indices = workloads.seed_order(name, 0)
            text = workloads.config_text(name, indices)
            cfg = load_config(write_config(tmp_path / f"{name}.ini", text))
            assert cfg.seeds == [workloads.line_point(workloads.WORKLOADS[name]["line"], i)
                                 for i in indices], name

    def test_benchmark_probe_targets_exist(self):
        # a traced benchmark run wraps these package names; each must exist
        path = Path(__file__).parents[1] / "perfbench" / "probe.py"
        spec = importlib.util.spec_from_file_location("perfbench_probe", path)
        probe = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(probe)
        targets = list(probe.LAYER_FUNCTIONS.values())
        targets += [(probe.cli, attr) for attr in probe.SEED_FUNCTIONS.values()]
        targets += [(probe.rre.TrajectorySource, "take"), (probe.maps.StandardMap, "step")]
        for owner, attr in targets:
            assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr}"

    def test_every_definition_is_named_elsewhere(self):
        # no helper that nothing calls: every module-level function and class
        # of the package, and every non-dunder method, is named in a package
        # module other than __init__.py or in the benchmark probe, which looks
        # functions up by their names as strings
        def names_in(tree):
            return ({node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
                    | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
                    | {node.value for node in ast.walk(tree)
                       if isinstance(node, ast.Constant) and isinstance(node.value, str)})

        root = Path(__file__).parents[1]
        used = names_in(ast.parse((root / "perfbench" / "probe.py").read_text()))
        defined = []
        for path in sorted((root / "src" / "birkhoff_rre").glob("*.py")):
            tree = ast.parse(path.read_text())
            if path.name != "__init__.py":
                used |= names_in(tree)
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    defined.append((path.stem, node.name))
                if isinstance(node, ast.ClassDef):
                    defined += [(f"{path.stem}.{node.name}", item.name) for item in node.body
                                if isinstance(item, ast.FunctionDef)
                                and not (item.name.startswith("__") and item.name.endswith("__"))]
        assert len(defined) > 90
        unused = [f"{owner}.{name}" for owner, name in defined if name not in used]
        assert not unused, f"named nowhere: {unused}"

    def test_every_field_is_read(self):
        # no value that nothing reads: every dataclass field and class-level
        # attribute of the package is loaded as an attribute (obj.name) in a
        # package module, the benchmark probe or a script; passing it to a
        # constructor by keyword is a write, not a read
        root = Path(__file__).parents[1]
        package = sorted((root / "src" / "birkhoff_rre").glob("*.py"))
        readers = package + [root / "perfbench" / "probe.py"] + sorted(
            (root / "scripts").glob("*.py"))
        read = set()
        for path in readers:
            read |= {node.attr for node in ast.walk(ast.parse(path.read_text()))
                     if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
        defined = []
        for path in package:
            for cls in ast.walk(ast.parse(path.read_text())):
                if not isinstance(cls, ast.ClassDef):
                    continue
                for item in cls.body:
                    targets = ([item.target] if isinstance(item, ast.AnnAssign)
                               else item.targets if isinstance(item, ast.Assign) else [])
                    defined += [(f"{path.stem}.{cls.name}", target.id) for target in targets
                                if isinstance(target, ast.Name)]
        assert len(defined) > 50
        unread = [f"{owner}.{name}" for owner, name in defined if name not in read]
        assert not unread, f"read nowhere: {unread}"


class TestClassifySeed:
    @pytest.mark.parametrize("flag, tag, k, observable, seed, overrides", FLAG_CASES,
                             ids=[flag_name(case[0]) for case in FLAG_CASES])
    def test_flag_reached(self, monkeypatch, flag, tag, k, observable, seed, overrides):
        if isinstance(k, DynamicalMap):
            monkeypatch.setattr(cli, "build_map", lambda cfg, dmap=k: dmap)
            k = 0.7
        if isinstance(observable, Observable):
            monkeypatch.setattr(cli, "build_observable", lambda cfg, obs=observable: obs)
            observable = "embedding"
        cfg = RunConfig(k=k, observable=observable, params=ClassifyParams(**overrides),
                        seeds=[seed])
        row, _ = classify_seed(cfg, seed)
        assert flag in row["flags"].split("|")
        assert row["class"] == tag

    def test_escape_row_counts_map_evaluations(self):
        # at k = 2.0 the orbit of (0.5, 0.0) reaches y = 1.5006 at step 163,
        # inside the K = 50 rung, so 163 map evaluations were made
        seed = (0.5, 0.0)
        cfg = RunConfig(k=2.0, params=ClassifyParams(escape_bound=1.5), seeds=[seed])
        row, payload = classify_seed(cfg, seed)
        assert (row["class"], row["flags"]) == ("chaotic", "escape")
        assert row["N"] == 163
        assert payload is None

    def test_stalled_row_reports_the_stopping_rung(self):
        # the first point of the k = 2.0 chaos line stops at K = 50, where
        # T = 75 windows take 175 map evaluations
        seed = (0.5, 0.0)
        row, payload = classify_seed(RunConfig(k=2.0, seeds=[seed]), seed)
        assert (row["class"], row["flags"]) == ("chaotic", "stalled")
        assert (row["K"], row["N"]) == (50, 175)
        assert payload is None

    @pytest.mark.parametrize("k, seed, tag, period, flags", [
        (2.0, (0.5, 0.0), "chaotic", None, ["stalled"]),
        (0.7, (0.05, 0.1), "integrable", 1, []),
        (0.7, (0.05, 80 * 0.6 / 99), "integrable", 2, []),
        (0.7, (0.0, 0.0), "integrable", 1, ["fixed_point"]),
    ], ids=["stalled", "circle", "period_2_chain", "fixed_point"])
    def test_n_counts_map_evaluations_everywhere(self, k, seed, tag, period, flags):
        # the record, the ladder's last rung and the CSV's N are one number
        cls = classify_trajectory(StandardMap(k), EmbeddingObservable(), seed)
        assert (cls.tag, cls.period, cls.flags) == (tag, period, flags)
        assert cls.evaluations == cls.ladder.history[-1][1]
        row, _ = classify_seed(RunConfig(k=k, seeds=[seed]), seed)
        assert row["N"] == cls.evaluations

    def test_escape_row_counts_evaluations_past_a_bad_observable(self, monkeypatch):
        # the observable turns nan at x = 100, inside the K = 50 rung (D = 1:
        # 251 samples), and the whole rung was stepped: 250 map evaluations
        monkeypatch.setattr(cli, "build_map", lambda cfg: CounterMap())
        monkeypatch.setattr(cli, "build_observable", lambda cfg: NanFromObservable(100.0))
        seed = (0.0, 0.0)
        row, _ = classify_seed(RunConfig(seeds=[seed]), seed)
        assert (row["class"], row["flags"]) == ("chaotic", "escape")
        assert row["N"] == 250

    @pytest.mark.parametrize("observable, fits", [("y", 0), ("embedding", 1)])
    def test_fit_only_when_the_observable_inverts(self, monkeypatch, observable, fits):
        # y cannot be inverted, so the advance fails before any circle is fitted
        calls = []
        fit = cli.fit_circle
        monkeypatch.setattr(cli, "fit_circle", lambda cls: calls.append(cls) or fit(cls))
        seed = (0.05, 0.1)
        row, circle = classify_seed(RunConfig(observable=observable, seeds=[seed]), seed)
        assert row["class"] == "integrable" and row["rotation"] is not None
        assert len(calls) == fits
        if fits:
            assert row["flags"] == "" and row["R_p"] < 1e-6 and circle is not None
        else:
            assert row["flags"] == "fit_failed:NotImplementedError"
            assert row["R_p"] is None and circle is None

    def test_validation_failure_keeps_label(self, monkeypatch):
        # an advance that escapes makes validation_residual raise
        # ValidationFailure: the fit fails, the label and rotation stay
        def nan_advance(dmap, obs):
            return lambda values: np.full(np.shape(values), np.nan)

        monkeypatch.setattr(cli, "make_observable_advance", nan_advance)
        seed = (0.05, 0.1)
        row, payload = classify_seed(RunConfig(seeds=[seed]), seed)
        assert row["class"] == "integrable"
        assert row["period"] == 1 and row["rotation"] is not None
        assert row["R_p"] is None
        assert row["flags"].split("|") == ["fit_failed:ValidationFailure"]
        assert payload is None

    def test_error_row_keeps_only_seed(self, monkeypatch):
        # a failure after classification leaves no partial result in the row
        def boom(classification):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(cli, "fit_circle", boom)
        seed = (0.05, 0.1)
        row, payload = classify_seed(RunConfig(seeds=[seed]), seed)
        assert row["class"] == "error"
        assert row["flags"] == "RuntimeError:synthetic failure"
        assert (row["seed_x"], row["seed_y"]) == seed
        assert all(row[col] is None for col in cli.CSV_COLUMNS
                   if col not in ("seed_x", "seed_y", "class", "flags"))
        assert payload is None


class TestClassifyCommand:
    def test_rows_and_determinism(self, tmp_path):
        table = tmp_path / "out.csv"
        circles = tmp_path / "circles"
        cfg = write_config(
            tmp_path / "run.ini",
            BASE.format(table=table) + f"circles = {circles}\n",
        )
        assert main(["classify", cfg]) == 0
        body_one = read_body(table)
        lines = body_one.splitlines()
        assert lines[0] == ("seed_x,seed_y,class,period,rotation,R,R_G,R_p,K,N,flags")
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 3
        by_seed = {(row[0], row[1]): row for row in rows}
        fixed = by_seed[("0", "0")]
        assert fixed[2] == "integrable" and fixed[3] == "1"
        assert "fixed_point" in fixed[10]
        circle_row = by_seed[("0.10000000000000001", "0")]
        assert circle_row[2] == "integrable"
        assert abs(float(circle_row[4]) - 0.1330925) < 1e-4
        assert float(circle_row[7]) < 1e-2  # validation residual
        chaos_row = by_seed[("0.5", "0.050000000000000003")]
        assert chaos_row[2] == "chaotic"
        assert chaos_row[4] == ""
        # rerun: byte-identical body
        assert main(["classify", cfg]) == 0
        assert read_body(table) == body_one
        # circle JSON for the two integrable seeds only
        files = sorted(os.listdir(circles))
        assert files == ["circle_0000.json", "circle_0001.json"]
        payload = json.loads((circles / "circle_0001.json").read_text())
        assert payload["period"] == 1
        assert payload["L"] >= 1
        assert len(payload["coefficients"]) == 1  # one island block
        assert len(payload["coefficients"][0]) == 2 * payload["L"] + 1
        assert len(payload["coefficients"][0][0]) == 2  # D components, [re, im] each

    def test_fit_failure_keeps_label(self, tmp_path):
        # a y-only observable cannot be inverted to a map state, so the
        # circle cannot be validated; the row stays integrable
        table = tmp_path / "out.csv"
        circles = tmp_path / "circles"
        body = BASE.format(table=table).replace(
            "observable = embedding", "observable = y"
        ).replace("seeds = 0.0 0.0; 0.1 0.0; 0.5 0.05", "seeds = 0.05 0.1")
        cfg = write_config(tmp_path / "run.ini", body + f"circles = {circles}\n")
        assert main(["classify", cfg]) == 0
        row = read_body(table).splitlines()[1].split(",")
        assert row[2] == "integrable"
        assert row[7] == ""
        assert "fit_failed:NotImplementedError" in row[10].split("|")
        assert not os.listdir(circles)

    @pytest.mark.parametrize("workers, seeds, pool_size", [(64, 3, 3), (64, 1, None)])
    def test_pool_never_larger_than_seed_count(self, tmp_path, monkeypatch,
                                               workers, seeds, pool_size):
        # records the pool it is asked for and runs the jobs in this process
        sizes = []

        class RecordingExecutor:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", RecordingExecutor)
        monkeypatch.setattr(cli, "classify_seed",
                            lambda cfg, seed: ({col: "" for col in cli.CSV_COLUMNS}, None))
        cfg = RunConfig(seeds=[(0.0, 0.0)] * seeds, table=str(tmp_path / "t.csv"),
                        workers=workers)
        assert cli.run_classify(cfg, out=io.StringIO()) == 0
        assert sizes == ([] if pool_size is None else [pool_size])
        assert len(read_body(tmp_path / "t.csv").splitlines()) == 1 + seeds

    def test_parallel_output_identical(self, tmp_path):
        table = tmp_path / "out.csv"
        serial_cfg = write_config(tmp_path / "serial.ini", BASE.format(table=table))
        assert main(["classify", serial_cfg]) == 0
        serial = read_body(table)
        parallel_cfg = write_config(tmp_path / "parallel.ini",
                                    BASE.format(table=table) + "workers = 2\n")
        assert main(["classify", parallel_cfg]) == 0
        assert read_body(table) == serial

    def test_indeterminate_island_row_shows_period(self, tmp_path):
        # line seed 7 of the k = 0.7 headline line: at eps_rat = 1e-4 a mode
        # reads as period 49, too long a chain to stack at K = 50
        table = tmp_path / "out.csv"
        body = BASE.format(table=table).replace(
            "delta_k = 50", "delta_k = 50\neps_rat = 1e-4"
        ).replace("seeds = 0.0 0.0; 0.1 0.0; 0.5 0.05", "seeds = 0.05 0.042424242424242427")
        assert main(["classify", write_config(tmp_path / "run.ini", body)]) == 0
        row = read_body(table).splitlines()[1].split(",")
        assert row[2] == "indeterminate"
        assert row[3] == "49"
        assert row[4] == "" and row[7] == ""
        assert row[10].split("|")[-1] == "stacked_signal_too_short"

    def test_budget_accounting_scalar_observable(self, tmp_path):
        table = tmp_path / "out.csv"
        body = BASE.format(table=table).replace(
            "observable = embedding", "observable = y"
        ).replace("gamma = 3", "gamma = 2").replace(
            "seeds = 0.0 0.0; 0.1 0.0; 0.5 0.05", "seeds = 0.1 0.0"
        )
        cfg = write_config(tmp_path / "run.ini", body)
        assert main(["classify", cfg]) == 0
        row = read_body(table).splitlines()[1].split(",")
        k, n = int(row[8]), int(row[9])
        # N map evaluations is one less than the (2+gamma)K+1 samples
        assert n + 1 == (2 + 2) * k + 1

    def test_seed_error_recorded_not_raised(self, tmp_path, monkeypatch):
        table = tmp_path / "out.csv"
        cfg = write_config(tmp_path / "run.ini", BASE.format(table=table))
        import birkhoff_rre.cli as cli_module

        def boom(*args, **kwargs):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(cli_module, "classify_trajectory", boom)
        assert main(["classify", cfg]) == 3
        rows = [line.split(",") for line in read_body(table).splitlines()[1:]]
        assert all(row[2] == "error" for row in rows)
        assert all("synthetic failure" in row[10] for row in rows)


def circle_json_reference(row, circle):
    """The circle file's payload, built one coefficient at a time."""
    coeffs = []
    d = circle.dimension
    for block in range(circle.period):
        rows = []
        for mode in range(2 * circle.num_modes + 1):
            entry = circle.coefficients[mode, block * d:(block + 1) * d]
            rows.append([[float(z.real), float(z.imag)] for z in entry])
        coeffs.append(rows)
    return {
        "seed": [row["seed_x"], row["seed_y"]],
        "period": circle.period,
        "rotation": circle.rotation,
        "L": circle.num_modes,
        "coefficients": coeffs,
        "residuals": {"R": row["R"], "R_G": row["R_G"], "R_p": row["R_p"]},
        "flags": row["flags"].split("|") if row["flags"] else [],
    }


def reference_text(row, circle):
    return json.dumps(circle_json_reference(row, circle), indent=1, sort_keys=True)


class TestCircleJson:
    @pytest.mark.parametrize("period, num_modes", [(1, 75), (2, 4), (1, 0)])
    def test_bytes_match_per_coefficient_loop(self, period, num_modes):
        rng = np.random.default_rng(period * 100 + num_modes)
        shape = (2 * num_modes + 1, period * 2)
        circle = FourierCircle(
            period=period, rotation=0.3, num_modes=num_modes, dimension=2,
            coefficients=rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        row = {"seed_x": 0.05, "seed_y": 0.25, "R": 1e-12, "R_G": 2e-12, "R_p": 3e-9,
               "flags": "stacked_rational:17/47"}
        payload = json.loads(_circle_text(row, circle))
        assert len(payload["coefficients"]) == period
        assert payload["seed"] == [0.05, 0.25]
        assert payload["residuals"] == {"R": 1e-12, "R_G": 2e-12, "R_p": 3e-9}
        assert payload["flags"] == ["stacked_rational:17/47"]
        assert _circle_text(row, circle) == reference_text(row, circle)

    @pytest.mark.parametrize("period, num_modes, dimension, flags", [
        (1, 0, 2, ""),                                  # L = 0
        (2, 4, 2, "rank_deficient_modes"),              # a period-2 chain
        (3, 7, 1, "stacked_rational:1/3|periodic_orbit"),  # D = 1, two flags
    ])
    def test_text_is_the_json_indent_encoding(self, period, num_modes, dimension, flags):
        rng = np.random.default_rng(period * 100 + num_modes)
        shape = (2 * num_modes + 1, period * dimension)
        circle = FourierCircle(
            period=period, rotation=0.1 * 3, num_modes=num_modes, dimension=dimension,
            coefficients=rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        row = {"seed_x": 0.05, "seed_y": 0.1 * 7, "R": 1e-12, "R_G": -0.0, "R_p": 3e-9,
               "flags": flags}
        assert _circle_text(row, circle) == reference_text(row, circle)
        # json spells the non-finite floats NaN, Infinity and -Infinity
        circle.coefficients[0, 0] = complex(math.nan, -math.inf)
        row["R_p"] = math.inf
        assert _circle_text(row, circle) == reference_text(row, circle)

    def test_text_of_line_circles_is_the_json_indent_encoding(self):
        # a circle, the period-2 chain and a period-3 chain of the k = 0.7 line
        cfg = RunConfig(k=0.7)
        for index, period in ((10, 1), (83, 2), (62, 3)):
            seed = (0.05, index * (0.6 / 99))
            row, circle = classify_seed(cfg, seed)
            assert circle.period == period
            assert _circle_text(row, circle) == reference_text(row, circle)

    def test_no_flags_is_an_empty_list(self):
        circle = FourierCircle(period=1, rotation=0.3, num_modes=0, dimension=2,
                               coefficients=np.ones((1, 2), dtype=complex))
        row = {"seed_x": 0.05, "seed_y": 0.25, "R": 1e-12, "R_G": 2e-12, "R_p": 3e-9,
               "flags": ""}
        assert json.loads(_circle_text(row, circle))["flags"] == []
        assert _circle_text(row, circle) == reference_text(row, circle)


class TestConvergeCommand:
    def test_columns_and_budget(self, tmp_path):
        table = tmp_path / "conv.csv"
        body = BASE.format(table=table).replace(
            "seeds = 0.0 0.0; 0.1 0.0; 0.5 0.05", "seeds = 0.1 0.0"
        ).replace("gamma = 3", "gamma = 2") + "\n"
        body = body.replace("delta_adapt = 1e-10",
                            "delta_adapt = 1e-10\nk_values = 25 50")
        cfg = write_config(tmp_path / "run.ini", body)
        assert main(["converge", cfg]) == 0
        lines = open(table).read().splitlines()
        assert lines[1] == "seed_x,seed_y,K,N,R_rre,R_wba"
        rows = [line.split(",") for line in lines[2:]]
        assert [int(r[2]) for r in rows] == [25, 50]
        for row in rows:
            k, n = int(row[2]), int(row[3])
            assert n == k + 2 * k + 1  # T = ceil(2K/2) = K for D = 2
            assert float(row[4]) < 1e-11   # integrable: filter side converged
            assert float(row[5]) > 0.0

    def test_chaotic_seed_neither_method_converges(self, tmp_path):
        table = tmp_path / "conv.csv"
        body = BASE.format(table=table).replace(
            "seeds = 0.0 0.0; 0.1 0.0; 0.5 0.05", "seeds = 0.5 0.05"
        ).replace("delta_adapt = 1e-10", "delta_adapt = 1e-10\nk_values = 100 200")
        cfg = write_config(tmp_path / "run.ini", body)
        assert main(["converge", cfg]) == 0
        for line in open(table).read().splitlines()[2:]:
            row = line.split(",")
            # the doubling residual sits in the chaotic band; the filter
            # residual fluctuates but never approaches the 1e-11
            # integrable gate
            assert float(row[4]) > 1e-8
            assert float(row[5]) > 1e-5

    def test_escaped_seed_reported(self, tmp_path, monkeypatch, capsys):
        # the drifting orbit leaves escape_bound = 150 at step 151: K = 25
        # needs 89 samples and K = 50 needs 176, so one row is written
        monkeypatch.setattr(cli, "build_map", lambda cfg: DriftMap())
        table = tmp_path / "conv.csv"
        body = BASE.format(table=table).replace(
            "k = 0.7", "k = 0.7\nescape_bound = 150"
        ).replace("seeds = 0.0 0.0; 0.1 0.0; 0.5 0.05", "seeds = 0.0 0.0")
        body = body.replace("delta_adapt = 1e-10", "delta_adapt = 1e-10\nk_values = 25 50")
        assert main(["converge", write_config(tmp_path / "run.ini", body)]) == 0
        assert "seed (0.0, 0.0): escaped at step 151" in capsys.readouterr().out.splitlines()
        rows = [line.split(",") for line in open(table).read().splitlines()[2:]]
        assert [(row[2], row[3]) for row in rows] == [("25", "89")]

    def test_fixed_point_rre_zero_at_first_k(self, tmp_path):
        table = tmp_path / "conv.csv"
        body = BASE.format(table=table).replace(
            "seeds = 0.0 0.0; 0.1 0.0; 0.5 0.05", "seeds = 0.0 0.0"
        ).replace("delta_adapt = 1e-10", "delta_adapt = 1e-10\nk_values = 25")
        cfg = write_config(tmp_path / "run.ini", body)
        assert main(["converge", cfg]) == 0
        row = open(table).read().splitlines()[2].split(",")
        assert float(row[4]) == 0.0


class TestAverageCommand:
    def test_twist_y_average_is_exact(self, tmp_path):
        table = tmp_path / "avg.csv"
        body = BASE.format(table=table).replace("k = 0.7", "k = 0.0")
        body = body.replace("observable = embedding", "observable = y")
        body = body.replace("seeds = 0.0 0.0; 0.1 0.0; 0.5 0.05",
                            "seeds = 0.1 0.6180339887498949")
        body = body.replace("delta_adapt = 1e-10", "delta_adapt = 1e-10\nn_samples = 2000")
        cfg = write_config(tmp_path / "run.ini", body)
        assert main(["average", cfg]) == 0
        lines = open(table).read().splitlines()
        assert lines[1] == "seed_x,seed_y,n,avg_0"
        row = lines[2].split(",")
        assert int(row[2]) == 2000
        assert abs(float(row[3]) - 0.6180339887498949) < 1e-14


class TestFigure2Command:
    def test_reported_errors(self, capsys):
        assert main(["figure2"]) == 0
        output = capsys.readouterr().out
        assert output.count("[pass]") == 3
        errors = figure2_errors()
        assert abs(errors["all-ones"] - 7.11e-2) <= 0.05 * 7.11e-2
        assert abs(errors["wba"] - 7.38e-3) <= 0.05 * 7.38e-3
        assert abs(errors["tuned"] - 2.72e-5) <= 0.05 * 2.72e-5


def test_readme_library_example():
    # README's library example runs as written against the exported names
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    example = readme.split("```python\n", 1)[1].split("```", 1)[0]
    src = str(Path(__file__).parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", example], env=env, capture_output=True,
                          text=True, timeout=300, check=True)
    labels, residual = done.stdout.splitlines()
    assert labels.startswith("integrable 2 0.11274")
    assert float(residual) < 1e-8


def package_env(**preset):
    """The caller's environment with ``src`` on the path, neither BLAS
    thread variable set, and ``preset`` added."""
    env = {key: value for key, value in os.environ.items()
           if key not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    src = str(Path(__file__).parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env.update(preset)
    return env


class TestThreadPolicy:
    READ_BACK = ("import birkhoff_rre, os; "
                 "print(os.environ['OPENBLAS_NUM_THREADS'], os.environ['OMP_NUM_THREADS'])")

    def read_back(self, env):
        done = subprocess.run([sys.executable, "-c", self.READ_BACK], env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        return done.stdout.split()

    def test_import_sets_one_thread(self):
        assert self.read_back(package_env()) == ["1", "1"]

    def test_caller_setting_kept(self):
        assert self.read_back(package_env(OPENBLAS_NUM_THREADS="3")) == ["3", "1"]

    def test_command_output_identical_across_worker_counts(self, tmp_path):
        # a circle, the period-3 chain at K = 300 and a stalled chaotic seed,
        # classified by the command as shipped, at one and at two workers
        outputs = []
        for workers in (1, 2):
            out = tmp_path / f"w{workers}"
            out.mkdir()
            body = BASE.format(table=out / "t.csv").replace("k_max = 200", "k_max = 600")
            body = body.replace("seeds = 0.0 0.0; 0.1 0.0; 0.5 0.05",
                                f"seeds = 0.05 {10 * (0.6 / 99)!r}; 0.05 {60 * (0.6 / 99)!r};"
                                " 0.5 0.05")
            body += f"circles = {out / 'circles'}\nworkers = {workers}\n"
            cfg = write_config(tmp_path / f"w{workers}.ini", body)
            subprocess.run([sys.executable, "-m", "birkhoff_rre.cli", "classify", cfg],
                           env=package_env(), capture_output=True, timeout=300, check=True)
            files = sorted(p for p in out.rglob("*") if p.is_file())
            outputs.append({p.relative_to(out): p.read_bytes() for p in files})
        assert len(outputs[0]) == 3  # the table and two circles
        assert outputs[0] == outputs[1]


def test_command_imports_no_scipy():
    # numpy is the one runtime dependency; scipy is in the test extra only
    code = ("import sys, birkhoff_rre.cli; "
            "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", code], env=package_env(), capture_output=True,
                          text=True, timeout=120, check=True)
    assert done.stdout.strip() == "[]"


def test_classify_loads_no_numpy_random(tmp_path):
    # the chaotic seed (0.5, 0.05) of BASE back-substitutes its filter
    # triangles, so the condition estimate draws its probe columns; the
    # draw is numpy arithmetic, and numpy.random, about 6 MB and 13 ms a
    # process, stays unloaded
    cfg = write_config(tmp_path / "run.ini", BASE.format(table=tmp_path / "t.csv"))
    code = ("import sys; from birkhoff_rre import cli, numerics; "
            "from birkhoff_rre.config import load_config; "
            "full_rank = []; solve = numerics._solve_triangle; "
            "numerics._solve_triangle = lambda *args: full_rank.append(solve(*args)) or full_rank[-1]; "
            f"cfg = load_config({cfg!r}); row, _ = cli.classify_seed(cfg, (0.5, 0.05)); "
            "print(row['class'], sum(x is not None for x in full_rank), 'numpy.random' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code], env=package_env(), capture_output=True,
                          text=True, timeout=120, check=True)
    tag, back_substituted, loaded = done.stdout.split()
    assert tag == "chaotic" and int(back_substituted) >= 1
    assert loaded == "False"
