"""The shipped experiment configurations load to the intended runs and
run end to end through the command line, and the exit-margin replay
stops where the ladder does."""

import configparser
import importlib.util
from pathlib import Path

import pytest

from birkhoff_rre import rre
from birkhoff_rre.cli import main
from birkhoff_rre.config import RunConfig, load_config
from birkhoff_rre.maps import EmbeddingObservable, StandardMap
from birkhoff_rre.spectral import ClassifyParams, classify_trajectory

SCRIPTS = Path(__file__).parents[1] / "scripts"

LINE_STEP = (0.6 - 0.0) / (100 - 1)

EXPERIMENTS = {
    "classify_line": RunConfig(
        k=0.7,
        params=ClassifyParams(gamma=3.0, delta_adapt=1e-10, k_max=600),
        seeds=[(0.05, 0.0 + i * LINE_STEP) for i in range(100)],
        table="line_classification.csv",
        circles="line_circles",
        workers=1,
    ),
    "convergence_study": RunConfig(
        k=0.7,
        params=ClassifyParams(gamma=2.0),
        k_values=[25, 50, 100, 200, 400, 700],
        seeds=[(0.1, 0.0), (0.05, 0.3), (0.5, 0.05)],
        table="convergence.csv",
    ),
}

# name: (command, overrides that shrink the run, table header)
SMALL_RUNS = {
    "classify_line": ("classify", {"seeds": {"count": "2"}, "algorithm": {"k_max": "100"}},
                      "seed_x,seed_y,class,period,rotation,R,R_G,R_p,K,N,flags"),
    "convergence_study": ("converge", {"seeds": {"seeds": "0.1 0.0"},
                                       "algorithm": {"k_values": "25 50"}},
                          "seed_x,seed_y,K,N,R_rre,R_wba"),
}


def modified_copy(name, directory, overrides):
    """Write the shipped configuration ``name`` into ``directory`` with
    some values replaced; return its path."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    parser.read(SCRIPTS / f"{name}.ini")
    for section, values in overrides.items():
        for key, value in values.items():
            parser.set(section, key, value)
    path = directory / f"{name}.ini"
    with open(path, "w") as handle:
        parser.write(handle)
    return str(path)


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_config_loads_to_experiment(name):
    assert load_config(str(SCRIPTS / f"{name}.ini")) == EXPERIMENTS[name]


@pytest.mark.parametrize("name", sorted(SMALL_RUNS))
def test_small_copy_writes_table(tmp_path, monkeypatch, name):
    command, overrides, header = SMALL_RUNS[name]
    path = modified_copy(name, tmp_path, overrides)
    monkeypatch.chdir(tmp_path)
    assert main([command, path]) == 0
    lines = (tmp_path / EXPERIMENTS[name].table).read_text().splitlines()
    assert lines[1] == header
    assert len(lines) > 2
    if EXPERIMENTS[name].circles:
        assert any((tmp_path / EXPERIMENTS[name].circles).iterdir())


@pytest.mark.parametrize("name", sorted(SMALL_RUNS))
def test_bad_value_exits_two(tmp_path, monkeypatch, capsys, name):
    command, _, _ = SMALL_RUNS[name]
    path = modified_copy(name, tmp_path, {"algorithm": {"gamma": "0.5"}})
    monkeypatch.chdir(tmp_path)
    assert main([command, path]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / EXPERIMENTS[name].table).exists()


# (k, x, y) of seeds under the embedding: two that stall, at K = 50 and at
# K = 250, and one that converges at its first rung
REPLAYED = [(2.0, 0.5, 0.0), (0.7, 0.05, 45 * LINE_STEP), (0.7, 0.05, 0.1)]


def load_exit_margins():
    spec = importlib.util.spec_from_file_location("exit_margins", SCRIPTS / "exit_margins.py")
    exit_margins = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(exit_margins)
    return exit_margins


def test_exit_margins_replay_stops_where_the_ladder_does(capsys):
    exit_margins = load_exit_margins()
    ladders = [exit_margins.full_ladder(("embedding", seed, rre.EXIT_SCHEDULE))
               for seed in REPLAYED]
    for (k, x, y), (history, stop) in zip(REPLAYED, ladders):
        cls = classify_trajectory(StandardMap(k), EmbeddingObservable(), (x, y))
        if cls.flags == ["stalled"]:
            k_stop = cls.ladder.solution.half_length
            assert history[stop][:2] == (k_stop, cls.evaluations)
            assert history[stop][3] == rre.exit_pair(k_stop, rre.EXIT_SCHEDULE)
        else:
            assert cls.tag == "integrable" and stop is None
    assert [history[stop][0] for history, stop in ladders[:2]] == [50, 250]
    assert exit_margins.report("replayed", REPLAYED, ladders, rre.EXIT_SCHEDULE) == 0
    text = capsys.readouterr().out
    assert "1 converged, 2 unconverged, 0 escaped" in text
    assert "K >=  50  tau 0.0012: no converged row has a rung here; stops 1" in text
    assert "K >= 250  tau 1e-06: no converged row has a rung here; stops 1" in text


@pytest.mark.parametrize("text", [
    "100:1e-4,50:1.2e-3",   # K's out of order: exit_pair would read (50, 1.2e-3) at 150
    "50:1.2e-3,50:1e-4",    # a K repeated
    "50:nan",
    "50:-1",
    "50:0",
    "50:1.2e-3,100:inf",
])
def test_exit_margins_rejects_a_malformed_schedule(capsys, text):
    exit_margins = load_exit_margins()
    with pytest.raises(ValueError):
        exit_margins.parse_schedule(text)
    with pytest.raises(SystemExit) as info:
        exit_margins.main(["--sets", "rows610", "--schedule", text])
    assert info.value.code == 2
    assert "--schedule" in capsys.readouterr().err


def test_exit_margins_reads_a_well_formed_schedule():
    exit_margins = load_exit_margins()
    assert exit_margins.parse_schedule("50:1.2e-3,100:1e-4") == ((50, 1.2e-3), (100, 1e-4))


@pytest.mark.parametrize("text", ["0", "-3", "1.5", "two"])
def test_exit_margins_rejects_fewer_than_one_worker(capsys, text):
    exit_margins = load_exit_margins()
    with pytest.raises(ValueError):
        exit_margins.worker_count(text)
    with pytest.raises(SystemExit) as info:
        exit_margins.main(["--sets", "rows610", "--workers", text])
    assert info.value.code == 2
    assert "--workers" in capsys.readouterr().err


def test_exit_margins_reads_a_worker_count():
    assert load_exit_margins().worker_count("2") == 2
