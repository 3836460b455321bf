"""Every schema-valid config at the edges of its range checks ends in a report or a refusal.

Each config is an experiment's default config (``{}``) with one key set to an
edge of its range check: the smallest and the largest admissible value, or a
tiny (1e-9) and a huge (1e9, 10**9 for an integer key) one where the check is
open, signed where it admits both signs.  Keys that scale the work
(trajectories, time, dt, N, directions, grid_points, lambdas, n_radii, fields,
r_max, lambda, radii) keep their huge edge only where a budget refuses it
before any work (``directions`` by ``grid.MAX_DIRECTIONS``); elsewhere the
large edge is capped, so that the sweep stays short.  ``output_dir`` is not
swept: ``--out`` sets it.  Combinations of keys are not swept, except the
large ``scatter1d`` potentials of ``POTENTIALS``, which must be refused within
a second, and the ``pairing`` ladders of ``PAIRINGS``, refused by the synthesis
budget of ``boundary_pairing_check``.

A run goes through ``main(argv)`` in-process.  It must return 0 or 1 and
write its report, or return 2 with a config error or a library refusal on
stderr and no report.  Any exception that escapes ``main`` fails the test.
"""

import json
import time

import pytest

from scatcalc.cli import _EXPERIMENTS, main

TINY, HUGE = 1e-9, 1e9

EDGES = {
    "flow": {
        "lambda": [TINY, HUGE],
        "dim": [2, 3],
        "trajectories": [1, 4],
        "time": [TINY, HUGE],  # refused by the states budget
        "dt": [TINY, 0.01],  # TINY is refused by the states budget
    },
    "radial": {
        "model": ["helmholtz", "klein_gordon", "wave", "x_dx", "d_x1"],
        "lambda": [TINY, HUGE],
        "dim": [1, 3],
        "resolution": [1, 12],
    },
    "quantize-check": {"L": [TINY, HUGE], "N": [8, 256]},
    "commutant": {
        "s0": [TINY, HUGE],
        "eps": [TINY, HUGE],
        "digamma": [TINY, HUGE],
        "lambda": [TINY, HUGE],
        "r_below": [-HUGE, -0.5 - TINY],
        "r_above": [-0.5 + TINY, HUGE],
        "delta": [TINY, HUGE],
        "L": [TINY, HUGE],
        "N": [8, 4098],  # 4098^2 lattice points are refused by the grid budget
        "fields": [1, 3],
    },
    "helmholtz": {
        "lambda": [TINY, 2.0],
        "dims": [[2], [3]],
        "r_min": [TINY, HUGE],
        "r_max": [TINY, HUGE],  # HUGE: the sphere-rule budget
        "n_radii": [2, 4],
    },
    "threshold": {
        "lambda": [TINY, 2.0],
        "orders": [[-HUGE], [HUGE]],
        "radii": [[1.0, 1.0 + TINY], [50.0, HUGE]],  # HUGE: the radial-rule budget
    },
    "pairing": {
        "lambda": [TINY, 2.0],
        "radii": [[TINY, 2 * TINY], [100.0, HUGE]],  # HUGE: the sphere-rule budget
    },
    "scatter1d": {
        "potential": ["free", "square_barrier", "gaussian_bump", "compact_bump"],
        "height": [-HUGE, HUGE],
        "width": [TINY, HUGE],
        "lambdas": [[TINY], [50.0]],
    },
    "radon": {
        "dim": [2, 3],
        "grid_points": [4, 24],
        "directions": [1, int(HUGE)],  # HUGE: the directions budget
        "cone_width": [TINY, HUGE],
    },
    "var-order": {
        "L": [TINY, HUGE],
        "N": [8, 256],
        "s": [-HUGE, HUGE],
        "r_const": [-HUGE, HUGE],
    },
}

CONFIGS = [
    (experiment, {key: value})
    for experiment, keys in EDGES.items()
    for key, values in {**keys, "seed": [-1, 2**32]}.items()
    for value in values
]


def test_every_schema_key_is_swept():
    assert {e: set(keys) for e, keys in EDGES.items()} == {
        e: set(schema) for e, (_, schema) in _EXPERIMENTS.items()
    }


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # edges overflow on purpose
@pytest.mark.parametrize(
    "experiment,body", CONFIGS, ids=[f"{e}-{json.dumps(b)}" for e, b in CONFIGS]
)
def test_edge_config_ends_in_a_report_or_a_refusal(tmp_path, capsys, experiment, body):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(body))
    out = tmp_path / "out"
    code = main([experiment, "--config", str(cfg), "--out", str(out)])
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    if code == 2:
        assert err.startswith(("config error: ", "refused: "))
        assert not out.exists()
    else:
        assert (out / f"{experiment}-report.json").exists()


#: Large potentials, each refused before integrating: all but the last by the
#: path budget of ``solve_scatter`` (unbudgeted, the first four ended in a
#: traceback and the others in runs past a minute), and the last by the
#: support scan of ``potential_from_callable``, which it outlasts (it solved
#: nine lambdas, about 3 s, before the path budget refused one).
POTENTIALS = [
    ({"potential": "square_barrier", "height": HUGE}, "GridBudgetError"),
    ({"potential": "gaussian_bump", "height": HUGE}, "GridBudgetError"),
    ({"potential": "compact_bump", "height": HUGE}, "GridBudgetError"),
    ({"potential": "square_barrier", "width": HUGE}, "GridBudgetError"),
    ({"potential": "square_barrier", "height": -HUGE}, "GridBudgetError"),
    ({"potential": "gaussian_bump", "height": -HUGE}, "GridBudgetError"),
    ({"potential": "compact_bump", "height": -HUGE}, "GridBudgetError"),
    ({"potential": "compact_bump", "width": HUGE}, "GridBudgetError"),
    ({"potential": "gaussian_bump", "width": HUGE}, "InputRefusal"),
]


@pytest.mark.parametrize("body,refusal", POTENTIALS, ids=[json.dumps(b) for b, _ in POTENTIALS])
def test_large_potential_is_refused_within_a_second(tmp_path, capsys, body, refusal):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(body))
    start = time.perf_counter()
    code = main(["scatter1d", "--config", str(cfg), "--out", str(tmp_path / "out")])
    elapsed = time.perf_counter() - start
    assert code == 2 and capsys.readouterr().err.startswith(f"refused: {refusal}: ")
    assert elapsed < 1.0


#: Pairing ladders past the synthesis budget (``grid.MAX_PAIRING_TERMS``); the
#: first exited 0 after 391 s and 138 MiB while unbudgeted.
PAIRINGS = [
    {"radii": [100.0, 100000.0]},
    {"radii": [100.0, 8200.0]},
    {"lambda": 2.0, "radii": [100.0, 4100.0]},
]


@pytest.mark.parametrize("body", PAIRINGS, ids=[json.dumps(b) for b in PAIRINGS])
def test_large_pairing_is_refused_within_a_second(tmp_path, capsys, body):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(body))
    start = time.perf_counter()
    code = main(["pairing", "--config", str(cfg), "--out", str(tmp_path / "out")])
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("refused: GridBudgetError: ") and "radii" in err
    assert not (tmp_path / "out").exists()
    assert elapsed < 1.0
