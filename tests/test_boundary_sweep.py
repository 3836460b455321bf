"""Every schema-valid config at the edges of its range checks ends in a report or a refusal.

Each config is an experiment's default config (``{}``) with one key set to an
edge of its range check: the smallest and the largest admissible value, or a
tiny (1e-9) and a huge (1e9) one where the check is open, signed where it
admits both signs.  Keys that scale the work (trajectories, time, dt, N,
directions, grid_points, lambdas, n_radii, fields, r_max, lambda, radii) keep
their huge edge only where a budget refuses it before any work; elsewhere the
large edge is capped, so that the sweep stays short.  ``output_dir`` is not
swept: ``--out`` sets it.  Not covered: combinations of keys, and huge
``threshold`` or ``pairing`` radii, which no budget refuses yet (a radius of
1e9 asks for a 15 GiB quadrature array).

A run goes through ``main(argv)`` in-process.  It must return 0 or 1 and
write its report, or return 2 with a config error or a library refusal on
stderr and no report.  Any exception that escapes ``main`` fails the test.
"""

import json

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
        "r_max": [TINY, 400.0],
        "n_radii": [2, 4],
    },
    "threshold": {
        "lambda": [TINY, 2.0],
        "orders": [[-HUGE], [HUGE]],
        "radii": [[1.0, 1.0 + TINY], [50.0, 800.0]],
    },
    "pairing": {
        "lambda": [TINY, 2.0],
        "radii": [[TINY, 2 * TINY], [100.0, 800.0]],
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
        "directions": [1, 64],
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
