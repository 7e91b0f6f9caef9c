from __future__ import annotations

import math
import os

import pytest
from hypothesis import given, strategies as st

from avoidkit.cli import main as cli_main
from avoidkit.experiment import (
    CSV_HEADER,
    PrevalenceRow,
    hd_probability_upper_bound,
    pattern_parameters,
    prevalence_experiment,
    row_to_csv,
    rows_from_csv,
    wilson_interval,
    worker_count,
)
from configuration_reference import reference_prevalence_rows


@pytest.mark.parametrize("line", ["verify.alpha = 0.01", "gen.rejection_budget = 10", "cache.capacity = 64",
                                  "sim.ticks = 10", "--config=run.cfg"])
def test_dropped_config_keys_are_unknown(tmp_path, capsys, line):
    """No run reads a config key or a --config flag; a settings file that
    holds one is a usage error, exit 2."""
    g, cfg = tmp_path / "pet.txt", tmp_path / "run.args"
    assert cli_main(["gen", "--family", "petersen", "-o", str(g)]) == 0
    cfg.write_text(f"--ticks=10\n{line}\n")
    assert cli_main(["simulate", str(g), f"@{cfg}", "-o", str(tmp_path / "t.txt")]) == 2
    assert capsys.readouterr().err == f"error: avoidkit simulate: unrecognized arguments: {line}\n"
    assert not (tmp_path / "t.txt").exists()


@given(st.integers(min_value=0, max_value=500), st.integers(min_value=1, max_value=500))
def test_wilson_interval_contains_point(hits, samples):
    if hits > samples:
        hits, samples = samples, hits
    lo, hi = wilson_interval(hits, samples)
    p = hits / samples
    assert 0 <= lo <= p <= hi <= 1


@pytest.mark.parametrize("hits,samples", [(5, 3), (-1, 3), (2, -4)])
def test_wilson_interval_refuses_hits_outside_the_samples(hits, samples):
    with pytest.raises(ValueError, match=f"got hits={hits}, samples={samples}"):
        wilson_interval(hits, samples)


def test_wilson_interval_known_value():
    # p=0.5, n=100: standard Wilson bounds
    lo, hi = wilson_interval(50, 100)
    assert math.isclose(lo, 0.40383, abs_tol=1e-4)
    assert math.isclose(hi, 0.59617, abs_tol=1e-4)


def test_pattern_parameters():
    assert pattern_parameters(3) == (5, 7)
    assert pattern_parameters(4) == (5, 7)
    assert pattern_parameters(5) == (6, 9)


def test_hd_bound_values():
    # n^5 * (3/(n-14))^7 at n=32: computed independently
    want = 32**5 * (3 / 18) ** 7
    got = hd_probability_upper_bound(32, 3, 5, 7)
    assert math.isclose(got, want, rel_tol=1e-12)
    with pytest.raises(ValueError):
        hd_probability_upper_bound(10, 3, 5, 7)  # n <= 2m
    with pytest.raises(ValueError):
        hd_probability_upper_bound(100, 3, 9, 7)  # m <= n0


def test_prevalence_row_validation():
    with pytest.raises(ValueError):
        PrevalenceRow(10, 3, 5, 6, 1.2, 0, 1, None)


def test_csv_round_trip():
    rows = [
        PrevalenceRow(16, 3, 50, 3, 0.06, 0.0206, 0.1618, 1.79e7),
        PrevalenceRow(32, 3, 50, 0, 0.0, 0.0, 0.0713, None),
    ]
    text = "\n".join([CSV_HEADER] + [row_to_csv(r) for r in rows])
    back = rows_from_csv(text)
    assert [(r.n, r.hits) for r in back] == [(16, 3), (32, 0)]
    assert back[1].bound is None
    with pytest.raises(ValueError):
        rows_from_csv("wrong,header\n1,2\n")


def test_worker_count(monkeypatch):
    monkeypatch.delenv("AVOIDKIT_THREADS", raising=False)
    assert worker_count() == 1
    monkeypatch.setenv("AVOIDKIT_THREADS", "4")
    assert worker_count() == 4
    monkeypatch.setenv("AVOIDKIT_THREADS", "banana")
    assert worker_count() == 1


def test_prevalence_experiment_small():
    rows = prevalence_experiment(3, [8, 10], samples=20, seed=5)
    assert [r.n for r in rows] == [8, 10]
    for row in rows:
        assert row.samples == 20
        assert 0 <= row.hits <= 20
        assert row.ci_lo <= row.freq <= row.ci_hi
        assert row.bound is None  # n <= 2m for these sizes


def test_prevalence_deterministic_and_parallel_equal(monkeypatch):
    # 111 cells in 15 tasks of up to 8 seeds, then 36 cells in 8 tasks at
    # d=4: sample counts that are not multiples of 8 leave a short task at
    # every n, and whole rows, loops and multi-edges included, must equal
    # the one-cell-at-a-time reference at every worker count and chunking
    monkeypatch.setattr(os, "cpu_count", lambda: 4)  # 3 workers on any machine
    for d, n_list, samples in ((3, [16, 32, 64], 37), (4, [8, 10, 16, 32], 9)):
        want = reference_prevalence_rows(d, n_list, samples, seed=2)
        for threads in ("1", "2", "3"):
            monkeypatch.setenv("AVOIDKIT_THREADS", threads)
            assert prevalence_experiment(d, n_list, samples=samples, seed=2) == want
        assert [r.n for r in want] == n_list and sum(r.loops + r.multi_edges for r in want) > 0
    monkeypatch.setenv("AVOIDKIT_THREADS", "2")
    assert prevalence_experiment(3, [], samples=5, seed=2) == []


def test_prevalence_pool_is_bounded(monkeypatch):
    """The pool starts no more workers than there are tasks or CPUs, however
    many AVOIDKIT_THREADS asks for; no process is started here.  4 cells
    are 2 tasks of 2 seeds, 18 cells are 4 tasks (8 + 1 seeds per n)."""
    import concurrent.futures

    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, cells, chunksize=1):
            return map(fn, cells)

    monkeypatch.setenv("AVOIDKIT_THREADS", "1")
    serial = {samples: prevalence_experiment(3, [8, 10], samples=samples, seed=5) for samples in (2, 9)}
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setenv("AVOIDKIT_THREADS", str(10**6))
    for samples, cpus, want in ((2, 64, [2]), (9, 64, [2, 4]), (9, 3, [2, 4, 3]), (9, None, [2, 4, 3])):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert prevalence_experiment(3, [8, 10], samples=samples, seed=5) == serial[samples]
        assert sizes == want


def test_prevalence_validates():
    with pytest.raises(ValueError):
        prevalence_experiment(3, [9], samples=5, seed=0)  # odd n*d
    with pytest.raises(ValueError):
        prevalence_experiment(3, [10], samples=0, seed=0)


@pytest.mark.parametrize("d", [1, 0, -2])
def test_prevalence_rejects_d_below_two(monkeypatch, d):
    """d < 2 is refused before any graph is sampled or any pool is made."""
    import concurrent.futures

    from avoidkit import experiment

    calls = []
    monkeypatch.setattr(experiment, "configuration_model", lambda *args: calls.append(args))
    monkeypatch.setattr(experiment, "configuration_models", lambda *args: calls.append(args))
    monkeypatch.setattr(experiment, "random_regular_simple", lambda *args, **kw: calls.append(args))
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", lambda *args, **kw: calls.append(args))
    monkeypatch.setenv("AVOIDKIT_THREADS", "2")
    for simple_connected in (False, True):
        with pytest.raises(ValueError, match=f"d must be >= 2, got d={d}"):
            prevalence_experiment(d, [4, 6], samples=2, seed=0, simple_connected=simple_connected)
    assert calls == []


def test_simple_connected_prevalence_refuses_n_at_most_d_before_sampling(monkeypatch, capsys):
    """With simple_connected an n <= d is refused, naming n and d, before
    the cells of the other n values are sampled; the configuration model
    alone takes it."""
    from avoidkit import experiment

    calls = []
    monkeypatch.setattr(experiment, "random_regular_simple", lambda *args, **kw: calls.append(args))
    with pytest.raises(ValueError, match=r"a simple d-regular graph needs d < n \(n=4, d=5\)"):
        prevalence_experiment(5, [64, 4], samples=100, seed=0, simple_connected=True)
    assert calls == []
    code = cli_main(["experiment", "prevalence", "--d", "5", "--n-list", "64,4", "--samples", "100",
                     "--simple-connected"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: a simple d-regular graph needs d < n (n=4, d=5)\n"
    assert calls == []
    [row] = prevalence_experiment(5, [4], samples=2, seed=0)
    assert row.samples == 2


@pytest.mark.parametrize("n", [0, -4])
def test_prevalence_rejects_n_below_one(monkeypatch, capsys, n):
    """n < 1 is refused, naming n, before any graph is sampled or any pool is made."""
    import concurrent.futures

    from avoidkit import experiment

    calls = []
    monkeypatch.setattr(experiment, "configuration_model", lambda *args: calls.append(args))
    monkeypatch.setattr(experiment, "configuration_models", lambda *args: calls.append(args))
    monkeypatch.setattr(experiment, "random_regular_simple", lambda *args, **kw: calls.append(args))
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", lambda *args, **kw: calls.append(args))
    monkeypatch.setenv("AVOIDKIT_THREADS", "2")
    for simple_connected in (False, True):
        with pytest.raises(ValueError, match=f"n must be >= 1, got n={n}"):
            prevalence_experiment(4, [6, n], samples=2, seed=0, simple_connected=simple_connected)
    assert calls == []
    code = cli_main(["experiment", "prevalence", "--d", "3", "--n-list", str(n), "--samples", "2"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: n must be >= 1, got n={n}\n"
