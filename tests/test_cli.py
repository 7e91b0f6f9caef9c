from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from avoidkit.cli import main
from avoidkit.couplers import ENGINES
from avoidkit.graphs import parse_graph


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def test_gen_analyze_roundtrip(tmp_path, capsys):
    out = tmp_path / "pet.txt"
    code, stdout, _ = run(capsys, "gen", "--family", "petersen", "-o", str(out))
    assert code == 0 and "digest=223b9bae4baa1733" in stdout
    code, stdout, _ = run(capsys, "analyze", str(out))
    assert code == 0
    assert "verdict: cubic (also square-free)" in stdout


def test_gen_calls_each_family_constructor(tmp_path, capsys):
    from avoidkit.generate import circulant, complete, complete_bipartite, cycle, petersen

    out = tmp_path / "g.txt"
    for argv, want in (
        (["--family", "cycle", "--n", "7"], cycle(7)),
        (["--family", "complete", "--n", "5"], complete(5)),
        (["--family", "complete_bipartite", "--p", "2", "--q", "3"], complete_bipartite(2, 3)),
        (["--family", "petersen"], petersen()),
        (["--family", "circulant", "--n", "7", "--offsets", "2,1"], circulant(7, [1, 2])),
    ):
        code, stdout, _ = run(capsys, "gen", *argv, "-o", str(out))
        assert code == 0 and f"digest={want.digest()}" in stdout
        assert out.read_text() == want.to_text()


def test_gen_random_regular(tmp_path, capsys):
    out = tmp_path / "rr.txt"
    code, stdout, _ = run(capsys, "gen", "--family", "random_regular",
                          "--n", "12", "--d", "3", "--seed", "4", "--connected",
                          "-o", str(out))
    assert code == 0 and "rejections:" in stdout
    code, _, err = run(capsys, "gen", "--family", "random_regular",
                       "--n", "12", "--d", "3", "-o", str(out))
    assert code == 2 and "requires --seed" in err


def test_gen_rejection_budget_exceeded(tmp_path, capsys):
    # K_10 is the only 9-regular graph on 10 vertices, but a pairing of its
    # 90 stubs is simple with probability about 1e-13
    out = tmp_path / "rr.txt"
    code, _, err = run(capsys, "gen", "--family", "random_regular", "--n", "10", "--d", "9",
                       "--seed", "1", "-o", str(out))
    assert code == 1
    assert err == "error: rejection budget of 100000 attempts exceeded\n"
    assert not out.exists()


def test_gen_rejects_hopeless_request_up_front(tmp_path, capsys):
    # a 1-regular graph on 6 vertices is never connected: no attempt is made
    out = tmp_path / "rr.txt"
    code, _, err = run(capsys, "gen", "--family", "random_regular", "--n", "6", "--d", "1",
                       "--seed", "1", "--connected", "-o", str(out))
    assert code == 2 and "never connected" in err
    assert not out.exists()


TIMED_MAIN = """import sys, time
from avoidkit.cli import main
t = time.perf_counter()
code = main(sys.argv[1:])
print(time.perf_counter() - t)
sys.exit(code)
"""


def _limit_memory():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("argv,graph_text,message", [
    (["analyze", "{g}"], "1000000000 0\n", "1000000000 vertices exceed the limit"),
    (["gen", "--family", "cycle", "--n", "1000000000", "-o", "{out}"], None,
     "1000000000 vertices exceed the limit"),
    (["gen", "--family", "complete", "--n", "100000", "-o", "{out}"], None,
     "4999950000 edges exceed the limit"),
    (["experiment", "prevalence", "--d", "2", "--n-list", "99999999999999999999", "--samples", "1"], None,
     "99999999999999999999 vertices exceed the limit"),
    (["experiment", "prevalence", "--d", "3", "--n-list", "16", "--samples", "1000000000"], None,
     "1000000000 samples at each of 1 n values exceed the limit"),
], ids=["graph-header", "gen-cycle", "gen-complete", "experiment-n-list", "experiment-samples"])
def test_oversized_input_exits_2_at_once(tmp_path, argv, graph_text, message):
    """Each input would allocate per vertex or per edge for minutes; the
    size limits reject it within a second.  The child's address space is
    capped, so a missing check fails here instead of exhausting memory."""
    root = Path(__file__).resolve().parents[1]
    graph, out = tmp_path / "g.txt", tmp_path / "out.txt"
    if graph_text is not None:
        graph.write_text(graph_text)
    argv = [a.format(g=graph, out=out) for a in argv]
    done = subprocess.run(
        [sys.executable, "-c", TIMED_MAIN, *argv],
        env={**{k: v for k, v in os.environ.items() if k != "AVOIDKIT_THREADS"}, "PYTHONPATH": str(root / "src")},
        capture_output=True, text=True, timeout=60, preexec_fn=_limit_memory,
    )
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith("error: ") and message in done.stderr
    assert float(done.stdout) < 1.0
    assert not out.exists()


def test_python_m_avoidkit(tmp_path):
    root = Path(__file__).resolve().parents[1]
    out = tmp_path / "pet.txt"
    done = subprocess.run(
        [sys.executable, "-m", "avoidkit", "gen", "--family", "petersen", "-o", str(out)],
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert "digest=223b9bae4baa1733" in done.stdout


def test_analyze_domain_failure(tmp_path, capsys):
    k5 = tmp_path / "k5.txt"
    run(capsys, "gen", "--family", "complete", "--n", "5", "-o", str(k5))
    code, stdout, _ = run(capsys, "analyze", str(k5))
    assert code == 1
    assert "verdict: none" in stdout


@pytest.mark.parametrize("argv,code,verdict,calls", [
    (["--family", "petersen"], 0, "verdict: cubic (also square-free)",
     {"contains_H3tilde": 1, "is_square_free": 1}),
    (["--family", "complete", "--n", "5"], 1, "verdict: none",
     {"contains_Hd": 1, "is_square_free": 1}),
])
def test_analyze_runs_each_detector_once(tmp_path, capsys, monkeypatch, argv, code, verdict, calls):
    from avoidkit import cli, structure

    counts = Counter()
    for name in ("contains_H3tilde", "contains_Hd", "is_square_free"):
        for module in (structure, cli):
            if name in vars(module):
                def counted(*args, _fn=getattr(module, name), _name=name):
                    counts[_name] += 1
                    return _fn(*args)
                monkeypatch.setattr(module, name, counted)
    host = tmp_path / "host.txt"
    run(capsys, "gen", *argv, "-o", str(host))
    got, stdout, _ = run(capsys, "analyze", str(host))
    assert got == code and verdict in stdout
    assert counts == calls


@pytest.mark.parametrize("argv,code,calls", [
    (["--family", "petersen"], 0, {"contains_H3tilde": 1, "is_square_free": 1, "basic_profile": 1}),
    (["--family", "complete", "--n", "5"], 1, {"contains_Hd": 1, "is_square_free": 1, "basic_profile": 1}),
])
def test_simulate_auto_runs_each_detector_once(tmp_path, capsys, monkeypatch, argv, code, calls):
    from avoidkit import structure

    host = tmp_path / "host.txt"
    run(capsys, "gen", *argv, "-o", str(host))
    counts = Counter()
    for name in ("contains_H3tilde", "contains_Hd", "is_square_free", "basic_profile"):
        def counted(*args, _fn=getattr(structure, name), _name=name):
            counts[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(structure, name, counted)
    got, _, err = run(capsys, "simulate", str(host), "--engine", "auto", "--ticks", "10",
                      "--seed", "1", "-o", str(tmp_path / "traj.txt"))
    assert got == code, err
    assert counts == calls


def test_analyze_parse_failure(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("not a graph\n")
    code, _, err = run(capsys, "analyze", str(bad))
    assert code == 2 and "cannot read graph" in err


def test_analyze_rejects_edge_lines_past_the_header(tmp_path, capsys):
    # read as a 1-edge graph, this host would print `connected=False` and exit 1
    extra = tmp_path / "extra.txt"
    extra.write_text("3 1\n0 1\n1 2\n")
    code, stdout, err = run(capsys, "analyze", str(extra))
    assert code == 2 and stdout == ""
    assert err == f"error: cannot read graph {extra}: extra line 3 after the header's 1 edge line(s): '1 2'\n"


def test_transport_command(tmp_path, capsys):
    cir = tmp_path / "cir.txt"
    run(capsys, "gen", "--family", "circulant", "--n", "9", "--offsets", "1,2", "-o", str(cir))
    code, stdout, _ = run(capsys, "transport", str(cir), "--a", "0", "--b", "4", "--e", "1")
    assert code == 0
    assert "kind=regular" in stdout and "row_sum=4 col_sum=3" in stdout
    code, _, err = run(capsys, "transport", str(cir), "--a", "0", "--b", "2")
    assert code == 2  # adjacent pair rejected for the squarefree matrix


C9_TRANSPORT_0_4_1 = """\
kind=regular rows=12 cols=16 row_sum=4 col_sum=3 total=48
MoverPair(first_step=2, second_step=0): 0 0 0 0 2 1 0 0 0 0 0 0 0 0 0 1
MoverPair(first_step=2, second_step=1): 0 0 0 0 0 0 0 0 3 1 0 0 0 0 0 0
MoverPair(first_step=2, second_step=3): 0 0 0 0 0 0 0 0 0 0 0 0 3 1 0 0
MoverPair(first_step=2, second_step=4): 0 0 0 0 0 0 3 0 0 1 0 0 0 0 0 0
MoverPair(first_step=7, second_step=0): 0 0 0 0 0 1 0 0 0 0 0 0 0 2 0 1
MoverPair(first_step=7, second_step=5): 0 3 1 0 0 0 0 0 0 0 0 0 0 0 0 0
MoverPair(first_step=7, second_step=6): 0 0 2 2 0 0 0 0 0 0 0 0 0 0 0 0
MoverPair(first_step=7, second_step=8): 0 0 0 0 0 1 0 2 0 0 0 0 0 0 0 1
MoverPair(first_step=8, second_step=0): 0 0 0 0 0 0 0 1 0 1 2 0 0 0 0 0
MoverPair(first_step=8, second_step=1): 0 0 0 0 0 0 0 0 0 0 1 3 0 0 0 0
MoverPair(first_step=8, second_step=6): 3 0 0 1 0 0 0 0 0 0 0 0 0 0 0 0
MoverPair(first_step=8, second_step=7): 0 0 0 0 1 0 0 0 0 0 0 0 0 0 3 0
"""

AG23_TRANSPORT_9_3 = """\
kind=squarefree rows=4 cols=3 row_sum=3 col_sum=4 total=12 (roles swapped)
10: 2 0 1
12: 0 3 0
17: 2 1 0
19: 0 0 3
"""


@pytest.mark.parametrize("host,argv,want", [
    ("c9", ["--a", "0", "--b", "4", "--e", "1"], C9_TRANSPORT_0_4_1),
    ("ag23", ["--a", "9", "--b", "3"], AG23_TRANSPORT_9_3),
], ids=["c9-regular", "ag23-swapped"])
def test_transport_output_pinned(request, tmp_path, capsys, host, argv, want):
    """The whole `transport` stdout, entries included: on C9(1,2) at (0, 4, 1)
    and at an AG(2,3) line-point pair, whose rows are Bob's."""
    g = request.getfixturevalue({"c9": "circ9", "ag23": "ag23"}[host])
    path = tmp_path / "g.txt"
    path.write_text(g.to_text())
    code, stdout, _ = run(capsys, "transport", str(path), *argv)
    assert code == 0 and stdout == want


def test_simulate_and_verify(tmp_path, capsys):
    pet = tmp_path / "pet.txt"
    traj = tmp_path / "traj.txt"
    run(capsys, "gen", "--family", "petersen", "-o", str(pet))
    code, stdout, _ = run(capsys, "simulate", str(pet), "--ticks", "800",
                          "--seed", "6", "--engine", "auto", "-o", str(traj))
    assert code == 0
    assert "engine=cubic" in stdout and "scenario histogram: S4:" in stdout
    code, stdout, _ = run(capsys, "verify", str(pet), str(traj))
    assert code == 0
    assert "avoidance: clean" in stdout and "verdict=pass" in stdout


@pytest.mark.parametrize("family,argv,blocks", [
    (["--family", "circulant", "--n", "9", "--offsets", "1,2"], ["--engine", "regular"], 10),
    (["--family", "cycle", "--n", "10"], ["--engine", "cycle", "--walkers", "5"], 30),
    (["--family", "petersen"], ["--engine", "cubic"], 30),
], ids=["regular", "cycle", "cubic"])
def test_simulate_prints_the_blocks_it_drew(tmp_path, capsys, family, argv, blocks):
    """Three-tick regular blocks, one-tick cycle and Petersen blocks; the
    written text is the library's, and cubic writes one mark per block
    end plus the start."""
    from avoidkit.couplers import simulate

    host, traj = tmp_path / "g.txt", tmp_path / "traj.txt"
    run(capsys, "gen", *family, "-o", str(host))
    code, stdout, _ = run(capsys, "simulate", str(host), *argv, "--ticks", "30", "--seed", "2", "-o", str(traj))
    assert code == 0 and f"ticks=30 blocks={blocks}\n" in stdout
    g = parse_graph(host.read_text())
    want, eng = simulate(g, argv[1], 30, 2, walkers=int(argv[-1]) if "--walkers" in argv else 2)
    assert traj.read_text() == want.to_text() and eng.blocks == blocks
    if argv[1] == "cubic":
        assert traj.read_text().count("# block") == blocks + 1


def test_verify_digest_mismatch(tmp_path, capsys):
    pet = tmp_path / "pet.txt"
    hea = tmp_path / "hea.txt"
    traj = tmp_path / "traj.txt"
    run(capsys, "gen", "--family", "petersen", "-o", str(pet))
    run(capsys, "simulate", str(pet), "--ticks", "50", "--seed", "1", "-o", str(traj))
    from avoidkit.generate import heawood

    hea.write_text(heawood().to_text())
    code, _, err = run(capsys, "verify", str(hea), str(traj))
    assert code == 2 and "digest mismatch" in err


def test_verify_flags_planted_violation(tmp_path, capsys):
    from avoidkit.generate import petersen

    pet = tmp_path / "pet.txt"
    g = petersen()
    pet.write_text(g.to_text())
    traj = tmp_path / "traj.txt"
    traj.write_text(
        f"# graph-digest {g.digest()}\n# seed 0\n# engine cubic\n0 0 2\n1 0 3\n"
    )
    code, stdout, _ = run(capsys, "verify", str(pet), str(traj))
    assert code == 1
    assert "non_edge_step" in stdout


def test_simulate_auto_disconnected_graph(tmp_path, capsys):
    from avoidkit.generate import petersen

    two = tmp_path / "two.txt"
    edges = petersen().edges()
    two.write_text(f"20 {2 * len(edges)}\n"
                   + "".join(f"{u + s} {v + s}\n" for s in (0, 10) for u, v in edges))
    code, _, err = run(capsys, "simulate", str(two), "--ticks", "10", "--seed", "1",
                       "--engine", "auto", "-o", str(tmp_path / "traj.txt"))
    assert code == 1 and "connected" in err
    assert not (tmp_path / "traj.txt").exists()


@pytest.mark.parametrize("body,message", [
    ("#\n0 0 2\n", "bare '#'"),
    ("0 0 2\n1 1\n", "tick 1 has 1 walkers"),
    ("0 0 12\n1 1 7\n", "vertex 12 outside 0..9"),
    ("0 -10 2\n1 1 7\n", "vertex -10 outside 0..9"),
])
def test_verify_malformed_trajectory(tmp_path, capsys, body, message):
    from avoidkit.generate import petersen

    pet = tmp_path / "pet.txt"
    g = petersen()
    pet.write_text(g.to_text())
    traj = tmp_path / "traj.txt"
    traj.write_text(f"# graph-digest {g.digest()}\n# seed 0\n# engine cubic\n" + body)
    code, _, err = run(capsys, "verify", str(pet), str(traj))
    assert code == 2 and "cannot read trajectory" in err and message in err


@pytest.mark.parametrize("engine,body,message", [
    ("cubic", "0\n", "tick 0 has no walker"),
    ("cubic", "", "no ticks"),
    ("cubic", "0 0 2\n# block -1\n", "block marks -1..-1 outside ticks 0..0"),
    ("cubic", "0 0 2\n# block 1\n", "block marks 1..1 outside ticks 0..0"),
    ("cubic", "0 0 2\n1 1 3\n2 4 2\n# block 2\n# block 0\n", "block marks not strictly increasing: 0 after 2"),
    ("bogus", "0 0 2\n", "unknown engine 'bogus'"),
    ("cubic", "0 0 2 7\n", "runs exactly 2 walkers, got 3"),
], ids=["no-walker", "no-ticks", "mark-below-0", "mark-past-end", "mark-out-of-order", "unknown-engine",
        "three-walkers"])
def test_verify_rejects_inconsistent_trajectory(tmp_path, capsys, engine, body, message):
    from avoidkit.generate import petersen

    pet = tmp_path / "pet.txt"
    g = petersen()
    pet.write_text(g.to_text())
    traj = tmp_path / "traj.txt"
    traj.write_text(f"# graph-digest {g.digest()}\n# seed 0\n# engine {engine}\n" + body)
    code, _, err = run(capsys, "verify", str(pet), str(traj))
    assert code == 2 and "cannot read trajectory" in err and message in err


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_verify_rejects_a_seed_simulate_refuses(tmp_path, capsys, seed):
    from avoidkit.generate import petersen

    pet = tmp_path / "pet.txt"
    g = petersen()
    pet.write_text(g.to_text())
    traj = tmp_path / "traj.txt"
    traj.write_text(f"# graph-digest {g.digest()}\n# seed {seed}\n# engine cubic\n0 0 2\n")
    code, stdout, err = run(capsys, "verify", str(pet), str(traj))
    assert (code, stdout) == (2, "")
    assert err == f"error: cannot read trajectory: seed must fit in 64 unsigned bits, got {seed}\n"


def test_simulate_cycle_on_relabelled_cycle(tmp_path, capsys):
    # the 6-cycle 0-2-4-1-3-5-0: the engine must walk this graph's edges
    # and stamp this graph's digest, not those of the canonical C_6
    hexa = tmp_path / "hexa.txt"
    hexa.write_text("6 6\n0 2\n2 4\n4 1\n1 3\n3 5\n5 0\n")
    traj = tmp_path / "traj.txt"
    # 400 ticks give every (walker, vertex) cell the 30 departures chi-square tests
    code, _, _ = run(capsys, "simulate", str(hexa), "--engine", "cycle", "--ticks", "400",
                     "--seed", "1", "-o", str(traj))
    assert code == 0
    assert traj.read_text().splitlines()[3] == "0 0 4"
    code, stdout, err = run(capsys, "verify", str(hexa), str(traj))
    assert code == 0, err
    assert "avoidance: clean" in stdout and "violation" not in stdout and "untested=0 verdict=pass" in stdout


def test_verify_untested_verdict_exits_1(tmp_path, capsys):
    """A run too short to test any chi-square cell does not pass: 20 cycle
    ticks on C6 give each cell at most a few departures."""
    (tmp_path / "c6.txt").write_text("6 6\n0 1\n1 2\n2 3\n3 4\n4 5\n5 0\n")
    traj = tmp_path / "traj.txt"
    code, _, _ = run(capsys, "simulate", str(tmp_path / "c6.txt"), "--engine", "cycle", "--ticks", "20",
                     "--seed", "1", "-o", str(traj))
    assert code == 0
    code, stdout, err = run(capsys, "verify", str(tmp_path / "c6.txt"), str(traj))
    assert (code, err) == (1, "")
    assert "avoidance: clean" in stdout and "tested=0 untested=12 verdict=untested" in stdout


@pytest.mark.parametrize("argv,config", [
    (["--ticks", "-5"], None),
    (["--seed", "-1"], None),
    (["--ticks", "-5", "--seed", "-1"], None),
    ([], "--ticks=-5\n"),
    ([], "--seed=-1\n"),
])
def test_simulate_rejects_negative_ticks_or_seed(tmp_path, capsys, argv, config):
    pet = tmp_path / "pet.txt"
    run(capsys, "gen", "--family", "petersen", "-o", str(pet))
    if config is not None:
        cfg = tmp_path / "run.args"
        cfg.write_text(config)
        argv = [*argv, f"@{cfg}"]
    traj = tmp_path / "traj.txt"
    code, _, err = run(capsys, "simulate", str(pet), *argv, "-o", str(traj))
    assert code == 2 and err.startswith("error:")
    assert not traj.exists()


def test_simulate_with_config(tmp_path, capsys):
    """A settings file read through `@FILE`, one argument a line, writes the
    bytes of the same flags; a flag after the file overrides it."""
    pet, cfg = tmp_path / "pet.txt", tmp_path / "run.args"
    from_file, from_flags = tmp_path / "file.txt", tmp_path / "flags.txt"
    run(capsys, "gen", "--family", "petersen", "-o", str(pet))
    cfg.write_text("--seed=3\n--ticks=120\n--engine=squarefree\n")
    for after, seed in (([], "3"), (["--seed", "4"], "4")):
        code, stdout, _ = run(capsys, "simulate", str(pet), f"@{cfg}", *after, "-o", str(from_file))
        assert code == 0 and "engine=squarefree" in stdout
        run(capsys, "simulate", str(pet), "--seed", seed, "--ticks", "120", "--engine", "squarefree",
            "-o", str(from_flags))
        assert f"# seed {seed}" in from_file.read_text() and from_file.read_bytes() == from_flags.read_bytes()


@pytest.mark.parametrize("body", ["--seed 3\n--ticks 5\n--engine cubic\n",
                                  "--seed=3 \n--ticks=5\t\n--engine=cubic \n",
                                  "--seed 3 --ticks=5\n\n  --engine=cubic\n"],
                         ids=["flag-space-value", "trailing-blanks", "two-per-line"])
def test_simulate_splits_args_file_lines_at_whitespace(tmp_path, capsys, body):
    """An `@FILE` line is split at whitespace, argparse's documented
    recipe: the command-line form `--ticks 5` and a line with trailing
    blanks read as the same flags."""
    pet, cfg = tmp_path / "pet.txt", tmp_path / "run.args"
    from_file, from_flags = tmp_path / "file.txt", tmp_path / "flags.txt"
    run(capsys, "gen", "--family", "petersen", "-o", str(pet))
    cfg.write_text(body)
    code, stdout, err = run(capsys, "simulate", str(pet), f"@{cfg}", "-o", str(from_file))
    assert code == 0 and "engine=cubic" in stdout, err
    run(capsys, "simulate", str(pet), "--seed=3", "--ticks=5", "--engine=cubic", "-o", str(from_flags))
    assert from_file.read_bytes() == from_flags.read_bytes()


def test_simulate_skips_blank_lines_of_an_args_file(tmp_path, capsys):
    pet, cfg = tmp_path / "pet.txt", tmp_path / "run.args"
    from_file, from_flags = tmp_path / "file.txt", tmp_path / "flags.txt"
    run(capsys, "gen", "--family", "petersen", "-o", str(pet))
    cfg.write_text("--seed=3\n\n--ticks=5\n")
    code, _, err = run(capsys, "simulate", str(pet), f"@{cfg}", "-o", str(from_file))
    assert code == 0, err
    run(capsys, "simulate", str(pet), "--seed=3", "--ticks=5", "-o", str(from_flags))
    assert from_file.read_bytes() == from_flags.read_bytes()


def test_simulate_rejects_a_missing_args_file(tmp_path, capsys):
    pet, traj = tmp_path / "pet.txt", tmp_path / "traj.txt"
    run(capsys, "gen", "--family", "petersen", "-o", str(pet))
    code, stdout, err = run(capsys, "simulate", str(pet), f"@{tmp_path / 'missing.args'}", "-o", str(traj))
    assert (code, stdout) == (2, "") and err.startswith("error: cannot read argument file: [Errno 2]")
    assert "missing.args" in err and err.count("\n") == 1
    assert not traj.exists()


@pytest.mark.parametrize("argv,message", [
    (["gen", "--family", "petersen", "--bogus", "-o", "{out}"], "avoidkit gen: unrecognized arguments: --bogus"),
    (["simulate", "{pet}", "--ticks", "x", "-o", "{out}"],
     "avoidkit simulate: argument --ticks: invalid int value: 'x'"),
    ([], "avoidkit: the following arguments are required: command"),
    (["simulate", "{pet}", "--engine", "x", "-o", "{out}"],
     "avoidkit simulate: argument --engine: invalid choice: 'x'"),
    (["simulate", "{pet}"], "avoidkit simulate: the following arguments are required: -o/--output"),
], ids=["unknown-flag", "bad-int", "no-command", "bad-engine", "no-output"])
def test_usage_errors_return_2(tmp_path, capsys, argv, message):
    """A usage error is one `error:` line from main, never argparse's exit."""
    pet, out = tmp_path / "pet.txt", tmp_path / "out.txt"
    run(capsys, "gen", "--family", "petersen", "-o", str(pet))
    code, stdout, err = run(capsys, *(a.format(pet=pet, out=out) for a in argv))
    assert (code, stdout) == (2, "") and err.startswith(f"error: {message}") and err.count("\n") == 1
    assert sorted(tmp_path.iterdir()) == [pet]


@pytest.mark.parametrize("argv,usage", [(["--help"], "usage: avoidkit [-h]"),
                                        (["simulate", "--help"], "usage: avoidkit simulate [-h]")])
def test_help_returns_0(capsys, argv, usage):
    code, stdout, err = run(capsys, *argv)
    assert (code, err) == (0, "") and stdout.startswith(usage)


@pytest.mark.parametrize("content", [b"@SELF\n", b"--seed=3\n\xff\n"], ids=["reads-itself", "not-text"])
def test_simulate_rejects_an_unreadable_args_file(tmp_path, capsys, content):
    pet, cfg, traj = tmp_path / "pet.txt", tmp_path / "run.args", tmp_path / "traj.txt"
    run(capsys, "gen", "--family", "petersen", "-o", str(pet))
    cfg.write_bytes(content.replace(b"SELF", str(cfg).encode()))
    code, stdout, err = run(capsys, "simulate", str(pet), f"@{cfg}", "-o", str(traj))
    assert code == 2 and err.startswith("error: cannot read argument file:") and stdout == ""
    assert not traj.exists()


def test_recursion_in_a_command_is_not_an_args_file_error(tmp_path, capsys, monkeypatch):
    """Only argument parsing reads @FILEs, so only there is a RecursionError
    reported as an unreadable argument file."""
    def recurse(args):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr("avoidkit.cli.cmd_analyze", recurse)
    with pytest.raises(RecursionError):
        main(["analyze", str(tmp_path / "g.txt")])


def test_simulate_walkers_from_config(tmp_path, capsys):
    c10 = tmp_path / "c10.txt"
    cfg = tmp_path / "run.args"
    traj = tmp_path / "traj.txt"
    run(capsys, "gen", "--family", "cycle", "--n", "10", "-o", str(c10))
    cfg.write_text("--walkers=5\n--engine=cycle\n--ticks=20\n")
    code, _, err = run(capsys, "simulate", str(c10), f"@{cfg}", "-o", str(traj))
    assert code == 0, err
    assert len(traj.read_text().splitlines()[3].split()) == 1 + 5
    code, _, err = run(capsys, "simulate", str(c10), f"@{cfg}",
                       "--walkers", "3", "-o", str(traj))
    assert code == 0, err
    assert len(traj.read_text().splitlines()[3].split()) == 1 + 3
    code, _, err = run(capsys, "simulate", str(c10), f"@{cfg}",
                       "--walkers", "0", "-o", str(tmp_path / "none.txt"))
    assert code == 2 and "walkers" in err


@pytest.mark.parametrize("argv,config", [
    (["--engine", "cubic", "--walkers", "5"], None),
    (["--engine", "auto", "--walkers", "3"], None),
    ([], "--walkers=5\n--engine=squarefree\n"),
    ([], "--walkers=4\n"),
])
def test_simulate_rejects_walkers_on_two_walker_engines(tmp_path, capsys, argv, config):
    pet = tmp_path / "pet.txt"
    run(capsys, "gen", "--family", "petersen", "-o", str(pet))
    if config is not None:
        cfg = tmp_path / "run.args"
        cfg.write_text(config)
        argv = [*argv, f"@{cfg}"]
    traj = tmp_path / "traj.txt"
    code, _, err = run(capsys, "simulate", str(pet), *argv, "-o", str(traj))
    assert code == 2 and "exactly 2 walkers" in err
    assert not traj.exists()


@pytest.mark.parametrize("host,argv,message", [
    (["--family", "petersen"], ["--a0", "0", "--b0", "1"], "requires distance(a0, b0) >= 2"),
    (["--family", "petersen"], ["--engine", "cubic", "--a0", "4", "--b0", "4"],
     "requires distance(a0, b0) >= 2"),
    (["--family", "cycle", "--n", "10"], ["--engine", "cycle", "--walkers", "6"],
     "requires 1 <= k <= n/2"),
], ids=["b0-adjacent", "b0-equal", "cycle-walkers"])
def test_simulate_rejects_bad_start_as_input(tmp_path, capsys, host, argv, message):
    g, traj = tmp_path / "host.txt", tmp_path / "traj.txt"
    run(capsys, "gen", *host, "-o", str(g))
    code, stdout, err = run(capsys, "simulate", str(g), *argv, "--ticks", "10", "-o", str(traj))
    assert code == 2 and err.startswith("error:") and message in err and stdout == ""
    assert not traj.exists()


@pytest.mark.parametrize("engine", ["cycle", "auto"])
@pytest.mark.parametrize("start", [("--a0", "3", "--b0", "4"), ("--a0", "3"), ("--b0", "4")])
def test_simulate_cycle_rejects_a0_b0(tmp_path, capsys, engine, start):
    # the cycle engine ignores a start: C10 with --a0 3 --b0 4 would write tick 0 as `0 2`
    c10, traj = tmp_path / "c10.txt", tmp_path / "traj.txt"
    run(capsys, "gen", "--family", "cycle", "--n", "10", "-o", str(c10))
    code, stdout, err = run(capsys, "simulate", str(c10), "--engine", engine, "--walkers", "2", *start,
                            "--ticks", "10", "-o", str(traj))
    assert code == 2 and err == "error: the cycle engine starts its walkers on every second vertex; " \
                                "--a0 and --b0 do not apply\n" and stdout == ""
    assert not traj.exists()
    assert run(capsys, "simulate", str(c10), "--engine", engine, "--walkers", "2", "--ticks", "10",
               "-o", str(traj))[0] == 0


@pytest.mark.parametrize("named", [["--engine", "cycle"], ["@CFG"]], ids=["flag", "config"])
def test_simulate_named_cycle_rejects_a0_before_the_run(tmp_path, capsys, monkeypatch, named):
    c10, cfg, traj = tmp_path / "c10.txt", tmp_path / "run.args", tmp_path / "traj.txt"
    run(capsys, "gen", "--family", "cycle", "--n", "10", "-o", str(c10))
    cfg.write_text("--engine=cycle\n")

    def never(*args, **kwargs):
        raise AssertionError("simulate ran although the named engine rejects --a0")

    monkeypatch.setattr("avoidkit.cli.simulate", never)
    argv = [f"@{cfg}" if a == "@CFG" else a for a in named]
    code, stdout, err = run(capsys, "simulate", str(c10), *argv, "--a0", "3", "--ticks", "1000000",
                            "-o", str(traj))
    assert code == 2 and "--a0 and --b0 do not apply" in err and stdout == ""
    assert not traj.exists()


@pytest.mark.parametrize("argv,code,message", [
    ([], 1, "regular engine hypothesis fails"),
    # a walker count the named engine cannot run is bad input on any graph
    (["--walkers", "3"], 2, "exactly 2 walkers"),
])
def test_simulate_named_engine_on_k5(tmp_path, capsys, argv, code, message):
    k5, traj = tmp_path / "k5.txt", tmp_path / "traj.txt"
    run(capsys, "gen", "--family", "complete", "--n", "5", "-o", str(k5))
    got, _, err = run(capsys, "simulate", str(k5), "--engine", "regular", *argv, "-o", str(traj))
    assert got == code and message in err
    assert not traj.exists()


@pytest.fixture(scope="module")
def fuzz_hosts(tmp_path_factory):
    """Petersen, C10, K5, C9(1,2) and two disjoint Petersens, as (path, n)."""
    from avoidkit.generate import circulant, complete, cycle, petersen
    from avoidkit.graphs import graph_from_edges

    root = tmp_path_factory.mktemp("fuzz")
    edges = petersen().edges()
    graphs = [petersen(), cycle(10), complete(5), circulant(9, [1, 2]),
              graph_from_edges(20, [(u + s, v + s) for s in (0, 10) for u, v in edges])]
    hosts = []
    for i, g in enumerate(graphs):
        path = root / f"host{i}.txt"
        path.write_text(g.to_text())
        hosts.append((str(path), g.n))
    return root, hosts


@settings(max_examples=200, derandomize=True, deadline=None)
@given(data=st.data())
def test_simulate_argv_fuzz(fuzz_hosts, data):
    root, hosts = fuzz_hosts
    path, n = data.draw(st.sampled_from(hosts), label="host")
    argv = ["simulate", path, "--engine", data.draw(st.sampled_from(ENGINES), label="engine"),
            "--ticks", str(data.draw(st.integers(0, 20), label="ticks"))]
    for flag, values in (("--walkers", st.integers(0, 12)), ("--a0", st.integers(-3, n + 3)),
                         ("--b0", st.integers(-3, n + 3))):
        v = data.draw(st.none() | values, label=flag)
        if v is not None:
            argv += [flag, str(v)]
    traj = root / "traj.txt"
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([*argv, "-o", str(traj)])
    assert code in (0, 1, 2)
    if code:
        assert err.getvalue().startswith("error:") and not traj.exists()
    traj.unlink(missing_ok=True)


@pytest.mark.parametrize("alpha", ["0", "-1", "2", "nan"])
def test_verify_rejects_alpha_outside_unit_interval(tmp_path, capsys, alpha):
    pet = tmp_path / "pet.txt"
    traj = tmp_path / "traj.txt"
    run(capsys, "gen", "--family", "petersen", "-o", str(pet))
    run(capsys, "simulate", str(pet), "--ticks", "50", "--seed", "1", "-o", str(traj))
    code, stdout, err = run(capsys, "verify", str(pet), str(traj), "--alpha", alpha)
    assert code == 2 and err.startswith("error:") and "alpha" in err
    assert "verdict" not in stdout


def modules_after_import(prefixes: tuple[str, ...]) -> list[str]:
    """Modules starting with one of `prefixes` that a fresh interpreter has
    loaded after importing avoidkit and its CLI."""
    root = Path(__file__).resolve().parents[1]
    probe = f"import sys, avoidkit, avoidkit.cli; print(' '.join(m for m in sys.modules if m.startswith({prefixes!r})))"
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def test_import_loads_no_scipy_or_numpy():
    assert modules_after_import(("scipy", "numpy")) == []


def test_import_loads_no_process_pool():
    # only a prevalence experiment with AVOIDKIT_THREADS > 1 starts a pool
    assert modules_after_import(("concurrent.futures.process", "multiprocessing")) == []


def test_oracle_commands(tmp_path, capsys):
    pet = tmp_path / "pet.txt"
    cir = tmp_path / "cir.txt"
    run(capsys, "gen", "--family", "petersen", "-o", str(pet))
    run(capsys, "gen", "--family", "circulant", "--n", "9", "--offsets", "1,2", "-o", str(cir))
    code, stdout, _ = run(capsys, "oracle", "lemma42", str(pet), "--a", "0", "--b", "2")
    assert code == 0 and "holds: True" in stdout
    code, stdout, _ = run(capsys, "oracle", "lemma34", str(cir), "--a", "0", "--b", "4", "--e", "1")
    assert code == 0 and "holds: True" in stdout
    code, stdout, _ = run(capsys, "oracle", "lemma31", str(pet))
    assert code == 0 and "agreement: True" in stdout


def test_oracle_commands_at_any_degree(tmp_path, capsys):
    """Lemma 3.4 on the 6-regular C13(1,2,3) and lemma 4.2 at degree 21,
    past the 2^20 subsets an exhaustive sweep would need."""
    cir, k21 = tmp_path / "cir.txt", tmp_path / "k21.txt"
    run(capsys, "gen", "--family", "circulant", "--n", "13", "--offsets", "1,2,3", "-o", str(cir))
    run(capsys, "gen", "--family", "complete_bipartite", "--p", "21", "--q", "21", "-o", str(k21))
    code, stdout, _ = run(capsys, "oracle", "lemma34", str(cir), "--a", "0", "--b", "4", "--e", "1")
    assert code == 0 and "holds: True" in stdout
    code, stdout, _ = run(capsys, "oracle", "lemma42", str(k21), "--a", "0", "--b", "1")
    assert code == 0 and "holds: True" in stdout


def test_oracle_lemma31_takes_d_from_the_graph(tmp_path, capsys):
    star = tmp_path / "star.txt"
    star.write_text("4 3\n0 1\n0 2\n0 3\n")
    code, stdout, err = run(capsys, "oracle", "lemma31", str(star))
    assert code == 2 and "requires a regular graph" in err and "agreement" not in stdout
    code, stdout, err = run(capsys, "oracle", "lemma31", str(star), "--d", "99")
    assert (code, stdout) == (2, "") and err == "error: avoidkit oracle: unrecognized arguments: --d 99\n"


@pytest.mark.parametrize("text", ["4 2\n0 1\n2 3\n", "3 0\n"], ids=["perfect-matching", "edgeless"])
def test_oracle_lemma31_rejects_degree_below_two(tmp_path, capsys, text):
    host = tmp_path / "host.txt"
    host.write_text(text)
    code, stdout, err = run(capsys, "oracle", "lemma31", str(host))
    assert (code, stdout) == (2, "")
    assert err == "error: lemma31 requires a d-regular graph with d >= 2\n"


def test_oracle_domain_failure(tmp_path, capsys):
    k5 = tmp_path / "k5.txt"
    run(capsys, "gen", "--family", "complete", "--n", "5", "-o", str(k5))
    code, stdout, _ = run(capsys, "oracle", "lemma34", str(k5), "--a", "0", "--b", "1", "--e", "1")
    assert code == 1 and "holds: False" in stdout


def test_oracle_lemma34_invalid_triple(tmp_path, capsys):
    pet = tmp_path / "pet.txt"
    run(capsys, "gen", "--family", "petersen", "-o", str(pet))
    code, stdout, err = run(capsys, "oracle", "lemma34", str(pet))  # a = b = e = 0
    assert code == 2 and "requires b != a" in err and "holds" not in stdout
    code, _, err = run(capsys, "oracle", "lemma34", str(pet), "--a", "0", "--b", "5", "--e", "2")
    assert code == 2 and "requires e in N(a)" in err


def test_experiment_command(tmp_path, capsys):
    out = tmp_path / "prev.csv"
    code, _, _ = run(capsys, "experiment", "prevalence", "--d", "3",
                     "--n-list", "10,12", "--samples", "10", "--seed", "1",
                     "-o", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,d,samples,hits,freq,ci_lo,ci_hi,bound"
    assert len(lines) == 3


_SEED_CMDS = {
    "gen": ["gen", "--family", "random_regular", "--n", "10", "--d", "3"],
    "experiment": ["experiment", "prevalence", "--d", "3", "--n-list", "10", "--samples", "2"],
}


@pytest.mark.parametrize("cmd", sorted(_SEED_CMDS))
@pytest.mark.parametrize("seed", [-1, 2**64])
def test_seed_outside_64_bits_is_an_input_error(tmp_path, capsys, cmd, seed):
    """-1 is not taken as 2^64 - 1: the seed range is checked where a seed is used."""
    out = tmp_path / "out.txt"
    code, stdout, err = run(capsys, *_SEED_CMDS[cmd], "--seed", str(seed), "-o", str(out))
    assert code == 2 and stdout == ""
    assert err == f"error: seed must fit in 64 unsigned bits, got {seed}\n"
    assert not out.exists()


@pytest.mark.parametrize("cmd", sorted(_SEED_CMDS))
def test_seed_range_ends_are_accepted(tmp_path, capsys, cmd):
    for seed in (0, 2**64 - 1):
        out = tmp_path / "out.txt"
        code, _, err = run(capsys, *_SEED_CMDS[cmd], "--seed", str(seed), "-o", str(out))
        assert code == 0 and out.exists(), err
        out.unlink()


@pytest.fixture
def c9_and_pet(tmp_path, capsys):
    cir, pet = tmp_path / "cir.txt", tmp_path / "pet.txt"
    run(capsys, "gen", "--family", "circulant", "--n", "9", "--offsets", "1,2", "-o", str(cir))
    run(capsys, "gen", "--family", "petersen", "-o", str(pet))
    return str(cir), str(pet)


@pytest.mark.parametrize("argv", [
    ("--a", "99", "--b", "1", "--e", "2"),
    ("--a", "0", "--b", "4", "--e", "99"),
    ("--a", "-1", "--b", "4"),
])
def test_transport_rejects_out_of_range_vertex(c9_and_pet, capsys, argv):
    code, stdout, err = run(capsys, "transport", c9_and_pet[0], *argv)
    assert code == 2 and "is not a vertex (0..8)" in err and stdout == ""


@pytest.mark.parametrize("argv", [
    ("lemma34", 0, "--a", "99", "--b", "4", "--e", "1"),
    ("lemma42", 1, "--b", "99"),
])
def test_oracle_rejects_out_of_range_vertex(c9_and_pet, capsys, argv):
    lemma, host, *rest = argv
    code, stdout, err = run(capsys, "oracle", lemma, c9_and_pet[host], *rest)
    assert code == 2 and "is not a vertex" in err and "holds" not in stdout


@pytest.mark.parametrize("argv", [("--a0", "99"), ("--b0", "99"), ("--a0", "-3")])
def test_simulate_rejects_out_of_range_vertex(c9_and_pet, tmp_path, capsys, argv):
    traj = tmp_path / "traj.txt"
    code, _, err = run(capsys, "simulate", c9_and_pet[1], *argv, "-o", str(traj))
    assert code == 2 and "is not a vertex (0..9)" in err
    assert not traj.exists()


def test_experiment_rejects_malformed_n_list(capsys):
    code, stdout, err = run(capsys, "experiment", "prevalence", "--d", "3",
                            "--n-list", "16,x", "--samples", "2")
    assert code == 2 and "--n-list must be comma-separated integers" in err and stdout == ""


@pytest.mark.parametrize("argv", [
    ["gen", "--family", "petersen"],
    ["simulate", "{pet}", "--ticks", "10"],
    ["experiment", "prevalence", "--d", "3", "--n-list", "10", "--samples", "2"],
], ids=["gen", "simulate", "experiment"])
def test_unwritable_output_exits_2(c9_and_pet, tmp_path, capsys, argv):
    out = tmp_path / "missing" / "out.txt"
    argv = [arg.format(pet=c9_and_pet[1]) for arg in argv]
    code, _, err = run(capsys, *argv, "-o", str(out))
    assert code == 2 and err.startswith("error:") and str(out) in err
    assert not out.parent.exists()


def test_gen_offsets_names_the_flag(tmp_path, capsys):
    out = tmp_path / "cir.txt"
    code, stdout, err = run(capsys, "gen", "--family", "circulant", "--n", "9",
                            "--offsets", "1,x", "-o", str(out))
    assert code == 2 and stdout == ""
    assert err == "error: --offsets must be comma-separated integers, got '1,x'\n"
    assert not out.exists()


@pytest.mark.parametrize("body", [None, b"2 1\n0 1\xff\n"], ids=["missing", "not-utf8"])
def test_unreadable_graph_file_exits_2(tmp_path, capsys, body):
    path = tmp_path / "g.txt"
    if body is not None:
        path.write_bytes(body)
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 2 and err.startswith(f"error: cannot read graph {path}:")


@pytest.mark.parametrize("graph,argv,message", [
    ("2 1\n0 1\n", ["transport", "{g}", "--a=0", "--b=1", "--e=1"], "requires degree >= 2 at a"),
    ("2 0\n", ["oracle", "lemma42", "{g}", "--a=0", "--b=1"], "requires min degree >= 3"),
    # degrees 3, 4, 4, 3, 5, 4, 3: this triple used to build a transport
    ("7 13\n0 1\n0 4\n0 6\n1 4\n1 5\n1 6\n2 3\n2 4\n2 5\n2 6\n3 4\n3 5\n4 5\n",
     ["transport", "{g}", "--a=3", "--b=0", "--e=4"], "requires a regular host: vertex 2 has degree 4, a=3"),
], ids=["transport-degree-1", "lemma42-degree-0", "transport-irregular"])
def test_degenerate_degrees_exit_2(tmp_path, capsys, graph, argv, message):
    # a single edge leaves no mover pair; on an edgeless pair the ratio l/k is 0/0
    path = tmp_path / "g.txt"
    path.write_text(graph)
    code, stdout, err = run(capsys, *(arg.format(g=path) for arg in argv))
    assert code == 2 and err.startswith(f"error: {message}") and stdout == ""


# ---------------------------------------------------------------------------
# argv fuzzing of every command but simulate (see test_simulate_argv_fuzz)

# sizes past graphs.MAX_VERTICES: each must be rejected before anything is allocated
_OVER_LIMIT = st.sampled_from([100_001, 10**9, 10**20])
_FUZZ_TOKENS = st.integers(-3, 13).map(str) | st.sampled_from(["", "x", "#", "-", "1.5", "9" * 20])
_GRAPH_LINES = st.tuples(st.integers(0, 11), st.integers(0, 11)).map("{0[0]} {0[1]}".format) \
    | st.tuples(st.integers(-1, 13), st.integers(-1, 13)).map("{0[0]} {0[1]}".format) \
    | st.sampled_from(["", "x y", "1", "1 2 3", "# c", "0 0", "1.5 2"])


# the exit-1 results a command computes and prints itself, with no error
_DOMAIN_RESULTS = ("verdict: none", "holds: False", "agreement: False", "violation(s)", "verdict=FAIL",
                   "verdict=untested")


def _exits_cleanly(argv, output=None):
    """Run main on argv: exit 0, 1 or 2; a failure reports `error:` (or is a
    computed domain result) and leaves no output file."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    if code:
        computed = code == 1 and any(r in out.getvalue() for r in _DOMAIN_RESULTS)
        assert err.getvalue().startswith("error:") or computed and not err.getvalue(), err.getvalue()
        assert output is None or not output.exists()
    if output is not None:
        output.unlink(missing_ok=True)


def _draw_graph(data, root, hosts, hosts_only=False):
    """(path, n): a fuzz host, a missing file, or a fresh edge list on at most
    12 vertices, either well formed or possibly malformed and not UTF-8."""
    kind = data.draw(st.sampled_from(("host",) if hosts_only else ("host", "edges", "text", "missing")),
                     label="graph")
    if kind == "host":
        return data.draw(st.sampled_from(hosts), label="host")
    path = root / "graph.txt"
    if kind == "missing":
        path.unlink(missing_ok=True)
        return str(path), 0
    if kind == "edges":
        n = data.draw(st.integers(2, 12), label="n")
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
        edges = data.draw(st.lists(pairs, max_size=3 * n), label="edges")
        path.write_text(f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges))
        return str(path), n
    over = data.draw(st.sampled_from([False, False, False, True]), label="over limit")
    n = data.draw(st.integers(-1, 12) | _OVER_LIMIT if over else st.integers(-1, 12), label="n")
    lines = data.draw(st.lists(_GRAPH_LINES, max_size=30), label="edges")
    m = data.draw(st.integers(-1, len(lines) + 1) | _OVER_LIMIT.map(lambda x: 10 * x) if over
                  else st.integers(-1, len(lines) + 1), label="m")
    header = data.draw(st.sampled_from([f"{n} {len(lines)}", f"{n} {m}", f"{n} {m} 0", f"{n}", "n m"]),
                       label="header")
    tail = data.draw(st.sampled_from([b"", b"\xff"]), label="tail")
    path.write_bytes("\n".join([header, *lines]).encode() + tail)
    return str(path), max(n, 0)


def _vertex_flags(data, path, n, names):
    """--name=v for each name: v absent, any id in -3..n+3, or (past the
    first name) a neighbor of the first id, so that valid triples occur."""
    try:
        g = parse_graph(Path(path).read_text())
    except (OSError, ValueError):
        g = None
    argv, first = [], None
    for name in names:
        ids = st.none() | st.integers(-3, n + 3)
        if g is not None and first is not None and 0 <= first < g.n and g.adjacency[first]:
            ids = st.sampled_from(g.adjacency[first]) | ids
        v = data.draw(ids, label=name)
        first = v if first is None else first
        if v is not None:
            argv.append(f"--{name}={v}")
    return argv


@settings(max_examples=150, derandomize=True, deadline=None)
@given(data=st.data())
def test_gen_argv_fuzz(fuzz_hosts, data):
    root, _ = fuzz_hosts
    family = data.draw(st.sampled_from(["cycle", "complete", "complete_bipartite", "petersen",
                                        "circulant", "random_regular"]), label="family")
    over = data.draw(st.sampled_from([False, False, False, True]), label="over limit")
    argv = ["gen", "--family", family, f"--n={data.draw(_OVER_LIMIT if over else st.integers(-3, 40), label='n')}",
            f"--d={data.draw(st.integers(-1, 4), label='d')}",
            f"--p={data.draw(_OVER_LIMIT if over else st.integers(-1, 20), label='p')}",
            f"--q={data.draw(st.integers(-1, 20), label='q')}"]
    offsets = data.draw(st.lists(st.integers(-2, 22).map(str) | _FUZZ_TOKENS, min_size=1, max_size=3),
                        label="offsets")
    argv.append(f"--offsets={','.join(offsets)}")
    seed = data.draw(st.none() | st.integers(-3, 2**64 + 3), label="seed")
    if seed is not None:
        argv.append(f"--seed={seed}")
    if data.draw(st.booleans(), label="connected"):
        argv.append("--connected")
    out = root / data.draw(st.sampled_from(["out.txt", "missing/out.txt"]), label="output")
    _exits_cleanly([*argv, "-o", str(out)], out)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(data=st.data())
def test_analyze_argv_fuzz(fuzz_hosts, data):
    root, hosts = fuzz_hosts
    path, _ = _draw_graph(data, root, hosts)
    _exits_cleanly(["analyze", path])


@settings(max_examples=150, derandomize=True, deadline=None)
@given(data=st.data())
def test_transport_argv_fuzz(fuzz_hosts, data):
    root, hosts = fuzz_hosts
    path, n = _draw_graph(data, root, hosts)
    flags = _vertex_flags(data, path, n, ["a", "b", "e"])
    # --a and --b are required
    argv = [f"--{name}=0" for name in "ab" if not any(f.startswith(f"--{name}=") for f in flags)]
    _exits_cleanly(["transport", path, *argv, *flags])


@settings(max_examples=150, derandomize=True, deadline=None)
@given(data=st.data())
def test_oracle_argv_fuzz(fuzz_hosts, data):
    root, hosts = fuzz_hosts
    lemma = data.draw(st.sampled_from(["lemma34", "lemma42", "lemma31"]), label="lemma")
    path, n = _draw_graph(data, root, hosts, hosts_only=lemma == "lemma34")
    _exits_cleanly(["oracle", lemma, path, *_vertex_flags(data, path, n, ["a", "b", "e"])])


@pytest.fixture(scope="module")
def fuzz_runs(fuzz_hosts):
    """(host index, lines) of a 20-tick cubic run on Petersen and a
    3-walker cycle run on C10."""
    from avoidkit.couplers import simulate
    from avoidkit.generate import cycle, petersen

    pet, _ = simulate(petersen(), "cubic", 20, 1)
    c10, _ = simulate(cycle(10), "cycle", 20, 1, walkers=3)
    return [(0, pet.to_text().splitlines()), (1, c10.to_text().splitlines())]


@settings(max_examples=200, derandomize=True, deadline=None)
@given(data=st.data())
def test_verify_argv_fuzz(fuzz_hosts, fuzz_runs, data):
    root, hosts = fuzz_hosts
    own, lines = data.draw(st.sampled_from(fuzz_runs), label="run")
    lines = list(lines)
    for _ in range(data.draw(st.integers(0, 3), label="mutations")):
        i = data.draw(st.integers(0, len(lines)), label="line")
        op = data.draw(st.sampled_from(["delete", "duplicate", "token", "insert"]), label="op")
        if op == "insert" or i == len(lines):
            tokens = data.draw(st.lists(_FUZZ_TOKENS, max_size=4), label="new line")
            lines.insert(i, " ".join(tokens))
        elif op == "delete":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        else:
            tokens = lines[i].split() or [""]
            j = data.draw(st.integers(0, len(tokens) - 1), label="token")
            tokens[j] = data.draw(_FUZZ_TOKENS, label="value")
            lines[i] = " ".join(tokens)
    traj = root / "traj.txt"
    traj.write_text("\n".join(lines) + "\n")
    if data.draw(st.sampled_from(["own", "own", "other"]), label="graph of the run") == "own":
        path = hosts[own][0]
    else:
        path, _ = _draw_graph(data, root, hosts)
    alpha = data.draw(st.sampled_from(["0.001", "0.5", "1e-300"])
                      | st.sampled_from(["0", "1", "-1", "nan", "inf"]), label="alpha")
    _exits_cleanly(["verify", path, str(traj), f"--alpha={alpha}"])


@settings(max_examples=100, derandomize=True, deadline=None)
@given(data=st.data())
def test_experiment_argv_fuzz(fuzz_hosts, data):
    root, _ = fuzz_hosts
    kind = data.draw(st.sampled_from(["ints", "ints", "ints", "junk", "over limit"]), label="n-list kind")
    items = {"ints": st.integers(-2, 40).map(str), "junk": st.sampled_from(["", "x", "1.5", "-", "1e3"]),
             "over limit": (st.integers(-2, 40) | _OVER_LIMIT).map(str)}[kind]
    n_list = data.draw(st.lists(items, min_size=1, max_size=3), label="n-list")
    d = data.draw(st.integers(-1, 4), label="d")
    samples = data.draw(st.integers(-1, 4) | _OVER_LIMIT if kind == "over limit" else st.integers(-1, 4),
                        label="samples")
    argv = ["experiment", "prevalence", f"--d={d}", f"--n-list={','.join(n_list)}", f"--samples={samples}",
            f"--seed={data.draw(st.integers(-3, 2**64 + 3), label='seed')}"]
    if data.draw(st.booleans(), label="simple-connected"):
        argv.append("--simple-connected")
    out = data.draw(st.sampled_from([None, "out.csv", "missing/out.csv"]), label="output")
    if out is not None:
        out = root / out
        argv += ["-o", str(out)]
    with mock.patch.dict(os.environ):
        os.environ.pop("AVOIDKIT_THREADS", None)  # one worker, no process pool
        _exits_cleanly(argv, out)


_ARGS_FILE_VALUES = {"--seed": st.integers(-3, 2**64 + 3).map(str), "--ticks": st.integers(-3, 9).map(str),
                     "--walkers": st.integers(-1, 12).map(str), "--engine": st.sampled_from(ENGINES)}
# a flag's value is its own three times in four and a fuzz token otherwise;
# a ninth of the lines are blank, malformed or name an option that simulate
# does not have, so that most files parse and reach simulate
_ARGS_FILE_LINES = st.sampled_from([*_ARGS_FILE_VALUES, *_ARGS_FILE_VALUES, None]).flatmap(
    lambda flag: st.sampled_from([_ARGS_FILE_VALUES[flag]] * 3 + [_FUZZ_TOKENS]).flatmap(
        lambda values: values.map(f"{flag}={{}}".format)) if flag
    else st.sampled_from(["", "# note", "=", "--ticks=1=2", "--seed 3", "sim.ticks = 1", "--config=run.cfg",
                          "--walkers"]))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(data=st.data())
def test_simulate_config_fuzz(fuzz_hosts, data):
    """A settings file read through `@FILE`, one flag a line: exit 0, 1 or 2,
    a line the parser rejects among the exit-2 failures."""
    root, hosts = fuzz_hosts
    cfg, traj = root / "run.args", root / "traj.txt"
    cfg.write_text("".join(f"{line}\n" for line in data.draw(st.lists(_ARGS_FILE_LINES, max_size=4),
                                                              label="args file")))
    path, _ = data.draw(st.sampled_from(hosts), label="host")
    traj.unlink(missing_ok=True)  # the verify fuzz leaves its input trajectory here
    # --ticks after the file overrides it, so no example runs long
    _exits_cleanly(["simulate", path, f"@{cfg}", "--ticks=5", "-o", str(traj)], traj)
