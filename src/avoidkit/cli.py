"""Command-line surface: gen, analyze, transport, simulate, verify, oracle, experiment.

Each command loads its input, makes its library call and prints; the
library checks its own arguments, and `main` alone maps a failure to an
exit code and one `error:` line; it returns for every argv, 0 after
`--help`.  Exit codes: 0 success; 1 domain failure, either a raised
HypothesisError (no engine applies, a failed engine hypothesis),
TransportInfeasible or RejectionBudgetExceeded, or a result the command
computes (violations, a chi-square FAIL or a chi-square run with no
tested cell, `verdict=untested`, `holds: False`, verdict `none`);
2 input failure, any other ValueError or any OSError (a malformed or
unreadable input, an unwritable output path, a usage error).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .couplers import ENGINES, parse_trajectory, simulate
from .experiment import CSV_HEADER, prevalence_experiment, row_to_csv
from .generate import (
    RejectionBudgetExceeded,
    circulant,
    complete,
    complete_bipartite,
    cycle,
    petersen,
    random_regular_simple,
)
from .graphs import basic_profile, parse_graph
from .matching import (
    TransportInfeasible,
    build_regular_transport,
    build_squarefree_transport,
)
from .structure import HypothesisError, admissibility_verdict
from .verify import (
    chi_square_faithfulness,
    check_avoidance,
    lemma31_equivalence,
    lemma34_oracle,
    lemma42_oracle,
)

EXIT_OK, EXIT_DOMAIN, EXIT_INPUT = 0, 1, 2
CYCLE_START = "the cycle engine starts its walkers on every second vertex; --a0 and --b0 do not apply"


def _load_graph(path: str):
    try:
        return parse_graph(Path(path).read_text())
    except (OSError, ValueError) as err:
        raise ValueError(f"cannot read graph {path}: {err}") from err


def _ints(flag: str, text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",")]
    except ValueError as err:
        raise ValueError(f"{flag} must be comma-separated integers, got {text!r}") from err


ARGS_FILE_ERROR = "cannot read argument file"


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ValueError; an `@FILE` line is split at
    whitespace, so a blank line gives no argument."""

    def error(self, message):
        if isinstance(sys.exc_info()[1], OSError):  # argparse could not open an @FILE
            raise ValueError(f"{ARGS_FILE_ERROR}: {message}")
        raise ValueError(f"{self.prog}: {message}")

    def convert_arg_line_to_args(self, arg_line):
        return arg_line.split()


def cmd_gen(args) -> int:
    if args.family == "random_regular":
        if args.seed is None:
            raise ValueError("random_regular requires --seed")
        g, rejections = random_regular_simple(
            args.n, args.d, args.seed, connected_required=args.connected
        )
        print(f"rejections: {rejections}")
    elif args.family == "cycle":
        g = cycle(args.n)
    elif args.family == "complete":
        g = complete(args.n)
    elif args.family == "complete_bipartite":
        g = complete_bipartite(args.p, args.q)
    elif args.family == "petersen":
        g = petersen()
    else:
        g = circulant(args.n, _ints("--offsets", args.offsets))
    Path(args.output).write_text(g.to_text())
    prof = basic_profile(g)
    print(f"wrote {args.output}: n={prof.n} m={prof.edge_count} digest={g.digest()}")
    return EXIT_OK


def cmd_analyze(args) -> int:
    g = _load_graph(args.graph)
    prof = basic_profile(g)
    print(f"n={prof.n} edges={prof.edge_count} min_deg={prof.min_degree} "
          f"max_deg={prof.max_degree} regular={prof.regular_degree} connected={prof.connected}")
    if g.duplicate_edges_dropped:
        print(f"warning: {g.duplicate_edges_dropped} duplicate edge(s) dropped")
    verdict = admissibility_verdict(g)
    for engine, why in verdict.checks:
        print(f"{engine} hypothesis: {why or 'holds'}")
    extra = " (also square-free)" if verdict.also_squarefree else ""
    if verdict.engine == "none":
        print(f"verdict: none ({verdict.obstruction})")
        return EXIT_DOMAIN
    print(f"verdict: {verdict.engine}{extra}")
    return EXIT_OK


def cmd_transport(args) -> int:
    g = _load_graph(args.graph)
    if args.e is not None:
        tm = build_regular_transport(g, args.a, args.b, args.e)
    else:
        tm = build_squarefree_transport(g, args.a, args.b)
    print(f"kind={tm.kind} rows={len(tm.row_labels)} cols={len(tm.col_labels)} "
          f"row_sum={tm.row_sum} col_sum={tm.col_sum} total={tm.total}"
          + (" (roles swapped)" if tm.swapped else ""))
    for label, row in zip(tm.row_labels, tm.entries):
        if tm.kind == "regular":
            label = "MoverPair(first_step={}, second_step={})".format(*label)
        print(f"{label}: {' '.join(str(x) for x in row)}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    g = _load_graph(args.graph)
    start_given = args.a0 is not None or args.b0 is not None
    # a named cycle engine is rejected before the run; `auto` is known to
    # resolve to it only once simulate has chosen
    if args.engine == "cycle" and start_given:
        raise ValueError(CYCLE_START)
    traj, eng = simulate(g, args.engine, args.ticks, args.seed, a0=args.a0, b0=args.b0, walkers=args.walkers)
    if traj.engine == "cycle" and start_given:
        raise ValueError(CYCLE_START)
    with Path(args.output).open("w") as out:
        out.writelines(traj.text_chunks())
    print(f"wrote {args.output}: engine={traj.engine} ticks={len(traj.positions) - 1} "
          f"blocks={eng.blocks}")
    counts = getattr(eng, "scenario_counts", None)
    if counts:
        hist = " ".join(f"{k}:{v}" for k, v in sorted(counts.items()))
        print(f"scenario histogram: {hist}")
    cache = getattr(eng, "cache", None)
    if cache is not None:
        print(f"cache hit rate: {cache.hit_rate:.3f}")
    return EXIT_OK


def cmd_verify(args) -> int:
    g = _load_graph(args.graph)
    try:
        traj = parse_trajectory(Path(args.trajectory).read_text())
        violations = check_avoidance(g, traj)
    except (OSError, ValueError) as err:
        raise ValueError(f"cannot read trajectory: {err}") from err
    report = chi_square_faithfulness(g, traj, alpha=args.alpha)
    for v in violations[:20]:
        print(f"violation at tick {v.tick}: {v.kind} {v.detail}")
    if len(violations) > 20:
        print(f"... and {len(violations) - 20} more")
    print(f"avoidance: {'clean' if not violations else f'{len(violations)} violation(s)'}")
    verdict = "pass" if report.passed else "FAIL" if report.tested_count else "untested"
    print(f"faithfulness: tested={report.tested_count} untested={report.untested_count} "
          f"verdict={verdict} (alpha={args.alpha})")
    return EXIT_OK if not violations and report.passed else EXIT_DOMAIN


def cmd_oracle(args) -> int:
    g = _load_graph(args.graph)
    if args.lemma == "lemma31":
        agree, preds = lemma31_equivalence(g)
        print(f"predicates: Hd-free={preds[0]} no-duplicates={preds[1]} difference-nonempty={preds[2]}")
        print(f"agreement: {agree}")
        return EXIT_OK if agree else EXIT_DOMAIN
    if args.lemma == "lemma34":
        res = lemma34_oracle(g, args.a, args.b, args.e)
    else:
        res = lemma42_oracle(g, args.a, args.b)
    print(f"holds: {res.holds} worst_margin={res.worst_margin} worst_subset={res.worst_subset}")
    return EXIT_OK if res.holds else EXIT_DOMAIN


def cmd_experiment(args) -> int:
    rows = prevalence_experiment(
        args.d, _ints("--n-list", args.n_list), args.samples, args.seed,
        simple_connected=args.simple_connected,
    )
    lines = [CSV_HEADER] + [row_to_csv(r) for r in rows]
    text = "\n".join(lines) + "\n"
    if args.output:
        Path(args.output).write_text(text)
        print(f"wrote {args.output}")
    else:
        print(text, end="")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="avoidkit", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a graph file")
    g.add_argument("--family", required=True,
                   choices=["cycle", "complete", "complete_bipartite", "petersen",
                            "circulant", "random_regular"])
    g.add_argument("--n", type=int, default=0)
    g.add_argument("--d", type=int, default=3)
    g.add_argument("--p", type=int, default=1)
    g.add_argument("--q", type=int, default=1)
    g.add_argument("--offsets", default="1")
    g.add_argument("--seed", type=int, default=None)
    g.add_argument("--connected", action="store_true")
    g.add_argument("-o", "--output", required=True)
    g.set_defaults(func=cmd_gen)

    a = sub.add_parser("analyze", help="structure report and engine verdict")
    a.add_argument("graph")
    a.set_defaults(func=cmd_analyze)

    t = sub.add_parser("transport", help="print a transport matrix")
    t.add_argument("graph")
    t.add_argument("--a", type=int, required=True)
    t.add_argument("--b", type=int, required=True)
    t.add_argument("--e", type=int, default=None)
    t.set_defaults(func=cmd_transport)

    # `@FILE` reads arguments from FILE, split at whitespace (`--ticks 100000`
    # or `--ticks=100000`); an argument after it overrides the file
    s = sub.add_parser("simulate", help="run a coupling engine", fromfile_prefix_chars="@")
    s.add_argument("graph")
    s.add_argument("--ticks", type=int, default=1000)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--engine", choices=ENGINES, default="auto")
    s.add_argument("--walkers", type=int, default=2)
    s.add_argument("--a0", type=int, default=None)
    s.add_argument("--b0", type=int, default=None)
    s.add_argument("-o", "--output", required=True)
    s.set_defaults(func=cmd_simulate)

    v = sub.add_parser("verify", help="check a trajectory against its graph")
    v.add_argument("graph")
    v.add_argument("trajectory")
    v.add_argument("--alpha", type=float, default=0.001)
    v.set_defaults(func=cmd_verify)

    o = sub.add_parser("oracle", help="Hall lemma oracles (by max flow) and the lemma 3.1 check")
    o.add_argument("lemma", choices=["lemma34", "lemma42", "lemma31"])
    o.add_argument("graph")
    o.add_argument("--a", type=int, default=0)
    o.add_argument("--b", type=int, default=0)
    o.add_argument("--e", type=int, default=0)
    o.set_defaults(func=cmd_oracle)

    e = sub.add_parser("experiment", help="prevalence experiment CSV")
    e.add_argument("kind", choices=["prevalence"])
    e.add_argument("--d", type=int, required=True)
    e.add_argument("--n-list", required=True)
    e.add_argument("--samples", type=int, required=True)
    e.add_argument("--seed", type=int, default=0)
    e.add_argument("--simple-connected", action="store_true")
    e.add_argument("-o", "--output", default=None)
    e.set_defaults(func=cmd_experiment)

    return p


def main(argv=None) -> int:
    try:
        try:
            args, extra = build_parser().parse_known_args(argv)
        except SystemExit:  # only --help exits the parser: a usage error raises ValueError
            return EXIT_OK
        except (RecursionError, UnicodeDecodeError) as err:  # an @file that reads itself, or not text
            raise ValueError(f"{ARGS_FILE_ERROR}: {err}") from err
        if extra:
            raise ValueError(f"avoidkit {args.command}: unrecognized arguments: {' '.join(extra)}")
        return args.func(args)
    # HypothesisError is a ValueError, so the exit-1 classes come first
    except (HypothesisError, TransportInfeasible, RejectionBudgetExceeded) as err:
        code, message = EXIT_DOMAIN, str(err)
    except (OSError, ValueError) as err:
        code, message = EXIT_INPUT, str(err)
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
