"""Command-line runner: scenario files, canned demos, randomized self tests.

Exit codes: 0 when every query evaluated, 1 when some query failed, 2 for
parse or usage errors.
"""

from __future__ import annotations

import argparse
import sys
from functools import partial

import numpy as np

from . import classical, config, effect_algebra, instances, scenario

POLARISATION_SCENARIO = """\
# Photons polarised straight up meet one or two filters.
instance quantum
let vertical = predicate(projector(ket1))
let diagonal = predicate(projector(ketNE))
query born(ket0, vertical)
query born(ket0, diagonal)
query born(ket0, andthen(diagonal, vertical))
query born(ket0, then(diagonal, vertical))
"""

DEMOS = ("polarisation", "stone", "axioms")


def demo(name: str, precision: int = 9) -> tuple[str, bool]:
    """Run a canned demo and return its report text."""
    if name == "polarisation":
        sc = scenario.parse_scenario(POLARISATION_SCENARIO)
        return scenario.run(sc, precision=precision)
    if name == "stone":
        lines = []
        for n in range(1, 5):
            points = classical.stone_states(n)
            lines.append(f"|S(X)| = {len(points)} for |X| = {n}")
        return "\n".join(lines) + "\n", True
    if name == "axioms":
        mo1 = effect_algebra.mo_free(1)
        cases = [(f"MO({n})", effect_algebra.mo_free(n)) for n in range(4)]
        cases += [(f"P({n})", effect_algebra.boolean_powerset_ea(n)) for n in range(4)]
        cases += [
            ("MO(1) x MO(1)", effect_algebra.product(mo1, mo1)),
            ("MO(1) + MO(1)", effect_algebra.coproduct(mo1, mo1)),
            ("MO(2) opposite", effect_algebra.opposite(effect_algebra.mo_free(2))),
        ]
        ok = True
        lines = []
        for label, algebra in cases:
            report = effect_algebra.check_axioms(algebra)
            ok = ok and report.passed
            lines.append(f"{label}: {report.describe(algebra)}")
        return "\n".join(lines) + "\n", ok
    raise ValueError(f"unknown demo {name!r}")


def _selftest_effect_algebra(rng: np.random.Generator, cases: int) -> int:
    checks = 0
    for _ in range(cases):
        n = int(rng.integers(0, 4))
        algebra = effect_algebra.mo_free(n)
        other = effect_algebra.boolean_powerset_ea(int(rng.integers(0, 3)))
        for built in (
            algebra,
            other,
            effect_algebra.product(algebra, other),
            effect_algebra.opposite(algebra),
            effect_algebra.downset(other, int(rng.integers(0, other.size))),
        ):
            assert effect_algebra.check_axioms(built).passed
            checks += 1
    return checks


def selftest(seed: int = 0, cases: int = 50) -> tuple[str, bool]:
    """Seeded randomized batches: effect-algebra constructions, instance laws."""
    rng = np.random.default_rng(seed)
    lines = []
    ok = True
    batches = [("effect-algebra", _selftest_effect_algebra)] + [
        (name, partial(instances.check_laws, record, tol=config.POST_EPS))
        for name, record in instances.INSTANCES.items()]
    for name, batch in batches:
        try:
            checks = batch(rng, cases)
            lines.append(f"selftest {name}: ok ({checks} checks)")
        except AssertionError as exc:
            lines.append(f"selftest {name}: FAILED ({exc})")
            ok = False
    return "\n".join(lines) + "\n", ok


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="effectlogic",
        description="Evaluate classical, probabilistic and quantum predicate scenarios.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--precision", type=int, default=9,
                        help=f"decimal digits for reported reals, 0 to "
                             f"{scenario.MAX_PRECISION} (default 9)")
    common.add_argument("--eps", type=float, default=None,
                        help="set the structural tolerance EPS (POST_EPS becomes "
                             "max(10 EPS, 1e-8))")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", parents=[common], help="evaluate a scenario file")
    p_run.add_argument("file")
    p_demo = sub.add_parser("demo", parents=[common], help="run a canned demo")
    p_demo.add_argument("name", choices=DEMOS)
    p_self = sub.add_parser("selftest", parents=[common],
                            help="run seeded randomized law checks")
    p_self.add_argument("--seed", type=int, default=0)
    p_self.add_argument("--cases", type=int, default=50)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if not 0 <= args.precision <= scenario.MAX_PRECISION:
        print(f"--precision must be between 0 and {scenario.MAX_PRECISION}, "
              f"got {args.precision}", file=sys.stderr)
        return 2
    if args.eps is not None:
        try:
            config.set_epsilon(args.eps)
        except ValueError as exc:
            print(f"--eps: {exc}", file=sys.stderr)
            return 2

    if args.command == "run":
        try:
            with open(args.file, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            print(f"cannot read {args.file}: {exc}", file=sys.stderr)
            return 2
        try:
            sc = scenario.parse_scenario(text)
        except scenario.ScenarioError as exc:
            print(f"parse error: {exc}", file=sys.stderr)
            return 2
        text, ok = scenario.run(sc, precision=args.precision)
        sys.stdout.write(text)
        return 0 if ok else 1

    if args.command == "demo":
        text, ok = demo(args.name, precision=args.precision)
        sys.stdout.write(text)
        return 0 if ok else 1

    if args.command == "selftest":
        text, ok = selftest(seed=args.seed, cases=args.cases)
        sys.stdout.write(text)
        return 0 if ok else 1

    return 2


def console_entry() -> None:
    raise SystemExit(main())
