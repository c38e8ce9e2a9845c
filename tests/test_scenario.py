"""Scenario grammar, evaluation, demos and command-line behaviour."""

import numpy as np
import pytest

from effectlogic import classical, cli, quantum, stochastic
from effectlogic.quantum import PureState, QPredicate
from effectlogic.scenario import ScenarioError, format_value, parse_scenario, run

MINIMAL_QUANTUM = """\
instance quantum
let up = ket(1, 0)
let vertical = predicate(projector(ket1))
query born(up, vertical)
"""

CLASSICAL = """\
# three doors
instance classical
let doors = carrier(a, b, c)
let left_two = subset(doors, a, b)
query measure(left_two, elem(doors, c))
query andthen(left_two, subset(doors, b, c))
"""

MATRIX_SCENARIO = """\
instance quantum
let m = matrix 2 2
0.5+0i 0.5+0i
0.5+0i 0.5+0i
let p = predicate(m)
query born(ket0, p)
"""


class TestParsing:
    def test_minimal_quantum(self):
        sc = parse_scenario(MINIMAL_QUANTUM)
        assert sc.instance == "quantum"
        assert set(sc.declarations) == {"up", "vertical"}
        assert [q.kind for q in sc.queries] == ["born"]

    def test_matrix_literal(self):
        sc = parse_scenario(MATRIX_SCENARIO)
        assert np.allclose(sc.declarations["m"], np.full((2, 2), 0.5))

    def test_unnormalised_distribution_rejected_with_sum(self):
        text = "instance stochastic\nlet c = carrier(a, b)\nlet d = dist(c, 0.5, 0.4)\n"
        with pytest.raises(ScenarioError) as err:
            parse_scenario(text)
        assert err.value.line == 3
        assert "0.9" in str(err.value)

    def test_unknown_name(self):
        text = "instance quantum\nquery born(ket0, nothere)\n"
        with pytest.raises(ScenarioError) as err:
            parse_scenario(text)
        assert "nothere" in str(err.value)
        assert err.value.line == 2

    def test_syntax_error_has_position(self):
        with pytest.raises(ScenarioError) as err:
            parse_scenario("instance classical\nlet x carrier(a)\n")
        assert err.value.line == 2

    def test_unknown_instance(self):
        with pytest.raises(ScenarioError):
            parse_scenario("instance fuzzy\n")

    def test_missing_instance(self):
        with pytest.raises(ScenarioError):
            parse_scenario("let c = carrier(a)\n")

    def test_unknown_query_kind(self):
        with pytest.raises(ScenarioError):
            parse_scenario("instance classical\nquery frobnicate(x)\n")

    def test_wrong_arity(self):
        with pytest.raises(ScenarioError):
            parse_scenario("instance classical\nlet c = carrier(a)\nquery states(1, 2)\n")

    def test_duplicate_name(self):
        with pytest.raises(ScenarioError):
            parse_scenario("instance classical\nlet c = carrier(a)\nlet c = carrier(b)\n")

    def test_nested_query_arity_is_a_parse_error(self, tmp_path, capsys):
        text = ("instance quantum\nlet p = predicate(projector(ket0))\n"
                "query born(ket0, andthen(p))\n")
        with pytest.raises(ScenarioError) as err:
            parse_scenario(text)
        assert (err.value.line, err.value.col) == (3, text.splitlines()[2].index("andthen") + 1)
        assert err.value.message == "andthen takes 2 arguments, got 1"
        path = tmp_path / "arity.scn"
        path.write_text(text)
        assert cli.main(["run", str(path)]) == 2
        assert "line 3, col 18: andthen takes 2 arguments" in capsys.readouterr().err

    def test_truncated_matrix(self):
        with pytest.raises(ScenarioError):
            parse_scenario("instance quantum\nlet m = matrix 2 2\n1+0i 0+0i\n")


class TestRunning:
    def test_born_line(self):
        text, ok = run(parse_scenario(MINIMAL_QUANTUM))
        assert ok
        assert text == "0: born = 0.000000000\n"

    def test_classical_lines(self):
        text, ok = run(parse_scenario(CLASSICAL))
        assert ok
        assert text.splitlines() == [
            "0: measure = right(c)",
            "1: andthen = {b}",
        ]

    def test_determinism(self):
        sc_text = MATRIX_SCENARIO + "query measure(p, ket0)\nquery comprehension(p)\n"
        first = run(parse_scenario(sc_text))
        second = run(parse_scenario(sc_text))
        assert first == second

    def test_precision_option(self):
        text, _ = run(parse_scenario(MINIMAL_QUANTUM), precision=3)
        assert text == "0: born = 0.000\n"

    def test_per_query_precision(self):
        text, ok = run(parse_scenario(
            "instance quantum\n"
            "let p = predicate(projector(ketNE))\n"
            "query born(ket0, p) precision 2\n"
            "query born(ket0, p)\n"
        ))
        assert ok
        assert text.splitlines() == ["0: born = 0.50", "1: born = 0.500000000"]

    def test_bad_precision_rejected(self):
        with pytest.raises(ScenarioError):
            parse_scenario("instance classical\nquery states(1) precision x\n")

    def test_query_error_is_inline_and_run_continues(self):
        text = (
            "instance stochastic\n"
            "let c = carrier(a, b)\n"
            "let p = fuzzy(c, 0.5, 0.5)\n"
            "let d = carrier(z)\n"
            "let q = fuzzy(d, 1)\n"
            "query andthen(p, q)\n"
            "query multiply(0.5, p)\n"
        )
        out, ok = run(parse_scenario(text))
        assert not ok
        lines = out.splitlines()
        assert lines[0].startswith("0: andthen = error:")
        assert lines[1] == "1: multiply = [0.250000000, 0.250000000]"

    def test_inline_error_names_its_source_line(self):
        out, ok = run(parse_scenario(
            "instance stochastic\n"
            "let c = carrier(a, b)\n"
            "let p = fuzzy(c, 0.5, 0.5)\n"
            "# a comment keeps line and query numbers apart\n"
            "query multiply(0.5, p)\n"
            "query born(p, p)\n"
            "query measure(p, c)\n"
        ))
        assert not ok
        assert out.splitlines() == [
            "0: multiply = [0.250000000, 0.250000000]",
            "1: born = error: line 6: born is not a stochastic query",
            "2: measure = error: line 7: measure expects (FuzzyPredicate, Distribution)",
        ]

    def test_oversized_algebras_are_refused(self):
        text = (
            "instance classical\n"
            "query axioms(mo(1000000000000))\n"
            "query axioms(powerset(11))\n"
            "query axioms(mo(2))\n"
        )
        out, ok = run(parse_scenario(text))
        assert not ok
        assert out.splitlines() == [
            "0: axioms = error: line 2: n must be between 0 and 4096",
            "1: axioms = error: line 3: n must be between 0 and 10",
            "2: axioms = pass",
        ]
        with pytest.raises(ScenarioError, match="line 2"):
            parse_scenario("instance classical\nlet big = powerset(16)\n")

    def test_undefined_orthosum(self):
        text = (
            "instance stochastic\n"
            "let c = carrier(a)\n"
            "let p = fuzzy(c, 0.75)\n"
            "query orthosum(p, p)\n"
        )
        out, ok = run(parse_scenario(text))
        assert ok
        assert out == "0: orthosum = undefined\n"

    def test_matrix_output_format(self):
        out, ok = run(parse_scenario(MATRIX_SCENARIO + "query measure(p, ket0)\n"))
        assert ok
        lines = out.splitlines()
        assert lines[1] == "1: measure = 4 1"
        assert lines[2:] == ["0.5+0i", "0.5+0i", "0.5+0i", "-0.5+0i"]

    def test_axioms_query(self):
        out, ok = run(parse_scenario("instance classical\nquery axioms(mo(3))\n"))
        assert ok and out == "0: axioms = pass\n"


def report(*values) -> str:
    return "".join(f"{i}: {kind} = {format_value(v, 9)}\n" for i, (kind, v) in enumerate(values))


class TestUniformPredicates:
    """The result of a test feeds every predicate position, in every instance."""

    def test_quantum(self):
        m, n, k = np.diag([1.0, 0.5]), np.array([[0.5, 0.25], [0.25, 0.5]]), np.diag([0.1, 0.2])
        literal = "".join(
            f"let {name} = matrix 2 2\n" + "\n".join(" ".join(f"{x}+0i" for x in row) for row in a)
            + "\n" for name, a in (("M", m), ("N", n), ("K", k))
        )
        out, ok = run(parse_scenario(
            "instance quantum\n" + literal
            + "let p = predicate(M)\nlet q = predicate(N)\nlet r = predicate(K)\n"
            "query orthosum(andthen(p, q), r)\n"
            "query measure(then(p, q), ket0)\n"
            "query comprehension(andthen(p, p))\n"
            "query measure(effect(M), ket0)\n"
            "query multiply(0.5, then(q, p))\n"
        ))
        p, q, r = (QPredicate.from_effect(a) for a in (m, n, k))
        ket0 = PureState(quantum.KET0)

        def andthen(a, b):
            return QPredicate(quantum.test_andthen(a.first, b.first))

        def then(a, b):
            return QPredicate(quantum.test_then(a.first, b.first))

        assert ok
        assert out == report(
            ("orthosum", quantum.orthosum(andthen(p, q), r)),
            ("measure", quantum.measure_pure(then(p, q), ket0)),
            ("comprehension", quantum.comprehension(andthen(p, p))),
            ("measure", quantum.measure_pure(p, ket0)),
            ("multiply", quantum.probability_multiply(0.5, then(q, p))),
        )
        assert "2: comprehension = 2 1" in out.splitlines()

    def test_classical(self):
        out, ok = run(parse_scenario(
            "instance classical\nlet c = carrier(a, b, c)\n"
            "let p = subset(c, a, b)\nlet q = subset(c, b)\nlet r = subset(c, c)\n"
            "query orthosum(andthen(p, q), r)\n"
            "query measure(then(p, q), elem(c, a))\n"
            "query comprehension(andthen(p, p))\n"
        ))
        carrier = classical.finset("a", "b", "c")
        p, q = classical.BoolPredicate(carrier, {0, 1}), classical.BoolPredicate(carrier, {1})
        r = classical.BoolPredicate(carrier, {2})
        assert ok
        assert out == report(
            ("orthosum", classical.orthosum(classical.test_andthen(p, q), r)),
            ("measure", ("tagged", carrier, classical.measure(classical.test_then(p, q), 0))),
            ("comprehension", classical.comprehension(classical.test_andthen(p, p))[0]),
        )

    def test_stochastic(self):
        out, ok = run(parse_scenario(
            "instance stochastic\nlet c = carrier(a, b)\n"
            "let p = fuzzy(c, 1, 0.5)\nlet q = fuzzy(c, 0.4, 0.6)\nlet r = fuzzy(c, 0.5, 0.2)\n"
            "let d = dist(c, 0.3, 0.7)\n"
            "query orthosum(andthen(p, q), r)\n"
            "query measure(then(p, q), d)\n"
            "query comprehension(andthen(p, p))\n"
        ))
        carrier = classical.finset("a", "b")
        p, q, r = (stochastic.FuzzyPredicate(carrier, np.array(v))
                   for v in ((1.0, 0.5), (0.4, 0.6), (0.5, 0.2)))
        d = stochastic.Distribution(carrier, np.array([0.3, 0.7]))
        assert ok
        assert out == report(
            ("orthosum", stochastic.orthosum(stochastic.test_andthen(p, q), r)),
            ("measure", stochastic.measure_distribution(stochastic.test_then(p, q), d)),
            ("comprehension", stochastic.comprehension(stochastic.test_andthen(p, p))[0]),
        )


class TestStaticInstances:
    def test_run_validates_no_builtin_state(self, monkeypatch):
        sc = parse_scenario(
            "instance quantum\n"
            "let p = predicate(projector(ketNE))\n"
            "query born(ket0, p)\n"
            "query born(ketNW, p)\n"
        )
        validated = []
        original = PureState.__post_init__

        def counting(self):
            validated.append(self)
            original(self)

        monkeypatch.setattr(PureState, "__post_init__", counting)
        out, ok = run(sc)
        assert ok and out == "0: born = 0.500000000\n1: born = 0.000000000\n"
        assert validated == []


class TestDemos:
    def test_polarisation_values(self):
        text, ok = cli.demo("polarisation")
        assert ok
        assert text.splitlines() == [
            "0: born = 0.000000000",
            "1: born = 0.500000000",
            "2: born = 0.250000000",
            "3: born = 0.750000000",
        ]

    def test_stone_lines(self):
        text, ok = cli.demo("stone")
        assert ok
        assert "|S(X)| = 3 for |X| = 3" in text.splitlines()

    def test_axioms_lines(self):
        text, ok = cli.demo("axioms")
        assert ok
        assert "MO(3): pass" in text.splitlines()

    def test_unknown_demo(self):
        with pytest.raises(ValueError):
            cli.demo("nonsense")


class TestCommandLine:
    def test_run_ok(self, tmp_path, capsys):
        path = tmp_path / "sc.scn"
        path.write_text(MINIMAL_QUANTUM)
        assert cli.main(["run", str(path)]) == 0
        assert capsys.readouterr().out == "0: born = 0.000000000\n"

    def test_run_heavier_queries_ok(self, tmp_path, capsys):
        path = tmp_path / "sc.scn"
        path.write_text(
            "instance classical\nlet c = carrier(a)\nquery states(4)\nquery axioms(c)\n"
        )
        code = cli.main(["run", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines()[0] == "0: states = 4"

    def test_parse_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.scn"
        path.write_text("instance classical\nquery nope(1)\n")
        assert cli.main(["run", str(path)]) == 2
        assert "parse error" in capsys.readouterr().err

    def test_missing_file_exit_code(self, capsys):
        assert cli.main(["run", "/no/such/file.scn"]) == 2
        capsys.readouterr()

    def test_failing_query_sets_exit_one(self, tmp_path, capsys):
        path = tmp_path / "sc.scn"
        path.write_text(
            "instance stochastic\n"
            "let c = carrier(a)\n"
            "let p = fuzzy(c, 0.5)\n"
            "query multiply(2, p)\n"
        )
        assert cli.main(["run", str(path)]) == 1
        assert "error" in capsys.readouterr().out

    def test_demo_subcommand(self, capsys):
        assert cli.main(["demo", "polarisation"]) == 0
        out = capsys.readouterr().out
        assert out.endswith("3: born = 0.750000000\n")

    def test_selftest(self, capsys):
        assert cli.main(["selftest", "--seed", "3", "--cases", "5"]) == 0
        out = capsys.readouterr().out
        assert "selftest quantum: ok" in out

    def test_usage_error(self, capsys):
        assert cli.main([]) == 2
        capsys.readouterr()

    def test_precision_flag(self, capsys):
        assert cli.main(["demo", "polarisation", "--precision", "4"]) == 0
        assert capsys.readouterr().out.splitlines()[2] == "2: born = 0.2500"

    def test_weather_scenario_golden(self, capsys):
        """Frozen report for the shipped kernel scenario (values hand-checked:
        e.g. 0.8*0.9 + 0.2*0.3 = 0.78, and the measured split 0.5*0.9 = 0.45)."""
        from pathlib import Path

        path = Path(__file__).resolve().parent.parent / "scenarios" / "weather.scn"
        assert cli.main(["run", str(path)]) == 0
        assert capsys.readouterr().out == (
            "0: substitute = [0.780000000, 0.540000000]\n"
            "1: andthen = [0.180000000, 0.210000000]\n"
            "2: then = [0.280000000, 0.910000000]\n"
            "3: orthosum = [0.700000000, 0.950000000]\n"
            "4: multiply = [0.450000000, 0.150000000]\n"
            "5: measure = {L.sunny: 0.450000000, L.rainy: 0.150000000, "
            "R.sunny: 0.050000000, R.rainy: 0.350000000}\n"
            "6: comprehension = {sunny}\n"
        )

    def test_three_doors_scenario_golden(self, capsys):
        from pathlib import Path

        path = Path(__file__).resolve().parent.parent / "scenarios" / "three_doors.scn"
        assert cli.main(["run", str(path)]) == 0
        assert capsys.readouterr().out == (
            "0: substitute = {a,b}\n"
            "1: andthen = {b}\n"
            "2: then = {a,b,c}\n"
            "3: orthosum = {a,c}\n"
            "4: measure = right(c)\n"
            "5: comprehension = {a,b}\n"
            "6: states = 3\n"
            "7: axioms = pass\n"
            "8: axioms = pass\n"
        )

    def test_eps_override_loosens_normalisation(self, tmp_path, capsys):
        from effectlogic import config

        path = tmp_path / "loose.scn"
        path.write_text(
            "instance stochastic\nlet c = carrier(a, b)\nlet d = dist(c, 0.5, 0.45)\n"
            "query measure(fuzzy(c, 1, 0), d)\n"
        )
        default_eps = config.EPS
        try:
            assert cli.main(["run", str(path)]) == 2  # rejected at the default tolerance
            capsys.readouterr()
            assert cli.main(["run", str(path), "--eps", "0.1"]) == 0
            capsys.readouterr()
        finally:
            config.EPS = default_eps
            config.POST_EPS = 1e-8

    def test_shipped_scenarios_run_clean(self, capsys):
        from pathlib import Path

        base = Path(__file__).resolve().parent.parent / "scenarios"
        for name in ("polarisation.scn", "weather.scn", "three_doors.scn"):
            assert cli.main(["run", str(base / name)]) == 0
            capsys.readouterr()
