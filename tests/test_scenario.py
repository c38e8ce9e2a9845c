"""Scenario grammar, evaluation, demos and command-line behaviour."""

import contextlib
import io
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effectlogic import classical, cli, linalg, quantum, scenario, stochastic
from effectlogic.quantum import PureState, QPredicate
from effectlogic.scenario import NameRef, ScenarioError, format_value, parse_scenario, run

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
        # precision is an integer literal, as a matrix header's sizes are
        for literal in ("1e1", "3.0"):
            with pytest.raises(ScenarioError) as err:
                parse_scenario(f"instance classical\nquery states(1) precision {literal}\n")
            assert (err.value.line, err.value.col, err.value.message) == (
                2, 27, "precision must be an integer")

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
        # every quantum predicate position, and every matrix position, takes a QPredicate
        out, ok = run(parse_scenario(
            "instance quantum\n"
            "let M3 = matrix 3 3\n0.5 0 0\n0 0.5 0\n0 0 0.5\n"
            "let e = effect(M3)\n"
            "let p = predicate(projector(ketNE))\n"
            "query substitute(isometry(hadamard), effect(M3))\n"
            "query andthen(e, ket0)\n"
            "query measure(p, density(predicate(projector(ket0))))\n"
        ))
        assert not ok
        assert out.splitlines() == [
            "0: substitute = error: line 8: predicate dimension must match the isometry target",
            "1: andthen = error: line 9: andthen expects (QPredicate, QPredicate)",
            "2: measure = 4 4",
            "0.25+0i 0.25+0i 0.25+0i -0.25+0i",
            "0.25+0i 0.25+0i 0.25+0i -0.25+0i",
            "0.25+0i 0.25+0i 0.25+0i -0.25+0i",
            "-0.25+0i -0.25+0i -0.25+0i 0.25+0i",
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

    def test_overflowing_literal_is_not_a_natural_number(self):
        # 1e999 reads as inf, which has no integer value
        out, ok = run(parse_scenario(
            "instance classical\nquery states(1e999)\nquery axioms(mo(1e999))\n"))
        assert not ok
        assert out.splitlines() == [
            "0: states = error: line 2: states takes a natural number",
            "1: axioms = error: line 3: mo takes one natural number",
        ]

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
        assert ok
        assert out == report(
            ("orthosum", quantum.orthosum(quantum.test_andthen(p, q), r)),
            ("measure", quantum.measure_pure(quantum.test_then(p, q), ket0)),
            ("comprehension", quantum.comprehension(quantum.test_andthen(p, p))),
            ("measure", quantum.measure_pure(p, ket0)),
            ("multiply", quantum.probability_multiply(0.5, quantum.test_then(q, p))),
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

    @pytest.mark.parametrize("option,message", [
        (["--eps", "0"], "--eps: tolerance must be positive and finite, got 0.0"),
        (["--eps", "-1"], "--eps: tolerance must be positive and finite, got -1.0"),
        (["--eps", "nan"], "--eps: tolerance must be positive and finite, got nan"),
        (["--eps", "inf"], "--eps: tolerance must be positive and finite, got inf"),
        (["--precision", "-1"], "--precision must be between 0 and 17, got -1"),
        (["--precision", "18"], "--precision must be between 0 and 17, got 18"),
    ])
    def test_option_out_of_range_is_a_usage_error(self, tmp_path, capsys, option, message):
        # at nan or inf every "x > EPS" check is false, and the orthosum of
        # diag(3, 0.5) with itself would be admitted
        from effectlogic import config

        path = tmp_path / "sc.scn"
        path.write_text("instance quantum\nlet m = matrix 2 2\n3+0i 0+0i\n0+0i 0.5+0i\n"
                        "query orthosum(predicate(m), predicate(m))\n")
        saved = config.EPS, config.POST_EPS
        try:
            assert cli.main(["run", str(path), *option]) == 2
        finally:
            config.EPS, config.POST_EPS = saved
        assert capsys.readouterr() == ("", message + "\n")

    @pytest.mark.parametrize("depth,code", [(scenario.MAX_DEPTH, 0),
                                            (scenario.MAX_DEPTH + 1, 2), (3000, 2)])
    def test_nesting_bound(self, tmp_path, capsys, depth, code):
        # born(ket0, predicate(...predicate(m)...)) nests depth calls
        expr = "m"
        for _ in range(depth - 1):
            expr = f"predicate({expr})"
        path = tmp_path / "deep.scn"
        path.write_text("instance quantum\nlet m = matrix 2 2\n0.5+0i 0+0i\n0+0i 0.25+0i\n"
                        f"query born(ket0, {expr})\n")
        assert cli.main(["run", str(path)]) == code
        out, err = capsys.readouterr()
        if code == 0:
            assert (out, err) == ("0: born = 0.500000000\n", "")
        else:
            col = len("query born(ket0, ") + 1 + len("predicate(") * (scenario.MAX_DEPTH - 1)
            assert (out, err) == (
                "", f"parse error: line 5, col {col}: calls nest deeper than 100\n")

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
        assert cli.main(["selftest", "--seed", "7", "--cases", "100"]) == 0
        assert capsys.readouterr().out == (
            "selftest effect-algebra: ok (500 checks)\n"
            "selftest classical: ok (300 checks)\n"
            "selftest stochastic: ok (300 checks)\n"
            "selftest quantum: ok (400 checks)\n"
        )

    def test_selftest_reports_a_broken_law(self, monkeypatch, capsys):
        # a then that ignores its first argument breaks then = (andthen q')'
        monkeypatch.setattr(stochastic, "test_then", lambda p, q: q)
        assert cli.main(["selftest", "--seed", "7", "--cases", "5"]) == 1
        assert capsys.readouterr().out.splitlines()[2].startswith("selftest stochastic: FAILED")

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

    def test_polarisation_scenario_golden(self, capsys):
        from pathlib import Path

        path = Path(__file__).resolve().parent.parent / "scenarios" / "polarisation.scn"
        assert cli.main(["run", str(path)]) == 0
        assert capsys.readouterr().out == (
            "0: born = 0.000000000\n"
            "1: born = 0.500000000\n"
            "2: born = 0.250000000\n"
            "3: born = 0.750000000\n"
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
        saved = config.EPS, config.POST_EPS
        try:
            assert cli.main(["run", str(path)]) == 2  # rejected at the default tolerance
            capsys.readouterr()
            assert cli.main(["run", str(path), "--eps", "0.1"]) == 0
            capsys.readouterr()
        finally:
            config.EPS, config.POST_EPS = saved

    def test_eps_override_reaches_spectral_checks(self, tmp_path, capsys):
        from effectlogic import config

        path = tmp_path / "dust.scn"
        path.write_text(
            "instance quantum\nlet m = matrix 2 2\n-5e-7 0\n0 0.5\nlet e = effect(m)\n"
            "query born(ket0, e)\n"
        )
        saved = config.EPS, config.POST_EPS
        try:
            assert cli.main(["run", str(path)]) == 2  # eigenvalue -5e-7 < -1e-9
            capsys.readouterr()
            assert cli.main(["run", str(path), "--eps", "1e-6"]) == 0
            assert capsys.readouterr().out == "0: born = 0.000000000\n"
        finally:
            config.EPS, config.POST_EPS = saved

    def test_eps_override_keeps_the_kernel_gauge(self, tmp_path, capsys):
        from effectlogic import config

        path = tmp_path / "gauge.scn"
        path.write_text(
            "instance quantum\nlet m = matrix 2 2\n0 0\n0 1\n"
            "query comprehension(predicate(m))\n"
        )
        saved = config.EPS, config.POST_EPS
        try:
            # POST_EPS is 1 here, past both entries of the kernel column
            assert cli.main(["run", str(path), "--eps", "0.1"]) == 0
            assert capsys.readouterr().out == "0: comprehension = 2 1\n0+0i\n1+0i\n"
        finally:
            config.EPS, config.POST_EPS = saved

    def test_eps_override_moves_the_square_root_snap(self, tmp_path, capsys):
        from effectlogic import config

        path = tmp_path / "snap.scn"
        path.write_text(
            "instance quantum\nlet m = matrix 2 2\n0.95 0\n0 0.05\n"
            "query measure(predicate(m), ket0)\n"
        )
        saved = config.EPS, config.POST_EPS
        try:
            assert cli.main(["run", str(path)]) == 0
            assert capsys.readouterr().out.splitlines()[1] == "0.974679434+0i"
            # eigenvalues within EPS = 0.1 of 1 and 0 are read as 1 and 0
            assert cli.main(["run", str(path), "--eps", "0.1"]) == 0
            assert capsys.readouterr().out == "0: measure = 4 1\n1+0i\n0+0i\n0+0i\n0+0i\n"
        finally:
            config.EPS, config.POST_EPS = saved

    def test_comprehension_report_reads_back_as_an_isometry(self, tmp_path, capsys):
        import numpy as np

        from effectlogic.linalg import format_matrix, parse_matrix

        rng = np.random.default_rng(5)
        u, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        a = u @ np.diag([1.0, 1.0, 1.0, 0.4]) @ u.conj().T
        first = tmp_path / "first.scn"
        first.write_text(
            f"instance quantum\nlet a = matrix {format_matrix(a, 17)}\n"
            "query comprehension(predicate(a))\n"
        )
        assert cli.main(["run", str(first)]) == 0
        report = capsys.readouterr().out.split(" = ", 1)[1]
        printed = parse_matrix(report)
        # the 9-digit literal drifts past EPS, which Isometry still admits
        assert np.linalg.norm(printed.conj().T @ printed - np.eye(3)) > 1e-9
        second = tmp_path / "second.scn"
        second.write_text(
            f"instance quantum\nlet v = matrix {report}"
            f"let a = matrix {format_matrix(a, 17)}\n"
            "query substitute(isometry(v), predicate(a))\n"
        )
        assert cli.main(["run", str(second)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("0: substitute = 3 3\n")
        pulled = parse_matrix(out.split(" = ", 1)[1])
        assert np.max(np.abs(pulled - np.eye(3))) < 1e-8

    def test_shipped_scenarios_run_clean(self, capsys):
        from pathlib import Path

        base = Path(__file__).resolve().parent.parent / "scenarios"
        for name in ("polarisation.scn", "weather.scn", "three_doors.scn"):
            assert cli.main(["run", str(base / name)]) == 0
            capsys.readouterr()


# -- the text layer: reports and parse errors frozen from the token-by-token
# reader and entry-by-entry writer that the array-wise ones replace ----------

TEXT_LAYER_SCENARIO = (
    'instance quantum\n'
    'let rho2 = matrix 2 2\n'
    '0.75+0i 0.25-0.125i\n'
    '0.25+0.125i 0.25+0i\n'
    'let a2 = matrix 2 2\n'
    '0.64+0i 0+0i\n'
    '0+0i 0.36+0i\n'
    'let rho4 = matrix 4 4\n'
    '0.4+0i 0.05+0.05i 0+0i 0+0i\n'
    '0.05-0.05i 0.3+0i 0+0i 0+0i\n'
    '0+0i 0+0i 0.2+0i 0.02-0.01i\n'
    '0+0i 0+0i 0.02+0.01i 0.1+0i\n'
    'let a4 = matrix 4 4\n'
    '0.9+0i 0+0i 0+0i 0+0i\n'
    '0+0i 0.5+0i 0+0i 0+0i\n'
    '0+0i 0+0i 0.25+0i 0+0i\n'
    '0+0i 0+0i 0+0i 0+0i\n'
    'let tiny = matrix 2 2\n'
    '0.5+0i 1e-300-0i\n'
    '1e-300+0i -0-0i\n'
    'query measure(effect(a2), density(rho2))\n'
    'query measure(predicate(a4), density(rho4))\n'
    'query comprehension(effect(a2))\n'
    'query multiply(1, effect(tiny))\n'
    'query multiply(-0.0, effect(tiny))\n'
    'query measure(effect(a2), density(rho2)) precision 0\n'
    'query measure(predicate(a4), density(rho4)) precision 17\n'
    'query multiply(1, effect(tiny)) precision 17\n'
    'query measure(effect(a2), density(rho2)) precision 17\n'
)

TEXT_LAYER_REPORT = (
    '0: measure = 4 4\n'
    '0.48+0i 0.12-0.06i 0.36+0i 0.16-0.08i\n'
    '0.12+0.06i 0.09+0i 0.09+0.045i 0.12+0i\n'
    '0.36+0i 0.09-0.045i 0.27+0i 0.12-0.06i\n'
    '0.16+0.08i 0.12+0i 0.12+0.06i 0.16+0i\n'
    '1: measure = 8 8\n'
    '0.36+0i 0.0335410197+0.0335410197i 0+0i 0+0i 0.12+0i 0.0335410197+0.0335410197i 0+0i 0+0i\n'
    '0.0335410197-0.0335410197i 0.15+0i 0+0i 0+0i 0.0111803399-0.0111803399i 0.15+0i 0+0i 0+0i\n'
    '0+0i 0+0i 0.05+0i 0+0i 0+0i 0+0i 0.0866025404+0i 0.01-0.005i\n'
    '0+0i 0+0i 0+0i 0+0i 0+0i 0+0i 0+0i 0+0i\n'
    '0.12+0i 0.0111803399+0.0111803399i 0+0i 0+0i 0.04+0i 0.0111803399+0.0111803399i 0+0i 0+0i\n'
    '0.0335410197-0.0335410197i 0.15+0i 0+0i 0+0i 0.0111803399-0.0111803399i 0.15+0i 0+0i 0+0i\n'
    '0+0i 0+0i 0.0866025404+0i 0+0i 0+0i 0+0i 0.15+0i 0.0173205081-0.00866025404i\n'
    '0+0i 0+0i 0.01+0.005i 0+0i 0+0i 0+0i 0.0173205081+0.00866025404i 0.1+0i\n'
    '2: comprehension = 2 0\n'
    '\n'
    '\n'
    '3: multiply = 2 2\n'
    '0.5+0i 1e-300+0i\n'
    '1e-300+0i 0+0i\n'
    '4: multiply = 2 2\n'
    '0+0i 0+0i\n'
    '0+0i 0+0i\n'
    '5: measure = 4 4\n'
    '0.5+0i 0.1-0.06i 0.4+0i 0.2-0.08i\n'
    '0.1+0.06i 0.09+0i 0.09+0.04i 0.1+0i\n'
    '0.4+0i 0.09-0.04i 0.3+0i 0.1-0.06i\n'
    '0.2+0.08i 0.1+0i 0.1+0.06i 0.2+0i\n'
    '6: measure = 8 8\n'
    '0.36000000000000004+0i 0.033541019662496847+0.033541019662496847i 0+0i 0+0i 0.12+0i 0.033541019662496847+0.033541019662496847i 0+0i 0+0i\n'
    '0.033541019662496847-0.033541019662496847i 0.15000000000000002+0i 0+0i 0+0i 0.011180339887498949-0.011180339887498949i 0.15000000000000002+0i 0+0i 0+0i\n'
    '0+0i 0+0i 0.050000000000000003+0i 0+0i 0+0i 0+0i 0.086602540378443865+0i 0.01-0.0050000000000000001i\n'
    '0+0i 0+0i 0+0i 0+0i 0+0i 0+0i 0+0i 0+0i\n'
    '0.11999999999999998+0i 0.011180339887498949+0.011180339887498949i 0+0i 0+0i 0.039999999999999994+0i 0.011180339887498949+0.011180339887498949i 0+0i 0+0i\n'
    '0.033541019662496847-0.033541019662496847i 0.15000000000000002+0i 0+0i 0+0i 0.011180339887498949-0.011180339887498949i 0.15000000000000002+0i 0+0i 0+0i\n'
    '0+0i 0+0i 0.086602540378443865+0i 0+0i 0+0i 0+0i 0.14999999999999999+0i 0.017320508075688773-0.0086602540378443865i\n'
    '0+0i 0+0i 0.01+0.0050000000000000001i 0+0i 0+0i 0+0i 0.017320508075688773+0.0086602540378443865i 0.10000000000000001+0i\n'
    '7: multiply = 2 2\n'
    '0.5+0i 1e-300+0i\n'
    '1e-300+0i 0+0i\n'
    '8: measure = 4 4\n'
    '0.48000000000000009+0i 0.12-0.059999999999999998i 0.36000000000000004+0i 0.16000000000000003-0.080000000000000016i\n'
    '0.12+0.059999999999999998i 0.089999999999999997+0i 0.089999999999999997+0.044999999999999998i 0.12+0i\n'
    '0.35999999999999999+0i 0.089999999999999997-0.044999999999999998i 0.26999999999999996+0i 0.12-0.059999999999999998i\n'
    '0.16000000000000003+0.080000000000000016i 0.12+0i 0.12+0.059999999999999998i 0.16000000000000003+0i\n'
)

# Each declared predicate is used by several kinds of query, so a value
# kept from one query is read again by the next.  The report keeps the
# rounding residue of each product (the e-17 and e-19 entries), so it pins
# the floating-point operations as well as the values.
REUSE_SCENARIO = (
    'instance quantum\n'
    'let a = matrix 3 3\n'
    '0.5+0i 0.1-0.2i 0+0i\n'
    '0.1+0.2i 0.3+0i 0.1+0i\n'
    '0+0i 0.1+0i 0.6+0i\n'
    'let b = matrix 3 3\n'
    '0.7+0i 0+0.1i 0.2+0i\n'
    '0-0.1i 0.4+0i 0+0i\n'
    '0.2+0i 0+0i 0.25+0i\n'
    'let s = matrix 3 3\n'
    '0.5+0i 0.5+0i 0+0i\n'
    '0.5+0i 0.5+0i 0+0i\n'
    '0+0i 0+0i 1+0i\n'
    'let m = matrix 3 3\n'
    '0.5+0i 0.1+0i 0+0.05i\n'
    '0.1+0i 0.3+0i 0+0i\n'
    '0-0.05i 0+0i 0.2+0i\n'
    'let v = matrix 3 2\n'
    '0.6+0i 0+0i\n'
    '0.8+0i 0+0i\n'
    '0+0i 1+0i\n'
    'let p = predicate(a)\n'
    'let q = predicate(b)\n'
    'let r = predicate(s)\n'
    'let x = ket(0.6, 0, 0.8)\n'
    'let rho = density(m)\n'
    'let f = isometry(v)\n'
    'query born(x, p)\n'
    'query born(x, q)\n'
    'query born(x, r)\n'
    'query andthen(p, q)\n'
    'query andthen(q, p)\n'
    'query then(p, q)\n'
    'query then(q, r)\n'
    'query born(x, andthen(r, p))\n'
    'query orthosum(multiply(0.5, p), multiply(0.5, q))\n'
    'query orthosum(p, q)\n'
    'query multiply(0.3, q)\n'
    'query substitute(f, p)\n'
    'query substitute(f, r)\n'
    'query measure(p, x)\n'
    'query measure(q, rho)\n'
    'query measure(r, rho)\n'
    'query measure(p, rho)\n'
    'query measure(q, x)\n'
    'query measure(r, x)\n'
    'query comprehension(r)\n'
    'query comprehension(p)\n'
)

REUSE_REPORT = (
    '0: born = 0.564000000\n'
    '1: born = 0.604000000\n'
    '2: born = 0.820000000\n'
    '3: andthen = 3 3\n'
    '0.315004603+0i 0.0655608396-0.0775506913i 0.104720671+0.00612361795i\n'
    '0.0655608396+0.0775506913i 0.115273674+0i 0.04225059+0.0270625115i\n'
    '0.104720671-0.00612361795i 0.04225059-0.0270625115i 0.149721723+0i\n'
    '4: andthen = 3 3\n'
    '0.328439842+0i 0.0608044769-0.0629181318i 0.106945947+0.00538017975i\n'
    '0.0608044769+0.0629181318i 0.103382126+0i 0.0396720211+0.0185798752i\n'
    '0.106945947-0.00538017975i 0.0396720211-0.0185798752i 0.148178032+0i\n'
    '5: then = 3 3\n'
    '0.815004603+0i -0.0344391604+0.122449309i 0.104720671+0.00612361795i\n'
    '-0.0344391604-0.122449309i 0.815273674+0i -0.05774941+0.0270625115i\n'
    '0.104720671-0.00612361795i -0.05774941-0.0270625115i 0.549721723+0i\n'
    '6: then = 3 3\n'
    '0.6620191+0i 0.254956515-0.0507637106i -0.06315783+0.00947185578i\n'
    '0.254956515+0.0507637106i 0.800048527+0i 0.0490658696+0.00234100349i\n'
    '-0.06315783-0.00947185578i 0.0490658696-0.00234100349i 0.987932373+0i\n'
    '7: born = 0.522000000\n'
    '8: orthosum = 3 3\n'
    '0.6+0i 0.05-0.05i 0.1+0i\n'
    '0.05+0.05i 0.35+0i 0.05+0i\n'
    '0.1+0i 0.05+0i 0.425+0i\n'
    '9: orthosum = undefined\n'
    '10: multiply = 3 3\n'
    '0.21+0i 0+0.03i 0.06+0i\n'
    '0-0.03i 0.12+0i 0+0i\n'
    '0.06+0i 0+0i 0.075+0i\n'
    '11: substitute = 2 2\n'
    '0.468+1.40998324e-17i 0.08+0i\n'
    '0.08+0i 0.6+0i\n'
    '12: substitute = 2 2\n'
    '0.98+0i 0+0i\n'
    '0+0i 1+0i\n'
    '13: measure = 6 1\n'
    '0.405121489+0.00741758013i\n'
    '0.114437701+0.101268421i\n'
    '0.613546517-0.00556318509i\n'
    '0.41199953+0.00561188i\n'
    '-0.0956378828-0.0795702367i\n'
    '0.500728621-0.00420891i\n'
    '14: measure = 6 6\n'
    '0.341804824+8.67361738e-19i 0.0519384885+0.0416428735i 0.078032882+0.0201581365i 0.207702875+4.5063187e-05i 0.0633559823-0.0160107389i -0.0333823324+0.0356461307i\n'
    '0.0519384885-0.0416428735i 0.12097401+0i 0.0115560782-0.00264290754i 0.0331103194-0.00386364213i 0.142567531-0.0103787827i -0.00619046793+0.00811578849i\n'
    '0.078032882-0.0201581365i 0.0115560782+0.00264290754i 0.0572211655-8.13151629e-20i 0.026853616-0.0128406044i 0.0100682516-0.00900197314i 0.0698594671+0.0103337195i\n'
    '0.207702875-4.5063187e-05i 0.0331103194+0.00386364213i 0.026853616+0.0128406044i 0.142404127+0i 0.0403798641-0.038262895i -0.0627793405+0.0227294588i\n'
    '0.0633559823+0.0160107389i 0.142567531+0.0103787827i 0.0100682516+0.00900197314i 0.0403798641+0.038262895i 0.181216386+6.21417307e-19i -0.0146744089-0.00287686285i\n'
    '-0.0333823324-0.0356461307i -0.00619046793-0.00811578849i 0.0698594671-0.0103337195i -0.0627793405-0.0227294588i -0.0146744089+0.00287686285i 0.156379487-5.13738046e-19i\n'
    '15: measure = 6 6\n'
    '0.25+0i 0.25+0i 0+0.025i 0.05+0i -0.05+0i 0+0i\n'
    '0.25+0i 0.25+0i 0+0.025i 0.05+0i -0.05+0i 0+0i\n'
    '0-0.025i 0-0.025i 0.2+0i 0-0.025i 0+0.025i 0+0i\n'
    '0.05+0i 0.05+0i 0+0.025i 0.15+0i -0.15+0i 0+0i\n'
    '-0.05+0i -0.05+0i 0-0.025i -0.15+0i 0.15+0i 0+0i\n'
    '0+0i 0+0i 0+0i 0+0i 0+0i 0+0i\n'
    '16: measure = 6 6\n'
    '0.254978251-3.46944695e-18i 0.0740912007-0.083265046i 0.00527278821+0.0269561986i 0.229032936-0.0206640804i 0.0557669606+0.00341500639i -0.00821687148+0.028625273i\n'
    '0.0740912007+0.083265046i 0.10371306+3.46944695e-18i 0.0174374232+0.00508633167i 0.0558664649+0.0330704072i 0.114599264+0.0205539885i -0.00739711606+0.00184410056i\n'
    '0.00527278821-0.0269561986i 0.0174374232-0.00508633167i 0.121308689-6.77626358e-21i 0.0016888069-0.0339692925i 0.0138084297+0.00286737929i 0.0957831375+0.000110091965i\n'
    '0.229032936+0.0206640804i 0.0558664649-0.0330704072i 0.0016888069+0.0339692925i 0.236901312-8.67361738e-19i 0.016162907+0.0742485563i -0.00516341564+0.0221647025i\n'
    '0.0557669606-0.00341500639i 0.114599264-0.0205539885i 0.0138084297-0.00286737929i 0.016162907-0.0742485563i 0.202102921-6.5097853e-19i -0.0210607565-0.000594712844i\n'
    '-0.00821687148-0.028625273i -0.00739711606-0.00184410056i 0.0957831375-0.000110091965i -0.00516341564-0.0221647025i -0.0210607565+0.000594712844i 0.080995767-8.44795686e-21i\n'
    '17: measure = 6 1\n'
    '0.615537428-2.03696258e-20i\n'
    '-1.32617354e-16-0.0341982425i\n'
    '0.473227382+1.52772194e-20i\n'
    '0.196677377+4.89785921e-18i\n'
    '-5.4161165e-17+0.0524969906i\n'
    '0.595451153-3.67339441e-18i\n'
    '18: measure = 6 1\n'
    '0.3+0i\n'
    '0.3+0i\n'
    '0.8+0i\n'
    '0.3+0i\n'
    '-0.3+0i\n'
    '0+0i\n'
    '19: comprehension = 3 2\n'
    '0+0i 0.707106781+0i\n'
    '0+0i 0.707106781+0i\n'
    '1+0i 0+0i\n'
    '20: comprehension = 3 0\n'
    '\n'
    '\n'
    '\n'
)

STOCHASTIC_HEAD = 'instance stochastic\nlet X = carrier(a, b)\nlet Y = carrier(u, v)\nlet p = fuzzy(X, 0.5, 1)\n'
CLASSICAL_HEAD = 'instance classical\nlet X = carrier(a, b)\n'
QUANTUM_HEAD = 'instance quantum\n'

# number runs closing an argument list or followed by more arguments,
# malformed numbers inside a run, and runs in nested query calls
PARSE_ERRORS = [
    (STOCHASTIC_HEAD, 'let q = fuzzy(X, 0.5, 1.2.3)\n', (5, 25, "expected ',' or ')', found '2.3'")),
    (STOCHASTIC_HEAD, 'let q = fuzzy(X, 0.5, 1e, 0.25)\n', (5, 22, "unexpected character '1'")),
    (STOCHASTIC_HEAD, 'let q = fuzzy(X, 0.25,  3x)\n', (5, 23, "unexpected character '3'")),
    (STOCHASTIC_HEAD, 'let q = fuzzy(X, 0.5, 0.5,)\n', (5, 27, "expected a name or number, found ')'")),
    (STOCHASTIC_HEAD, 'let q = fuzzy(X, 0.5, 0.5\n', (5, 1, 'unexpected end of line')),
    (STOCHASTIC_HEAD, 'let q = fuzzy(X, 0.5 0.5)\n', (5, 22, "expected ',' or ')', found '0.5'")),
    (STOCHASTIC_HEAD, 'query andthen(p, fuzzy(X, 0.5, 0.5) extra)\n', (5, 37, "expected ',' or ')', found 'extra'")),
    (STOCHASTIC_HEAD, 'let q = fuzzy(X, X, 0.5, 0.5)\n', (5, 1, 'fuzzy expects numbers from position 2')),
    (STOCHASTIC_HEAD, 'let q = fuzzy(X, 0.5, 0.5, 0.5)\n', (5, 1, 'value vector length must match carrier size')),
    (STOCHASTIC_HEAD, 'let K = stochmap(X, Y, 0.5, 0.5, 0.5)\n', (5, 1, 'stochmap needs 4 entries, got 3')),
    (STOCHASTIC_HEAD, 'let K = stochmap(X, 0.5, 0.5, 0.5, 0.5)\n', (5, 1, 'argument 2 of stochmap must be a carrier')),
    (STOCHASTIC_HEAD, 'query multiply(0.5, 0.25, 0.125)\n', (5, 7, 'multiply takes 2 arguments, got 3')),
    (STOCHASTIC_HEAD, 'query andthen(p, then(0.1, 0.2, 0.3))\n', (5, 18, 'then takes 2 arguments, got 3')),
    (STOCHASTIC_HEAD, 'query orthosum(p, multiply(0.5, 0.25, p))\n', (5, 19, 'multiply takes 2 arguments, got 3')),
    (STOCHASTIC_HEAD, 'query then(p, p) precision 1, 2)\n', (5, 29, "trailing input ','")),
    (STOCHASTIC_HEAD, 'query (0.5, 0.5)\n', (5, 7, "expected a name or number, found '('")),
    (STOCHASTIC_HEAD, 'let q = (0.5, 0.5)\n', (5, 9, "expected a name or number, found '('")),
    (STOCHASTIC_HEAD, 'let q(0.5, 0.5)\n', (5, 6, "expected '=' after the name")),
    (STOCHASTIC_HEAD, 'let K = matrix(2, 2)\n', (5, 1, "matrix literal needs 'matrix ROWS COLS'")),
    (STOCHASTIC_HEAD, 'let K = matrix 2.7 1.9\n', (5, 1, "matrix size must be two integers 'rows cols', got '2.7 1.9'")),
    (STOCHASTIC_HEAD, 'let K = matrix 1 1e0\n', (5, 1, "matrix size must be two integers 'rows cols', got '1 1e0'")),
    (STOCHASTIC_HEAD, 'let K = matrix -1 2\n', (5, 1, 'matrix dimensions must be non-negative')),
    (STOCHASTIC_HEAD, 'let K = matrix 2 1\n1\n', (5, 1, 'matrix literal ends early')),
    (CLASSICAL_HEAD, 'let s = subset(X, 1, 2, a)\n', (3, 9, 'argument 2 of subset must be a label')),
    (CLASSICAL_HEAD, 'let s = subset(X, a, 1, 2)\n', (3, 9, 'argument 3 of subset must be a label')),
    (CLASSICAL_HEAD, 'query states(1, 2)\n', (3, 7, 'states takes 1 arguments, got 2')),
    (CLASSICAL_HEAD, 'query measure(subset(X, a), elem(X, 1, 2))\n', (3, 29, 'argument 2 of elem must be a label')),
    # matrix arguments: a missing one is reported as missing, as for every constructor
    (QUANTUM_HEAD, 'let p = predicate()\n', (2, 1, 'predicate is missing argument 1')),
    (QUANTUM_HEAD, 'let p = effect(ket0)\n', (2, 1, 'argument 1 of effect must be a matrix')),
    (QUANTUM_HEAD, 'let d = density(ket0)\n', (2, 1, 'argument 1 of density must be a matrix')),
    # an overflowing literal reads as inf, which is no natural number
    (CLASSICAL_HEAD, 'let m = mo(1e999)\n', (3, 1, 'mo takes one natural number')),
    # matrix entries are finite, and a spectrum that overflows to NaN is no effect's
    (QUANTUM_HEAD, 'let m = matrix 2 2\n1e308 1e308\n1e308 1e308\nlet q = predicate(m)\n',
     (5, 1, 'effect spectrum [nan, nan] leaves [0, 1]')),
    (QUANTUM_HEAD, 'let m = matrix 2 2\n1e999 0\n0 0.5\n', (2, 1, 'matrix entries must be finite')),
    # rows are counted before the matrix is allocated
    (QUANTUM_HEAD, 'let m = matrix 1 1000000000000\n1\n',
     (2, 1, 'row 0 has 1 entries, expected 1000000000000')),
]

# Lines with two faults: the static checks run as the parser reads, so the
# fault met first in reading order wins; a call's arity is checked once its
# arguments are read, and a query line's head is read as a query kind.
PARSE_PRECEDENCE = [
    (CLASSICAL_HEAD, 'query foo(1)\n', (3, 7, "unknown query kind 'foo'")),
    (STOCHASTIC_HEAD, 'query foo(zz)\n', (5, 7, "unknown query kind 'foo'")),
    (STOCHASTIC_HEAD, 'query andthen(zz, p\n', (5, 15, "unknown name 'zz'")),
    (STOCHASTIC_HEAD, 'query andthen(zz)\n', (5, 15, "unknown name 'zz'")),
    (STOCHASTIC_HEAD, 'query andthen(p, p, zz)\n', (5, 21, "unknown name 'zz'")),
    (STOCHASTIC_HEAD, 'query andthen(p, nope(zz)\n', (5, 18, "unknown constructor 'nope'")),
    (STOCHASTIC_HEAD, 'query then(p) extra\n', (5, 7, 'then takes 2 arguments, got 1')),
    (STOCHASTIC_HEAD, 'let q = fuzzy(zz, 1.2.3)\n', (5, 15, "unknown name 'zz'")),
    (CLASSICAL_HEAD, 'let s = subset(zz, 1)\n', (3, 16, "unknown name 'zz'")),
    (CLASSICAL_HEAD, 'let s = subset(X, subset(X, zz), a\n', (3, 9, 'argument 2 of subset must be a label')),
    (CLASSICAL_HEAD, 'let s = subset(X, a, 1.2.3)\n', (3, 9, 'argument 3 of subset must be a label')),
]


class TestSolverRouting:
    def test_every_eigh_goes_through_eigen_hermitian(self, monkeypatch):
        # rebind every module-level name of eigen_hermitian, as a tracer
        # does, and count its calls against LAPACK's
        import effectlogic

        calls = {"eigen": 0, "eigh": 0}
        solve, eigh = linalg.eigen_hermitian, np.linalg.eigh

        def counted_eigen(a):
            calls["eigen"] += 1
            return solve(a)

        def counted_eigh(*args, **kwargs):
            calls["eigh"] += 1
            return eigh(*args, **kwargs)

        for module in (effectlogic, linalg, quantum, stochastic, classical, scenario, cli):
            for name, obj in list(vars(module).items()):
                if obj is solve:
                    monkeypatch.setattr(module, name, counted_eigen)
        monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
        assert run(parse_scenario(TEXT_LAYER_SCENARIO)) == (TEXT_LAYER_REPORT, True)
        _, ok = cli.selftest(seed=3, cases=5)
        assert ok
        assert calls["eigh"] > 0
        assert calls["eigen"] == calls["eigh"]


class TestTextLayer:
    def test_golden_quantum_report(self):
        # density measures at dims 2 and 4, a trivial-kernel comprehension,
        # -0.0 and 1e-300 entries, precision 0 and 17
        assert run(parse_scenario(TEXT_LAYER_SCENARIO)) == (TEXT_LAYER_REPORT, True)

    def test_golden_report_of_reused_predicates(self):
        assert run(parse_scenario(REUSE_SCENARIO)) == (REUSE_REPORT, True)

    @pytest.mark.parametrize("head,line,expected", PARSE_ERRORS + PARSE_PRECEDENCE)
    def test_parse_error_positions(self, head, line, expected):
        with pytest.raises(ScenarioError) as err:
            parse_scenario(head + line)
        assert (err.value.line, err.value.col, err.value.message) == expected

    @pytest.mark.parametrize("head,line,expected", PARSE_ERRORS[-3:])
    def test_hostile_matrix_literals_exit_two(self, tmp_path, capsys, head, line, expected):
        path = tmp_path / "bad.scn"
        path.write_text(head + line)
        assert cli.main(["run", str(path)]) == 2
        # the parse error alone: no numpy warning about the overflow before it
        assert capsys.readouterr() == ("", "parse error: line {}, col {}: {}\n".format(*expected))

    def test_number_runs_read_like_single_numbers(self):
        sc = parse_scenario(STOCHASTIC_HEAD + "query multiply(0.5, fuzzy(X, 0.25,\t.5))\n"
                            "query multiply(0.5, fuzzy(X, 0.25 ,\x1f1))\n")
        assert [q.args[1].args for q in sc.queries] == [
            (NameRef("X", 5, 27), 0.25, 0.5), (NameRef("X", 6, 27), 0.25, 1.0)]
        assert run(sc) == ("0: multiply = [0.125000000, 0.250000000]\n"
                           "1: multiply = [0.125000000, 0.500000000]\n", True)

    # a 20k-number stochmap left unclosed, or with a bad entry near its end
    @pytest.mark.parametrize("tail,expected", [
        ("", (5, 1, "unexpected end of line")),
        (", 3x, 0.5)", (5, 100023, "unexpected character '3'")),
        (", 1.2.3)", (5, 100026, "expected ',' or ')', found '2.3'")),
        (" 0.5)", (5, 100023, "expected ',' or ')', found '0.5'")),
        (",)", (5, 100023, "expected a name or number, found ')'")),
    ])
    def test_long_malformed_run_is_read_once(self, monkeypatch, tail, expected):
        line = "let K = stochmap(X, Y, " + ", ".join(["0.5"] * 20000) + tail + "\n"
        scanned = []

        class CountingRun:
            def match(self, text, pos):
                m = RUN_RE.match(text, pos)
                scanned.append(m.end() - pos)
                return m

        RUN_RE = scenario._RUN_RE
        monkeypatch.setattr(scenario, "_RUN_RE", CountingRun())
        with pytest.raises(ScenarioError) as err:
            parse_scenario(STOCHASTIC_HEAD + line)
        assert (err.value.line, err.value.col, err.value.message) == expected
        # no character is scanned twice for a run that fails
        assert sum(scanned) <= len(line)

    @pytest.mark.parametrize("module", [linalg, scenario])
    def test_patterns_need_no_newer_regex_syntax(self, module):
        # possessive repeats and atomic groups need Python 3.11, and the
        # package supports 3.10
        patterns = [v for v in vars(module).values() if isinstance(v, re.Pattern)]
        assert patterns
        for pattern in patterns:
            assert not re.search(r"[*+?}]\+|\(\?>", pattern.pattern), pattern.pattern

    def test_matrix_without_columns_reads_back(self):
        out, _ = run(parse_scenario(TEXT_LAYER_SCENARIO))
        written = out.split("2: comprehension = ")[1].split("3: ")[0]
        assert written == "2 0\n\n\n"
        sc = parse_scenario("instance quantum\nlet K = matrix " + written)
        assert sc.declarations["K"].shape == (2, 0)

    @pytest.mark.parametrize("prec", [0, 3, 9, 17])
    def test_lists_match_entrywise_reference(self, prec):
        carrier = classical.finset("a", "b%", "c")
        values = np.array([-0.0, 1e-300, 1.0 - 1e-17])
        fuzzy = stochastic.FuzzyPredicate(carrier, values)
        dist = stochastic.Distribution(carrier, np.array([0.5, -0.0, 0.5]))

        def fixed(x):
            return f"{0.0 if x == 0.0 else x:.{prec}f}"

        assert format_value(fuzzy, prec) == "[" + ", ".join(fixed(v) for v in values) + "]"
        assert format_value(dist, prec) == (
            "{a: " + fixed(0.5) + ", b%: " + fixed(0.0) + ", c: " + fixed(0.5) + "}")
        assert format_value(-0.0, prec) == fixed(0.0)


# a refused stochastic value is named by its first offending entry, so the
# report keeps one line per query however large the value
FORTY = ", ".join(f"x{i}" for i in range(40))
REFUSED_STOCHASTIC = [
    (f"let p = fuzzy(X, {', '.join(['0.5'] * 17 + ['2.0'] + ['0.5'] * 22)})",
     "fuzzy predicate has entries outside [0, 1]: entry [17] is 2.0"),
    ("let K = stochmap(Y, Y, 0.5, 0.5, 2, -1)",
     "stochastic matrix has entries outside [0, 1]: entry [1, 0] is 2.0"),
    ("let K = stochmap(Y, Y, 0.5, 0.5, 0.25, 0.25)", "rows must sum to 1, got 0.5 in row 1"),
]


class TestOneLinePerFault:
    HEAD = f"instance stochastic\nlet X = carrier({FORTY})\nlet Y = carrier(u, v)\n"

    @pytest.mark.parametrize("line,message", REFUSED_STOCHASTIC)
    def test_refused_let_is_one_stderr_line(self, tmp_path, capsys, line, message):
        path = tmp_path / "sc.scn"
        path.write_text(self.HEAD + line + "\n")
        assert cli.main(["run", str(path)]) == 2
        assert capsys.readouterr() == ("", f"parse error: line 4, col 1: {message}\n")

    @pytest.mark.parametrize("line,message", REFUSED_STOCHASTIC)
    def test_refused_query_argument_is_one_report_line(self, tmp_path, capsys, line, message):
        value = line.split(" = ", 1)[1]
        path = tmp_path / "sc.scn"
        path.write_text(self.HEAD + "query comprehension(fuzzy(Y, 1, 0))\n"
                        f"query substitute({value}, fuzzy(Y, 1, 0))\n"
                        "query comprehension(fuzzy(Y, 0, 1))\n")
        assert cli.main(["run", str(path)]) == 1
        assert capsys.readouterr() == (
            "0: comprehension = {u}\n"
            f"1: substitute = error: line 5: {message}\n"
            "2: comprehension = {v}\n", "")


# -- no scenario text crashes the runner ---------------------------------------
#
# Text is drawn three ways: lines of the grammar's words in any order; the
# shipped scenarios with a few words deleted, replaced, inserted or cut
# off; and the shipped scenarios with nested calls over their names added
# as queries and declarations.  Whatever is drawn, ``effectlogic run``
# exits 0, 1 or 2 without raising, and a parse error is one line on
# stderr.  numpy warnings are errors in this suite, so a warning that
# would reach the user fails here too.

SHIPPED = [path.read_text() for path in
           sorted((Path(__file__).resolve().parent.parent / "scenarios").glob("*.scn"))]
CALLS = sorted({fn for table in scenario.CONSTRUCTORS.values() for fn in table}
               | set(scenario.QUERY_ARITY))
LEAVES = ["zz", "ket0", "hadamard", "a", "u", "sunny", "0", "1", "2", "0.5", "-1",
          "1e308", "-1e308", "1e999"]
WORDS = (["instance", "let", "query", "classical", "stochastic", "quantum", "matrix",
          "precision", "1+1i", "1.2.3", "3x", "(", ")", ",", "=", "#", "%"] + CALLS + LEAVES)
_WORD_RE = re.compile(r"[(),=]|[^\s(),=]+")


def _line(draw) -> str:
    words = draw(st.lists(st.sampled_from(WORDS), max_size=10))
    return " ".join([draw(st.sampled_from(["query", "let v =", ""]))] + words)


def _calls(instance: str, names: list[str]):
    # calls of the scenario's instance over its names, query calls with
    # their arity, so that most draws reach evaluation
    def call(fn, args):
        arity = scenario.QUERY_ARITY.get(fn)
        return st.lists(args, min_size=arity or 0, max_size=arity or 4).map(
            lambda xs: f"{fn}({', '.join(xs)})")

    fns = sorted(scenario.CONSTRUCTORS[instance]) + sorted(scenario.OPERATIONS[instance])
    return st.recursive(
        st.sampled_from(names + LEAVES[1:]),
        lambda args: st.sampled_from(fns).flatmap(lambda fn: call(fn, args)),
        max_leaves=8)


@st.composite
def scenario_texts(draw):
    way = draw(st.sampled_from(["words", "edits", "calls"]))
    if way == "words":
        instance = draw(st.sampled_from(["classical", "stochastic", "quantum"]))
        lines = [f"instance {instance}"] + [_line(draw) for _ in range(draw(st.integers(0, 6)))]
        return "\n".join(lines) + "\n"
    text = draw(st.sampled_from(SHIPPED))
    lines = text.splitlines()
    if way == "calls":
        calls = _calls(re.search(r"^instance (\w+)", text, re.M).group(1),
                       re.findall(r"^let (\w+)", text, re.M))
        for k in range(draw(st.integers(1, 4))):
            expr = draw(calls)
            lines.append(draw(st.sampled_from([f"query {expr}"] * 3 + [f"let v{k} = {expr}"])))
        return "\n".join(lines) + "\n"
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(0, len(lines) - 1))
        words = _WORD_RE.findall(lines[k])
        j = draw(st.integers(0, len(words)))
        edit = draw(st.sampled_from(["delete", "replace", "insert", "cut", "line"]))
        if edit == "insert" or (edit == "replace" and j == len(words)):
            words.insert(j, draw(st.sampled_from(WORDS)))
        elif edit == "replace":
            words[j] = draw(st.sampled_from(WORDS))
        elif edit == "delete":
            del words[j:j + 1]
        elif edit == "cut":
            del words[j:]
        else:
            lines.insert(k, _line(draw))
            continue
        lines[k] = " ".join(words)
    return "\n".join(lines) + "\n"


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(scenario_texts())
def test_no_scenario_text_crashes_the_runner(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "drawn.scn"
        path.write_text(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["run", str(path)])
    assert code in (0, 1, 2)
    if code == 2:
        assert err.getvalue().count("\n") == 1 and err.getvalue().startswith("parse error: ")
    else:
        # every query reports, under its index
        queries = sum(line.split()[:1] == ["query"] for line in text.splitlines())
        assert len(re.findall(r"^\d+: \w+ = ", out.getvalue(), re.M)) == queries
        assert err.getvalue() == ""
