import json

import pytest

from ballobs.cli import main
from ballobs.markov import BallSpec
from ballobs.obstruction import build_problem, check_obstruction, report_from_doc


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGoldenText:
    def test_cf_expand(self, capsys):
        code, out, _ = run(capsys, "cf", "expand", "9", "7")
        assert code == 0 and out == "[2,2,2,3]\n"

    def test_cf_eval(self, capsys):
        code, out, _ = run(capsys, "cf", "eval", "3,5,2")
        assert code == 0 and out == "25/9\n"

    def test_cf_fib_identities(self, capsys):
        code, out, _ = run(capsys, "cf", "fib-identities", "2")
        assert code == 0
        assert out == ("F(5)/F(3) = 5/2 = [3,2]\n"
                       "F(5)^2/(F(5)*F(3)-1) = 25/9 = [3,5,2]\n")

    def test_plumbing_reduce(self, capsys):
        code, out, _ = run(capsys, "plumbing", "reduce", "-3,-2,-1,-2")
        assert code == 0 and out == "(-3,0) after 2 blowdowns\n"

    def test_plumbing_certify(self, capsys):
        code, out, _ = run(capsys, "plumbing", "certify", "2")
        assert code == 0
        assert out == ("chain (-3,-2,-1,-2) reduces to (-3,0) "
                       "after 2 blowdowns; b2=4\n")

    def test_markov_list(self, capsys):
        code, out, _ = run(capsys, "markov", "list", "--max", "30")
        assert code == 0
        assert out == "(1,1,1)\n(1,1,2)\n(1,2,5)\n(1,5,13)\n(2,5,29)\n"

    def test_markov_char(self, capsys):
        code, out, _ = run(capsys, "markov", "char", "29", "2", "5")
        assert code == 0 and out == "12\n"

    def test_ball_classify(self, capsys):
        code, out, _ = run(capsys, "ball", "classify", "5", "1")
        assert code == 0 and out == "B(5,1): symplectic, witness (1,2,5)\n"
        code, out, _ = run(capsys, "ball", "classify", "5", "2")
        assert code == 0 and out == "B(5,2): not symplectic\n"

    def test_ball_boundary(self, capsys):
        code, out, _ = run(capsys, "ball", "boundary", "3", "1")
        assert code == 0 and out == "L(9,2)\n"

    def test_ball_plumbing(self, capsys):
        code, out, _ = run(capsys, "ball", "plumbing", "5", "2")
        assert code == 0 and out == "[2,3,2,2,3]\n"

    def test_lattice_classes(self, capsys):
        code, out, _ = run(capsys, "lattice", "classes",
                           "--weights", "2,2,2", "--ambient", "5")
        assert code == 0
        assert out == ("2 classes of Lambda(2,2,2) in Z^5\n"
                       "class 1: support 3, complement rank 0\n"
                       "class 2: support 4, complement rank 1, generator norm 4\n")


class TestObstructCommand:
    def test_b31_json_verdict(self, capsys):
        code, out, _ = run(capsys, "obstruct", "3,1")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == "obstruction-report@2"
        assert "strategy" not in doc["statistics"]
        assert doc["verdict"] == "OBSTRUCTED"
        assert doc["problem"]["m_norm"] == "9"

    def test_strategy_option_removed(self, capsys):
        code, out, err = run(capsys, "obstruct", "--strategy", "direct", "3,1")
        assert code == 1 and out == "" and "--strategy" in err

    def test_pair_obstructed(self, capsys):
        code, out, _ = run(capsys, "obstruct", "2,1", "5,2")
        assert code == 0
        assert json.loads(out)["verdict"] == "OBSTRUCTED"

    def test_positive_controls(self, capsys):
        for ball in ("2,1", "5,2"):
            code, out, _ = run(capsys, "obstruct", ball)
            doc = json.loads(out)
            assert code == 0 and doc["verdict"] == "NOT_OBSTRUCTED"
            assert doc["witnesses"]

    def test_round_trip_matches_library(self, capsys):
        code, out, _ = run(capsys, "obstruct", "2,1")
        parsed = report_from_doc(json.loads(out))
        direct = check_obstruction(build_problem([BallSpec(2, 1)]))
        assert parsed == direct

    def test_text_format(self, capsys):
        code, out, _ = run(capsys, "--format", "text", "obstruct", "3,1")
        assert code == 0
        assert out.startswith("B(3,1): OBSTRUCTED")

    def test_inconclusive_exit_code(self, capsys):
        code, out, _ = run(capsys, "--node-budget", "2", "obstruct", "2,1", "5,2")
        assert code == 2
        assert json.loads(out)["verdict"] == "INCONCLUSIVE"


class TestVerifyCommands:
    def test_example_b31(self, capsys):
        code, out, _ = run(capsys, "verify", "example-b31")
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert doc["class_count"] == "1"
        assert doc["unit_vectors_missing_m_factor"] == ["2", "3", "4", "5"]
        assert doc["unit_vectors_missing_c_factor"] == ["1"]

    def test_lemma_cemb(self, capsys):
        code, out, _ = run(capsys, "verify", "lemma-cemb", "2", "9")
        assert code == 0
        doc = json.loads(out)
        assert doc["class_count"] == "3"
        assert [c["support"] for c in doc["classes"]] == ["5", "6", "8"]

    def test_theorem2(self, capsys):
        code, out, _ = run(capsys, "verify", "theorem2", "1", "2")
        assert code == 0
        assert json.loads(out)["verdict"] == "OBSTRUCTED"

    def test_theorem2_inconclusive_exit(self, capsys):
        code, out, _ = run(capsys, "--node-budget", "2", "verify", "theorem2", "1", "2")
        assert code == 2
        assert json.loads(out)["verdict"] == "INCONCLUSIVE"


class TestExitCodes:
    def test_usage_error_bad_integer(self, capsys):
        code, _, err = run(capsys, "cf", "eval", "3,x,2")
        assert code == 1 and err.strip()

    def test_usage_error_precondition(self, capsys):
        code, _, err = run(capsys, "cf", "expand", "9", "6")
        assert code == 1 and "coprime" in err

    def test_usage_error_unknown_command(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 1

    def test_usage_error_desk_scale(self, capsys):
        code, _, err = run(capsys, "verify", "theorem2", "1", "7")
        assert code == 1 and "desk scale" in err

    def test_usage_error_not_positive_definite_rank17(self, capsys):
        code, out, err = run(capsys, "lattice", "classes", "--weights", ",".join(["1"] * 17),
                             "--ambient", "20")
        assert code == 1 and out == "" and "positive-definite" in err

    def test_limit_exit_from_lattice_classes(self, capsys):
        code, _, err = run(capsys, "--node-budget", "1", "lattice", "classes",
                           "--weights", "3,2,2,3,2", "--ambient", "9")
        assert code == 2 and "limit" in err.lower()

    @pytest.mark.parametrize("argv, message", [
        (("--node-budget", "0", "markov", "list", "--max", "30"),
         "node budget must be positive"),
        (("--time-budget", "-1", "obstruct", "3,1"), "time budget must be positive"),
        (("--time-budget=-1", "obstruct", "3,1"), "time budget must be positive"),
        (("--time-budget=0", "cf", "expand", "9", "7"), "time budget must be positive"),
        (("--node-budget", "-5", "markov", "list", "--max", "3"),
         "node budget must be positive"),
    ])
    def test_usage_error_bad_budget(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "" and message in err

    def test_bad_env_budget_rejected_without_search(self, capsys, monkeypatch):
        monkeypatch.setenv("BALLOBS_TIME_BUDGET", "-1")
        code, out, err = run(capsys, "markov", "list", "--max", "30")
        assert code == 1 and out == "" and "time budget must be positive" in err

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ("obstruct", "2,1"),
        ("obstruct", "3,1"),
        ("verify", "lemma-cemb", "2", "8"),
        ("markov", "list", "--max", "200"),
        ("lattice", "classes", "--weights", "3,2,2,3", "--ambient", "8"),
    ])
    def test_byte_identical_output(self, capsys, argv):
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second

    def test_env_budget_override(self, capsys, monkeypatch):
        monkeypatch.setenv("BALLOBS_NODE_BUDGET", "2")
        code, out, _ = run(capsys, "obstruct", "2,1", "5,2")
        assert code == 2
        assert json.loads(out)["verdict"] == "INCONCLUSIVE"

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("BALLOBS_NODE_BUDGET", "2")
        code, out, _ = run(capsys, "--node-budget", "100000", "obstruct", "2,1", "5,2")
        assert code == 0
        assert json.loads(out)["verdict"] == "OBSTRUCTED"

    def test_malformed_env_budget_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("BALLOBS_NODE_BUDGET", "a-lot")
        code, _, err = run(capsys, "obstruct", "2,1")
        assert code == 1 and "BALLOBS_NODE_BUDGET" in err
