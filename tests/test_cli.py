import ast
import hashlib
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from ballobs import cli, lattice, markov, obstruction
from ballobs.cli import main
from ballobs.errors import InternalCheckError, document_values
from ballobs.lattice import SearchStats
from ballobs.markov import BallSpec
from ballobs.obstruction import build_problem, check_obstruction, report_from_doc


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _handler_must_not_run(args):
    raise AssertionError(f"handler ran for {args}")


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
        assert doc["schema"] == obstruction.REPORT_SCHEMA
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


# Every command that searches.
TIMED_COMMANDS = [
    ("obstruct", "3,1"),
    ("verify", "theorem2", "1", "2"),
    ("verify", "example-b31"),
    ("verify", "lemma-cemb", "2", "8"),
    ("lattice", "classes", "--weights", "3,2,2,3", "--ambient", "8"),
]


class TestTimings:
    """``--timings`` adds ``elapsed_ms`` to the document of every command that
    searches, in a report's statistics or else as the last key, and changes
    nothing else."""

    @pytest.mark.parametrize("argv", TIMED_COMMANDS)
    def test_elapsed_ms_only(self, capsys, argv):
        code, plain, _ = run(capsys, "--format", "json", *argv)
        timed_code, out, _ = run(capsys, "--format", "json", "--timings", *argv)
        assert code == timed_code == 0
        doc = json.loads(out)
        timed = doc.get("statistics", doc)
        if timed is not doc:
            assert list(timed) == ["nodes", "leaves", "classes", "limit_hit", "elapsed_ms"]
            assert report_from_doc(doc) == report_from_doc(json.loads(plain))
        assert list(timed)[-1] == "elapsed_ms"
        assert timed["elapsed_ms"] == str(int(timed["elapsed_ms"]))
        del timed["elapsed_ms"]
        assert json.dumps(doc, indent=2) + "\n" == plain

    @pytest.mark.parametrize("argv", TIMED_COMMANDS)
    def test_complements_inside_the_clock(self, capsys, monkeypatch, argv):
        # Every complement the check takes falls between the clock's two reads.
        reads, seen = [], []
        monkeypatch.setattr(cli, "time", type("Clock", (), {
            "monotonic": staticmethod(lambda: reads.append(None) or 0.0)}))
        complement = obstruction.orthogonal_complement
        monkeypatch.setattr(obstruction, "orthogonal_complement",
                            lambda *a: seen.append(len(reads)) or complement(*a))
        code, _, _ = run(capsys, "--timings", *argv)
        assert (code, len(reads)) == (0, 2)
        assert seen and set(seen) == {1}

    @pytest.mark.parametrize("argv", TIMED_COMMANDS)
    def test_fresh_process_times_the_check_only(self, argv):
        # numpy and the kernel load before the clock starts, so a fresh
        # process does not count their import as the check's.
        code, notes, elapsed_ms = json.loads(_fresh_python(CLOCK_PROBE, *argv))
        assert (code, notes) == (0, [["numpy", "ballobs.kernels"]] * 2)
        assert int(elapsed_ms) < 50


class TestVerifyCommands:
    def test_example_b31(self, capsys):
        # One class: its generator misses e_1..e_4 and its image e_5.
        code, out, _ = run(capsys, "verify", "example-b31")
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "OBSTRUCTED"
        assert doc["records"] == [{"index": "3", "generator_zeros": ["1", "2", "3", "4"],
                                   "missed": ["5"]}]

    @pytest.mark.parametrize("fmt", ("text", "json"))
    def test_example_b31_is_obstruct_3_1(self, capsys, fmt):
        expected = run(capsys, "--format", fmt, "obstruct", "3,1")
        assert expected[0] == 0
        assert run(capsys, "--format", fmt, "verify", "example-b31") == expected

    def test_example_b31_searches_once(self, capsys, monkeypatch):
        calls = []
        search = obstruction.search_embedding_classes
        monkeypatch.setattr(obstruction, "search_embedding_classes",
                            lambda *a, **k: calls.append(a) or search(*a, **k))
        code, _, _ = run(capsys, "verify", "example-b31")
        assert (code, len(calls)) == (0, 1)

    @pytest.mark.parametrize("budget, code", [("3", 2), ("4", 2), ("5", 0)])
    def test_example_b31_budget(self, capsys, budget, code):
        # The search takes 5 nodes; a budget that runs out is an INCONCLUSIVE
        # report and exit 2.
        got, out, err = run(capsys, "--node-budget", budget, "verify", "example-b31")
        assert (got, err) == (code, "")
        assert (json.loads(out)["verdict"] == "INCONCLUSIVE") == (code == 2)

    @pytest.mark.parametrize("report", [
        lambda: check_obstruction(build_problem([BallSpec(2, 1)])),  # a witness
        lambda: check_obstruction(build_problem([BallSpec(2, 1), BallSpec(5, 2)])),  # 3 classes
        # one class whose generator misses nothing
        lambda: check_obstruction(build_problem([BallSpec(3, 1)]))._replace(
            records=(obstruction.ClassRecord(3, (), (5,)),)),
    ], ids=["witness", "three-classes", "no-generator-zero"])
    def test_example_b31_failed_condition(self, capsys, monkeypatch, report):
        stub = report()
        monkeypatch.setattr(obstruction, "check_obstruction", lambda *a, **k: stub)
        code, out, err = run(capsys, "verify", "example-b31")
        assert code == 3
        assert json.loads(out)["verdict"] == stub.verdict
        assert "one class that misses both factors" in err

    def test_lemma_cemb(self, capsys):
        code, out, _ = run(capsys, "verify", "lemma-cemb", "2", "9")
        assert code == 0
        doc = json.loads(out)
        assert (doc["schema"], doc["class_count"]) == ("lattice-classes@1", "3")
        assert [c["support"] for c in doc["classes"]] == ["6", "5", "8"]

    @pytest.mark.parametrize("n, m", [(2, 8), (2, 9), (3, 12), (4, 16), (5, 20)])
    def test_lemma_cemb_finds_the_family(self, capsys, n, m):
        assert run(capsys, "verify", "lemma-cemb", str(n), str(m))[::2] == (0, "")

    @pytest.mark.parametrize("fmt", ("text", "json"))
    @pytest.mark.parametrize("n, m", [(2, 8), (2, 9), (3, 12), (4, 16), (5, 20)])
    def test_lemma_cemb_is_lattice_classes(self, capsys, n, m, fmt):
        chain = ",".join(map(str, (3,) * (n - 1) + (2, 2) + (3,) * (n - 1) + (2,)))
        expected = run(capsys, "--format", fmt, "lattice", "classes", "--weights", chain,
                       "--ambient", str(m))
        assert expected[0] == 0
        assert run(capsys, "--format", fmt, "verify", "lemma-cemb", str(n), str(m)) == expected

    # Each change acts on the (class, summary) pairs of the real report.
    @pytest.mark.parametrize("n, change", [
        (3, lambda pairs: [(m, c) for m, c in pairs if c.support != 8]),
        (3, lambda pairs: [(m, c._replace(complement_norm=25) if c.support == 8 else c)
                           for m, c in pairs]),
        (3, lambda pairs: [(m, c) for m, c in pairs if c.support != 12]),
        (2, lambda pairs: [(m, c) for m, c in pairs if c.complement_rank]),
        (2, lambda pairs: pairs + [pairs[-1]]),  # a fourth class at n = 2
    ], ids=["no-support-2n+2", "wrong-norm", "no-support-4n", "no-support-2n+1", "n2-extra"])
    def test_lemma_cemb_failed_condition(self, capsys, monkeypatch, n, change):
        real = obstruction.lemma_cemb_report(n, 4 * n)
        pairs = change(list(zip(real.classes, real.summaries)))
        stub = real._replace(classes=tuple(m for m, _ in pairs),
                             summaries=tuple(c for _, c in pairs))
        monkeypatch.setattr(obstruction, "lemma_cemb_report", lambda *a, **k: stub)
        code, out, err = run(capsys, "verify", "lemma-cemb", str(n), str(4 * n))
        assert code == 3
        assert json.loads(out)["class_count"] == str(len(pairs))
        assert err.count("\n") == 1 and "supports 2n+1, 2n+2" in err

    def test_theorem2(self, capsys):
        code, out, _ = run(capsys, "verify", "theorem2", "1", "2")
        assert code == 0
        assert json.loads(out)["verdict"] == "OBSTRUCTED"

    def test_theorem2_unexpected_witness(self, capsys, monkeypatch):
        # Theorem 2 rules a witness out; stand in a witnessed report to reach
        # the branch that flags one.
        witnessed = check_obstruction(build_problem([BallSpec(2, 1)]))
        monkeypatch.setattr(obstruction, "check_obstruction", lambda *a, **k: witnessed)
        code, out, err = run(capsys, "verify", "theorem2", "1", "2")
        assert code == 3
        assert json.loads(out)["verdict"] == "NOT_OBSTRUCTED"
        assert "unexpected witness" in err

    def test_theorem2_inconclusive_exit(self, capsys):
        code, out, _ = run(capsys, "--node-budget", "2", "verify", "theorem2", "1", "2")
        assert code == 2
        assert json.loads(out)["verdict"] == "INCONCLUSIVE"

    @pytest.mark.parametrize("fmt", ("text", "json"))
    @pytest.mark.parametrize("k, n", [(1, 2), (2, 3), (1, 7)])
    def test_theorem2_is_obstruct_on_fibonacci_balls(self, capsys, k, n, fmt):
        balls = [f"{b.p},{b.q}" for b in map(markov.fibonacci_ball, (k, n))]
        expected = run(capsys, "--format", fmt, "obstruct", *balls)
        assert expected[0] == 0
        assert run(capsys, "--format", fmt, "verify", "theorem2", str(k), str(n)) == expected

    def test_theorem2_17_decides(self, capsys):
        code, out, _ = run(capsys, "verify", "theorem2", "1", "7")
        doc = json.loads(out)
        assert code == 0 and doc["verdict"] == "OBSTRUCTED"
        assert doc["statistics"]["nodes"] == "319"

    def test_theorem2_node_budget_bounds_the_largest_pair(self, capsys):
        # (15, 15), ambient 63, is the largest square pair within the rank cap.
        code, out, _ = run(capsys, "--node-budget", "1000", "verify", "theorem2", "15", "15")
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

    def test_usage_error_rank_cap(self, capsys, monkeypatch):
        # An index is refused before its Fibonacci number, whose cost grows
        # with the square of the index, is computed.
        ball = markov.fibonacci_ball

        def spy(k):
            assert k <= lattice.MAX_AMBIENT, f"computed fibonacci_ball({k})"
            return ball(k)

        monkeypatch.setattr(markov, "fibonacci_ball", spy)
        for k, n in (("16", "15"), ("1000000", "1")):
            code, out, err = run(capsys, "verify", "theorem2", k, n)
            assert code == 1 and out == ""
            assert "ambient rank exceeds the supported maximum 64" in err

    def test_usage_error_not_positive_definite_rank17(self, capsys):
        code, out, err = run(capsys, "lattice", "classes", "--weights", ",".join(["1"] * 17),
                             "--ambient", "20")
        assert code == 1 and out == "" and "positive-definite" in err

    def test_time_budget_holds_on_a_large_first_norm(self, capsys):
        # The parts of 195364 as a sum of squares are far too many to list;
        # the search must stop on its time budget between them.
        code, _, err = run(capsys, "--time-budget", "1", "lattice", "classes",
                           "--weights", "195364", "--ambient", "20")
        assert code == 2 and "time budget" in err

    def test_large_plumbing_is_a_quick_usage_error(self):
        # B(10^7, 1) has about 10^7 plumbing vertices.  Expanded in full
        # before any search, they ran past the time budget until killed.
        proc = subprocess.run(
            [sys.executable, "-m", "ballobs.cli", "--time-budget", "1", "obstruct", "10000000,1"],
            env=_child_env(), capture_output=True, text=True, timeout=10)
        assert proc.returncode == 1 and proc.stdout == ""
        assert "ambient rank exceeds the supported maximum 64" in proc.stderr

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
        (("--time-budget", "nan", "obstruct", "5,1", "13,2", "194,31"),
         "time budget must be positive"),
        (("--time-budget", "nan", "markov", "list", "--max", "30"),
         "time budget must be positive"),
        # argparse takes -1e3 for an option, not a value, unless it is joined
        # to its option
        (("--time-budget", "-1e3", "obstruct", "3,1"), "time budget must be positive"),
    ])
    def test_usage_error_bad_budget(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "" and message in err

    @pytest.mark.parametrize("argv, message", [
        (("lattice", "classes", "--weights", "2", "--ambient", "0"),
         "must be a positive integer"),
        (("lattice", "classes", "--weights", "2", "--ambient", "65"),
         "exceeds the supported maximum 64"),
        (("lattice", "classes", "--weights", "1000001", "--ambient", "2"),
         "diagonal entries above 1000000"),
        (("obstruct", "3,1,2"), "two comma-separated integers"),
        (("obstruct", ","), "comma-separated integer list"),
        # An empty item is an error, not skipped.
        (("obstruct", "3,,1"), "comma-separated integer list"),
        (("obstruct", "3,1,"), "comma-separated integer list"),
        (("obstruct", ",3,1"), "comma-separated integer list"),
        (("lattice", "classes", "--weights", ",2,2,", "--ambient", "3"),
         "comma-separated integer list"),
        (("cf", "eval", "3,5,"), "comma-separated integer list"),
        (("plumbing", "reduce", "-3,,-1"), "comma-separated integer list"),
    ])
    def test_usage_error_bad_argument(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "" and message in err

    @pytest.mark.parametrize("argv, message", [
        (("verify", "lemma-cemb", "32", "128"),
         "ambient rank 128 exceeds the supported maximum 64"),
        (("lattice", "classes", "--weights", ",".join(["2"] * 65), "--ambient", "9"),
         "at most 64 weights are supported, got 65"),
    ])
    def test_size_checked_before_the_gram(self, capsys, monkeypatch, argv, message):
        # Both sizes grow a Gram matrix quadratically, so each is refused
        # before any lattice of rank above the maximum is built.
        new = lattice.GramLattice.__new__

        def spy(cls, gram):
            gram = tuple(gram)
            assert len(gram) <= lattice.MAX_AMBIENT, f"built a rank-{len(gram)} lattice"
            return new(cls, gram)

        monkeypatch.setattr(lattice.GramLattice, "__new__", spy)
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "" and message in err

    def test_bad_budget_rejected_by_every_command(self, capsys, monkeypatch):
        # Budgets are checked before any handler runs, searching or not: a
        # handler that ran would fail its assertion and exit 3.
        for name in dir(cli):
            if name.startswith("cmd_"):
                monkeypatch.setattr(cli, name, _handler_must_not_run)
        for argv in SUBCOMMAND_GOLDEN:
            if argv[0].startswith("-"):
                continue  # sets its own budget
            for budget in (("--node-budget", "0"), ("--time-budget", "nan")):
                code, out, err = run(capsys, *budget, *argv)
                assert (code, out) == (1, ""), (budget, argv)
                assert "budget must be positive" in err, (budget, argv)

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0

    @pytest.mark.parametrize("error", [InternalCheckError("forged"),
                                       AssertionError("forged")])
    def test_internal_failure_exit(self, capsys, monkeypatch, error):
        def handler(args):
            raise error
        monkeypatch.setattr(cli, "cmd_obstruct", handler)
        code, out, err = run(capsys, "obstruct", "3,1")
        assert (code, out) == (3, "")
        assert err == "internal consistency failure: forged\n"

    def test_explicit_double_dash(self, capsys):
        # An explicit '--' is left alone, and parses as the inserted one does.
        expected = run(capsys, "plumbing", "reduce", "-3,-2,-1,-2")
        assert expected[0] == 0
        assert run(capsys, "plumbing", "reduce", "--", "-3,-2,-1,-2") == expected


_NO_OUTPUT = (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855")

# argv: (exit code, (length, sha256) of stdout under --format text, the same
# under --format json), recorded before the handlers stopped printing.
SUBCOMMAND_GOLDEN = {
    ("markov", "list", "--max", "1000"): (0,
        (130, "b7cf9727d29890d5c36434644b251759d1b839e90b292c4cbd0ab974fc5c26e1"),
        (681, "0a57a5e7762d476f7d8f9f9657d47b06cfb397e92ea0ea6a8e3a2ae12ebc3f70")),
    ("markov", "char", "29", "2", "5"): (0,
        (3, "a1fb50e6c86fae1679ef3351296fd6713411a08cf8dd1790a4fd05fae8688164"),
        (91, "0ed60949143a096351ae2dd6234fe51fdc274b187ce2794a26ea483af9feba31")),
    ("ball", "classify", "5", "1"): (0,
        (36, "c735ec5bf31f5d2a25aa1ed84bbb1688136243b7a0d3f111ceaae6f8f43885d4"),
        (126, "f444d05a1fc3091cd9b0da553b3051f2eab5d19c97cde6e2b99ef98231ad83c9")),
    ("ball", "classify", "5", "2"): (0,
        (23, "2f75d1f02baaeb8225b239a3a895927bc2374908e8f9f85c2237526f59c7229c"),
        (100, "91d86f2f56e5aef0456babae481f2786a24c425da2a6c606c436f6f931ac3ffe")),
    ("ball", "boundary", "3", "1"): (0,
        (7, "2739cf58a8727d71d95381ad6426093c5575f50d657c65f2c358a0cb0cb64724"),
        (55, "95d1c69c492f6dc4dce224f70f595e7de23b16c8363156d77b26a06f4ca03d19")),
    ("ball", "plumbing", "5", "2"): (0,
        (12, "e037591bec9ff979536044c3ba89c5d67c3076a95959d46798cf4d00c230b0b4"),
        (101, "66103183218644d6eed89dc64f0273f53f82644a94536a712c1d848afa776877")),
    ("cf", "expand", "9", "7"): (0,
        (10, "0c062eb67a129a530da68f753c82027c6ec3bdbbe8564cf479858008a99738db"),
        (93, "29e256a12c42502c8e9f9b8d89fd6636e65f037a74b89301201dd3fa0741f058")),
    ("cf", "eval", "3,5,2"): (0,
        (5, "d19823cd6fb5533b457f8d7011c7c719847b6666531bd262cc2179d9109f38ba"),
        (72, "bd57e6e04ee997a04b9197af5c52c71c2d9cbe216652437d067ce94684fe50b9")),
    ("cf", "fib-identities", "3"): (0,
        (71, "f33f10eeb4e8c03ef87b4c8cbfe35a24d6887390eaf6e6b343f9e8b21f0ed949"),
        (328, "c9798583cf85c98c2b387958b6c6a655664d50b23ebe9fa3959c82a4792e6f14")),
    ("lattice", "classes", "--weights", "3,2,2,3,2", "--ambient", "9"): (0,
        (171, "1cb865ca1a86d300f946551690c47dbc8ec9f486e7b8eb72c1d3fbba46e8b62e"),
        (2859, "d56e8cb9b771f238d8c52abc48614cf1264c1fe82ca593c2801bde5cd78a5eb1")),
    ("plumbing", "reduce", "-3,-2,-1,-2"): (0,
        (25, "825ca1101047e133b41456a1b1de5c012b347bdec9953670f7521a6f3f41f389"),
        (142, "4be4a09bf0d761af5d8b92bee7837afc5a5a11f37d39293c20120b2224cc46cc")),
    ("plumbing", "certify", "5"): (0,
        (81, "8079865a47b9edc9f979099fb74971892ba6d1c4f8090229f5d8f31dc03e09d7"),
        (240, "9e6497cb10475af4769432365498b64eb89294fd3bb577943efcd5e4a41db99f")),
    # Re-recorded for obstruction-report@3's class records, a line each in
    # the text.  The budget-2 search finds no class: its text is unchanged.
    ("obstruct", "2,1", "5,1"): (0,
        (445, "f066cab4a5ef792b959510480b3530fde60252b37e89b8ac508ff2b16e2bb31b"),
        (4751, "b797321bf2c7592249e80fd6b3672a8fc842efe4f31f98667060f661d8dba8e4")),
    ("--node-budget", "2", "obstruct", "2,1", "5,2"): (2,
        (59, "16dcd593f6aa9af1b3fce9cb76f43e3ebbc82f89a05535afe8a3338a1e2b9cac"),
        (560, "5c0fdd9d9d1cfe90052d7e8a8f2d0430f95bea444134df602b3ae2c018510c23")),
    # Re-recorded when it became obstruct 3,1's report.
    ("verify", "example-b31"): (0,
        (108, "08d1f2823d9409ae4a2ce7868538c2700724cac7c2ea527d1f42ad87cff1af1b"),
        (597, "090ebe250d59fd6195f2f2e83b75af025d55f8dd046b8756b7c3451dbbe843da")),
    # Re-recorded when it became lattice classes on its chain, in search order.
    ("verify", "lemma-cemb", "3", "12"): (0,
        (255, "80ccc8b56e74ce2ab0ce75e68c3448fe7aacec56e5c1d13811e69ff8c0d72e42"),
        (7817, "66afd874c3f10229c20cde17711e0ea9ec2c8727c9274806dbafebdf732e7746")),
    # Re-recorded for obstruction-report@3.
    ("verify", "theorem2", "1", "2"): (0,
        (239, "b387b9c65000c04cc085aa98c2ead0b25c65fabae9beac757ecf5c2b939d584a"),
        (1051, "a59e0a5f07d463886e507ace9f92bc1920d0b5fc5ec1d4d259cfd4e78147a2ce")),
    ("verify", "theorem2", "16", "15"): (1, _NO_OUTPUT, _NO_OUTPUT),
    ("cf", "expand", "7", "9"): (1, _NO_OUTPUT, _NO_OUTPUT),
}


class TestGoldenBytes:
    """Exact stdout: ``test_stdout`` was recorded before the test-only lattice
    API was removed, ``test_every_subcommand`` before the handlers stopped
    printing."""

    @pytest.mark.parametrize("argv, size, sha256", [
        (("obstruct", "2,1", "5,1"), 4751,  # two witnesses; re-recorded for obstruction-report@3
         "b797321bf2c7592249e80fd6b3672a8fc842efe4f31f98667060f661d8dba8e4"),
        (("--format", "json", "lattice", "classes", "--weights", "3,2,2,3,2",
          "--ambient", "9"), 2859,
         "d56e8cb9b771f238d8c52abc48614cf1264c1fe82ca593c2801bde5cd78a5eb1"),
        # re-recorded when it became lattice classes on its chain
        (("verify", "lemma-cemb", "3", "12"), 7817,
         "66afd874c3f10229c20cde17711e0ea9ec2c8727c9274806dbafebdf732e7746"),
    ])
    def test_stdout(self, capsys, argv, size, sha256):
        code, out, _ = run(capsys, *argv)
        data = out.encode()
        assert code == 0
        assert (len(data), hashlib.sha256(data).hexdigest()) == (size, sha256)

    @pytest.mark.parametrize("fmt", ("text", "json"))
    @pytest.mark.parametrize("argv", SUBCOMMAND_GOLDEN, ids=" ".join)
    def test_every_subcommand(self, capsys, argv, fmt):
        code, text, doc = SUBCOMMAND_GOLDEN[argv]
        got_code, out, _ = run(capsys, "--format", fmt, *argv)
        data = out.encode()
        assert got_code == code
        assert (len(data), hashlib.sha256(data).hexdigest()) == (text if fmt == "text" else doc)

    @pytest.mark.parametrize("argv", SUBCOMMAND_GOLDEN, ids=" ".join)
    def test_json_holds_no_number(self, capsys, argv):
        _, out, _ = run(capsys, "--format", "json", *argv)
        numbers = []
        if out:
            json.loads(out, **dict.fromkeys(("parse_int", "parse_float", "parse_constant"),
                                            numbers.append))
        assert numbers == []


class TestDocumentValues:
    """The one rule by which documents write their values."""

    @pytest.mark.parametrize("value, expected", [
        (True, True),
        (False, False),
        (None, None),
        (-7, "-7"),
        (0, "0"),
        (10 ** 30, "1" + "0" * 30),
        ((1, (-2, ((3,), ())), [4]), ["1", ["-2", [["3"], []]], ["4"]]),
        ("x", "x"),
        ("-12", "-12"),
        ({"a": (True, None, -1), "b": [0, "s"]}, {"a": [True, None, "-1"], "b": ["0", "s"]}),
    ])
    def test_converts(self, value, expected):
        # Compared as JSON text, so that True and 1 or a tuple and a list differ.
        once = document_values(value)
        assert json.dumps(once) == json.dumps(expected)
        assert json.dumps(document_values(once)) == json.dumps(once)

    @pytest.mark.parametrize("value", [1.5, {"x": [float("nan")]}, {1, 2},
                                       # records are tuples, but never a bare list of values
                                       SearchStats(1, 1, 1), BallSpec(5, 2),
                                       {"ball": [BallSpec(5, 2)]}])
    def test_other_types_rejected(self, value):
        with pytest.raises(TypeError):
            document_values(value)


# Run in a fresh interpreter: import ballobs, run the CLI on the arguments, if
# any, then report the exit code and which of the search and record modules
# got loaded.
SEARCH_MODULES = ("ballobs.lattice", "ballobs.obstruction", "numpy", "ballobs.kernels")
# What the package avoids: dataclasses with the inspect it loads, and fractions
# outside the two functions that build a Fraction.
RECORD_MODULES = ("dataclasses", "inspect", "fractions")
COLD_PROBE = f"""
import json, sys
import ballobs
code = 0
if sys.argv[1:]:
    from ballobs.cli import main
    code = main(["--format", "json", *sys.argv[1:]])
print(json.dumps([code, [name for name in {SEARCH_MODULES + RECORD_MODULES!r}
                         if name in sys.modules]]))
"""
# Run the CLI with --timings in a fresh interpreter, with a clock that notes
# which of numpy and the search kernel are loaded whenever it is read, then
# report the exit code, those notes and the elapsed_ms written.
CLOCK_PROBE = """
import contextlib, io, json, sys, time
from ballobs import cli
notes = []
class Clock:
    @staticmethod
    def monotonic():
        notes.append([name for name in ("numpy", "ballobs.kernels") if name in sys.modules])
        return time.monotonic()
cli.time = Clock
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = cli.main(["--timings", "--format", "json", *sys.argv[1:]])
doc = json.loads(out.getvalue())
print(json.dumps([code, notes, doc.get("statistics", doc)["elapsed_ms"]]))
"""
# The modules a bare interpreter already holds, before anything is imported.
BARE_PROBE = "import sys; names = sorted(sys.modules); import json; print(json.dumps(names))"
COLD_COMMANDS = [
    (),
    ("markov", "list", "--max", "1000"),
    ("ball", "classify", "5", "2"),
    ("cf", "expand", "9", "7"),
    ("plumbing", "certify", "5"),
    ("ball", "boundary", "3", "1"),
    ("ball", "plumbing", "3", "1"),
]
SEARCH_COMMANDS = [
    ("obstruct", "3,1"),
    ("verify", "theorem2", "1", "2"),
    ("verify", "example-b31"),
    ("lattice", "classes", "--weights", "3,2,2,3", "--ambient", "8"),
]
# Run the CLI in a fresh interpreter, with numpy imported first if the first
# argument asks for it, then report the exit code, stdout and the number of OS
# threads the process holds.
THREAD_PROBE = """
import contextlib, io, json, os, sys
if sys.argv[1] == "numpy-first":
    import numpy
from ballobs.cli import main
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = main(["--format", "json", *sys.argv[2:]])
print(json.dumps([code, out.getvalue(), len(os.listdir("/proc/self/task"))]))
"""
# With one core OpenBLAS starts no worker, so the threads cannot tell.
needs_threads = pytest.mark.skipif(
    not os.path.isdir("/proc/self/task") or (os.cpu_count() or 1) < 2,
    reason="needs /proc/self/task and at least two cores")
SRC = Path(__file__).resolve().parent.parent / "src"

# Names the package once re-exported, by the module that defines them, which
# is now their one home.
MODULE_NAMES = {
    "errors": ("DegenerateCaseError", "InternalCheckError", "LimitExceeded", "UsageError",
               "SearchLimits"),
    "markov": ("BallSpec", "MarkovTriple", "SymplecticVerdict", "ball_params",
               "characteristic_number", "classify_symplectic", "enumerate_triples",
               "fibonacci_ball", "is_markov", "odd_fibonacci", "triple", "vieta_neighbor"),
    "contfrac": ("ball_boundary", "ball_plumbing", "fibonacci_identities", "hj_eval",
                 "hj_expand", "lens_plumbing"),
    "plumbing": ("BlowdownCertificate", "rb_chain", "reduce", "simple_embedding_certificate"),
    "lattice": ("EmbeddingClass", "EmbeddingSearchResult", "GramLattice", "SearchLimits",
                "SearchStats", "canonical_form", "integer_kernel", "is_isometric_embedding",
                "is_positive_definite", "linear_lattice", "orthogonal_complement",
                "search_embedding_classes"),
    "obstruction": ("ClassRecord", "ObstructionProblem", "ObstructionReport", "Witness",
                    "build_problem", "check_obstruction", "classify_chain",
                    "lemma_cemb_report", "report_from_doc", "report_to_doc"),
}
# The public top-level functions and classes of src/ballobs that no other
# code in src/ references, each with the reason it stays.
UNREFERENCED_NAMES = {
    "obstruction.report_from_doc": "the documented reader of report documents",
    "markov.ball_params": "perfbench's witness workload builds its ball sets with it",
}
# Imports ballobs alone, then prints the ballobs modules that loaded, the names
# whose lookup on the package raises AttributeError, and the names missing
# from the module that defines them.
PACKAGE_PROBE = """
import importlib, json, sys
import ballobs
loaded = sorted(name for name in sys.modules if name.startswith("ballobs"))
absent = [name for name in ("check_obstruction", "BallSpec") if not hasattr(ballobs, name)]
missing = [f"{home}.{name}" for home, names in json.loads(sys.argv[1]).items()
           for name in names if not hasattr(importlib.import_module("ballobs." + home), name)]
print(json.dumps([loaded, absent, missing]))
"""


def _child_env(**extra) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # A value exported to the test run would change the thread counts; a
    # child starts without it unless a test exports it.
    env.pop("OPENBLAS_NUM_THREADS", None)
    env.update(extra)
    return env


def _fresh_python(*args, **extra_env) -> str:
    proc = subprocess.run([sys.executable, "-c", *args], env=_child_env(**extra_env),
                          capture_output=True, text=True, check=True)
    return proc.stdout.splitlines()[-1]


class TestColdImports:
    """Commands that never search load neither the search modules, lattice and
    obstruction, nor numpy and the search kernel.  No command loads
    dataclasses, only a search loads inspect (through numpy), and only
    ``cf eval`` and ``cf fib-identities`` load fractions.  Commands that
    search start no BLAS worker thread."""

    @pytest.mark.parametrize("argv, searches", [
        *((argv, False) for argv in COLD_COMMANDS),
        (("obstruct", "3,1"), True),  # shows that the probe does see them
    ])
    def test_numpy_loaded_only_by_search(self, argv, searches):
        code, loaded = json.loads(_fresh_python(COLD_PROBE, *argv))
        assert (code, {name: name in loaded for name in SEARCH_MODULES}) == (
            0, dict.fromkeys(SEARCH_MODULES, searches))

    @pytest.mark.parametrize("argv, needed", [
        *((argv, set()) for argv in COLD_COMMANDS),
        (("cf", "eval", "3,5,2"), {"fractions"}),  # shows that the probe does see it
        (("cf", "fib-identities", "2"), {"fractions"}),
        # numpy, which a search loads, imports inspect
        *((argv, {"inspect"}) for argv in SEARCH_COMMANDS),
    ])
    def test_no_dataclasses_or_fractions_on_cold_path(self, argv, needed):
        # Only what the command loads counts, not what the interpreter started with.
        bare = set(json.loads(_fresh_python(BARE_PROBE)))
        code, loaded = json.loads(_fresh_python(COLD_PROBE, *argv))
        assert (code, set(loaded) & set(RECORD_MODULES) - bare) == (0, needed - bare)
        assert needed <= set(loaded)

    @needs_threads
    @pytest.mark.parametrize("argv", SEARCH_COMMANDS)
    def test_search_starts_no_blas_threads(self, argv):
        # main limits OpenBLAS to one thread before its handler loads numpy.
        code, _, threads = json.loads(_fresh_python(THREAD_PROBE, "main-first", *argv))
        assert (code, threads) == (0, 1)

    @needs_threads
    def test_numpy_loaded_first_starts_blas_threads(self):
        # Shows that the probe sees the worker: too late to limit it.
        code, _, threads = json.loads(_fresh_python(THREAD_PROBE, "numpy-first", "obstruct", "3,1"))
        assert code == 0 and threads > 1

    def test_names_live_on_their_modules(self):
        # ``import ballobs`` loads no submodule, and each name is reached on
        # its module only.
        assert json.loads(_fresh_python(PACKAGE_PROBE, json.dumps(MODULE_NAMES))) == [
            ["ballobs"], ["check_obstruction", "BallSpec"], []]


def _names_read(tree):
    # Every identifier a syntax tree reads, as a name or as an attribute.
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


class TestProductionCode:
    def test_every_public_name_has_a_caller(self):
        # A public function or class that only the tests call belongs in the
        # tests; UNREFERENCED_NAMES lists the exceptions.
        trees = {path.stem: ast.parse(path.read_text())
                 for path in sorted((SRC / "ballobs").glob("*.py"))}
        reads = Counter(name for tree in trees.values() for name in _names_read(tree))
        unreferenced = sorted(
            f"{module}.{node.name}" for module, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
            and reads[node.name] == Counter(_names_read(node))[node.name])
        assert unreferenced == sorted(UNREFERENCED_NAMES)


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

    def test_environment_sets_no_budget(self, capsys, monkeypatch):
        # Budgets come from the flags alone, so exported values change nothing.
        plain = run(capsys, "obstruct", "2,1", "5,2")
        monkeypatch.setenv("BALLOBS_NODE_BUDGET", "2")
        monkeypatch.setenv("BALLOBS_TIME_BUDGET", "nan")
        code, out, err = run(capsys, "obstruct", "2,1", "5,2")
        assert code == 0 and json.loads(out)["verdict"] == "OBSTRUCTED"
        assert (code, out, err) == plain

    @pytest.mark.parametrize("exported", [None, "4"])
    @pytest.mark.parametrize("argv", [("cf", "expand", "9", "7"), ("obstruct", "3,1"),
                                      ("cf", "expand", "9", "6")])
    def test_main_restores_environment(self, capsys, monkeypatch, argv, exported):
        # main sets OPENBLAS_NUM_THREADS only for the call, whatever its exit.
        if exported is None:
            monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        else:
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", exported)
        before = dict(os.environ)
        run(capsys, *argv)
        assert dict(os.environ) == before

    @needs_threads
    def test_environment_sets_no_blas_threads(self):
        # main assigns OPENBLAS_NUM_THREADS, so an exported value changes
        # neither the output nor the thread count.
        argv = ("obstruct", "2,1", "5,2")
        plain = json.loads(_fresh_python(THREAD_PROBE, "main-first", *argv))
        exported = json.loads(_fresh_python(THREAD_PROBE, "main-first", *argv,
                                            OPENBLAS_NUM_THREADS="4"))
        assert plain[0] == 0 and json.loads(plain[1])["verdict"] == "OBSTRUCTED"
        assert exported == plain and plain[2] == 1
