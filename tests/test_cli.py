import hashlib
import json

import pytest

from qnsym import cli, core
from qnsym.cli import CLIError, parse_composition, parse_element
from qnsym.core import term


# --- literal parsing ------------------------------------------------------

def test_parse_composition_forms():
    assert parse_composition("[2,3,1]") == (2, 3, 1)
    assert parse_composition("2,3,1") == (2, 3, 1)
    assert parse_composition("[]") == ()
    assert parse_composition(" [ 2 , 1 ] ") == (2, 1)
    with pytest.raises(CLIError):
        parse_composition("2,0,1")
    with pytest.raises(CLIError):
        parse_composition("2,x")


@pytest.mark.parametrize("text", ["1_0", "٣", "+2", "2,１", "1,2_0"])
def test_parse_composition_takes_ascii_digits_only(text):
    with pytest.raises(CLIError) as e:
        parse_composition(text)
    assert e.value.status == 2
    with pytest.raises(CLIError) as e:
        parse_element(f"H[{text}]")
    assert e.value.status == 2


def test_parse_element_basic():
    assert parse_element("sh[3,2]") == term("sh", (3, 2))
    assert parse_element("2 H[1,2] - H[3]") == 2 * term("H", (1, 2)) - term("H", (3,))
    assert parse_element("-3H[2]") == -3 * term("H", (2,))
    assert parse_element("M[]") == core.one(core.QSYM)
    assert parse_element("sh*[1,2] + rsh*[2,1]") == term("sh*", (1, 2)) + term(
        "rsh*", (2, 1))
    assert parse_element(" sh [ 3 , 2 ] ") == term("sh", (3, 2))


def test_parse_element_errors():
    with pytest.raises(CLIError) as e:
        parse_element("zz[2]")
    assert e.value.status == 2
    with pytest.raises(CLIError):
        parse_element("H[2] M[1]")  # missing joiner
    with pytest.raises(CLIError):
        parse_element("H[2] + M[1]")  # cross-algebra
    with pytest.raises(CLIError):
        parse_element("")


def test_parse_roundtrips_with_str():
    for x in [
        term("sh", (3, 2)).convert("H"),
        term("sh*", (3, 1)).convert("F"),
        2 * term("M", (1, 1)) - term("M", (2,)) + core.one(core.QSYM),
        core.zero(core.NSYM) + term("R", (1, 2, 1)),
    ]:
        assert parse_element(str(x)) == x


# --- golden invocations -----------------------------------------------------

def test_expand_golden(capsys):
    assert cli.run(["expand", "--basis", "H", "sh[3,2]"]) == 0
    assert capsys.readouterr().out == "H[3,2] - H[4,1]\n"


def test_jacobi_trudi_bare_composition(capsys):
    assert cli.run(["jacobi-trudi", "--family", "sh", "1,3,4"]) == 0
    assert capsys.readouterr().out == "H[1,3,4] - H[1,4,3] - H[3,1,4] + H[4,1,3]\n"


def test_pieri_six_terms(capsys):
    assert cli.run(["pieri", "--family", "sh", "2,3,1", "2"]) == 0
    out = capsys.readouterr().out
    assert out == ("sh[2,3,1,2] + sh[2,3,2,1] + sh[2,3,3] + sh[2,4,1,1] "
                   "+ sh[2,4,2] + sh[2,5,1]\n")


def test_skew2_counterexample(capsys):
    assert cli.run(["skew2", "--family", "sh", "2,1,3", "1,2,1"]) == 0
    assert capsys.readouterr().out == "-M[1,1]\n"


def test_tableaux_count_golden(capsys):
    assert cli.run(["tableaux", "count", "--family", "shin", "3,4",
                    "--type", "1,2,1,1,2"]) == 0
    assert capsys.readouterr().out == "3\n"


def test_tableaux_enumerate(capsys):
    assert cli.run(["tableaux", "enumerate", "--family", "sh", "2,2",
                    "--standard"]) == 0
    assert capsys.readouterr().out == "[1,2],[3,4]\n[1,3],[2,4]\n"


def test_tableaux_count_lists_no_tableau(capsys, monkeypatch):
    """Count mode counts by backtracking; it builds no Tableau."""
    def refuse(*args):
        raise AssertionError("tableaux listed to be counted")

    monkeypatch.setattr(cli.tab, "enumerate_tableaux", refuse)
    for argv, out in (
        (["--family", "shin", "3,4", "--type", "1,2,1,1,2"], "3\n"),
        (["--family", "sh", "2,2", "--standard"], "2\n"),
        (["--json", "--family", "backward", "2,3", "--inner", "1", "--bottom",
          "--standard"], '{"count": 5}\n'),
    ):
        assert cli.run(["tableaux", "count"] + argv) == 0
        assert capsys.readouterr().out == out



@pytest.mark.parametrize("mode", ["count", "enumerate"])
def test_tableaux_past_the_backtracking_budget_fail_fast_with_exit_1(capsys, mode):
    import time

    # 24024 standard tableaux, about 2.8 million placements
    start = time.perf_counter()
    assert cli.run(["tableaux", mode, "--family", "shin", "4,4,4,3", "--standard"]) == 1
    assert time.perf_counter() - start < 2.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "[4, 4, 4, 3] need more than 262144 placements, past the budget" in captured.err
    # the golden count still answers, and so does the largest backtracking
    # run of the test suite (4422 placements)
    for argv, out in ((["3,4", "--type", "1,2,1,1,2"], "3\n"),
                      (["3,2,1,1,1,1", "--standard"], "105\n")):
        assert cli.run(["tableaux", "count", "--family", "shin"] + argv) == 0
        assert capsys.readouterr().out == out, argv

def test_strips(capsys):
    assert cli.run(["strips", "2,3,1", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["[2,3,1,2]", "[2,3,2,1]", "[2,3,3]",
                     "[2,4,1,1]", "[2,4,2]", "[2,5,1]"]


def test_poset_chains(capsys):
    assert cli.run(["poset-chains", "1", "2,1"]) == 0
    assert capsys.readouterr().out == "[1] -> [1,1] -> [2,1]\n[1] -> [2] -> [2,1]\n"


def test_poset_chains_past_the_budget_fail_fast_with_exit_1(capsys):
    import time

    start = time.perf_counter()
    assert cli.run(["poset-chains", "", "5,5,5,5"]) == 1
    assert time.perf_counter() - start < 2.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: [] -> [5, 5, 5, 5] has 1662804 maximal chains, "
                            "past the budget of 65536\n")


def test_beth(capsys):
    assert cli.run(["beth", "2", "H[3,1]"]) == 0
    assert capsys.readouterr().out == "H[2,3,1] - H[3,2,1]\n"


def test_involute_and_antipode(capsys):
    assert cli.run(["involute", "omega", "sh*[2,3]"]) == 0
    assert cli.run(["antipode", "sh[2,1]", "--basis", "bsh"]) == 0
    assert capsys.readouterr().out == "bsh*[3,2]\n-bsh[1,2]\n"


def test_pair(capsys):
    assert cli.run(["pair", "sh[2,1]", "sh*[2,1]"]) == 0
    assert cli.run(["pair", "sh[2,1]", "sh*[1,2]"]) == 0
    assert capsys.readouterr().out == "1\n0\n"


def test_chi_and_schur_detect(capsys):
    assert cli.run(["chi", "sh[2,1]", "--basis", "s"]) == 0
    assert cli.run(["schur-detect", "sh*[1,2]"]) == 0
    assert cli.run(["schur-detect", "sh*[2,2]"]) == 0
    assert capsys.readouterr().out == "s[2,1]\nnot symmetric\ns[2,2]\n"


def test_schur_detect_of_a_long_column_lists_no_rearrangement(capsys):
    # M[1^12] = e_12 = s[1^12]; listing the permutations of the index would
    # walk 12! tuples
    ones = ",".join(["1"] * 12)
    assert cli.run(["schur-detect", f"M[{ones}]"]) == 0
    assert capsys.readouterr().out == f"s[{ones}]\n"


def test_struct_coeffs(capsys):
    assert cli.run(["struct-coeffs", "--family", "sh", "2,1", "1"]) == 0
    assert capsys.readouterr().out == "sh[2,1,1]: 1\nsh[2,2]: 1\nsh[3,1]: 1\n"


def test_transition_matrix(capsys):
    assert cli.run(["transition-matrix", "sh", "H", "2"]) == 0
    assert capsys.readouterr().out == "[1,1] | 1 -1\n[2] | 0 1\n"


def test_multiply_and_convert(capsys):
    assert cli.run(["multiply", "--basis", "sh", "sh[1]", "sh[1]"]) == 0
    assert cli.run(["convert", "--basis", "R", "sh[2,2]"]) == 0
    assert capsys.readouterr().out == "sh[1,1] + sh[2]\nR[2,2] - R[3,1]\n"


# --- exit codes ---------------------------------------------------------------

def test_usage_errors_exit_2(capsys):
    assert cli.run(["expand", "zz[2]"]) == 2
    assert cli.run(["expand", "sh[2,x]"]) == 2
    assert cli.run(["multiply", "H[2]", "M[1]"]) == 2
    assert cli.run(["expand", "--basis", "M", "sh[2]"]) == 2
    assert cli.run(["verify", "--identity", "nope"]) == 2
    assert cli.run(["pair", "sh*[2,1]", "sh[2,1]"]) == 2
    assert cli.run(["no-such-command"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv, message", [
    (["jacobi-trudi", "--family", "sh", "[]"], "empty composition not allowed here"),
    (["beth", "2", "M[1]"], "beth expects a NSym element, got QSym"),
    (["expand", "--basis", "X", "H[1]"], "unknown basis token 'X'"),
    (["pair", "H[1]", "E[1]"], "pair needs one NSym and one QSym element"),
    (["chi", "--basis", "e", "H[2]"], "unknown Sym basis 'e'"),
    (["tableaux", "count", "--family", "shin", "2,1"],
     "give exactly one of --type or --standard"),
    (["tableaux", "count", "--family", "shin", "2,1", "--type", "1,1,1", "--standard"],
     "give exactly one of --type or --standard"),
    (["transition-matrix", "X", "H", "2"], "unknown basis token 'X'"),
    (["transition-matrix", "H", "M", "2"],
     "source and target bases live in different algebras"),
    (["tableaux", "enumerate", "--family", "shin", "2,1", "--bottom", "--standard"],
     "--bottom needs --inner"),
    (["tableaux", "count", "--family", "shin", "2,1", "--bottom", "--standard"],
     "--bottom needs --inner"),
])
def test_every_usage_error_branch_exits_2_with_one_error_line(capsys, argv, message):
    assert cli.run(argv) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


def test_a_type_of_the_wrong_size_counts_no_tableau(capsys):
    assert cli.run(["tableaux", "count", "--family", "shin", "2,1", "--type", "1,1"]) == 0
    assert capsys.readouterr() == ("0\n", "")


def test_a_failing_suite_prints_its_reproducers_and_exits_1(capsys, monkeypatch):
    from qnsym import verify

    def fails(max_degree):
        yield "first reproducer"
        yield None
        yield "second reproducer"

    monkeypatch.setitem(verify.IDENTITIES, "duality", (fails, 2))
    assert cli.run(["verify", "--identity", "duality"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ("duality: degrees <= 2, 3 cases, 2 failures\n"
                            "  first reproducer\n  second reproducer\n")
    assert captured.err.startswith("duality: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["expand", "H[1_0]"],
    ["expand", "H[٣]"],
    ["expand", "H[+2]"],
    ["expand", "٣ H[2]"],
    ["pieri", "--family", "sh", "1", "٣"],
    ["pieri", "--family", "sh", "1", "+1"],
    ["beth", "1_0", "H[1]"],
    ["strips", "1", "٢"],
    ["transition-matrix", "H", "E", "٢"],
    ["verify", "--max-degree", "٢"],
])
def test_integers_other_than_ascii_digits_exit_2(capsys, argv):
    assert cli.run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len([line for line in captured.err.splitlines() if "error: " in line]) == 1


def test_verify_has_no_seed_option(capsys):
    # every suite is an exhaustive sweep: there is nothing to seed
    assert cli.run(["verify", "--seed", "1"]) == 2
    assert capsys.readouterr().out == ""


def test_a_negative_strip_size_is_a_domain_error(capsys):
    assert cli.run(["pieri", "--family", "sh", "1", "-1"]) == 1
    assert capsys.readouterr().err == "error: strip size must be nonnegative\n"


def test_domain_errors_exit_1(capsys):
    assert cli.run(["jacobi-trudi", "--family", "sh", "2,2,4"]) == 1
    err = capsys.readouterr().err
    assert "2,2,4" in err


def test_dense_degree_budget_fails_fast_with_exit_1(capsys):
    import time

    start = time.perf_counter()
    assert cli.run(["transition-matrix", "H", "E", "30"]) == 1
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: degree 30 is past the dense-matrix budget: "
                            "whole-degree matrices stop at degree 12\n")


def test_verify_refuses_a_degree_past_the_dense_budget_before_it_sweeps(capsys, monkeypatch):
    import time

    from qnsym import verify

    start = time.perf_counter()
    assert cli.run(["verify", "--identity", "duality", "--max-degree", "13"]) == 1
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: degree 13 is past the dense-matrix budget: "
                            "whole-degree matrices stop at degree 12\n")

    def sweeps(max_degree):
        raise AssertionError("the checker ran")

    monkeypatch.setitem(verify.IDENTITIES, "duality", (sweeps, 13))
    with pytest.raises(ValueError, match="past the dense-matrix budget"):
        verify.verify("duality")
    with pytest.raises(ValueError, match="past the dense-matrix budget"):
        verify.verify("duality", max_degree=20)


@pytest.mark.parametrize("argv", [["expand", "sh[3,2]"], ["coproduct", "sh[2,1]"],
                                  ["chi", "--basis", "s", "H[2,1] - H[1,2]"],
                                  ["schur-detect", "M[2,1] + M[1,2]"]])
def test_the_cli_builds_only_the_form_it_prints(capsys, monkeypatch, argv):
    outputs = {}
    for form in ([], ["--json"]):
        assert cli.run(argv[:1] + form + argv[1:]) == 0
        outputs[bool(form)] = capsys.readouterr()

    def refuse(self, *args):
        raise AssertionError("built an output that is not printed")

    for form, unbuilt in (([], "to_json_dict"), (["--json"], "__str__")):
        with monkeypatch.context() as patched:
            patched.setattr(core._Combination, unbuilt, refuse)
            assert cli.run(argv[:1] + form + argv[1:]) == 0
            assert capsys.readouterr() == outputs[bool(form)], (form, unbuilt)


@pytest.mark.parametrize("argv", [
    ["expand", "E[40]"],
    ["involute", "psi", "H[40]", "--basis", "H"],
    ["involute", "psi", "M[" + ",".join(["1"] * 40) + "]"],
    ["antipode", "H[40]"],
])
def test_exponential_single_terms_fail_fast_with_exit_1(capsys, argv):
    import time

    start = time.perf_counter()
    assert cli.run(argv) == 1
    assert time.perf_counter() - start < 2.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "has 2^39 " in captured.err and "past the budget of 65536" in captured.err


@pytest.mark.parametrize("argv, out", [
    (["involute", "psi", "H[40]"], "E[40]\n"),
    (["involute", "omega", "sh*[1,2,3,4,4,6]"], "bsh*[6,4,4,3,2,1]\n"),
])
def test_involutions_into_the_partner_reindex_past_the_budgets(capsys, argv, out):
    """psi(H_a) = E_a and omega(sh*_a) = bsh*_rev(a) hold by definition, so
    no expansion, refinement listing or dense matrix is needed."""
    import time

    start = time.perf_counter()
    assert cli.run(argv) == 0
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().out == out


def test_jacobi_trudi_past_the_listing_budget_fails_fast_with_exit_1(capsys):
    import time

    start = time.perf_counter()
    assert cli.run(["jacobi-trudi", "--family", "sh", ",".join(map(str, range(1, 19)))]) == 1
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "has 2^17 restricted permutations, past the budget of 65536" in captured.err


@pytest.mark.parametrize("family", ["sh", "rsh", "fsh", "bsh"])
def test_ribbon_past_the_coarsening_budget_fails_fast_with_exit_1(capsys, family):
    import time

    # 1^19 and (19) have 2^18 coarsenings, past the listing budget, and
    # psi(R_beta) = R_beta^c, omega(R_beta) = R_beta^t; the strip walk lists
    # no coarsening and answers at once
    beta = "19" if family in ("rsh", "bsh") else ",".join(["1"] * 19)
    start = time.perf_counter()
    assert cli.run(["ribbon-mult", "--family", family, "1", beta]) == 0
    assert time.perf_counter() - start < 2.0
    captured = capsys.readouterr()
    tall = "1," * 18 + "2" if family in ("fsh", "bsh") else "2" + ",1" * 18
    assert captured.out == f"{family}[{'1,' * 19}1] + {family}[{tall}]\n"
    assert captured.err == ""


ONE_DEEP_COLUMN = ",".join(["1"] * 1200)


@pytest.mark.parametrize("argv", [
    ["strips", ONE_DEEP_COLUMN, "1"],
    ["pieri", "--family", "sh", ONE_DEEP_COLUMN, "1"],
    ["ribbon-mult", "--family", "sh", ONE_DEEP_COLUMN, "1"],
    ["tableaux", "count", "--family", "shin", "1200", "--type", "1200"],
], ids=["strips", "pieri", "ribbon-mult", "tableaux"])
def test_too_deep_an_input_is_one_error_line_with_exit_1(capsys, argv):
    assert cli.run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the input is too deep, past the recursion limit\n"


def test_poset_chains_of_a_long_row_list_its_one_chain(capsys):
    assert cli.run(["poset-chains", "", "1000"]) == 0
    captured = capsys.readouterr()
    assert captured.out == " -> ".join(["[]"] + [f"[{k}]" for k in range(1, 1001)]) + "\n"
    assert captured.err == ""


def test_ribbon_at_degree_20_answers_in_seconds(capsys):
    import time

    start = time.perf_counter()
    assert cli.run(["ribbon-mult", "--family", "sh", "3,3,3,2,1", "2,2,2,1,1"]) == 0
    assert time.perf_counter() - start < 5.0
    # the bytes the tableau-enumerating route printed, after 33 s
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == (
        "29448a84c1fa3f28e05b5262c2711055d4c8491dc4abaae41563c4c3a24d2e55")


def test_skew_outside_containment_prints_zero(capsys):
    assert cli.run(["skew", "--family", "sh", "2,1", "1,2"]) == 0
    out = capsys.readouterr().out
    assert out == "0\n"


def test_skew_outside_top_alignment_is_perp(capsys):
    # <fsh_2 fsh_1, fsh*_12> = 1 although (2) is not top-aligned in (1,2)
    assert cli.run(["skew", "--family", "fsh", "1,2", "2"]) == 0
    assert capsys.readouterr() == ("M[1]\n", "")


# --- json and determinism -------------------------------------------------------

def test_json_output(capsys):
    assert cli.run(["expand", "--json", "sh[3,2]"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["algebra"] == "NSym"
    assert data["terms"] == [
        {"basis": "H", "index": [3, 2], "coeff": "1"},
        {"basis": "H", "index": [4, 1], "coeff": "-1"},
    ]
    assert cli.run(["verify", "--json", "--identity", "involutions",
                    "--max-degree", "3"]) == 0
    reports = json.loads(capsys.readouterr().out)
    assert reports[0]["identity"] == "involutions"
    assert reports[0]["failures"] == []


def test_output_is_deterministic(capsys):
    runs = []
    for _ in range(2):
        assert cli.run(["expand", "--basis", "F", "sh*[3,1]"]) == 0
        runs.append(capsys.readouterr().out)
    assert runs[0] == runs[1]


def test_verify_timing_goes_to_stderr(capsys):
    assert cli.run(["verify", "--identity", "duality", "--max-degree", "2"]) == 0
    captured = capsys.readouterr()
    assert "cases" in captured.out and "s" in captured.err
    assert "0." in captured.err and "0." not in captured.out


def _python(*argv):
    """Run a fresh interpreter with the source tree on its path."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    return subprocess.run([sys.executable, *argv],
                          capture_output=True, text=True, env=env, timeout=120)


def test_module_entry_point_runs_the_cli():
    for module in ("qnsym", "qnsym.cli"):
        for argv in (["expand", "sh[3,2]"], ["expand", "--basis", "H", "sh[3,2]"]):
            done = _python("-m", module, *argv)
            assert (done.returncode, done.stdout) == (0, "H[3,2] - H[4,1]\n")
        assert _python("-m", module, "expand", "--basis", "nope", "sh[3,2]").returncode == 2


@pytest.mark.parametrize("argv", [["poset-chains", "", "1000"],
                                  ["transition-matrix", "H", "R", "10"]])
def test_a_closed_stdout_ends_quietly(argv):
    """The reader closes the pipe after 50 bytes, as `| head -c 50` does.
    The matrix (532 kB) overfills the pipe, so its writes always meet the
    closed end; the chain (9 kB) may be written before the close."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    child = subprocess.Popen([sys.executable, "-m", "qnsym", *argv], env=env,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    head = child.stdout.read(50)
    child.stdout.close()
    err = child.stderr.read()
    status = child.wait(timeout=120)
    assert len(head) == 50
    assert err == b""
    assert status in ((0, 141) if argv[0] == "poset-chains" else (141,))


def test_cli_import_loads_no_suite_and_no_dataclasses():
    done = _python("-c", "import sys, qnsym.cli; print(sorted(m for m in "
                         "('qnsym.verify', 'dataclasses', 'inspect') if m in sys.modules))")
    assert (done.returncode, done.stdout) == (0, "[]\n")
    # the suites still load on demand
    done = _python("-c", "import sys, qnsym.cli; sys.exit(qnsym.cli.run(["
                         "'verify', '--identity', 'duality', '--max-degree', '2']))")
    assert done.returncode == 0 and done.stdout.startswith("duality: degrees <= 2, ")


def test_verify_sweeps_degree_1(capsys):
    assert cli.run(["verify", "--identity", "involutions", "--max-degree", "1"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("involutions: degrees <= 1, ") and out.endswith(" cases, ok\n")
    assert " 0 cases" not in out
    assert cli.run(["verify", "--max-degree", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 7 and all(line.endswith(" cases, ok") for line in lines)
    assert not any(" 0 cases" in line for line in lines)


def test_verify_keeps_its_case_counts(capsys):
    """Every suite sweeps exactly as many cases as it did, so a sweep that
    silently shrank fails here, not only one that reports a failure."""
    assert cli.run(["verify", "--json", "--max-degree", "3"]) == 0
    reports = json.loads(capsys.readouterr().out)
    assert {r["identity"]: (r["cases"], r["failures"]) for r in reports} == {
        "antipode-shin": (14, []), "coproducts": (64, []), "duality": (132, []),
        "involutions": (582, []), "jt-vs-pieri": (12, []), "schur-bridge": (36, []),
        "tableaux": (199, [])}


@pytest.mark.parametrize("argv", [
    ["verify", "--max-degree", "-1"],
    ["verify", "--identity", "involutions", "--max-degree", "0"],
    ["verify", "--identity", "jt-vs-pieri", "--max-degree", "0"],
    ["verify", "--identity", "schur-bridge", "--max-degree", "0"],
])
def test_verify_refuses_a_degree_below_1(capsys, argv):
    assert cli.run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "--max-degree must be at least 1" in captured.err


@pytest.mark.parametrize("argv, expected", [
    (["tableaux", "enumerate", "--json", "--family", "shin", "2,2", "--type", "1,1,2"],
     '[{"shape": {"kind": "straight", "outer": [2, 2], "inner": []}, '
     '"family": "shin", "rows": [[1, 2], [3, 3]]}]\n'),
    (["tableaux", "enumerate", "--json", "--standard", "--family", "backward", "3,1",
      "--inner", "1"],
     '[{"shape": {"kind": "skew", "outer": [3, 1], "inner": [1]}, '
     '"family": "backward", "rows": [[2, 1], [3]]}, '
     '{"shape": {"kind": "skew", "outer": [3, 1], "inner": [1]}, '
     '"family": "backward", "rows": [[3, 1], [2]]}, '
     '{"shape": {"kind": "skew", "outer": [3, 1], "inner": [1]}, '
     '"family": "backward", "rows": [[3, 2], [1]]}]\n'),
    (["poset-chains", "--json", "1", "2,1"],
     "[[[1], [1, 1], [2, 1]], [[1], [2], [2, 1]]]\n"),
])
def test_tableau_json_is_byte_stable(capsys, argv, expected):
    assert cli.run(argv) == 0
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("argv, expected", [
    (["ribbon-mult", "--family", "sh", "2,1", "1,1"],
     "sh[2,1,1,1] + sh[2,2,1] + sh[3,1,1] + sh[3,2]\n"),
    (["ribbon-mult", "--family", "bsh", "1,2", "2,1"],
     "bsh[1,1,1,3] + bsh[1,1,2,2] + bsh[1,1,4] + bsh[1,2,1,2] + 2 bsh[1,2,3] + "
     "bsh[1,3,2] + bsh[2,1,3] + bsh[2,2,2] + bsh[2,4] + bsh[3,3]\n"),
    (["ribbon-mult", "--json", "--family", "fsh", "2,1", "1,1"],
     '{"algebra": "NSym", "terms": [{"basis": "fsh", "index": [1, 1, 2, 1], '
     '"coeff": "1"}, {"basis": "fsh", "index": [1, 3, 1], "coeff": "1"}]}\n'),
    (["ribbon-mult", "--json", "--family", "rsh", "1", "2"],
     '{"algebra": "NSym", "terms": [{"basis": "rsh", "index": [1, 1, 1], "coeff": '
     '"1"}, {"basis": "rsh", "index": [2, 1], "coeff": "1"}]}\n'),
    (["coproduct", "sh*[2,1]"],
     "2 M[] (x) M[1,1,1] + M[] (x) M[1,2] + M[] (x) M[2,1] + 2 M[1] (x) M[1,1] + "
     "M[1] (x) M[2] + 2 M[1,1] (x) M[1] + M[2] (x) M[1] + 2 M[1,1,1] (x) M[] + "
     "M[1,2] (x) M[] + M[2,1] (x) M[]\n"),
    (["coproduct", "--json", "H[1,2]"],
     '{"algebra": "NSym", "terms": [{"left": {"basis": "H", "index": []}, "right": '
     '{"basis": "H", "index": [1, 2]}, "coeff": "1"}, {"left": {"basis": "H", '
     '"index": [1]}, "right": {"basis": "H", "index": [1, 1]}, "coeff": "1"}, '
     '{"left": {"basis": "H", "index": [1]}, "right": {"basis": "H", "index": [2]}, '
     '"coeff": "1"}, {"left": {"basis": "H", "index": [1, 1]}, "right": {"basis": '
     '"H", "index": [1]}, "coeff": "1"}, {"left": {"basis": "H", "index": [2]}, '
     '"right": {"basis": "H", "index": [1]}, "coeff": "1"}, {"left": {"basis": "H", '
     '"index": [1, 2]}, "right": {"basis": "H", "index": []}, "coeff": "1"}]}\n'),
    (["strips", "--json", "2,1", "2"],
     "[[2, 1, 2], [2, 2, 1], [2, 3], [3, 1, 1], [3, 2], [4, 1]]\n"),
    (["struct-coeffs", "--json", "--family", "rsh", "2", "1,1"],
     '[{"alpha": [2, 1, 1], "beta": [2], "gamma": [1, 1], "value": "1"}, {"alpha": '
     '[3, 1], "beta": [2], "gamma": [1, 1], "value": "1"}]\n'),
    (["transition-matrix", "--json", "rsh*", "F", "3"],
     '{"source": "rsh*", "target": "F", "degree": 3, "indices": [[1, 1, 1], [1, 2], '
     '[2, 1], [3]], "rows": [["0", "0", "0", "1"], ["0", "0", "1", "0"], ["0", "1", '
     '"1", "0"], ["1", "0", "0", "0"]]}\n'),
    (["tableaux", "enumerate", "--family", "backward", "2,3",
      "--inner", "1", "--bottom", "--standard"],
     "[2,1],[4,3]\n[3,1],[4,2]\n[3,2],[4,1]\n[4,1],[3,2]\n[4,2],[3,1]\n"),
    (["tableaux", "count", "--family", "flipped", "3,1,2",
      "--inner", "1,1", "--bottom", "--type", "1,2,1"],
     "1\n"),
])
def test_golden_outputs_of_the_less_travelled_commands(capsys, argv, expected):
    assert cli.run(argv) == 0
    assert capsys.readouterr().out == expected
