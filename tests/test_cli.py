import argparse
import hashlib
import json
import os
import runpy
import subprocess
import sys

import pytest

import superroot
from superroot.cli import main
from support import claim_a_root


def _capture(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_validate_text_and_exit(capsys):
    code, out = _capture(capsys, ["validate", "--type", "A(0,1)"])
    assert code == 0
    assert "admissible:     True" in out


def test_validate_matrix_json(capsys):
    raw = json.dumps({"matrix": [[2, -1], [-1, 2]], "parity": [1, 0]})
    code, out = _capture(capsys, ["validate", "--matrix-json", raw])
    assert code == 1  # odd sl2-type row with an odd entry is inadmissible


def test_validate_reports_a_one_sided_zero_as_not_symmetrizable(capsys):
    # a_01 = 0 but a_10 = -1: no diagonal d has d_0 a_01 = d_1 a_10
    raw = json.dumps({"matrix": [[2, 0], [-1, 2]], "parity": [0, 0]})
    code, out = _capture(capsys, ["validate", "--matrix-json", raw])
    assert code == 1 and "symmetrizable:  False" in out
    code, out = _capture(capsys, ["validate", "--matrix-json", raw, "--format", "json"])
    assert code == 1 and json.loads(out)["symmetrizable"] is False


def test_missing_type_is_usage_error(capsys):
    code = main(["pi-check", "--roots", "[[1,0]]"])
    assert code == 2


def test_pi_check_violation_exit_one(capsys):
    code, out = _capture(capsys, ["pi-check", "--type", "A(0,1)", "--roots", "[[1,0],[1,1]]"])
    assert code == 1
    assert "difference violation" in out


def test_real_roots_json_round_trip(capsys):
    code, out = _capture(
        capsys, ["real-roots", "--type", "A(0,1)", "--height", "4", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(out)
    roots = [tuple(e["root"]) for e in payload["roots"]]
    assert roots == sorted(roots)
    assert set(roots) == {(1, 0), (0, 1), (1, 1), (-1, 0), (0, -1), (-1, -1)}
    flags = {tuple(e["root"]): (e["parity"], e["isotropic"]) for e in payload["roots"]}
    assert flags[(1, 0)] == (1, True)
    assert flags[(0, 1)] == (0, False)
    assert payload["complete_up_to"] == "inf"
    assert payload["version"]


def test_real_roots_rejects_decomposable(capsys):
    raw = json.dumps({"matrix": [[2, 0], [0, 2]], "parity": [0, 0]})
    code = main(["real-roots", "--matrix-json", raw, "--height", "3"])
    assert code == 2


def test_real_roots_do_not_depend_on_the_row_gauge(capsys):
    # B(1,1) with its isotropic row scaled by 3/2 lists the catalog B(1,1) roots
    raw = json.dumps({"matrix": [[0, "-3/2"], [-2, 2]], "parity": [1, 0]})
    scaled = ["real-roots", "--matrix-json", raw, "--height", "4"]
    catalog = ["real-roots", "--type", "B(1,1)", "--height", "4"]
    texts = [_capture(capsys, argv) for argv in (scaled, catalog)]
    assert texts[0] == texts[1] and texts[0][0] == 0
    payloads = [json.loads(_capture(capsys, argv + ["--format", "json"])[1]) for argv in (scaled, catalog)]
    assert (payloads[0].pop("type"), payloads[1].pop("type")) == (None, "B(1,1)")
    assert payloads[0] == payloads[1] and payloads[0]["count"] == 10


def test_closure_inconclusive_exit_three(capsys):
    # a seed whose closure keeps growing under a tight height bound
    code = main([
        "closure", "--type", "B(1,1)^(1)",
        "--roots", json.dumps([[0, 0, 1], [1, 2, 1]]),
        "--height", "8",
    ])
    assert code == 3


def test_closure_stabilized(capsys):
    code, out = _capture(capsys, [
        "closure", "--type", "A(0,1)", "--roots", "[[1,0],[0,1]]", "--format", "json",
    ])
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "stabilized"
    assert len(payload["roots"]) == 6
    # emitted root sets re-parse to an equal set
    code2, out2 = _capture(capsys, [
        "closure", "--type", "A(0,1)", "--roots", json.dumps(payload["roots"]),
        "--format", "json",
    ])
    assert code2 == 0
    assert json.loads(out2)["roots"] == payload["roots"]


def test_admits_pi_none(capsys):
    roots = json.dumps([[0, 1, 0], [0, -1, 0], [1, 3, 2], [-1, -3, -2]])
    code, out = _capture(capsys, [
        "admits-pi", "--type", "B(1,1)^(1)", "--roots", roots, "--height", "40",
    ])
    assert code == 0
    assert "none" in out


def test_string_output(capsys):
    code, out = _capture(capsys, [
        "string", "--type", "B(1,1)^(1)", "--alpha", "[0,0,1]", "--beta", "[1,2,1]",
    ])
    assert code == 0
    assert "[imaginary]" in out and "[real]" in out


def test_string_sweep_small(capsys):
    code, out = _capture(capsys, [
        "string-sweep", "--type", "B(1,1)", "--height", "6",
    ])
    assert code == 0
    assert "all string laws hold" in out


def test_verify_main_theorem(capsys):
    code, out = _capture(capsys, [
        "verify", "main-theorem", "--type", "B(0,1)", "--sigma", "[[1]]",
    ])
    assert code == 0
    assert "True" in out


def test_verify_bracket_criteria(capsys):
    code, out = _capture(capsys, [
        "verify", "bracket-criteria", "--type", "A(0,1)", "--sigma", "[[1,0],[0,1]]",
    ])
    assert code == 0


def test_replay_examples_exit(capsys):
    code, out = _capture(capsys, ["replay-examples"])
    assert code == 0
    assert out.count("[PASS]") == 3


_LIST_COMMANDS = [
    (["pi-check"], "--roots"), (["classify-subset"], "--roots"), (["pi-of-psi"], "--roots"),
    (["closure"], "--roots"), (["admits-pi"], "--roots"), (["verify-dynkin"], "--sigma"),
    (["verify", "main-theorem"], "--sigma"), (["verify", "bracket-criteria"], "--sigma"),
]


def test_an_empty_root_set_exits_two(capsys):
    # every command reads a pi-system or a subset Psi; an empty one leaves
    # nothing to compute
    for command, flag in _LIST_COMMANDS:
        for spec in ("B(1,1)", "B(1,1)^(1)"):
            assert main([*command, "--type", spec, flag, "[]"]) == 2, (command, spec)
            assert capsys.readouterr().err == f"error: {flag}: the set is empty; give at least one root\n"


@pytest.mark.parametrize("command, flag", _LIST_COMMANDS,
                         ids=lambda x: " ".join(x) if isinstance(x, list) else x)
def test_a_repeated_root_exits_two(capsys, command, flag):
    # read as a set, the list would get the verdict of a smaller set
    assert main([*command, "--type", "B(1,1)", flag, "[[1,0],[0,1],[1,0]]"]) == 2
    assert capsys.readouterr().err == f"error: {flag}: the root [1, 0] is given more than once\n"


def test_an_affine_sweep_names_its_window(capsys):
    # the laws are checked in a null-degree window, and the text says which;
    # the certificate's bounds already echo it
    code, out = _capture(capsys, ["string-sweep", "--type", "B(1,1)^(1)", "--degree", "1"])
    assert code == 0
    assert out.splitlines()[-1] == "all string laws hold in the null-degree window |d| <= 1"
    code, out = _capture(capsys, ["string-sweep", "--type", "B(1,1)^(1)", "--degree", "1", "--format", "json"])
    cert = json.loads(out)
    assert code == 0 and cert["bounds"] == {"height": None, "degree": 1}
    assert set(cert) == {"tool", "version", "type", "bounds", "pairs", "law_counts", "failures"}


def test_verify_dynkin(capsys):
    code, out = _capture(capsys, [
        "verify-dynkin", "--type", "A(0,1)", "--sigma", "[[1,0],[0,1]]",
    ])
    assert code == 0


def test_roots_from_file(tmp_path, capsys):
    path = tmp_path / "sigma.json"
    path.write_text(json.dumps([[1, 0], [0, 1]]))
    code, out = _capture(capsys, ["pi-check", "--type", "A(0,1)", "--roots", str(path)])
    assert code == 0


def test_rejects_non_integer_coordinates(capsys):
    cases = [
        ["pi-check", "--type", "A(0,1)", "--roots", "[[1.7,0],[0,1]]"],
        ["pi-check", "--type", "A(0,1)", "--roots", "[[true,0],[0,1]]"],
        ["pi-check", "--type", "A(0,1)", "--roots", '[["1",0]]'],
        ["pi-check", "--type", "A(0,1)", "--roots", "[1,0]"],
        ["closure", "--type", "A(0,1)", "--roots", "{\"a\": 1}"],
        ["verify", "main-theorem", "--type", "B(0,1)", "--sigma", "[[1.0]]"],
        ["verify-dynkin", "--type", "A(0,1)", "--sigma", "[[1,0],[0,false]]"],
        ["string", "--type", "B(1,1)^(1)", "--alpha", "[0,0,0.5]", "--beta", "[1,2,1]"],
        ["string", "--type", "B(1,1)^(1)", "--alpha", "[0,0,1]", "--beta", "[1,true,1]"],
        ["string", "--type", "B(1,1)^(1)", "--alpha", "3", "--beta", "[1,2,1]"],
    ]
    for argv in cases:
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert "list" in err and "integer" in err, (argv, err)


def test_a_root_of_the_wrong_length_is_named_with_the_rank(capsys):
    # the message used to be only "root length differs from rank"
    argv = ["string", "--type", "A(2,2)^(4)", "--alpha", "[1,0,0,0]", "--beta", "[0,1,0,0]"]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: root (1, 0, 0, 0) has length 4, but A(2,2)^(4) has rank 3\n"


def test_malformed_matrix_json_exits_two(capsys):
    # these were read as parity 0 or entry 1 (exit 0/1) or crashed (exit 1)
    for raw in (
        '{"matrix": [[2, -1], [-1, 2]], "parity": [0, 0.7]}',
        '{"matrix": [[2, true], [-1, 2]], "parity": [0, 0]}',
        '{"matrix": [[2, -1], [-1, 2]], "parity": [true, 0]}',
        '{"matrix": [[2, -1], [-1, 2]], "parity": ["1", 0]}',
        '{"matrix": [[2, 2.5], [-1, 2]], "parity": [0, 0]}',
        '{"matrix": [[2, -1], [-1]], "parity": [0, 0]}',
        '{"matrix": 5, "parity": [0, 0]}',
    ):
        assert main(["validate", "--matrix-json", raw]) == 2, raw
        assert capsys.readouterr().err.startswith("error: "), raw


def test_malformed_d21_parameter_exits_two(capsys):
    # 1/0 crashed with a ZeroDivisionError (exit 1); 0.5 and 1e0 were read as 1/2 and 1
    for spec in ("D(2,1;1/0)", "D(2,1;0.5)", "D(2,1;1e0)"):
        assert main(["validate", "--type", spec]) == 2, spec
        assert capsys.readouterr().err.startswith("error: "), spec


def test_malformed_rank_exits_two(capsys):
    # int() read "+1" as 1 and "1_0" as 10, so this validated B(1,10)
    assert main(["validate", "--type", "B(+1,1_0)"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_directory_path_argument_exits_two(tmp_path, capsys):
    assert main(["pi-check", "--type", "A(0,1)", "--roots", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read {str(tmp_path)!r}")


def test_rejects_negative_bounds(capsys):
    cases = [
        ["real-roots", "--type", "A(0,1)", "--height", "-3"],
        ["real-roots", "--type", "A(0,1)", "--height", "3", "--explore", "-1"],
        ["principal-roots", "--type", "A(0,1)", "--explore", "-2"],
        ["closure", "--type", "A(0,1)", "--roots", "[[1,0]]", "--height", "-1"],
        ["verify-dynkin", "--type", "A(0,1)", "--sigma", "[[1,0]]", "--K", "-1"],
        ["verify", "main-theorem", "--type", "B(0,1)", "--sigma", "[[1]]", "--K", "-1"],
        ["string-sweep", "--type", "B(1,1)^(1)", "--degree", "-1"],
    ]
    for argv in cases:
        assert main(argv) == 2, argv
        assert "must be at least" in capsys.readouterr().err, argv
    assert main(["real-roots", "--type", "A(0,1)", "--height", "two"]) == 2
    assert "expected an integer" in capsys.readouterr().err
    code, out = _capture(capsys, ["real-roots", "--type", "A(0,1)", "--height", "0"])
    assert code == 0 and out.startswith("0 real roots")


def test_bounds_accept_ascii_digits_only(capsys):
    # int() read "1_0" as 10, "+3" and " 3" as 3 and the Arabic-Indic digit three as 3
    for raw in ("1_0", "+3", " 3", "3 ", "\u0663", "3\n", ""):
        for argv in (["closure", "--type", "B(1,1)", "--roots", "[[1,0]]", "--height", raw],
                     ["real-roots", "--type", "A(0,1)", "--height", "3", "--explore", raw],
                     ["principal-roots", "--type", "A(0,1)", "--explore", raw]):
            assert main(argv) == 2, argv
            assert f"expected an integer, got {raw!r}" in capsys.readouterr().err, argv
    code, out = _capture(capsys, ["closure", "--type", "B(1,1)", "--roots", "[[1,0]]",
                                  "--height", "10", "--format", "json"])
    assert code == 0 and json.loads(out)["bounds"] == {"height": 10}


def test_type_and_matrix_json_together_exit_two(capsys):
    # the catalog matrix was used and --matrix-json silently ignored
    raw = '{"matrix": [[2, -1], [-1, 2]], "parity": [0, 0]}'
    for argv in (["validate"], ["real-roots", "--height", "2"], ["principal-roots"]):
        assert main([*argv, "--type", "A(0,1)", "--matrix-json", raw]) == 2, argv
        assert capsys.readouterr().err == "error: give either --type or --matrix-json, not both\n", argv


def test_validate_asks_for_each_printed_fact_once(monkeypatch, capsys):
    from collections import Counter

    from superroot import cartan, cli

    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    symmetrizer = counted("symmetrizer", cartan.symmetrizer)
    monkeypatch.setattr(cartan, "symmetrizer", symmetrizer)
    monkeypatch.setattr(cli, "symmetrizer", symmetrizer)
    monkeypatch.setattr(cartan.CartanData, "indecomposable",
                        counted("indecomposable", cartan.CartanData.indecomposable))
    code, out = _capture(capsys, ["validate", "--type", "A(0,1)"])
    assert code == 0 and "symmetrizable:  True" in out and "indecomposable: True" in out
    assert calls == {"symmetrizer": 1, "indecomposable": 1}


def test_python_dash_m_entry_point(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["superroot", "validate", "--type", "A(0,1)"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("superroot", run_name="__main__")
    assert exc.value.code == 0
    assert "admissible:     True" in capsys.readouterr().out


def _fresh_run(argv):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(superroot.__file__)))
    proc = subprocess.run([sys.executable, "-m", "superroot", *argv],
                          capture_output=True, text=True, timeout=120, env=env)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("first_line", [False, True], ids=["no reader", "one line read"])
def test_a_closed_stdout_ends_quietly_with_the_runs_own_code(fmt, first_line):
    # as in `superroot closure ... | head -1`: with no reader the first write
    # fails at once; a reader that takes one line and closes may or may not
    # meet a later write, and either way the run ends quietly with its code
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(superroot.__file__)))
    argv = ["closure", "--type", "C(3)", "--roots", "[[1,2,1],[-1,-1,0],[0,-1,0]]", "--format", fmt]
    r, w = os.pipe()
    if not first_line:
        os.close(r)
    proc = subprocess.Popen([sys.executable, "-m", "superroot", *argv],
                            stdout=w, stderr=subprocess.PIPE, env=env)
    os.close(w)
    if first_line:
        with os.fdopen(r, "rb") as reader:
            assert reader.readline() == (b"{\n" if fmt == "json" else
                                         b"closure stabilized after 3 rounds, 16 roots\n")
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 0  # the closure stabilized: exit code 0, as with a reader
    assert err == b"", err.decode()  # no Traceback, and no "Exception ignored" from the flush at exit


def test_repeated_main_calls_match_fresh_processes(capsys):
    # the parser is built once per process; each later call must behave as
    # a fresh process would
    for argv, expected in (
        (["real-roots", "--type", "B(1,1)", "--height", "3", "--format", "json"], 0),
        (["real-roots", "--type", "A(0,1)", "--height", "-1"], 2),
        (["--version"], 0),
        (["principal-roots", "--type", "B(1,1)^(1)", "--explore", "6", "--format", "json"], 0),
    ):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == expected, argv
        assert (code, captured.out, captured.err) == _fresh_run(argv), argv


def test_an_isotropic_direction_string_comes_back_whole(capsys):
    # the scan covers the catalog's coordinate box in every direction, so
    # the string comes back whole and bounded by no flag
    argv = ["string", "--type", "B(1,1)", "--alpha", "[1,0]", "--beta", "[1,2]", "--format", "json"]
    code, out = _capture(capsys, argv)
    body = json.loads(out)
    assert code == 0 and [e["k"] for e in body["entries"]] == [0, 1]
    assert body["bounds"] == {}


def test_string_sweep_refuses_a_bound_its_type_does_not_read(capsys):
    # a finite type reads only --height and an affine one needs --degree, so
    # any other bound would be silently ignored
    for argv, flag in ((["--type", "B(1,1)", "--degree", "5"], "--height"),
                       (["--type", "B(1,1)^(1)", "--height", "3", "--degree", "0"], "--degree"),
                       (["--type", "B(1,1)^(1)", "--height", "3"], "--degree")):
        assert main(["string-sweep", *argv]) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and flag in err, (argv, err)


def test_certificates_echo_every_integer_bound():
    # ``bounds`` is collected by parser type, so an integer flag parsed by
    # another type would drop out of every certificate
    from superroot.cli import _build_parser

    def leaves(parser):
        subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        if not subs:
            yield parser
        for a in subs:
            for child in a.choices.values():
                yield from leaves(child)

    def is_integer_flag(action):
        try:
            return type(action.type("0")) is int
        except (TypeError, ValueError, argparse.ArgumentTypeError):
            return False

    checked = 0
    for p in leaves(_build_parser()):
        expected = [a.dest for a in p._actions if a.option_strings and is_integer_flag(a)]
        assert p.get_default("bounds") == expected, p.prog
        checked += bool(expected)
    assert checked == 8


def test_a_root_outside_the_loop_window_exits_three(capsys):
    # alpha_0 of B(1,1)^(1) has loop degree 1, outside --K 0: the realization
    # is truncated, so the verdict is inconclusive, not a usage error
    for command in ("main-theorem", "bracket-criteria"):
        argv = ["verify", command, "--type", "B(1,1)^(1)", "--sigma", "[[1,0,0]]", "--K", "0"]
        assert main(argv) == 3, argv
        assert capsys.readouterr().err.startswith("inconclusive:"), argv


def test_a_loop_degree_on_a_finite_type_exits_two(capsys):
    # a finite type has no loop window, so --K would be echoed in the
    # certificate and otherwise ignored
    base = ["--type", "B(0,1)", "--sigma", "[[1]]", "--K", "5"]
    for command in (["verify", "main-theorem"], ["verify", "bracket-criteria"], ["verify-dynkin"]):
        assert main([*command, *base]) == 2, command
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "loop_degree" in err, (command, err)


def test_affine_verify_commands_share_the_default_window(capsys):
    # sigma's root has loop degree 7, so without --K both commands work at
    # window 7 + 3 = 10, not a fixed window
    from superroot import oracle
    from superroot.pisystem import root_set

    base = ["--type", "B(1,1)^(1)", "--sigma", "[[7,15,14]]", "--format", "json"]
    assert main(["verify", "main-theorem", *base]) == 0
    assert json.loads(capsys.readouterr().out)["window_degree"] == 10
    assert main(["verify", "bracket-criteria", *base]) == 0
    pairs = json.loads(capsys.readouterr().out)["pairs_checked"]
    r = oracle.realize("B(1,1)^(1)", loop_degree=10)
    sigma = root_set(r.handle, [(7, 15, 14)])
    assert oracle.realize_sigma(sigma).truncation == 10
    assert pairs == oracle.bracket_criteria_sweep(r.subalgebra(sigma), r.handle, r).pairs_checked


def test_a_failed_law_exits_one(monkeypatch, capsys):
    # 2 eps_1 = (0, 2) is not a root of B(1,1): calling it one must fail the
    # string sweep and the bracket criteria, with the witnesses printed
    claim_a_root(monkeypatch, "B(1,1)", (2, 0))
    assert main(["string-sweep", "--type", "B(1,1)", "--height", "6"]) == 1
    out = capsys.readouterr().out
    assert "failures:" in out and "unbroken: beta=(0, 1) alpha=(0, 1)" in out
    assert main(["verify", "bracket-criteria", "--type", "B(1,1)", "--sigma", "[[1,0],[0,1]]"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "bracket criteria on g(sigma): False (90 pairs)",
        "  bracket law fails: ((-1, 0), (1, 2), False, True)",
        "  bracket law fails: ((0, 1), (0, 1), False, True)",
        "  bracket law fails: ((1, 2), (-1, 0), False, True)",
    ]


def test_text_output_counts_the_witnesses_it_leaves_out(monkeypatch, capsys):
    # the sweep finds 16 failures under the lie; text lists 10 and counts the rest
    claim_a_root(monkeypatch, "B(1,1)", (2, 0))
    argv = ["string-sweep", "--type", "B(1,1)", "--height", "6"]
    assert main(argv) == 1
    lines = capsys.readouterr().out.splitlines()
    failures = lines[lines.index("failures:") + 1:]
    assert len(failures) == 11 and failures[-1] == "  ... and 6 more (--format json lists all)"
    assert main(argv + ["--format", "json"]) == 1
    assert len(json.loads(capsys.readouterr().out)["failures"]) == 16


def test_a_main_theorem_mismatch_exits_one(monkeypatch, capsys):
    # an oracle that loses the root (1, 1) disagrees with the closure
    from superroot import oracle
    from superroot.pisystem import RootSet

    real_roots = oracle.subalgebra_real_roots

    def lossy(basis, handle):
        found = real_roots(basis, handle)
        return RootSet(found.elements - {(1, 1)}, handle)

    monkeypatch.setattr(oracle, "subalgebra_real_roots", lossy)
    assert main(["verify", "main-theorem", "--type", "A(0,1)", "--sigma", "[[1,0],[0,1]]"]) == 1
    out = capsys.readouterr().out
    assert "closure equals oracle real roots: False" in out
    assert "  closure only:    [[1, 1]]" in out and "  subalgebra only: []" in out


def test_a_non_regular_base_exits_one(capsys):
    # this base is regular admissible, but the base-graph search reaches one
    # that is not: the search stops with a failed check
    argv = ["real-roots", "--matrix-json", '{"matrix": [[2,-3],[-1,0]], "parity": [0,1]}',
            "--height", "3"]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("check failed: encountered a base whose Cartan matrix")


def test_an_empty_sigma_exits_two(capsys):
    # on the affine type, the default loop window read max() of no degrees
    # and printed its message; on the finite one, bracket-criteria exited 0
    for spec in ("B(1,1)", "B(1,1)^(1)"):
        for command in ("main-theorem", "bracket-criteria"):
            assert main(["verify", command, "--type", spec, "--sigma", "[]"]) == 2, (spec, command)
            assert capsys.readouterr().err == "error: --sigma: the set is empty; give at least one root\n"


def test_a_non_symmetrizable_matrix_reports_unknown_isotropy(capsys):
    # regular and admissible, but with no symmetrizer: the roots are found,
    # and their isotropy is left open
    raw = '{"matrix": [[2,-1,-1],[-2,2,-1],[-1,-1,2]], "parity": [0,0,0]}'
    argv = ["real-roots", "--matrix-json", raw, "--height", "3"]
    code, out = _capture(capsys, argv)
    lines = out.splitlines()
    assert code == 0 and lines[0].startswith("14 real roots")
    assert len(lines) == 15 and all(line.endswith(" unknown-isotropy") for line in lines[1:])
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "5c5e2293f6cf3c89c9390c516e77ff3e7ae3b8d75d247ea19b71b28dc384d028")
    code, out = _capture(capsys, argv + ["--format", "json"])
    payload = json.loads(out)
    assert payload["count"] == 14 and all(e["isotropic"] is None for e in payload["roots"])
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "97ac87b5dc503530c2cfeca13966ba1429c0ed910be0e93c50257ddf918bdc26")


# Every subcommand in text and JSON, with exit codes 0-3, `--version` and
# argparse usage errors: (argv, exit code, sha256 of stdout).  The usage
# errors pin stderr instead, since argparse lists the flags in the order
# they were registered.
_PINNED_STDOUT = [
    (['--version'],
     0, "8abd5a8637699fb169a43bda40d429aef68e443293c4d079fa1de6c077146b01"),
    (['validate', '--type', 'A(0,1)'],
     0, "d83d7f9603f10eac1c521f9b91d5602950e37927b2bb9c63fa573f76f39b7f99"),
    (['validate', '--type', 'A(0,1)', '--format', 'json'],
     0, "b74c317a685d9392017913d7fa262f4566d19c46f9469ff7761d61f544497d3d"),
    (['validate', '--matrix-json', '{"matrix": [[2, -1], [-1, 2]], "parity": [1, 0]}'],
     1, "5cad431ca68c5fbeb3b39eeb4ddfd64cbcb5c622e4eb73172f1f97999ce87314"),
    (['validate', '--matrix-json', '{"matrix": [[2, -1], [-1, 2]], "parity": [1, 0]}', '--format', 'json'],
     1, "6bd218df09de0b97359365a0075964ae9c26b0fc6be4e72c1adff766693543c7"),
    (['real-roots', '--type', 'B(1,1)', '--height', '3'],
     0, "f08eada9a2dca758028c1a222f2145141b9180037f9d809651c1a29a25d2d26c"),
    (['real-roots', '--type', 'B(1,1)', '--height', '3', '--format', 'json'],
     0, "e9620c7f30421127ee5f60b83f1fa8e93eef627012654abdc336b90383b9b5ee"),
    (['real-roots', '--type', 'A(0,1)^(1)', '--height', '3', '--explore', '4'],
     0, "dd66e3e7de51bfde38dab079404f61c0b0c890e58bd44d4fcb34ef6dd4a59fc2"),
    (['real-roots', '--type', 'A(0,1)^(1)', '--height', '3', '--explore', '4', '--format', 'json'],
     0, "a5a36af89ac2ec77a2312228000be6f24406a2d7b72e68a609fb3799d6917455"),
    (['principal-roots', '--type', 'B(1,1)^(1)', '--explore', '6'],
     0, "b939b998f1f54114c920706cb73116eb009cca20aabc2de0cc44b02166b216dc"),
    (['principal-roots', '--type', 'B(1,1)^(1)', '--explore', '6', '--format', 'json'],
     0, "f3502ba030c1b557c7184ceb926b1d28d9af4dd920f55b54246de8c1c3c74b8a"),
    (['pi-check', '--type', 'A(0,1)', '--roots', '[[1,0],[0,1]]'],
     0, "a7fa4d0c842398d83e594daba753f3da50b5978905179c78f5e773a9e16de139"),
    (['pi-check', '--type', 'A(0,1)', '--roots', '[[1,0],[0,1]]', '--format', 'json'],
     0, "d8c4275666faa81d6a49498fde2b71b8ef75001bebe7f8407ba3b303f60e2e56"),
    (['pi-check', '--type', 'A(0,1)', '--roots', '[[1,0],[1,1]]'],
     1, "74128841f20c14648aeb384132ed585d03eab933d410a47bbc535726841cbabf"),
    (['pi-check', '--type', 'A(0,1)', '--roots', '[[1,0],[1,1]]', '--format', 'json'],
     1, "66b94f7632f77855de1d427c83be58120c5bc8bd0562cb1f77922e9577a6c4dd"),
    (['closure', '--type', 'A(0,1)', '--roots', '[[1,0],[0,1]]'],
     0, "9db80d7c217c6b822ba154e7747972edb6ddd2f86ee18b02ab90c8c7d99011cd"),
    (['closure', '--type', 'A(0,1)', '--roots', '[[1,0],[0,1]]', '--format', 'json'],
     0, "d396906287a3f854e9d61c0ffa32ca7686883d8a2bc32fa9361ce6dabbe8ebee"),
    (['closure', '--type', 'B(1,1)^(1)', '--roots', '[[0,0,1],[1,2,1]]', '--height', '8'],
     3, "5094ad9e11a2fd379af2c73498f803fbcee61540c130e82624a43d42c0a32f82"),
    (['closure', '--type', 'B(1,1)^(1)', '--roots', '[[0,0,1],[1,2,1]]', '--height', '8', '--format', 'json'],
     3, "ef0bcb47a0769cd04dee59fa68ee27d36016c0339a9fc6d4f194165b0a7059b0"),
    (['classify-subset', '--type', 'A(0,1)', '--roots', '[[1,0],[-1,0]]'],
     0, "df0c057f4958e7fe01a1a2e6a2819e140aa61c4ee3eff9b185ac83bcf1d3e968"),
    (['classify-subset', '--type', 'A(0,1)', '--roots', '[[1,0],[-1,0]]', '--format', 'json'],
     0, "3506b6656a9ac6a3cd5880cd18110bd49d4c84cd85149bd19d1736391ad5965e"),
    (['pi-of-psi', '--type', 'A(0,1)', '--roots', '[[1,0],[0,1],[1,1],[-1,0],[0,-1],[-1,-1]]'],
     0, "64a4e264d2470bbef37f5f3800d25ecfd80598d47e46566aa6f09da98f287922"),
    (['pi-of-psi', '--type', 'A(0,1)', '--roots', '[[1,0],[0,1],[1,1],[-1,0],[0,-1],[-1,-1]]', '--format', 'json'],
     0, "6dfb374d1d3e125600ea2f1bc9235b5b0d8398bd3eee772bc272dfa1e352c0e2"),
    (['real-roots', '--matrix-json', '{"matrix": [[0, 1], ["-1/2", 1]], "parity": [1, 0]}', '--height', '2'],
     0, "e580976c9ab24e35f52668985a8531326be839c36d7957b028d5fba97461db84"),
    (['real-roots', '--matrix-json', '{"matrix": [[0, 1], ["-1/2", 1]], "parity": [1, 0]}', '--height', '2', '--format', 'json'],
     0, "d6141380d26dd9bff802a106b4e3f03566de438d2d0c3d6f4eb0e37e021ed6fd"),
    (['admits-pi', '--type', 'B(1,1)^(1)', '--roots', '[[0,1,0],[0,-1,0],[1,3,2],[-1,-3,-2]]', '--height', '40'],
     0, "d57eca0561d9cf4a9e877429a12796a5672addb6e2c85a85b2443db9832b7029"),
    (['admits-pi', '--type', 'B(1,1)^(1)', '--roots', '[[0,1,0],[0,-1,0],[1,3,2],[-1,-3,-2]]', '--height', '40', '--format', 'json'],
     0, "3b8cb40121f9dbb94c9b29e574282b6c8bd9d550f0478ed5ef897e74e85ca598"),
    (['admits-pi', '--type', 'A(0,1)', '--roots', '[[1,0],[0,1],[1,1],[-1,0],[0,-1],[-1,-1]]'],
     0, "738c5c71f9c6a867898283bfb0299ccd652ba8a2b59dd31e664ea1fcb10266a4"),
    (['admits-pi', '--type', 'A(0,1)', '--roots', '[[1,0],[0,1],[1,1],[-1,0],[0,-1],[-1,-1]]', '--format', 'json'],
     0, "7c0f9a3afa977f7699753ae4f757b21e20c1650530de51fd44a86ca4210e361b"),
    (['verify-dynkin', '--type', 'A(0,1)', '--sigma', '[[1,0],[0,1]]'],
     0, "693ae059d89e24bd5343ecad6e9a0599edd3fcc19b41f10135496c60b39581e3"),
    (['verify-dynkin', '--type', 'A(0,1)', '--sigma', '[[1,0],[0,1]]', '--format', 'json'],
     0, "ecc3a1753bec4c89c67adc554c5687da6a5f78d44077feb4bdec6b49f4c82e4c"),
    (['string', '--type', 'B(1,1)^(1)', '--alpha', '[0,0,1]', '--beta', '[1,2,1]'],
     0, "51b817aed874ed3356569dded4217b9ceeb89a9b48e5b40dd62041cf2856ed38"),
    (['string', '--type', 'B(1,1)^(1)', '--alpha', '[0,0,1]', '--beta', '[1,2,1]', '--format', 'json'],
     0, "9c3dfa9c240a8714e49f6de3d3499bd0d8a7523c756efd0d2922c87f5edd225f"),
    (['string-sweep', '--type', 'B(1,1)', '--height', '6'],
     0, "b35cc07a4a19b05973377adb5e6552e5a292b6391fa65ddf3374427290ebc042"),
    (['string-sweep', '--type', 'B(1,1)', '--height', '6', '--format', 'json'],
     0, "ffa4fb7d80bbb9c52cd653b4d0622fdfa93276dda219322f35eae6a2e1685c89"),
    (['verify', 'main-theorem', '--type', 'B(0,1)', '--sigma', '[[1]]'],
     0, "919db204236b9b1e37e85c866928d4093bba0952904ca4691e9a0d32d5508f2d"),
    (['verify', 'main-theorem', '--type', 'B(0,1)', '--sigma', '[[1]]', '--format', 'json'],
     0, "5efedf4e19e3916518830226ee459dc3448b65c44e2a180552d2e9b09d85de2e"),
    (['verify', 'bracket-criteria', '--type', 'A(0,1)', '--sigma', '[[1,0],[0,1]]'],
     0, "bf13029cf8ca8544687e0cc4fb9e849fcbd112bb9b01b1187dcb8e05ad7ded28"),
    (['verify', 'bracket-criteria', '--type', 'A(0,1)', '--sigma', '[[1,0],[0,1]]', '--format', 'json'],
     0, "f6f4f19513d7b642b0519b4b29e02cf14659a562cdaf6f8ca1ff25d250cc9202"),
    (['replay-examples'],
     0, "01af43fec750a4db036de706cec71f98b4d28643f6944744128521822fdd7a73"),
    (['replay-examples', '--format', 'json'],
     0, "2473e69faec2c87393f059c3a79a20fe0d60624484a0f8fdb7554ad50550c41f"),
    (['pi-check', '--roots', '[[1,0]]'],
     2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (['pi-check', '--roots', '[[1,0]]', '--format', 'json'],
     2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (['real-roots', '--matrix-json', '{"matrix": [[2, 0], [0, 2]], "parity": [0, 0]}', '--height', '3'],
     2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (['real-roots', '--matrix-json', '{"matrix": [[2, 0], [0, 2]], "parity": [0, 0]}', '--height', '3', '--format', 'json'],
     2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
]

_PINNED_USAGE_STDERR = [
    ([],
     2, "c81f3cb05df9318239e425e2832425b5022c96e1e30020865ec3f2ef9ee423b8"),
    (['bogus'],
     2, "249c768c0c56fe1d08c9ef7c86bf670244eadc8e379f36a6ee52edd4419c57b0"),
    (['verify'],
     2, "ba8f9fb5ba313b4eb9a062abafadd299287c1300d015f9bbf89ac61e6a649c3e"),
    (['verify', 'main-theorem', '--type', 'B(0,1)'],
     2, "2efd64430df4542cfae55bd46a54b694eef47bf5c88381876f56639e3444a336"),
    (['real-roots', '--type', 'A(0,1)'],
     2, "5f7b4b3120e78883a9943d3a7508b6f7c4e38fe86f52588dbca3c783c240be93"),
    (['closure', '--type', 'A(0,1)', '--roots', '[[1,0]]', '--height', '-1'],
     2, "bf6db4fcc2a11f3ed7d60d9290f9fb447e673086ff013961a69f3bb1a34d224a"),
    (['string-sweep', '--format', 'xml'],
     2, "852f625f805e5d1277d9a5f3d215f69a1b30a80530814e270531d075e6dc44cb"),
    (['replay-examples', '--type', 'A(0,1)'],
     2, "92a7b9d53becf82b49988593a02b719969fe4ee365329d6df59501bba50311a8"),
]


def test_certificates_match_the_pinned_digests(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage lines to the terminal
    for table, stream in ((_PINNED_STDOUT, "out"), (_PINNED_USAGE_STDERR, "err")):
        for argv, expected_code, expected_digest in table:
            code = main(argv)
            text = getattr(capsys.readouterr(), stream)
            assert (code, hashlib.sha256(text.encode()).hexdigest()) == (expected_code, expected_digest), (argv, text)


def test_a_window_on_a_type_without_a_realization_exits_two(capsys):
    # refused as an unread --K, like verify-dynkin, not as an unsupported type
    for spec, sigma in (("A(2,2)^(4)", "[[1,0,0]]"), ("D(2,1;2)^(1)", "[[0,1,0,0]]")):
        for command in ("main-theorem", "bracket-criteria"):
            assert main(["verify", command, "--type", spec, "--sigma", sigma, "--K", "5"]) == 2
            assert capsys.readouterr().err == f"error: {spec} has no realization to read loop_degree 5\n"


def test_bad_input_that_no_other_test_gives_exits_two(capsys):
    cases = [
        (["real-roots", "--type", "B(1,1)", "--height", "5", "--explore", "3"], "need h_report <= h_explore"),
        (["pi-check", "--type", "B(1,1)", "--roots", "[1,"], "not valid JSON and not a readable file"),
        (["pi-check", "--type", "B(1,1)", "--roots", "null"], "--roots: expected a list of roots"),
        (["validate"], "either --type or --matrix-json is required"),
    ]
    for argv, message in cases:
        assert main(argv) == 2, argv
        assert message in capsys.readouterr().err, argv
