import json
import os
import runpy
import subprocess
import sys

import pytest

import superroot
from superroot.cli import main


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


def test_rejects_negative_bounds(capsys):
    cases = [
        ["real-roots", "--type", "A(0,1)", "--height", "-3"],
        ["real-roots", "--type", "A(0,1)", "--height", "3", "--explore", "-1"],
        ["principal-roots", "--type", "A(0,1)", "--explore", "-2"],
        ["closure", "--type", "A(0,1)", "--roots", "[[1,0]]", "--height", "-1"],
        ["closure", "--type", "A(0,1)", "--roots", "[[1,0]]", "--max-rounds", "0"],
        ["admits-pi", "--type", "A(0,1)", "--roots", "[[1,0]]", "--max-rounds", "0"],
        ["verify-dynkin", "--type", "A(0,1)", "--sigma", "[[1,0]]", "--K", "-1"],
        ["verify", "main-theorem", "--type", "B(0,1)", "--sigma", "[[1]]", "--K", "-1"],
        ["string", "--type", "B(1,1)", "--alpha", "[0,1]", "--beta", "[1,0]", "--window", "-1"],
        ["string-sweep", "--type", "B(1,1)^(1)", "--degree", "-1"],
    ]
    for argv in cases:
        assert main(argv) == 2, argv
        assert "must be at least" in capsys.readouterr().err, argv
    assert main(["real-roots", "--type", "A(0,1)", "--height", "two"]) == 2
    assert "expected an integer" in capsys.readouterr().err
    code, out = _capture(capsys, ["real-roots", "--type", "A(0,1)", "--height", "0"])
    assert code == 0 and out.startswith("0 real roots")


def test_python_dash_m_entry_point(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["superroot", "validate", "--type", "A(0,1)"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("superroot", run_name="__main__")
    assert exc.value.code == 0
    assert "admissible:     True" in capsys.readouterr().out


def test_string_window_zero_returns_on_a_non_isotropic_direction():
    # the scan range comes from the catalog's coordinate box, so a window of
    # 0 along a non-isotropic direction returns the whole string
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(superroot.__file__)))
    argv = [sys.executable, "-m", "superroot", "string", "--type", "B(1,1)",
            "--alpha", "[0,1]", "--beta", "[1,0]", "--window", "0", "--format", "json"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    body = json.loads(proc.stdout)
    assert [e["k"] for e in body["entries"]] == [0, 1, 2]
    assert body["bounds"] == {"window": 0}


def _fresh_run(argv):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(superroot.__file__)))
    proc = subprocess.run([sys.executable, "-m", "superroot", *argv],
                          capture_output=True, text=True, timeout=120, env=env)
    return proc.returncode, proc.stdout, proc.stderr


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


def test_string_exhausted_window_exits_three(capsys):
    # an explicit window that clips an isotropic-direction string truncates
    # the computation: inconclusive, not a usage error
    argv = ["string", "--type", "B(1,1)", "--alpha", "[1,0]", "--beta", "[1,2]", "--window", "0"]
    assert main(argv) == 3
    assert "inconclusive: isotropic-direction string still has members" in capsys.readouterr().err
