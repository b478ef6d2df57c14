"""End-to-end CLI runs through main(argv), checking payloads and exit codes."""

import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from coxforge import cli
from coxforge.blowup_divisors import decompose_degree1
from coxforge.cli import main
from coxforge.picard_lattice import DivisorClass, LatticeContext, degree
from coxforge.root_system import simple_roots, weyl_orbit


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert err == ""
    return json.loads(out)


def test_classify_json_and_table(capsys):
    payload = run_json(capsys, "classify", "--ctx", "2,3,4")
    assert payload == {"a": 2, "b": 3, "c": 4, "finite": True, "label": "E7"}
    code, out, _ = run(capsys, "classify", "--ctx", "2,3,4", "--format", "table")
    assert (code, out) == (0, "E7\n")
    payload = run_json(capsys, "classify", "--ctx", "2,4,4")
    assert payload["finite"] is False
    assert payload["label"] == "INFINITE"


def test_orbit_defaults_to_last_exceptional(capsys):
    payload = run_json(capsys, "orbit", "--ctx", "2,2,3")
    assert payload["count"] == 16
    ctx = LatticeContext(2, 2, 3)
    orbit = weyl_orbit(DivisorClass.exceptional(ctx, 5), simple_roots(ctx))
    assert payload["orbit"] == [d.to_json() for d in orbit]


def test_output_is_byte_deterministic(capsys):
    outs = set()
    for _ in range(2):
        code, out, _ = run(capsys, "degree-one", "--ctx", "2,2,4")
        assert code == 0
        outs.add(out)
    assert len(outs) == 1
    assert json.loads(outs.pop())["count"] == 32


def test_minimal_and_project(capsys):
    payload = run_json(capsys, "minimal", "--n", "2", "--r", "5")
    assert payload["count"] == 11
    payload = run_json(capsys, "project", "--n", "3", "--r", "6",
                       "--d", "1", "--m", "0,1,1,1,0,0", "--classify")
    assert payload["case"] == "SPECIAL"
    assert payload["target"] == {"n": 2, "r": 5}
    image = DivisorClass(LatticeContext(2, 2, 3), (0,), (0, 0, 0, -1, -1))
    assert payload["class"] == image.to_json()


def test_decompose_table_and_degree_one(capsys):
    code, out, _ = run(capsys, "decompose", "--n", "3", "--d", "5",
                       "--m", "3,3,2,5,1", "--format", "table")
    assert code == 0
    assert len(out.strip().splitlines()) == 5
    payload = run_json(capsys, "decompose", "--ctx", "2,2,3", "--d", "3",
                       "--m", "1,1,1,1,1", "--degree-one")
    ctx = LatticeContext(2, 2, 3)
    d = DivisorClass(ctx, (3,), (1, 1, 1, 1, 1))
    parts = decompose_degree1(d)
    assert payload["parts"] == [p.to_json() for p in parts]
    assert sum(parts, DivisorClass.zero(ctx)) == d


def test_decompose_degree_one_fits_a_small_cap(capsys):
    # 4(-K) on the cubic surface: the cone prune leaves 12 search nodes,
    # where the search without it needs 46,725
    argv = ("decompose", "--ctx", "2,3,3", "--d", "12", "--m", "4,4,4,4,4,4", "--degree-one")
    payload = run_json(capsys, *argv, "--cap", "100")
    ctx = LatticeContext(2, 3, 3)
    d = DivisorClass(ctx, (12,), (4,) * 6)
    parts = decompose_degree1(d)
    assert payload["parts"] == [p.to_json() for p in parts]
    assert len(parts) == 12
    assert sum(parts, DivisorClass.zero(ctx)) == d
    assert all(degree(p) == 1 for p in parts)
    code, out, err = run(capsys, *argv, "--cap", "11")
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == {"cap": 11, "type": "cap", "what": "decompose_degree1"}


def test_member_false_is_still_exit_zero(capsys):
    payload = run_json(capsys, "member", "--ctx", "2,2,3",
                       "--d", "1", "--m", "2,0,0,0,0")
    assert payload["member"] is False
    assert payload["certificate"] is not None
    payload = run_json(capsys, "member", "--ctx", "2,2,3",
                       "--d", "3", "--m", "1,1,1,1,1")
    assert payload == {"certificate": None, "member": True}


def test_member_answers_for_a_member_under_a_small_cap(capsys):
    # -K on E7: the chamber walk decides without building an orbit, so a
    # cap of 1 answers, where scanning the nef orbits needed 56 + 576 nodes
    payload = run_json(capsys, "member", "--ctx", "2,3,4", "--d", "3",
                       "--m", "1,1,1,1,1,1,1", "--cap", "1")
    assert payload == {"certificate": None, "member": True}


def test_member_non_member_still_builds_its_orbit_under_the_cap(capsys):
    # H - 2E_1 on D5 violates the orbit of f1 = l - e_1, which has 10 curves
    argv = ("member", "--ctx", "2,2,3", "--d", "1", "--m", "2,0,0,0,0")
    payload = run_json(capsys, *argv, "--cap", "10")
    assert payload == {"certificate": {"e": [-1, 0, 0, 0, 0], "l": [1]}, "member": False}
    code, out, err = run(capsys, *argv, "--cap", "9")
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == {"cap": 9, "type": "cap", "what": "weyl_orbit_curves"}


def test_section_pipeline_verbs(capsys):
    assert run_json(capsys, "h0", "--n", "2", "--r", "5",
                    "--d", "2", "--m", "1,1,1,1,1") == {"h0": 1}
    code, out, _ = run(capsys, "section", "--n", "2", "--r", "5",
                       "--d", "2", "--m", "1,1,1,1,1", "--format", "table")
    assert (code, out) == (0, "z_0*z_2 - z_1^2\n")
    payload = run_json(capsys, "mult", "--n", "2", "--r", "5",
                       "--d", "2", "--m", "1,1,1,1,1")
    assert payload == {"along_curve": 1, "at_points": [1, 1, 1, 1, 1]}
    payload = run_json(capsys, "check-generation", "--n", "2", "--r", "5",
                       "--d", "3", "--m", "1,1,1,1,1")
    assert payload == {"generated": True, "h0": 5, "span_dim": 5}
    payload = run_json(capsys, "check-generation", "--n", "2", "--r", "9",
                       "--d", "5", "--m", "1,1,1,1,1,1,1,1,0")
    assert payload == {"generated": True, "h0": 13, "span_dim": 13}
    payload = run_json(capsys, "h0", "--n", "2", "--r", "5", "--d", "2",
                       "--m", "1,1,1,1,1", "--params", "0,1/2,-1,7/3,4")
    assert payload == {"h0": 1}


def test_invariant_verbs(capsys):
    code, out, _ = run(capsys, "invariant", "build", "-I", "1", "--r", "5",
                       "--format", "table")
    assert (code, out) == (0, "x_1\n")
    payload = run_json(capsys, "invariant", "check", "-I", "1,2,3", "--r", "5")
    assert payload == {"checked": 1, "invariant": True}
    payload = run_json(capsys, "invariant", "check", "--all", "--r", "5")
    assert payload == {"checked": 16, "invariant": True}
    payload = run_json(capsys, "invariant", "class", "-I", "3,4,5", "--n", "2")
    assert payload == DivisorClass(LatticeContext(2, 2, 3), (1,), (1, 1, 0, 0, 0)).to_json()


def test_verify_quick_profile(capsys):
    code, out, _ = run(capsys, "verify", "--profile", "quick", "--seed", "0")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["profile"] == "quick"
    assert payload["results"] and all(item["passed"] for item in payload["results"])


def test_verify_stdout_is_byte_deterministic(capsys):
    outs = set()
    for _ in range(2):
        code, out, err = run(capsys, "verify", "--profile", "quick", "--seed", "0")
        assert code == 0
        outs.add(out)
        timings = json.loads(err)
        assert set(timings["seconds_per_criterion"]) == {str(k) for k in range(1, 12)}
    assert len(outs) == 1
    assert "seconds" not in outs.pop()
    code, out, _ = run(capsys, "verify", "--format", "table")
    assert code == 0 and not re.search(r"\d\.\d+s\b", out)


def test_usage_errors_exit_64(capsys):
    code, _, err = run(capsys, "no-such-verb")
    assert code == 64 and err
    code, _, err = run(capsys, "h0", "--n", "2", "--r", "5", "--d", "x",
                       "--m", "1,1,1,1,1")
    assert code == 64 and "usage error" in err
    code, _, err = run(capsys, "classify")
    assert code == 64
    code, _, err = run(capsys)
    assert code == 64


def test_precondition_exit_1_with_payload(capsys):
    code, out, err = run(capsys, "minimal", "--n", "2", "--r", "4")
    assert code == 1 and out == ""
    payload = json.loads(err)
    assert payload["error"]["type"] == "precondition"
    assert payload["error"]["field"] == "r"
    code, _, err = run(capsys, "section", "--n", "2", "--r", "5",
                       "--d", "1", "--m", "0,0,0,0,0")
    assert code == 1
    assert json.loads(err)["error"]["type"] == "precondition"
    code, _, err = run(capsys, "h0", "--n", "3", "--r", "4",
                       "--d", "1", "--m", "0,0,0,0")
    assert code == 1
    assert json.loads(err)["error"]["field"] == "r"
    code, _, err = run(capsys, "decompose", "--n", "3", "--d", "1", "--m", "0,0,0,0")
    assert code == 1
    assert json.loads(err)["error"]["field"] == "r"
    code, _, err = run(capsys, "invariant", "check", "--n", "1")
    assert code == 1
    assert json.loads(err)["error"] == {"detail": "need an integer n >= 2, got 1",
                                        "field": "n", "type": "precondition"}


def test_minuscule_refuses_infinite_type(capsys):
    # checked before any weight is saturated, as in is_minuscule
    for triple in ("2,4,4", "3,3,3"):
        code, out, err = run(capsys, "minuscule", "--ctx", triple)
        assert (code, out) == (1, "")
        assert json.loads(err) == {"error": {"detail": "finite type required",
                                             "field": "ctx", "type": "precondition"}}
    payload = run_json(capsys, "minuscule", "--ctx", "2,3,4")
    assert payload == {"minuscule": False, "orbit": 126, "weights": 127}


# the verbs that run no capped search take no --cap
UNCAPPED = (("classify", "--ctx", "2,2,3"), ("roots", "--ctx", "2,2,3"),
            ("minimal", "--n", "2", "--r", "5"),
            ("project", "--n", "3", "--r", "6", "--d", "1", "--m", "1,1,1,0,0,0"),
            ("h0", "--n", "2", "--r", "5", "--d", "2", "--m", "1,1,1,1,0"),
            ("section", "--n", "2", "--r", "5", "--d", "2", "--m", "1,1,1,1,1"),
            ("mult", "--n", "2", "--r", "5", "--d", "2", "--m", "1,1,1,1,1"),
            ("verify",))


@pytest.mark.parametrize("argv", UNCAPPED, ids=lambda argv: argv[0])
def test_verbs_without_a_search_refuse_cap(capsys, argv):
    for cap in ("-5", "100"):
        code, out, err = run(capsys, *argv, "--cap", cap)
        assert (code, out) == (64, "")
        assert err == f"usage error: unrecognized arguments: --cap {cap}\n"


def test_cap_exit_2_with_payload(capsys, monkeypatch):
    code, out, err = run(capsys, "orbit", "--ctx", "2,2,3", "--cap", "5")
    assert code == 2 and out == ""
    payload = json.loads(err)
    assert payload["error"]["type"] == "cap"
    assert payload["error"]["cap"] == 5
    monkeypatch.setenv("COXFORGE_CAP", "5")
    code, _, err = run(capsys, "orbit", "--ctx", "2,2,3")
    assert code == 2
    assert json.loads(err)["error"]["cap"] == 5


def test_invariant_check_all_bounds_its_terms(capsys, monkeypatch):
    # r = 5: 5 * 1 + 10 * 3 + 1 * 10 = 45 determinant terms
    monkeypatch.setenv("COXFORGE_CAP", "45")
    payload = run_json(capsys, "invariant", "check", "--all", "--r", "5")
    assert payload == {"checked": 16, "invariant": True}
    monkeypatch.setenv("COXFORGE_CAP", "44")
    code, out, err = run(capsys, "invariant", "check", "--all", "--r", "5")
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": {"cap": 44, "type": "cap", "what": "determinant terms"}}
    monkeypatch.delenv("COXFORGE_CAP")
    code, _, err = run(capsys, "invariant", "check", "--all", "--r", "40")
    assert code == 2 and json.loads(err)["error"]["what"] == "determinant terms"
    code, _, err = run(capsys, "invariant", "build", "-I", ",".join(map(str, range(1, 24))))
    assert code == 2 and json.loads(err)["error"]["cap"] == 10 ** 6
    # --cap bounds the same count
    payload = run_json(capsys, "invariant", "check", "--all", "--r", "5", "--cap", "45")
    assert payload == {"checked": 16, "invariant": True}
    code, out, err = run(capsys, "invariant", "check", "--all", "--r", "5", "--cap", "44")
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": {"cap": 44, "type": "cap", "what": "determinant terms"}}
    code, _, err = run(capsys, "invariant", "build", "-I", "1,2,3", "--cap", "2")
    assert code == 2 and json.loads(err)["error"]["cap"] == 2
    # a malformed index set is reported before the count
    code, _, err = run(capsys, "invariant", "build", "-I", "1,2", "--cap", "1")
    assert code == 1 and json.loads(err)["error"]["field"] == "I"
    # --cap also lifts the bound set by COXFORGE_CAP: F_{1..5} has 10 terms
    monkeypatch.setenv("COXFORGE_CAP", "9")
    code, _, err = run(capsys, "invariant", "build", "-I", "1,2,3,4,5", "--r", "5")
    assert code == 2 and json.loads(err)["error"]["cap"] == 9
    code, out, _ = run(capsys, "invariant", "build", "-I", "1,2,3,4,5", "--r", "5", "--cap", "10")
    assert code == 0 and len(json.loads(out)) == 10


def test_invariant_check_all_reports_a_failure_and_stops_building(capsys, monkeypatch):
    built = []
    build_F = cli.build_F

    def counting_build_F(idx, np, cap=None):
        built.append(tuple(idx))
        return build_F(idx, np, cap)

    monkeypatch.setattr(cli, "build_F", counting_build_F)
    monkeypatch.setattr(cli, "is_invariant", lambda p, np: built[-1] != (1, 2, 3))
    payload = run_json(capsys, "invariant", "check", "--all", "--r", "5")
    assert payload == {"checked": 16, "invariant": False}
    # the odd index sets run by size, so (1, 2, 3) is the sixth; none after it is built
    assert built == [(1,), (2,), (3,), (4,), (5,), (1, 2, 3)]
    built.clear()
    code, out, _ = run(capsys, "invariant", "check", "--all", "--r", "5", "--format", "table")
    assert (code, out) == (0, "FAILURE among the 16 determinants\n")
    assert built[-1] == (1, 2, 3) and len(built) == 6


def test_readme_examples_match_their_golden_output(capsys):
    # tests/cli_golden.json holds the exit code and exact stdout of every
    # `coxforge ...` line of README's command-line block, keyed by its argv
    golden = json.loads((Path(__file__).parent / "cli_golden.json").read_text())
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    examples = [shlex.split(line, comments=True)[1:] for line in readme.splitlines()
                if line.startswith("coxforge ")]
    assert [" ".join(argv) for argv in examples] == list(golden)
    for argv in examples:
        code, out, _ = run(capsys, *argv)
        assert [code, out] == golden[" ".join(argv)], argv


def test_module_entry_point():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "coxforge.cli", "minuscule", "--ctx", "2,2,3"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"minuscule": True, "orbit": 16, "weights": 16}
