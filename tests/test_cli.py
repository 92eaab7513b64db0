import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from torsolve.cli import main, parse_system
from torsolve.errors import SystemFileError

from systems import (LACUNARY_A1, LACUNARY_A2, LACUNARY_B1, LACUNARY_B2, START_A, TRI_A,
                     TRI_A3)

TRI_C1 = [1, 2, 3, 4, 5, 6, 7, 8]
TRI_C2 = [2, 3, 5, 7, 11, 13, 17, 19]
TRI_C3 = [1, 3, 9, 27, 81, 243]


# Supports 2 and 3 span one direction only: MV 0, first witness {2, 3}.
ZERO_MV = [[(0, 0, 0), (1, 0, 0), (0, 1, 0)], [(0, 0, 0), (0, 0, 1)], [(0, 0, 0), (0, 0, 2)]]


def support_file(tmp_path, name, supports):
    data = {
        "n": len(supports),
        "polynomials": [{"support": [list(p) for p in pts]} for pts in supports],
    }
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def system_file(tmp_path, name, supports, coeffs):
    data = {
        "n": len(supports),
        "polynomials": [
            {
                "support": [list(p) for p in pts],
                "coefficients": [[float(c), 0.0] for c in row],
            }
            for pts, row in zip(supports, coeffs)
        ],
    }
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def tri_file(tmp_path):
    return system_file(tmp_path, "tri.json", [TRI_A, TRI_A, TRI_A3], [TRI_C1, TRI_C2, TRI_C3])


def test_parse_rejects_duplicates_and_zeros():
    with pytest.raises(SystemFileError, match=r"support"):
        parse_system({"n": 1, "polynomials": [{"support": [[0], [0]]}]})
    with pytest.raises(SystemFileError, match=r"coefficients\[1\]"):
        parse_system({"n": 1, "polynomials": [
            {"support": [[0], [1]], "coefficients": [[1, 0], [0, 0]]}
        ]})
    with pytest.raises(SystemFileError, match=r"polynomials"):
        parse_system({"n": 2, "polynomials": [{"support": [[0, 0]]}]})


def test_parse_rejects_booleans():
    with pytest.raises(SystemFileError, match=r": n: "):
        parse_system({"n": True, "polynomials": [{"support": [[0], [1]]}]})
    with pytest.raises(SystemFileError, match=r"polynomials\[1\]\.support\[0\]"):
        parse_system({"n": 2, "polynomials": [{"support": [[0, 0], [1, 0]]},
                                              {"support": [[True, 0], [0, 1]]}]})
    with pytest.raises(SystemFileError, match=r"polynomials\[0\]\.coefficients\[1\]"):
        parse_system({"n": 1, "polynomials": [
            {"support": [[0], [1]], "coefficients": [[1, 0], [True, 0]]}
        ]})


@pytest.mark.parametrize("value", [float("nan"), float("inf"), 10 ** 400])
def test_parse_rejects_non_finite_coefficients(value):
    with pytest.raises(SystemFileError, match=r"coefficients\[0\]: must be finite"):
        parse_system({"n": 1, "polynomials": [
            {"support": [[0], [1]], "coefficients": [[1, value], [1, 0]]}
        ]})


@pytest.mark.parametrize("data, message", [
    ([], "$: top level must be an object"),
    ({"n": 1, "polynomials": [[[0], [1]]]}, "polynomials[0]: must be an object"),
    ({"n": 1, "polynomials": [{"support": []}]},
     "polynomials[0].support: must be a nonempty list of exponent vectors"),
    ({"n": 2, "polynomials": [{"support": [[0, 0], [1, 0]], "coefficients": [[1, 0], [2, 0]]},
                              {"support": [[0, 0], [0, 1]]}]},
     "polynomials[1]: coefficients must be present for all polynomials or none"),
    ({"n": 1, "polynomials": [{"support": [[0], [1]], "coefficients": [[1, 0]]}]},
     "polynomials[0].coefficients: must align one [re, im] pair per support point"),
])
def test_parse_rejects_malformed_structure(data, message):
    with pytest.raises(SystemFileError) as err:
        parse_system(data)
    assert str(err.value) == f"<input>: {message}"


@pytest.mark.parametrize("command", [["solve", "FILE"], ["start", "FILE"],
                                     ["bench", "e-basis", "--count", "0"]])
@pytest.mark.parametrize("tolerance", ["0", "-1e-8", "nan"])
def test_tolerance_must_be_positive(tmp_path, capsys, command, tolerance):
    path = tri_file(tmp_path)
    argv = [path if a == "FILE" else a for a in command] + [f"--tolerance={tolerance}"]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: --tolerance must be a positive")


@pytest.mark.parametrize("command", [["solve", "FILE"], ["start", "FILE"], ["bench", "e-basis"]])
def test_seed_must_be_non_negative(tmp_path, capsys, command):
    path = tri_file(tmp_path)
    argv = [path if a == "FILE" else a for a in command] + ["--seed", "-1"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --seed must be a non-negative integer, got -1\n"


def test_parse_roundtrip_is_canonical():
    from torsolve.cli import system_to_obj

    data = {"n": 1, "polynomials": [
        {"support": [[2], [0]], "coefficients": [[3, 1], [1, 0]]}
    ]}
    _, F = parse_system(data)
    obj = system_to_obj(F)
    assert obj["polynomials"][0]["support"] == [[0], [2]]  # sorted
    _, F2 = parse_system(obj)
    assert F2 == F


def test_cmd_mv(tmp_path, capsys):
    path = support_file(tmp_path, "b.json", [LACUNARY_B1, LACUNARY_B2])
    assert main(["mv", path]) == 0
    assert capsys.readouterr().out.strip() == "10"


def test_cmd_mv_collinear(tmp_path, capsys):
    path = support_file(tmp_path, "z.json", [[(0, 0), (1, 0)], [(0, 0), (2, 0)]])
    assert main(["mv", path]) == 0
    assert capsys.readouterr().out.strip() == "0"


def test_cmd_analyze_lacunary(tmp_path, capsys):
    path = support_file(tmp_path, "lac.json", [LACUNARY_A1, LACUNARY_A2])
    assert main(["analyze", path]) == 0
    out = capsys.readouterr().out
    assert "lacunary, index 12; child MV 10; total 120" in out
    assert "total MV: 120" in out


def test_cmd_analyze_indecomposable(tmp_path, capsys):
    path = support_file(tmp_path, "b.json", [LACUNARY_B1, LACUNARY_B2])
    assert main(["analyze", path]) == 0
    out = capsys.readouterr().out
    assert "indecomposable, MV 10" in out
    assert "total MV: 10" in out


def test_cmd_analyze_mv_zero(tmp_path, capsys):
    path = support_file(tmp_path, "z.json", [[(0, 0), (1, 0)], [(0, 0), (2, 0)]])
    assert main(["analyze", path]) == 0
    assert "mixed volume 0, witness" in capsys.readouterr().out


def test_cmd_solve_triangular_example(tmp_path, capsys):
    path = tri_file(tmp_path)
    code = main(["solve", path, "--seed", "3", "--json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["mixed_volume"] == 32 and out["count"] == 32
    assert len(out["solutions"]) == 32
    assert max(out["residuals"]) <= 1e-8


def test_cmd_solve_requires_coefficients(tmp_path, capsys):
    path = support_file(tmp_path, "s.json", [LACUNARY_B1, LACUNARY_B2])
    assert main(["solve", path]) == 1
    assert "coefficients required" in capsys.readouterr().err


def test_cmd_solve_deterministic(tmp_path, capsys):
    path = tri_file(tmp_path)
    assert main(["solve", path, "--seed", "11", "--json"]) == 0
    first = json.loads(capsys.readouterr().out)
    assert main(["solve", path, "--seed", "11", "--json"]) == 0
    second = json.loads(capsys.readouterr().out)
    assert first["count"] == second["count"]
    for a, b in zip(first["solutions"], second["solutions"]):
        for (re1, im1), (re2, im2) in zip(a, b):
            assert abs(re1 - re2) <= 1e-8 and abs(im1 - im2) <= 1e-8


def test_cmd_solve_mv_zero_reports_the_first_witness(tmp_path, capsys):
    path = system_file(tmp_path, "z.json", ZERO_MV, [[1, 2, 3], [1, -1], [1, -1]])
    assert main(["solve", path]) == 1
    assert capsys.readouterr().err == "error: mixed volume 0, witness (2, 3)\n"


def test_cmd_solve_fallback_reports_the_input_mixed_volume(tmp_path, capsys, monkeypatch):
    import torsolve.cli
    from torsolve.errors import CountMismatchError

    def short(F, seed, settings):
        raise CountMismatchError("forced", 32, 0)

    monkeypatch.setattr(torsolve.cli, "solve_decomposable", short)
    code = main(["solve", tri_file(tmp_path), "--seed", "3", "--json"])
    captured = capsys.readouterr()
    out = json.loads(captured.out)
    assert "falling back to start-system homotopy" in captured.err
    assert out["tree"]["kind"] == "homotopy"
    assert out["mixed_volume"] == 32
    assert code == (0 if out["count"] == 32 else 2)


def test_cmd_solve_mixed_volume_is_the_inputs_when_a_fiber_loses_terms(tmp_path, capsys):
    # F = (x - 1, 1 + y + y^2 - x y^2): over the base root x = 1 the fiber is
    # 1 + y, with one root, while the supports have MV 2.
    path = system_file(tmp_path, "drop.json", [[(0, 0), (1, 0)], [(0, 0), (0, 1), (0, 2), (1, 2)]],
                       [[-1, 1], [1, 1, 1, -1]])
    code = main(["solve", path, "--json"])
    out = json.loads(capsys.readouterr().out)
    assert out["mixed_volume"] == 2
    assert out["count"] == 1
    assert code == 2


def test_cmd_solve_base_point_off_the_torus_is_an_error(tmp_path, capsys):
    # The decomposable solve comes up short, and the start-system homotopy
    # lifts a base solution to a coordinate of modulus 1e-26: a typed error.
    import numpy as np

    from torsolve.cli import _bench_instance, system_to_obj

    F = _bench_instance("random", np.random.default_rng(np.random.SeedSequence(7)))
    path = tmp_path / "random7.json"
    path.write_text(json.dumps(system_to_obj(F)))
    assert main(["solve", str(path), "--seed", "7"]) == 1
    err = capsys.readouterr().err
    assert "error: fiber base point leaves the floating-point torus" in err


def test_cmd_start(tmp_path, capsys):
    path = support_file(tmp_path, "start.json", [START_A, START_A])
    assert main(["start", path, "--seed", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["solutions"]) == 30
    assert [len(p["support"]) for p in out["polynomials"]] == [5, 5]


def test_cmd_start_mv_zero(tmp_path, capsys):
    path = support_file(tmp_path, "z.json", [[(0, 0), (1, 0)], [(0, 0), (2, 0)]])
    assert main(["start", path]) == 1
    assert "mixed volume 0" in capsys.readouterr().err


@pytest.mark.parametrize("count", ["0", "-2"])
def test_cmd_bench_count_must_be_positive(capsys, count):
    assert main(["bench", "e-basis", "--count", count]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --count must be a positive integer, got {count}\n"


def test_cmd_bench_one_instance(capsys):
    assert main(["bench", "e-basis", "--count", "1", "--seed", "5"]) == 0
    captured = capsys.readouterr()
    rows = captured.out.strip().splitlines()
    assert len(rows) == 2
    fields = rows[1].split(",")
    assert fields[1] == "50"       # mixed volume
    assert fields[2] == "64"       # decomposable path ledger
    assert int(fields[3]) > 50     # direct total-degree paths
    assert fields[6] == "ok"
    assert "quartiles" in captured.err


@pytest.mark.parametrize("name, status", [("solve_decomposable", "dec-fail"),
                                          ("blackbox", "bb-fail")])
def test_cmd_bench_reports_a_failed_instance_and_leaves_it_out_of_the_summary(
        monkeypatch, capsys, name, status):
    # Instance 0 fails in the decomposable solve or in the black box: its row
    # names the failure and leaves the failed solve's time empty (and the
    # black box's, which a failed decomposable solve skips); the summary
    # counts instance 1 alone.
    import torsolve.cli as cli
    from torsolve.errors import TorsolveError

    real = getattr(cli, name)

    def fails_at_seed_5(F, seed, settings):
        if seed == 5:
            raise TorsolveError("fails on purpose")
        return real(F, seed=seed, settings=settings)

    monkeypatch.setattr(cli, name, fails_at_seed_5)
    assert main(["bench", "e-basis", "--count", "2", "--seed", "5"]) == 0
    captured = capsys.readouterr()
    _, failed, ok = (row.split(",") for row in captured.out.strip().splitlines())
    assert failed[0] == "0" and failed[6] == status
    assert failed[5] == "" and (failed[4] == "") == (status == "dec-fail")
    assert failed[2] == ("0" if status == "dec-fail" else "64")
    assert ok[0] == "1" and ok[6] == "ok" and "" not in ok[4:6]
    summary = [line for line in captured.err.splitlines() if line.startswith("# mv=")]
    assert len(summary) == 1 and summary[0].startswith("# mv=50 n=1 ")


def test_bad_file_reports_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["mv", str(bad)]) == 1
    assert "line 1" in capsys.readouterr().err


def test_file_that_is_not_utf8_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe{\x00}\x00")  # UTF-16 with its byte-order mark
    assert main(["mv", str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}: ")


def test_missing_file(capsys):
    assert main(["mv", "/nonexistent/x.json"]) == 1
    assert "error" in capsys.readouterr().err


def test_the_package_and_its_cli_import_nothing_test_side():
    # torsolve depends on numpy alone, and no module under src/ reaches the
    # tests' libraries or their oracles, which the tests directory makes importable.
    tests = Path(__file__).resolve().parent
    script = "import json, sys, torsolve, torsolve.cli; print(json.dumps(sorted(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", script], cwd=tests, capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(tests.parent / "src")}, check=True)
    loaded = {name.split(".")[0] for name in json.loads(out.stdout)}
    assert {"torsolve", "numpy"} <= loaded
    assert not loaded & {"scipy", "sympy", "hypothesis", "mpmath", "pytest", "oracles"}
