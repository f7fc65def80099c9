import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from zktheta.cli import run
from zktheta.codes import search_c8


def invoke(capsys, *argv):
    rc = run(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_e4_text(capsys):
    rc, out, _ = invoke(capsys, "e4", "--terms", "5")
    assert rc == 0
    assert out == "1 240 2160 6720 17520\n"


def test_e4_csv(capsys):
    rc, out, _ = invoke(capsys, "--format", "csv", "e4", "--terms", "3")
    assert rc == 0
    assert out.splitlines() == ["m,coefficient", "0,1", "1,240", "2,2160"]


def test_e4_json_big_ints_are_strings(capsys):
    rc, out, _ = invoke(capsys, "--format", "json", "e4", "--terms", "4")
    assert rc == 0
    payload = json.loads(out)
    assert payload["coefficients"] == ["1", "240", "2160", "6720"]


def test_extremal_json(capsys):
    rc, out, _ = invoke(capsys, "--format", "json",
                        "extremal", "--n", "8", "--k", "1")
    assert rc == 0
    payload = json.loads(out)
    assert payload["beta1"] == "224"
    assert payload["beta2"] == "2048"
    assert int(payload["beta1"]) == 224  # string-encoded, round-trippable


def test_extremal_text(capsys):
    rc, out, _ = invoke(capsys, "extremal", "--n", "24", "--k", "1")
    assert rc == 0
    assert "194304" in out


def test_crossover_text(capsys):
    rc, out, _ = invoke(capsys, "crossover", "--k", "1",
                        "--from", "8", "--to", "48")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0].split() == ["n", "beta1_sign", "beta2_sign"]
    assert lines[-1].startswith("first_negative")


def test_crossover_workers_identical(capsys):
    rc1, out1, _ = invoke(capsys, "--workers", "1", "crossover",
                          "--k", "2", "--from", "8", "--to", "120")
    rc2, out2, _ = invoke(capsys, "--workers", "3", "crossover",
                          "--k", "2", "--from", "8", "--to", "120")
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_theorem1_json(capsys):
    rc, out, _ = invoke(capsys, "--format", "json",
                        "theorem1", "--k", "1", "--nmax", "72")
    assert rc == 0
    payload = json.loads(out)
    assert payload["all_pass"] is True
    assert [r["n"] for r in payload["rows"]] == list(range(8, 73, 8))


def test_asymptotics_json(capsys):
    rc, out, _ = invoke(capsys, "--format", "json", "asymptotics")
    assert rc == 0
    payload = json.loads(out)
    assert payload["digits"] == 30
    assert payload["y0"].startswith("0.52352")
    assert payload["predicted_ratio_limit"].startswith("16378")


def test_ratio_csv(capsys):
    rc, out, _ = invoke(capsys, "--format", "csv",
                        "ratio", "--k", "1", "--n-list", "8,48")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "n,ratio,threshold,margin"
    assert lines[1].startswith("8,")
    assert lines[1].split(",")[2] == "504"


def test_code_search_text(capsys):
    rc, out, _ = invoke(capsys, "code", "search", "--k", "2")
    assert rc == 0
    assert out.splitlines()[0] == "zcode 2 8 4"


def test_code_verify_roundtrip(tmp_path, capsys):
    path = tmp_path / "c8.zcode"
    path.write_text(search_c8(3).dumps())
    rc, out, _ = invoke(capsys, "--format", "json",
                        "code", "verify", "--file", str(path))
    assert rc == 0
    payload = json.loads(out)
    assert payload["is_type2"] is True
    assert payload["d_E"] == 12


def test_code_verify_missing_file(capsys):
    rc, out, err = invoke(capsys, "code", "verify", "--file", "/nonexistent")
    assert rc == 1
    assert out == ""
    assert "error" in err


@pytest.mark.parametrize("data,error", [
    (b"", "BadCodeFile"),
    (b"\n  \n", "BadCodeFile"),
    (b"code 1 8 1\n1 0 0 0 0 0 0 0\n", "BadCodeFile"),
    (b"zcode 1 8\n", "BadCodeFile"),
    (b"zcode 1 8 x\n", "BadCodeFile"),
    (b"zcode 1 8 1\n1 0 0 0 0 0 0 y\n", "BadCodeFile"),
    (b"zcode 0 8 1\n", "InvalidModulus"),
    (b"zcode -2 8 1\n1 0 0 0 0 0 0 0\n", "InvalidModulus"),
    (b"zcode 1 8 2\n1 0 0 0 0 0 0 0\n", "BadCodeFile"),
    (b"zcode 1 8 -1\n", "BadCodeFile"),
    (b"zcode 1 -8 0\n", "BadCodeFile"),
    (b"zcode 1 8 1\n1 0 0 1\n", "BadCodeFile"),
    (b"\xff\xfe\x00zcode", "BadCodeFile"),  # not UTF-8
    (b"zcode 1 0 0\n", "BadCodeFile"),
])
def test_code_verify_malformed_file(data, error, tmp_path, capsys):
    path = tmp_path / "bad.zcode"
    path.write_bytes(data)
    rc, out, err = invoke(capsys, "code", "verify", "--file", str(path))
    assert rc == 1
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {error}:")


def test_usage_error_exit_2(capsys):
    rc, _, _ = invoke(capsys, "no-such-command")
    assert rc == 2
    rc, _, _ = invoke(capsys)
    assert rc == 2


def test_domain_error_exit_1(capsys):
    rc, out, err = invoke(capsys, "extremal", "--n", "7", "--k", "1")
    assert rc == 1
    assert "InvalidLength" in err


# in the exit-2 cases the first option is the offending one
@pytest.mark.parametrize("argv,code", [
    (("extremal", "--n", "24", "--k", "0"), 1),
    (("crossover", "--k", "0", "--from", "8", "--to", "16"), 1),
    (("theorem1", "--k", "0", "--nmax", "16"), 1),
    (("crossover", "--k", "1", "--from", "8", "--to", "4"), 1),
    (("--workers", "0", "crossover", "--k", "1", "--from", "8", "--to", "16"),
     2),
    (("--workers", "-3", "theorem1", "--k", "1", "--nmax", "16"), 2),
    (("e4", "--terms", "0"), 2),
    (("e4", "--terms", "-2"), 2),
    (("asymptotics", "--digits", "5"), 2),
    (("ratio", "--n-list", "24,x", "--k", "1"), 2),
    (("ratio", "--k", "1", "--n-list", "9600,0"), 1),
])
def test_bad_input_one_line_error(argv, code, capsys):
    rc, out, err = invoke(capsys, *argv)
    assert rc == code
    assert out == ""
    if code == 1:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
    else:
        option = next(a for a in argv if a.startswith("--"))
        assert f"argument {option}:" in err


def test_python_m_zktheta():
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-m", "zktheta", "e4", "--terms", "5"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout == "1 240 2160 6720 17520\n"


@pytest.mark.parametrize("argv", [
    ("e4", "--terms", "6"),
    ("--format", "json", "extremal", "--n", "48", "--k", "3"),
    ("--format", "csv", "ratio", "--k", "2", "--n-list", "24,48"),
    ("--format", "json", "asymptotics", "--digits", "20"),
    ("code", "search", "--k", "4"),
])
def test_repeat_invocations_byte_identical(argv, capsys):
    rc1, out1, _ = invoke(capsys, *argv)
    rc2, out2, _ = invoke(capsys, *argv)
    assert rc1 == rc2 == 0
    assert out1 == out2
