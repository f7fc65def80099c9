import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import zktheta
from zktheta.cli import run
from zktheta.codes import search_c8
from zktheta.extremal import profile

SRC = Path(__file__).resolve().parents[1] / "src"


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


def test_theorem1_k9_small_lengths_pass(capsys):
    # f_9's leading exponent 81/36 lies past the window at n = 8 and 16
    rc, out, _ = invoke(capsys, "theorem1", "--k", "9", "--nmax", "24")
    assert rc == 0
    assert out.splitlines()[-1].split() == ["all_pass", "True"]


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


_C8 = (b"zcode 1 8 4\n1 0 0 0 0 1 1 1\n0 1 0 0 1 0 1 1\n"
       b"0 0 1 0 1 1 0 1\n0 0 0 1 1 1 1 0\n")


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
    # a valid Type II [8, 4] code followed by rows past the header's rank
    (_C8 + b"1 0 0 0 0 1 1 1\n", "BadCodeFile"),
    (_C8 + b"junk x y\n", "BadCodeFile"),
    # 19 bytes asking for one zero word of 80000001 entries
    (b"zcode 1 80000001 0\n", "TooLarge"),
    # exactly at the entry guard, but longer than any code enumerated
    (b"zcode 1 80000000 0\n", "TooLarge"),
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
    env = {**os.environ, "PYTHONPATH": str(SRC)}
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


@pytest.mark.parametrize("k", [1, 3, 6])
def test_extremal_table_matches_profile(k, capsys):
    header = ["n", "k", "j", "mu", "nu", "beta1", "beta2"]
    for n in (8, 16, 24, 96, 104, 112, 552):
        prof = profile(n, k)
        row = [str(v) for v in (n, k, prof.j, prof.mu, prof.nu,
                                prof.beta1, prof.beta2)]
        argv = ("extremal", "--n", str(n), "--k", str(k))
        rc, out, _ = invoke(capsys, "--format", "csv", *argv)
        assert rc == 0
        assert out.splitlines() == [",".join(header), ",".join(row)]
        rc, out, _ = invoke(capsys, *argv)
        assert rc == 0
        assert [line.split() for line in out.splitlines()] == [header, row]


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
@pytest.mark.parametrize("n,k,line", [
    (12, 1, "error: InvalidLength: length 12 is not a positive multiple of 8"),
    (0, 1, "error: InvalidLength: length 0 is not a positive multiple of 8"),
    (24, 0, "error: InvalidModulus: k must be >= 1, got 0"),
])
def test_extremal_bad_input_line(fmt, n, k, line, capsys):
    rc, out, err = invoke(capsys, "--format", fmt,
                          "extremal", "--n", str(n), "--k", str(k))
    assert (rc, out, err) == (1, "", line + "\n")


FOOTPRINT = """
import io, sys
before = set(sys.modules)
from zktheta import cli
sys.stdout = io.StringIO()
for argv in (["e4", "--terms", "1"], ["code", "search", "--k", "2"],
             ["extremal", "--n", "24", "--k", "1"],
             ["--workers", "1", "crossover", "--k", "1", "--from", "8",
              "--to", "48"]):
    assert cli.run(argv) == 0, argv
loaded = sorted({"mpmath", "concurrent.futures", "zktheta.asymptotics",
                 "dataclasses", "inspect"} & (set(sys.modules) - before))
assert cli.run(["asymptotics", "--digits", "15"]) == 0
sys.__stdout__.write(repr((loaded, "mpmath" in sys.modules)))
"""


def test_subcommands_import_only_their_layers():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", FOOTPRINT],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == repr(([], True))


NO_FRACTIONS = """
import io, sys
from zktheta import cli
sys.stdout = io.StringIO()
for argv in (["e4", "--terms", "5"], ["extremal", "--n", "2400", "--k", "1"],
             ["crossover", "--k", "1", "--from", "24", "--to", "48"],
             ["theorem1", "--k", "6", "--nmax", "240"]):
    assert cli.run(argv) == 0, argv
sys.__stdout__.write(repr("fractions" in sys.modules))
"""


def test_integral_answers_import_no_fractions():
    # integral truncations stay ints, so answers whose exponents are all
    # integers never load fractions (nor decimal and numbers under it)
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", NO_FRACTIONS],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False"


SADDLE_FOOTPRINT = """
import io, sys
from zktheta import cli
sys.stdout = io.StringIO()
assert cli.run(["asymptotics", "--digits", "15"]) == 0
sys.__stdout__.write(repr(sorted(m for m in sys.modules
                                 if m.startswith("zktheta."))))
"""


def test_asymptotics_loads_no_exact_layer():
    # the saddle data are closed forms; only `ratio` needs the exact layers
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", SADDLE_FOOTPRINT],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == repr(["zktheta.asymptotics", "zktheta.cli",
                                "zktheta.errors"])


def test_lazy_exports_are_the_submodule_objects():
    for name in zktheta.__all__:
        obj = getattr(zktheta, name)
        assert obj.__module__.startswith("zktheta.")
        assert obj is getattr(sys.modules[obj.__module__], name)
    from zktheta import find_saddle
    assert find_saddle is zktheta.asymptotics.find_saddle
    with pytest.raises(AttributeError):
        zktheta.no_such_name


def test_public_annotations_resolve():
    # typing.get_type_hints evaluates every annotation in its module, so a
    # type imported only inside a function raises NameError here
    import importlib
    import inspect
    import typing
    for layer in ("series", "modforms", "extremal", "codes", "asymptotics",
                  "cli"):
        module = importlib.import_module(f"zktheta.{layer}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) \
                    != module.__name__:
                continue
            if inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if inspect.isfunction(member) and not attr.startswith("_"):
                        typing.get_type_hints(member)
                    elif isinstance(member, classmethod):
                        typing.get_type_hints(member.__func__)
            elif inspect.isfunction(obj):
                typing.get_type_hints(obj)


BENCH = SRC.parent / "perfbench"


@pytest.mark.parametrize("argv,exact", [
    (["--workers", "1", "crossover", "--k", "1", "--from", "4800",
      "--to", "4848"], True),
    (["theorem1", "--k", "6", "--nmax", "240"], True),
    (["extremal", "--n", "2400", "--k", "3"], True),
    (["code", "search", "--k", "2"], False),
])
def test_benchmark_tracer_keeps_stdout(argv, exact, tmp_path):
    # the benchmark runs each invocation through perfbench/child.py, which
    # with --trace patches the layers from outside the package (the
    # FracSeries constructor and every public function): a traced child
    # must exit 0 and print what an untraced one prints
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = {}
    for traced in (False, True):
        stats = tmp_path / f"stats{int(traced)}.json"
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), "--stats-out",
             str(stats), *(["--trace"] if traced else []), "--", *argv],
            cwd=SRC.parent, env=env, capture_output=True, timeout=120)
        assert proc.returncode == 0, (traced, proc.stderr.decode())
        out[traced] = proc.stdout
    assert out[True] == out[False]
    if exact:
        assert json.loads(stats.read_text())["layers"]["series.mul.calls"] > 0
