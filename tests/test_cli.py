import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from decograph import parse_decorated_graph, serialize_decorated_graph
from decograph.cli import run_command

SRC = Path(__file__).resolve().parent.parent / "src"

WHEEL46 = """\
vertex W : x y z
edge x y
boundary z
alpha x 4
alpha y -4
alpha z 2
beta W x y 6
"""

WHEEL20 = """\
vertex W : x y z
edge x y
boundary z
alpha x 2
alpha y -2
alpha z 2
"""

WHEEL30 = WHEEL20.replace("alpha x 2", "alpha x 3").replace("alpha y -2", "alpha y -3")

FIG_A = """\
vertex A : x y u
vertex B : z w v
edge u v
alpha x 2
alpha y 0
alpha u 0
alpha v 0
alpha z 0
alpha w 2
"""


# vertices a and b joined by x3~y3, and c on its own
TWO_COMPONENTS = """\
vertex a : x1 x2 x3
vertex b : y1 y2 y3
vertex c : z1 z2 z3
edge x3 y3
alpha x1 2
alpha x2 2
alpha x3 -2
alpha y1 0
alpha y2 0
alpha y3 2
alpha z1 2
alpha z2 0
alpha z3 0
"""


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in [
        ("wheel46", WHEEL46), ("wheel20", WHEEL20),
        ("wheel30", WHEEL30), ("fig_a", FIG_A),
    ]:
        p = tmp_path / f"{name}.dg"
        p.write_text(text)
        paths[name] = str(p)
    paths["dir"] = str(tmp_path)
    return paths


class TestValidate:
    def test_ok(self, files, capsys):
        assert run_command(["validate", files["wheel46"]]) == 0
        out = capsys.readouterr().out
        assert "ok: decorated graph" in out and "genus [1]" in out

    def test_missing_file(self, files, capsys):
        assert run_command(["validate", files["dir"] + "/nope.dg"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_syntax_error(self, tmp_path, capsys):
        p = tmp_path / "bad.dg"
        p.write_text("vertex W x y z\n")
        assert run_command(["validate", str(p)]) == 2
        assert "line 1" in capsys.readouterr().err


class TestInvariants:
    def test_json(self, files, capsys):
        assert run_command(["invariants", files["wheel46"], "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["genus"] == 1 and data["a_tilde"] == 2

    def test_plain_text(self, files, capsys):
        assert run_command(["invariants", files["wheel46"]]) == 0
        out = capsys.readouterr().out.splitlines()
        assert "a_tilde: 2" in out and "genus: 1" in out
        assert out == sorted(out)

    def test_needs_decoration(self, tmp_path, capsys):
        p = tmp_path / "bare.dg"
        p.write_text("vertex W : x y z\nedge x y\n")
        assert run_command(["invariants", str(p)]) == 2

    def test_invalid_decoration_exits_2(self, tmp_path, capsys):
        p = tmp_path / "wheel_z7.dg"
        p.write_text(WHEEL30.replace("alpha z 2", "alpha z 7"))
        assert run_command(["invariants", str(p)]) == 2
        assert "alpha sum 7 != 2" in capsys.readouterr().err


class TestEquiv:
    def test_equivalent_pair(self, files, capsys):
        code = run_command(
            ["equiv", files["wheel46"], files["wheel20"], "--map", "z=z"]
        )
        assert code == 0
        assert "equivalent" in capsys.readouterr().out

    def test_inequivalent_pair(self, files, capsys):
        code = run_command(["equiv", files["wheel46"], files["wheel30"]])
        assert code == 1
        assert "not equivalent" in capsys.readouterr().out

    def test_bad_map(self, files, capsys):
        assert run_command(
            ["equiv", files["wheel46"], files["wheel20"], "--map", "zz"]
        ) == 2

    def test_repeated_map_source(self, files, capsys):
        # the last entry alone would be the identity, a valid map
        code = run_command(
            ["equiv", files["wheel46"], files["wheel46"], "--map", "z=q,z=z"]
        )
        assert code == 2
        assert "repeats the source 'z'" in capsys.readouterr().err

    def test_binary_file_is_invalid_input(self, tmp_path, capsys):
        # exit 1 would read as "not equivalent"
        path = tmp_path / "bin.txt"
        path.write_bytes(bytes(range(128, 256)))
        assert run_command(["equiv", str(path), str(path)]) == 2
        assert f"{path}: does not decode as text" in capsys.readouterr().err


class TestTransformers:
    def test_ih_then_validate(self, files, tmp_path, capsys):
        out = str(tmp_path / "moved.dg")
        assert run_command(
            ["ih", files["fig_a"], "--edge", "u-v", "--pairing", "b", "-o", out]
        ) == 0
        assert run_command(["validate", out]) == 0

    def test_ih_bad_edge(self, files, tmp_path):
        out = str(tmp_path / "moved.dg")
        assert run_command(
            ["ih", files["fig_a"], "--edge", "x-y", "--pairing", "b", "-o", out]
        ) == 2

    def test_ih_edge_without_separator(self, files, tmp_path, capsys):
        out = str(tmp_path / "moved.dg")
        assert run_command(
            ["ih", files["fig_a"], "--edge", "uv", "--pairing", "b", "-o", out]
        ) == 2
        assert "bad --edge 'uv'; expected u-v" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_primed_script_no_longer_replays(self, files, tmp_path, capsys):
        # moves keep the edge's names, so a script written when the first
        # move primed them names halves that do not exist
        script = tmp_path / "old.moves"
        script.write_text("IH u-v b\nIH u'-v' c\n")
        out = str(tmp_path / "out.dg")
        assert run_command(["run", files["fig_a"], str(script), "-o", out]) == 2
        err = capsys.readouterr().err
        assert "step 1 failed" in err and "is not an internal edge" in err

    def test_plan_and_run_round_trip(self, files, tmp_path, capsys):
        script = str(tmp_path / "plan.moves")
        result = str(tmp_path / "result.dg")
        assert run_command(
            ["plan", files["wheel46"], files["wheel46"], "-o", script]
        ) == 0
        assert run_command(
            ["run", files["wheel46"], script, "-o", result]
        ) == 0
        g, dec = parse_decorated_graph(open(result).read())
        g0, dec0 = parse_decorated_graph(WHEEL46)
        assert (g, dec) == (g0, dec0)

    def test_plan_two_components_exits_2(self, tmp_path, capsys):
        p = tmp_path / "two.dg"
        p.write_text(
            "vertex V : p q r\nvertex W : x y z\nedge p q\nedge x y\nboundary r z\n"
        )
        out = str(tmp_path / "plan.moves")
        assert run_command(["plan", str(p), str(p), "-o", out]) == 2
        assert "graph has 2 components" in capsys.readouterr().err

    def test_run_binary_script_is_invalid_input(self, files, tmp_path, capsys):
        script = tmp_path / "bin.moves"
        script.write_bytes(b"IH u-v b\n\xff\xfe\n")
        out = str(tmp_path / "out.dg")
        assert run_command(["run", files["fig_a"], str(script), "-o", out]) == 2
        assert f"{script}: does not decode as text" in capsys.readouterr().err

    def test_normalize(self, files, tmp_path, capsys):
        out1 = str(tmp_path / "n1.dg")
        out2 = str(tmp_path / "n2.dg")
        assert run_command(["normalize", files["wheel46"], "-o", out1]) == 0
        rep1 = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert run_command(["normalize", files["wheel20"], "-o", out2]) == 0
        rep2 = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert rep1 == rep2
        assert open(out1).read() == open(out2).read()


class TestOrbitAndDot:
    def test_orbit(self, files, capsys):
        assert run_command(
            ["orbit", files["wheel30"], "--bound", "1", "--depth", "2"]
        ) == 0
        assert "classification constant on orbit: yes" in capsys.readouterr().out

    def test_orbit_check_is_an_internal_error(self, files, capsys, monkeypatch):
        # a classification that varies on the orbit is an internal error
        calls = iter(range(10**6))

        class Varying:
            def key(self):
                return next(calls)

        monkeypatch.setattr("decograph.cli.classify", lambda g, d: Varying())
        assert run_command(
            ["orbit", files["wheel30"], "--bound", "1", "--depth", "1"]
        ) == 3
        err = capsys.readouterr().err
        assert "internal invariant breach: classification not constant" in err

    @pytest.mark.parametrize("flag, value", [("--bound", "-1"), ("--depth", "-5")])
    def test_orbit_rejects_negative_bounds(self, files, capsys, flag, value):
        assert run_command(["orbit", files["wheel30"], flag, value]) == 2
        captured = capsys.readouterr()
        assert f"{flag} must be >= 0, got {value}" in captured.err
        assert "orbit size" not in captured.out

    def test_orbit_rejects_a_disconnected_graph_before_the_walk(self, tmp_path, capsys):
        p = tmp_path / "two.dg"
        p.write_text(TWO_COMPONENTS)
        assert run_command(["orbit", str(p), "--bound", "1", "--depth", "1"]) == 2
        captured = capsys.readouterr()
        assert "graph has 2 components" in captured.err
        assert "orbit size" not in captured.out

    def test_dot_stdout(self, files, capsys):
        assert run_command(["dot", files["wheel46"]]) == 0
        assert capsys.readouterr().out.startswith("graph decorated {")

    def test_dot_file(self, files, tmp_path):
        out = str(tmp_path / "g.dot")
        assert run_command(["dot", files["wheel46"], "-o", out]) == 0
        assert open(out).read().startswith("graph decorated {")

    def test_output_mode_is_that_of_open(self, files, tmp_path):
        # a new file gets 0o666 less the umask; a replaced one keeps its mode
        out = tmp_path / "g.dot"
        old = os.umask(0o022)
        try:
            assert run_command(["dot", files["wheel46"], "-o", str(out)]) == 0
            assert out.stat().st_mode & 0o7777 == 0o644
            out.chmod(0o640)
            assert run_command(["dot", files["wheel46"], "-o", str(out)]) == 0
            assert out.stat().st_mode & 0o7777 == 0o640
        finally:
            os.umask(old)
        assert [p.name for p in tmp_path.iterdir() if p.name.startswith(".tmp-")] == []


class TestByteStability:
    def test_serializer_is_canonical_projection(self, files):
        for key in ("wheel46", "wheel20", "fig_a"):
            g, dec = parse_decorated_graph(open(files[key]).read())
            text = serialize_decorated_graph(g, dec)
            g2, dec2 = parse_decorated_graph(text)
            assert serialize_decorated_graph(g2, dec2) == text


def _python_dash_m(module, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", module, *args],
        env=env, capture_output=True, text=True, timeout=60,
    )


def test_python_dash_m_runs_the_cli(files):
    """``python -m decograph`` runs the command line, with nothing on stderr."""
    proc = _python_dash_m("decograph", "validate", files["wheel46"])
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert proc.stdout.startswith("ok: decorated graph")


def test_python_dash_m_cli_runs_without_warning(files):
    """``python -m decograph.cli`` too: the package does not import cli, so
    runpy prints no RuntimeWarning about finding it in sys.modules."""
    proc = _python_dash_m("decograph.cli", "validate", files["wheel46"])
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert proc.stdout.startswith("ok: decorated graph")
