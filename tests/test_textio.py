import random
import re

import pytest

from decograph import (
    FileSyntaxError,
    IhMove,
    MoveScript,
    SemanticError,
    TextError,
    TrivialMod,
    dot_export,
    parse_decorated_graph,
    parse_script,
    serialize_decorated_graph,
    serialize_script,
)
from decograph.moves import with_hashes
from conftest import (
    corpus_decorations,
    random_decoration,
    tree_with_chords,
    wheel_decoration,
)
from test_acceptance import budget

WHEEL_TEXT = """\
# one-vertex wheel
vertex W : x y z
edge x y
boundary z
alpha x 4
alpha y -4
alpha z 2
beta W x y 6
beta W y x 0
beta W z x 0
"""


class TestParse:
    def test_wheel_file(self):
        g, dec = parse_decorated_graph(WHEEL_TEXT)
        assert g.boundary == ("z",)
        # lifts are stored reduced: 6 mod |alpha_x| = 2
        assert dec is not None and dec.a("x") == 4 and dec.b("x", "y") == 2

    def test_bare_graph(self):
        g, dec = parse_decorated_graph("vertex W : x y z\nedge x y\n")
        assert dec is None and g.boundary == ("z",)

    def test_unknown_statement_position(self):
        with pytest.raises(FileSyntaxError) as exc:
            parse_decorated_graph("vertex W : x y z\n  frobnicate a b\n")
        assert exc.value.line == 2 and exc.value.col == 3
        assert "vertex" in exc.value.expected

    def test_bad_integer_position(self):
        with pytest.raises(FileSyntaxError) as exc:
            parse_decorated_graph("vertex W : x y z\nalpha x seven\n")
        assert exc.value.line == 2 and exc.value.col == 9
        assert exc.value.expected == "an integer"

    def test_half_edge_name_with_dash(self):
        # scripts write an edge as <h1>-<h2>, so 'a-b' could not be replayed
        with pytest.raises(FileSyntaxError) as exc:
            parse_decorated_graph("vertex v0 : c a-b d\n")
        assert exc.value.line == 1 and exc.value.col == 15
        assert "without '-'" in exc.value.expected

    def test_missing_colon(self):
        with pytest.raises(FileSyntaxError):
            parse_decorated_graph("vertex W x y z q\n")

    def test_duplicate_vertex(self):
        with pytest.raises(SemanticError, match="duplicate vertex"):
            parse_decorated_graph("vertex W : x y z\nvertex W : p q r\n")

    def test_duplicate_alpha(self):
        text = WHEEL_TEXT + "alpha x 4\n"
        with pytest.raises(SemanticError, match="duplicate alpha"):
            parse_decorated_graph(text)

    def test_beta_without_alpha(self):
        with pytest.raises(SemanticError, match="beta statements require"):
            parse_decorated_graph("vertex W : x y z\nedge x y\nbeta W x y 1\n")

    def test_partial_alpha(self):
        with pytest.raises(SemanticError, match="alpha missing"):
            parse_decorated_graph("vertex W : x y z\nedge x y\nalpha x 1\n")

    def test_beta_at_wrong_vertex(self):
        text = (
            "vertex A : a b c\nvertex B : d e f\nedge c d\n"
            + "".join(f"alpha {h} {v}\n" for h, v in
                      [("a", 1), ("b", 1), ("c", 0), ("d", 0), ("e", 1), ("f", 1)])
            + "beta A a e 0\n"
        )
        with pytest.raises(SemanticError, match="not at vertex"):
            parse_decorated_graph(text)

    def test_invalid_decoration_rejected(self):
        bad = WHEEL_TEXT.replace("alpha z 2", "alpha z 3")
        with pytest.raises(SemanticError, match="invalid decoration"):
            parse_decorated_graph(bad)

    @pytest.mark.parametrize(
        "token", ["\u0663", "1_0", "\uff11", "\u00b2", "+", "--1", "1e3", "0x10"]
    )
    def test_integer_is_sign_and_ascii_digits(self, token):
        # int() alone reads '\u0663' (Arabic-Indic three) as 3 and '1_0' as 10
        with pytest.raises(FileSyntaxError) as exc:
            parse_decorated_graph(f"vertex W : x y z\nalpha  x {token}\n")
        assert (exc.value.line, exc.value.col) == (2, 10)
        assert exc.value.expected == "an integer"
        with pytest.raises(FileSyntaxError) as exc:
            parse_decorated_graph(f"vertex W : x y z\nbeta W x y {token}\n")
        assert (exc.value.line, exc.value.col) == (2, 12)
        with pytest.raises(FileSyntaxError, match="an integer"):
            parse_script(f"V v0 {token}\n")

    def test_signed_and_padded_integers(self):
        text = WHEEL_TEXT.replace("alpha x 4", "alpha x +04").replace(
            "beta W x y 6", "beta W x y -0006"
        )
        assert parse_decorated_graph(text) == parse_decorated_graph(
            WHEEL_TEXT.replace("beta W x y 6", "beta W x y -6")
        )
        assert parse_script("V v0 +007\nE z -12\n").steps == (
            TrivialMod("V", "v0", 7), TrivialMod("E", "z", -12)
        )

    def test_too_many_digits_is_not_an_integer(self):
        with pytest.raises(FileSyntaxError, match="an integer"):
            parse_decorated_graph("vertex W : x y z\nalpha x " + "9" * 5000 + "\n")

    @pytest.mark.parametrize(
        "sep", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029", "\r"]
    )
    def test_lines_end_at_newline_only(self, sep):
        # str.splitlines would end a line at sep too
        with pytest.raises(FileSyntaxError) as exc:
            parse_decorated_graph(f"vertex v0 : a b c{sep}alpha a 1\n")
        assert (exc.value.line, exc.value.col) == (1, 19)
        assert exc.value.expected == "'vertex <name> : <h1> <h2> <h3>'"
        # inside a comment, sep does not end the comment
        g, dec = parse_decorated_graph(f"vertex W : x y z # a{sep}frobnicate\nedge x y\n")
        assert dec is None and g.boundary == ("z",)
        with pytest.raises(FileSyntaxError) as exc:
            parse_script(f"V v0 1{sep}E z 1\n")
        assert exc.value.line == 1
        assert parse_script(f"V v0 1 # a{sep}E\n").steps == (TrivialMod("V", "v0", 1),)

    def test_crlf_files_parse_as_lf(self):
        crlf = WHEEL_TEXT.replace("\n", "\r\n")
        assert parse_decorated_graph(crlf) == parse_decorated_graph(WHEEL_TEXT)
        with pytest.raises(FileSyntaxError) as exc:
            parse_decorated_graph(crlf.replace("alpha y -4", "alpha y four"))
        assert (exc.value.line, exc.value.col) == (6, 9)
        script = "V W 1  # c\r\nIH x-y b\r\n"
        assert parse_script(script) == parse_script(script.replace("\r", ""))

    def test_missing_beta_defaults_to_zero(self):
        text = "\n".join(
            line for line in WHEEL_TEXT.splitlines() if not line.startswith("beta")
        )
        g, dec = parse_decorated_graph(text)
        assert dec.b("x", "y") == 0


class TestSerialize:
    def test_round_trip_byte_stable(self):
        g, dec = parse_decorated_graph(WHEEL_TEXT)
        text = serialize_decorated_graph(g, dec)
        g2, dec2 = parse_decorated_graph(text)
        assert (g2, dec2) == (g, dec)
        assert serialize_decorated_graph(g2, dec2) == text

    def test_corpus_round_trips(self):
        for g, dec in corpus_decorations(seed=11, per_graph=2):
            text = serialize_decorated_graph(g, dec)
            g2, dec2 = parse_decorated_graph(text)
            assert (g2, dec2) == (g, dec)
            assert serialize_decorated_graph(g2, dec2) == text

    def test_bare_round_trip(self):
        g, _ = parse_decorated_graph("vertex W : x y z\nedge x y\n")
        text = serialize_decorated_graph(g)
        g2, dec2 = parse_decorated_graph(text)
        assert dec2 is None and g2 == g


class TestRoundTripAtScale:
    def test_round_trips_in_linear_time(self):
        # 0.10-0.15 s on a 2-vCPU VM, Python 3.11; the budget is 5x that, and
        # a parser that turns superlinear in the v=2000 text blows it
        rng = random.Random(5)
        cases = []
        for v, genus in ((4, 1), (200, 10), (2000, 40)):
            g = tree_with_chords(rng, v, genus)
            cases.append((g, random_decoration(g, rng)))
        with budget(0.6):
            for g, dec in cases:
                text = serialize_decorated_graph(g, dec)
                assert parse_decorated_graph(text) == (g, dec)
                assert serialize_decorated_graph(*parse_decorated_graph(text)) == text
                assert parse_decorated_graph(serialize_decorated_graph(g)) == (g, None)


class TestScripts:
    def test_round_trip(self):
        script = MoveScript(
            (
                TrivialMod("V", "A", 2),
                TrivialMod("I", ("u", "v"), -1),
                TrivialMod("E", "x", 3),
                IhMove(("u", "v"), "c"),
            )
        )
        text = serialize_script(script)
        assert parse_script(text) == script

    def test_hashes_survive(self):
        g, dec = wheel_decoration(3, 1)
        script = with_hashes(g, dec, MoveScript((TrivialMod("V", "W", 1),)))
        text = serialize_script(script)
        back = parse_script(text)
        assert back.hashes == script.hashes

    def test_bad_step(self):
        with pytest.raises(FileSyntaxError):
            parse_script("Q foo 1\n")
        with pytest.raises(FileSyntaxError):
            parse_script("IH u-v q\n")

    @pytest.mark.parametrize(
        "step", [IhMove(("a-b", "e"), "b"), TrivialMod("I", ("a", "b-e"), 1)]
    )
    def test_edge_with_dash_is_not_written(self, step):
        # 'IH a-b-e b' would parse back as the edge ('a', 'b-e')
        with pytest.raises(TextError, match="containing '-'"):
            serialize_script(MoveScript((step,)))

    def test_empty(self):
        assert parse_script("") == MoveScript(())
        assert serialize_script(MoveScript(())) == ""


class TestDot:
    def test_wheel_dot(self):
        g, dec = parse_decorated_graph(WHEEL_TEXT)
        out = dot_export(g, dec)
        assert out.startswith("graph decorated {")
        assert '"W" -- "W"' in out  # the loop
        assert "ext_z" in out and "a=2" in out

    def test_bare_dot_has_no_alpha(self):
        g, _ = parse_decorated_graph("vertex W : x y z\nedge x y\n")
        assert "a=" not in dot_export(g)

    def test_quotes_and_backslashes_are_escaped(self):
        text = 'vertex v"0 : a"b c\\ d\nalpha a"b 2\nalpha c\\ 0\nalpha d 0\n'
        g, dec = parse_decorated_graph(text)
        quoted = re.compile(r'"(?:[^"\\]|\\.)*"')
        for out in (dot_export(g, dec), dot_export(g)):
            assert '"v\\"0"' in out and '"ext_a\\"b"' in out and '"ext_c\\\\"' in out
            # every quoted string closes on its line
            for line in out.splitlines():
                assert '"' not in quoted.sub("", line), line
