"""A bounded sweep of every CLI command on generated input, run in-process.

Each example calls ``main.main(args, standalone_mode=False)`` with standard
output and error captured.  Whatever the input, a command ends with exit code
0, 1 (a failed check or ``FAIL:``), 2 (one ``error:`` line on stderr) or 3
(power-insufficient), and never with a traceback: any other exception fails
the test with its own.
"""

import contextlib
import io

from hypothesis import given, settings
from hypothesis import strategies as st

from freefactor import experiments as ex, serialize as se
from freefactor.cli import main

# names a word can spell, and now and then one it cannot
SPELLED = st.sampled_from(["a", "b", "c", "d", "v0", "x1"])
NAMES = st.one_of(SPELLED, st.text(alphabet="ab1 ^-/", max_size=3))
# two lists of distinct spelled names to one of arbitrary names
NAME_LISTS = st.one_of(
    st.lists(SPELLED, min_size=1, max_size=4, unique=True),
    st.lists(SPELLED, min_size=2, max_size=4, unique=True),
    st.lists(NAMES, min_size=1, max_size=4),
)
EXPONENTS = st.integers(-3, 3)


@st.composite
def words(draw, names, max_tokens=4):
    """A word over ``names``, now and then with a token no alphabet reads."""
    tokens = []
    for _ in range(draw(st.integers(0, max_tokens))):
        if draw(st.integers(0, 9)):
            name, e = draw(st.sampled_from(names)), draw(EXPONENTS)
            tokens.append(name if e == 1 else f"{name}^{e}")
        else:
            tokens.append(draw(st.text(alphabet="ab^-1x", min_size=1, max_size=4)))
    return " ".join(tokens)


def word_lists(names, max_words=3):
    return st.lists(words(names), min_size=0, max_size=max_words).map(", ".join)


@st.composite
def graph_options(draw):
    vertices = draw(NAME_LISTS)
    ends = st.sampled_from(vertices + ["z"])
    edges = draw(st.lists(st.tuples(ends, ends), max_size=6))
    return vertices, ["--vertices", ",".join(vertices), "--edges", ",".join(f"{u}-{v}" for u, v in edges)]


@st.composite
def word_commands(draw):
    vertices, options = draw(graph_options())
    return [draw(st.sampled_from(["normal-form", "syl-order"])), *options, draw(words(vertices, 6))]


@st.composite
def graph_commands(draw):
    _, options = draw(graph_options())
    return [draw(st.sampled_from(["support-graph", "complexity"])), *options]


@st.composite
def subgroup_commands(draw):
    letters = draw(NAME_LISTS)
    cmd = draw(st.sampled_from(["fold", "intersect", "meet", "overlap"]))
    args = [draw(word_lists(letters)) for _ in range(1 if cmd == "fold" else 2)]
    return [cmd, "--letters", ",".join(letters), *args]


@st.composite
def markings(draw, letters):
    """Empty (the rose), a permutation of the letters, or arbitrary images."""
    kind = draw(st.integers(0, 2))
    if kind == 0:
        return ""
    if kind == 1:
        return ", ".join(draw(st.permutations(letters)))
    return draw(word_lists(letters, len(letters) + 1))


@st.composite
def projection_commands(draw):
    """Mostly a factor spanned by two letters, where projections are defined."""
    letters = draw(NAME_LISTS)
    if len(letters) > 1 and draw(st.integers(0, 2)):
        factor = ", ".join(draw(st.permutations(letters))[:2])
    else:
        factor = draw(word_lists(letters))
    options = ["--letters", ",".join(letters), "--factor", factor, "--marking", draw(markings(letters))]
    if draw(st.booleans()):
        return ["project", *options]
    return ["dist", *options, "--marking2", draw(markings(letters))]


VERTICES = st.one_of(
    st.builds(lambda p, q: f"{p}/{q}", st.integers(-40, 40), st.integers(-40, 40)),
    st.text(alphabet="0123456789/-x", max_size=6),
)
FAREY_COMMANDS = st.builds(lambda u, v: ["farey-dist", u, v], VERTICES, VERTICES)

FIXTURES = st.sampled_from(se.list_fixtures() + ["no-such-fixture"])
VERIFY_COMMANDS = st.builds(
    lambda name: ["verify-system", name], st.one_of(FIXTURES, st.just("./missing.json"))
)


def counts(lo, hi):
    """An integer option's text: mostly in [lo, hi], now and then no integer."""
    return st.one_of(st.integers(lo, hi).map(str), st.integers(lo, hi).map(str),
                     st.text(alphabet="-1x", max_size=2))


@st.composite
def run_commands(draw):
    args = ["run", "--mode", draw(st.sampled_from(ex.MODES + ("no-such-mode",))), "--fixture", draw(FIXTURES),
            "--seed", draw(counts(-2, 50)), "--samples", draw(counts(-1, 2))]
    power = draw(st.one_of(st.none(), counts(-1, 2)))
    return args if power is None else args + ["--power", power]


COMMANDS = st.one_of(
    word_commands(), graph_commands(), subgroup_commands(), projection_commands(),
    FAREY_COMMANDS, VERIFY_COMMANDS, run_commands(),
)


def invoke(args):
    """(exit code, stdout, stderr) of one in-process command."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            main.main(args, prog_name="freefactor", standalone_mode=False)
        code = 0
    except SystemExit as exc:
        code = exc.code or 0
    return code, out.getvalue(), err.getvalue()


def test_every_command_covered():
    swept = {"normal-form", "syl-order", "support-graph", "complexity", "fold", "intersect",
             "meet", "overlap", "project", "dist", "farey-dist", "verify-system", "run"}
    assert swept == set(main.commands)


@settings(max_examples=250, derandomize=True, database=None, deadline=None)
@given(COMMANDS)
def test_sweep(args):
    code, out, err = invoke(args)
    assert code in (0, 1, 2, 3), (args, code)
    assert "Traceback" not in out + err
    if code == 2:
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: "), (args, err)
