"""Counts in the source that may only go down."""

import ast
import random
import re
from pathlib import Path

from freefactor import experiments, projections, serialize, words
from freefactor.errors import FreefactorError
from oracles import inverts

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "freefactor"

# internal invariants only: a precondition on input raises a typed
# FreefactorError, which unlike an assert survives ``python -O``
MAX_ASSERTS = 11


def test_assert_count():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert len(found) <= MAX_ASSERTS, f"{len(found)} asserts in src/freefactor: {found}"


def _is_object_setattr(node) -> bool:
    func = node.func
    return (
        isinstance(func, ast.Attribute) and func.attr == "__setattr__"
        and isinstance(func.value, ast.Name) and func.value.id == "object"
    )


# the builders that fill a frozen object's fields through its ``__dict__``,
# by file: the unchecked builders of words, maps and marked graphs, and the
# one deferred fill, a power's inverse images built on their first read
DICT_WRITERS = {"words.py": {"_word", "_map", "inverse_images"}, "projections.py": {"_marked"}}


def _within(tree, names):
    return {
        id(node)
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef) and fn.name in names
        for node in ast.walk(fn)
    }


def test_frozen_fields_set_only_while_built():
    # a frozen object written after it is built changes under every holder:
    # a map certified in place is or is not an automorphism depending on
    # which calls ran first.  Any use of ``__dict__`` counts, so a write
    # through ``x.__dict__[k] = v``, ``x.__dict__.update(...)`` or a name
    # bound to ``x.__dict__`` is caught alike
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text())
        building = _within(tree, {"__post_init__"})
        writers = _within(tree, DICT_WRITERS.get(path.name, set()))
        found += [
            f"{path.name}:{node.lineno} object.__setattr__"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and _is_object_setattr(node) and id(node) not in building
        ]
        found += [
            f"{path.name}:{node.lineno} __dict__"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "__dict__" and id(node) not in writers
        ]
    assert found == [], f"frozen fields set outside their builders: {found}"


# the builders that fill a word's or a map's fields unchecked, the letter
# lists they multiply, and a map's inverse as stored, which may be a recipe: a
# module that uses them multiplies maps its own way, or reads a recipe where
# it expects letters (``certified`` asks without building them)
WORDS_PRIVATE = {"_map", "_compose_letters", "_letters", "_words", "_inverse", "_Power"}


def _words_private_uses(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "freefactor.words":
            yield from ((node.lineno, a.name) for a in node.names if a.name in WORDS_PRIVATE)
        elif isinstance(node, ast.Attribute) and node.attr in WORDS_PRIVATE:
            yield node.lineno, node.attr


def test_maps_multiplied_only_in_words():
    found = [
        f"{path.name}:{lineno} {name}"
        for path in sorted(PACKAGE.rglob("*.py"))
        if path.name != "words.py"
        for lineno, name in _words_private_uses(ast.parse(path.read_text()))
    ]
    assert found == [], f"words' private builders used outside words: {found}"


def test_map_power_builds_one_map(monkeypatch):
    # squaring on letter lists: a map built per squaring or multiply would
    # show here as more calls to the one builder of certified maps, or as
    # calls to the public constructor
    f = serialize.load_fixture("pentagon-f5").maps[0]
    built, public = [], []
    build = words._map

    def counting(*args):
        built.append(build(*args))
        return built[-1]

    monkeypatch.setattr(words, "_map", counting)
    monkeypatch.setattr(words.GroupMap, "__post_init__", public.append)
    power = words.map_power(f, 12)
    assert len(built) == 1 and built[0] is power and public == []
    assert power.inverse_images is not None


def _count_power_letters(monkeypatch):
    chains = []
    square = words._power_letters

    def counting(images, n):
        chains.append(n)
        return square(images, n)

    monkeypatch.setattr(words, "_power_letters", counting)
    return chains


def test_power_builds_its_inverse_on_first_read(monkeypatch):
    # most powers are only applied: their inverse chain is squared when
    # something reads it, once, and asking whether they are certified reads
    # nothing
    f = serialize.load_fixture("pentagon-f5").maps[0]
    chains = _count_power_letters(monkeypatch)
    power = words.map_power(f, 8)
    assert chains == [8] and power.certified
    assert power.inverse_hint is not None and chains == [8, 8]
    assert power.inverse_images is power.inverse_images and chains == [8, 8]
    # a power of an unread power squares f's inverse letters once, to the
    # product of the exponents
    chains.clear()
    outer = words.map_power(words.map_power(f, 2), 3)
    assert chains == [2, 3] and outer.certified
    assert outer.inverse_images is not None and chains == [2, 3, 6]


def test_fold_inverts_only_compared_ends(monkeypatch):
    # each arc keeps one label: a backward end is read inverted only when it
    # meets another end with its first letter, and one-letter loops meet none
    calls = []
    invert = words._inverse_letters
    monkeypatch.setattr(words, "_inverse_letters", lambda w: calls.append(w) or invert(w))
    num_vertices, arcs = words.fold_arcs(
        [(1,), (2,), (3,)], ((1, 0), (0, 1), (1, 1)),
        lambda c, d: (c[0] + d[0], c[1] + d[1]), lambda c: (-c[0], -c[1]), (0, 0),
    )
    assert (num_vertices, len(arcs)) == (1, 3)
    assert calls == []


def test_seed_powers_build_images_only(monkeypatch):
    # a fixture's maps are read as they are, with no power of their own
    chains = _count_power_letters(monkeypatch)
    serialize.load_fixture.__wrapped__("pentagon-f5")
    assert chains == []


def test_path_projects_each_tree_once():
    # one projection pass per tree and factor: a lookup at both ends of every
    # step would show here as 2N calls for N + 1 trees
    system = serialize.load_fixture("pentagon-f5")
    trees = experiments._power_path(system.maps[0], 6)
    assert len(set(trees)) == len(trees)
    path = projections.TreePath(tuple(trees))

    def lookups(run):
        info = projections.project_tree.cache_info()
        before = info.hits + info.misses
        try:
            run()
        except FreefactorError:
            pass  # a threshold refusal comes after the projections
        info = projections.project_tree.cache_info()
        return info.hits + info.misses - before

    for A in system.collection.factors:
        assert lookups(lambda: path.step_bound(A)) == len(trees)
        assert lookups(lambda: projections.interval_of(path, A, 1, 1)) == len(trees)


def test_projection_miss_builds_no_map(monkeypatch):
    # a miss reads the marking's inverse letters as they are stored, without
    # building the inverse map around them
    system = serialize.load_fixture("pentagon-f5")
    T = experiments.random_tree(random.Random(7), system.collection.factors[0].ambient, 12)
    built = []
    build = words._map
    monkeypatch.setattr(words, "_map", lambda *args: built.append(args) or build(*args))
    for A in system.collection.factors:
        projections.project_tree.__wrapped__(A, T)
    assert built == []


def test_random_automorphism_substitutes_moved_images_only(monkeypatch):
    # a transvection moves one of its n images; the others are one positive
    # letter each and read their piece as it is, so m draws substitute at
    # most once per draw for the images and once for the inverse images
    calls = []
    substitute = words.substitute
    monkeypatch.setattr(words, "substitute", lambda w, pieces: calls.append(w) or substitute(w, pieces))
    F5 = serialize.load_fixture("pentagon-f5").collection.factors[0].ambient
    for seed in range(20):
        m = random.Random(seed).randint(0, 12)
        calls.clear()
        f = experiments.random_automorphism(random.Random(seed), F5, 12)
        assert len(calls) <= 2 * m, (seed, m, len(calls))
        assert inverts(f)


# the public graph JSON schema and the alphabet helper, which the library
# offers but does not call itself
UNCALLED = {"graph_to_json", "graph_from_json", "abc_alphabet"}


def _is_command(node) -> bool:
    # ``@main.command(...)`` hands the function to click, which calls it
    return any(
        isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute) and d.func.attr == "command"
        and isinstance(d.func.value, ast.Name) and d.func.value.id == "main"
        for d in node.decorator_list
    )


def test_src_definitions_have_a_library_caller():
    # a function, class or method that only tests call is code the program
    # never runs: each name must appear in the library or the benchmark
    # somewhere other than the line that defines it
    seen = {}
    for path in sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")):
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            for name in re.findall(r"\w+", line):
                seen.setdefault(name, set()).add((path, lineno))
    found = [
        f"{path.name}:{node.lineno} {node.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in UNCALLED and not _is_command(node)
        and not seen[node.name] - {(path, node.lineno)}
    ]
    assert found == [], f"definitions with no caller in src/freefactor or perfbench: {found}"
