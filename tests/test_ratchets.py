"""Counts in the source that may only go down."""

import ast
from pathlib import Path

from freefactor import experiments, projections, serialize, words
from freefactor.errors import FreefactorError

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "freefactor"

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


def test_frozen_fields_set_only_while_built():
    # a frozen object written after it is built changes under every holder:
    # a map certified in place is or is not an automorphism depending on
    # which calls ran first
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text())
        building = {
            id(node)
            for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef) and fn.name == "__post_init__"
            for node in ast.walk(fn)
        }
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and _is_object_setattr(node) and id(node) not in building
        ]
    assert found == [], f"object.__setattr__ outside __post_init__: {found}"


# the builders that fill a word's or a map's fields unchecked, and the letter
# lists they multiply: a module that imports them multiplies maps its own way
WORDS_PRIVATE = {"_map", "_compose_letters", "_letters", "_words"}


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
