"""JSON schemas for marked graphs and generator systems, with canonical
round-tripping and path-accurate schema errors."""

from __future__ import annotations

import json
from functools import lru_cache
from importlib import resources
from typing import Any, Dict, List, Sequence

from freefactor import projections as pj, systems as sy
from freefactor.errors import FreefactorError, InvalidAlphabet, InvalidGraph, SchemaError
from freefactor.factors import free_factor_class
from freefactor.raag import SimplicialGraph, simplicial_graph
from freefactor.words import (
    Alphabet,
    GroupMap,
    Word,
    automorphism,
    word_from_str,
    word_to_str,
)


def canonical_dumps(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _expect(obj: Any, kind: type, path: str):
    # JSON true and false load as bool, which Python counts as an int
    if not isinstance(obj, kind) or (kind is int and isinstance(obj, bool)):
        raise SchemaError(f"{path}: expected {kind.__name__}, got {type(obj).__name__}")
    return obj


def _expect_key(obj: Dict, key: str, path: str):
    if key not in obj:
        raise SchemaError(f"{path}: missing key {key!r}")
    return obj[key]


def _parse_alphabet(names: Any, path: str) -> Alphabet:
    _expect(names, list, path)
    try:
        return Alphabet(tuple(_expect(n, str, f"{path}[{i}]") for i, n in enumerate(names)))
    except InvalidAlphabet as exc:
        raise SchemaError(f"{path}: {exc}")


def _parse_word(alphabet: Alphabet, s: Any, path: str) -> Word:
    _expect(s, str, path)
    try:
        return word_from_str(alphabet, s)
    except FreefactorError as exc:
        raise SchemaError(f"{path}: bad word {s!r} ({exc})")


# --- marked graphs ----------------------------------------------------------

def graph_to_json(T: pj.MarkedGraph) -> Dict:
    return {
        "alphabet": list(T.alphabet.names),
        "vertices": T.num_vertices,
        "base": T.base,
        "edges": [
            {"from": u, "to": v, "label": word_to_str(w)} for u, v, w in T.edges
        ],
    }


def graph_from_json(obj: Any, path: str = "graph") -> pj.MarkedGraph:
    _expect(obj, dict, path)
    alphabet = _parse_alphabet(_expect_key(obj, "alphabet", path), f"{path}.alphabet")
    nv = _expect(_expect_key(obj, "vertices", path), int, f"{path}.vertices")
    base = _expect(_expect_key(obj, "base", path), int, f"{path}.base")
    if not (0 <= base < nv):
        raise SchemaError(f"{path}.base: vertex {base} out of range 0..{nv - 1}")
    raw_edges = _expect(_expect_key(obj, "edges", path), list, f"{path}.edges")
    edges = []
    for k, e in enumerate(raw_edges):
        ep = f"{path}.edges[{k}]"
        _expect(e, dict, ep)
        u = _expect(_expect_key(e, "from", ep), int, f"{ep}.from")
        v = _expect(_expect_key(e, "to", ep), int, f"{ep}.to")
        for name, val in (("from", u), ("to", v)):
            if not (0 <= val < nv):
                raise SchemaError(f"{ep}.{name}: vertex {val} out of range 0..{nv - 1}")
        label = _parse_word(alphabet, _expect_key(e, "label", ep), f"{ep}.label")
        edges.append((u, v, label))
    try:
        return pj.MarkedGraph(alphabet, nv, tuple(edges), base)
    except FreefactorError as exc:
        raise SchemaError(f"{path}: invalid marked graph ({exc})")


# --- systems ----------------------------------------------------------------

def gamma_to_json(g: SimplicialGraph) -> Dict:
    return {
        "vertices": list(g.vertices),
        "edges": sorted(sorted(e) for e in map(tuple, g.edges)),
    }


def gamma_from_json(obj: Any, path: str = "gamma") -> SimplicialGraph:
    _expect(obj, dict, path)
    vs = _expect(_expect_key(obj, "vertices", path), list, f"{path}.vertices")
    vs = [_expect(v, str, f"{path}.vertices[{i}]") for i, v in enumerate(vs)]
    raw = _expect(_expect_key(obj, "edges", path), list, f"{path}.edges")
    edges = []
    for k, e in enumerate(raw):
        ep = f"{path}.edges[{k}]"
        _expect(e, list, ep)
        if len(e) != 2:
            raise SchemaError(f"{ep}: expected a 2-element edge")
        u, v = e
        for x in (u, v):
            if x not in vs:
                raise SchemaError(f"{ep}: unknown vertex {x!r}")
        edges.append((u, v))
    try:
        return simplicial_graph(vs, edges)
    except InvalidGraph as exc:
        raise SchemaError(f"{path}: {exc}")


def system_to_json(system: sy.AdmissibleSystem) -> Dict:
    coll = system.collection
    ambient = coll.factors[0].ambient
    return {
        "gamma": gamma_to_json(coll.gamma),
        "ambient_alphabet": list(ambient.names),
        "factors": [
            {"name": name, "gens": [word_to_str(w) for w in A.basis]}
            for name, A in zip(coll.names, coll.factors)
        ],
        "generators": [
            {"name": name, "images": [word_to_str(w) for w in f.images]}
            for name, f in zip(coll.names, system.maps)
        ],
        "power": system.power,
    }


def system_from_json(obj: Any, verify: bool = False, path: str = "system") -> sy.AdmissibleSystem:
    """Rebuild a system; with ``verify`` the admissibility classification and
    all support certificates are recomputed rather than trusted."""
    _expect(obj, dict, path)
    gamma = gamma_from_json(_expect_key(obj, "gamma", path), f"{path}.gamma")
    ambient = _parse_alphabet(
        _expect_key(obj, "ambient_alphabet", path), f"{path}.ambient_alphabet"
    )
    raw_factors = _expect(_expect_key(obj, "factors", path), list, f"{path}.factors")
    if not raw_factors:
        raise SchemaError(f"{path}.factors: a system needs at least one factor")
    names: List[str] = []
    factors = []
    for k, fobj in enumerate(raw_factors):
        fp = f"{path}.factors[{k}]"
        _expect(fobj, dict, fp)
        name = _expect(_expect_key(fobj, "name", fp), str, f"{fp}.name")
        if name not in gamma.vertices:
            raise SchemaError(f"{fp}.name: {name!r} is not a vertex of gamma")
        gens = _expect(_expect_key(fobj, "gens", fp), list, f"{fp}.gens")
        words = [_parse_word(ambient, g, f"{fp}.gens[{i}]") for i, g in enumerate(gens)]
        names.append(name)
        factors.append(free_factor_class(ambient, words))
    if sorted(names) != sorted(gamma.vertices):
        raise SchemaError(f"{path}.factors: names do not match gamma's vertices")

    raw_gens = _expect(_expect_key(obj, "generators", path), list, f"{path}.generators")
    maps: List[GroupMap] = []
    gen_names: List[str] = []
    for k, gobj in enumerate(raw_gens):
        gp = f"{path}.generators[{k}]"
        _expect(gobj, dict, gp)
        gen_names.append(_expect(_expect_key(gobj, "name", gp), str, f"{gp}.name"))
        images = _expect(_expect_key(gobj, "images", gp), list, f"{gp}.images")
        if len(images) != ambient.rank:
            raise SchemaError(f"{gp}.images: expected {ambient.rank} images")
        ws = [_parse_word(ambient, im, f"{gp}.images[{i}]") for i, im in enumerate(images)]
        try:
            maps.append(automorphism(ambient, ws))
        except FreefactorError as exc:
            raise SchemaError(f"{gp}: images are not an automorphism ({exc})")
    if gen_names != names:
        raise SchemaError(f"{path}.generators: names must match factors in order")
    power = _expect(_expect_key(obj, "power", path), int, f"{path}.power")

    if verify:
        collection = sy.verify_admissible(factors, names)
        if collection.gamma.edges != gamma.edges:
            raise SchemaError(f"{path}.gamma: does not match the computed coincidence graph")
        sy.certify_support(collection, maps)
    else:
        classifications = []
        for i in range(len(factors)):
            for j in range(i + 1, len(factors)):
                kind = "disjoint" if gamma.adjacent(names[i], names[j]) else "overlap"
                classifications.append((i, j, kind))
        collection = sy.AdmissibleCollection(
            tuple(names), tuple(factors), gamma, tuple(classifications)
        )
    hyp = tuple(power != 0 for _ in maps)
    return sy.AdmissibleSystem(collection, tuple(maps), power, hyp)


# --- shipped fixtures -------------------------------------------------------

def fixture_path(name: str):
    return resources.files("freefactor") / "fixtures" / f"{name}.json"


@lru_cache(maxsize=None)
def load_fixture(name: str, verify: bool = False) -> sy.AdmissibleSystem:
    """A shipped system, parsed and certified once per process: systems are
    frozen and their maps carry their inverses, so callers can share it.  An
    unknown name raises SchemaError, which is never cached."""
    p = fixture_path(name)
    try:
        text = p.read_text()
    except FileNotFoundError:
        raise SchemaError(f"no shipped fixture named {name!r}")
    return system_from_json(json.loads(text), verify=verify, path=name)


def list_fixtures() -> List[str]:
    folder = resources.files("freefactor") / "fixtures"
    return sorted(f.name[:-5] for f in folder.iterdir() if f.name.endswith(".json"))
