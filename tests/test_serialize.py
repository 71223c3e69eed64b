import gc
import itertools
import json
import random
import re
import time

import pytest

from freefactor import experiments as ex, factors as fa, projections as pj, serialize as se, systems as sy, words
from freefactor.errors import InvalidMarking, SchemaError
from freefactor.words import abc_alphabet, compose_map, identity_map, invert_automorphism, word_from_str


def _short_words_only(monkeypatch):
    """Refuse, by an error that names it, any word spelled out to more than
    a million letters before it is reduced."""
    reduce_raw = words.reduce_raw

    def guarded(alphabet, raw):
        if len(raw) > 10 ** 6:
            raise AssertionError(f"a word of {len(raw)} letters was spelled out")
        return reduce_raw(alphabet, raw)

    monkeypatch.setattr(words, "reduce_raw", guarded)


class TestGraphRoundTrip:
    def test_rose(self):
        T = pj.rose(abc_alphabet(3))
        obj = se.graph_to_json(T)
        back = se.graph_from_json(obj)
        assert back == T
        assert se.graph_to_json(back) == obj

    def test_theta(self):
        A2 = abc_alphabet(2)
        T = pj.MarkedGraph(
            A2,
            2,
            (
                (0, 1, word_from_str(A2, "a")),
                (0, 1, word_from_str(A2, "b")),
                (0, 1, word_from_str(A2, "b a")),
            ),
            0,
        )
        assert se.graph_from_json(se.graph_to_json(T)) == T

    def test_bad_edge_vertex(self):
        T = pj.rose(abc_alphabet(2))
        obj = se.graph_to_json(T)
        obj["edges"][1]["to"] = 7
        with pytest.raises(SchemaError) as e:
            se.graph_from_json(obj)
        assert "edges[1].to" in str(e.value)

    def test_bad_word_token(self):
        T = pj.rose(abc_alphabet(2))
        obj = se.graph_to_json(T)
        obj["edges"][0]["label"] = "z q"
        with pytest.raises(SchemaError) as e:
            se.graph_from_json(obj)
        assert "edges[0].label" in str(e.value)

    def test_exponent_beyond_bound(self, monkeypatch):
        # refused before the label is spelled out: a^10000000 is ten
        # million letters to reduce
        obj = se.graph_to_json(pj.rose(abc_alphabet(2)))
        obj["edges"][1]["label"] = "a^10000000 b"
        _short_words_only(monkeypatch)
        start = time.perf_counter()
        with pytest.raises(SchemaError) as e:
            se.graph_from_json(obj)
        assert time.perf_counter() - start < 0.1
        assert str(e.value) == (
            "graph.edges[1].label: bad word 'a^10000000 b' "
            f"(exponent 10000000 in 'a^10000000' is beyond the bound {words.MAX_EXPONENT})"
        )

    def test_inverse_token(self):
        T = pj.rose(abc_alphabet(2))
        obj = se.graph_to_json(T)
        obj["edges"][0]["label"] = "b a^-1 a b^-1 a"
        back = se.graph_from_json(obj)
        assert str(back.edges[0][2]) == "a"

    def test_labels_that_do_not_generate_refused(self):
        # a transformed rose read back from JSON is checked again, in full
        A2 = abc_alphabet(2)
        f = invert_automorphism(ex.random_automorphism(random.Random(3), A2, 4))
        obj = se.graph_to_json(pj.transform_marked(f, pj.rose(A2)))
        obj["edges"][1]["label"] = obj["edges"][0]["label"]
        with pytest.raises(SchemaError) as e:
            se.graph_from_json(obj)
        assert isinstance(e.value.__context__, InvalidMarking)

    def test_valence_one_vertex_refused_under_optimize(self, run_optimized):
        # rank 2, Betti 2, but vertex 1 hangs off a single edge
        obj = {
            "alphabet": ["a", "b"],
            "vertices": 2,
            "base": 0,
            "edges": [
                {"from": 0, "to": 0, "label": "a"},
                {"from": 0, "to": 0, "label": "b"},
                {"from": 0, "to": 1, "label": "a"},
            ],
        }
        out = run_optimized(
            "from freefactor import serialize as se\n"
            "from freefactor.errors import InvalidMarking, SchemaError\n"
            "try:\n"
            f"    se.graph_from_json({obj!r})\n"
            "except SchemaError as exc:\n"
            "    print(exc)\n"
        )
        assert "valence" in out

    def test_disconnected_graph_refused_under_optimize(self, run_optimized):
        # rank 1 and Betti 1, every valence 2, but two components
        obj = {
            "alphabet": ["a"],
            "vertices": 2,
            "base": 0,
            "edges": [
                {"from": 0, "to": 0, "label": "a"},
                {"from": 1, "to": 1, "label": "a"},
            ],
        }
        with pytest.raises(SchemaError, match="connected"):
            se.graph_from_json(obj)
        out = run_optimized(
            "from freefactor import serialize as se\n"
            "from freefactor.errors import InvalidMarking, SchemaError\n"
            "try:\n"
            f"    se.graph_from_json({obj!r})\n"
            "except SchemaError as exc:\n"
            "    print(exc)\n"
        )
        assert "connected" in out

    def test_missing_key(self):
        with pytest.raises(SchemaError) as e:
            se.graph_from_json({"alphabet": ["a"]})
        assert "vertices" in str(e.value)


class TestBooleansAreNotIntegers:
    """JSON true and false load as bool, which Python counts as an int: a
    rose read with them would be written back with them."""

    @pytest.mark.parametrize("field, value", [("vertices", True), ("base", False), ("edges[0].from", False)])
    def test_graph_field(self, field, value):
        obj = se.graph_to_json(pj.rose(abc_alphabet(2)))
        if field == "edges[0].from":
            obj["edges"][0]["from"] = value
        else:
            obj[field] = value
        with pytest.raises(SchemaError, match=rf"^graph\.{re.escape(field)}: expected int, got bool$"):
            se.graph_from_json(obj)

    def test_system_power(self):
        obj = json.loads(se.fixture_path("overlap-chain-f3").read_text())
        obj["power"] = True
        with pytest.raises(SchemaError, match=r"^system\.power: expected int, got bool$"):
            se.system_from_json(obj, verify=True)


class TestFixtures:
    def test_shipped_list(self):
        names = se.list_fixtures()
        assert {"pentagon-f5", "pentagon-support-f6", "overlap-chain-f3"} <= set(names)

    def test_roundtrip_byte_identical(self):
        for name in se.list_fixtures():
            text = se.fixture_path(name).read_text()
            system = se.system_from_json(json.loads(text))
            assert se.canonical_dumps(se.system_to_json(system)) == text

    def test_load_verified(self):
        system = se.load_fixture("pentagon-f5", verify=True)
        assert len(system.maps) == 5

    def test_schema_error_paths(self):
        obj = json.loads(se.fixture_path("pentagon-f5").read_text())
        obj["generators"][2]["images"] = obj["generators"][2]["images"][:-1]
        with pytest.raises(SchemaError) as e:
            se.system_from_json(obj)
        assert "generators[2].images" in str(e.value)

    def test_exponent_beyond_bound(self, monkeypatch):
        obj = json.loads(se.fixture_path("pentagon-f5").read_text())
        obj["generators"][1]["images"][3] = "x3^-10000000"
        _short_words_only(monkeypatch)
        start = time.perf_counter()
        with pytest.raises(SchemaError) as e:
            se.system_from_json(obj)
        assert time.perf_counter() - start < 0.1
        assert str(e.value).startswith("system.generators[1].images[3]: bad word 'x3^-10000000' (exponent")
        assert "beyond the bound" in str(e.value)
        obj["generators"][1]["images"][3] = f"x3 x3^{words.MAX_EXPONENT} x3^-{words.MAX_EXPONENT}"
        assert se.system_from_json(obj) == se.load_fixture("pentagon-f5")

    def test_non_automorphism_rejected(self):
        obj = json.loads(se.fixture_path("pentagon-f5").read_text())
        obj["generators"][0]["images"] = ["x0 x0", "x1", "x2", "x3", "x4"]
        with pytest.raises(SchemaError) as e:
            se.system_from_json(obj)
        assert "generators[0]" in str(e.value)

    def test_unknown_fixture(self):
        # the memo caches no error: the second call raises again
        for _ in range(2):
            with pytest.raises(SchemaError, match="no shipped fixture named 'does-not-exist'"):
                se.load_fixture("does-not-exist")

    def test_load_memoized(self):
        assert se.load_fixture("overlap-chain-f3") is se.load_fixture("overlap-chain-f3")
        verified = se.load_fixture("overlap-chain-f3", verify=True)
        assert verified is se.load_fixture("overlap-chain-f3", verify=True)
        assert verified is not se.load_fixture("overlap-chain-f3")

    def test_unreadable_names(self):
        obj = json.loads(se.fixture_path("overlap-chain-f3").read_text())
        obj["ambient_alphabet"][1] = "x 1"
        with pytest.raises(SchemaError, match=r"system\.ambient_alphabet: letter name 'x 1'"):
            se.system_from_json(obj)
        obj = json.loads(se.fixture_path("overlap-chain-f3").read_text())
        obj["gamma"]["vertices"][0] = "1"
        with pytest.raises(SchemaError, match=r"system\.gamma: vertex name '1'"):
            se.system_from_json(obj)

    def test_repeated_ambient_letter(self, run_optimized):
        obj = json.loads(se.fixture_path("overlap-chain-f3").read_text())
        obj["ambient_alphabet"][2] = obj["ambient_alphabet"][0]
        with pytest.raises(SchemaError, match=r"system\.ambient_alphabet: letter name"):
            se.system_from_json(obj)
        out = run_optimized(
            "from freefactor import serialize as se\n"
            "from freefactor.errors import InvalidMarking, SchemaError\n"
            "try:\n"
            f"    se.system_from_json({obj!r})\n"
            "except SchemaError as exc:\n"
            "    print(exc)\n"
        )
        assert out.startswith("system.ambient_alphabet: letter name")


def conjugated_path_subsystem(seed):
    """JSON of pentagon-f5 conjugated by three random transvections, cut down
    to its first three factors whose coincidence graph is a path."""
    base = se.load_fixture("pentagon-f5")
    coll = base.collection
    ambient = coll.factors[0].ambient
    rng = random.Random(seed)
    f = identity_map(ambient)
    for _ in range(3):
        f = compose_map(rng.choice(ex.nielsen_generators(ambient)), f)
    f_inv = invert_automorphism(f)
    conj = sy.AdmissibleSystem(
        sy.AdmissibleCollection(
            coll.names, tuple(fa.transport(f, A) for A in coll.factors), coll.gamma,
            coll.classifications,
        ),
        tuple(compose_map(compose_map(f, g), f_inv) for g in base.maps),
        base.power, base.restriction_hyperbolic,
    )
    keep = next(t for t in itertools.combinations(coll.names, 3)
                if sum(coll.gamma.adjacent(a, b) for a, b in itertools.combinations(t, 2)) == 2)
    obj = se.system_to_json(conj)
    obj["gamma"]["vertices"] = list(keep)
    obj["gamma"]["edges"] = [e for e in obj["gamma"]["edges"] if set(e) <= set(keep)]
    obj["factors"] = [x for x in obj["factors"] if x["name"] in keep]
    obj["generators"] = [x for x in obj["generators"] if x["name"] in keep]
    return obj


class TestGarbage:
    def test_verified_load_leaves_no_cycles(self):
        # maps hold their inverses' images, not a back-pointer, so reference
        # counting frees everything a verified load builds
        obj = conjugated_path_subsystem(3)
        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            se.system_from_json(obj, verify=True)
            unreachable = gc.collect()
            kinds = sorted({type(o).__name__ for o in gc.garbage})
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        assert unreachable == 0, kinds
