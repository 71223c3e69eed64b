import functools
import json
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from freefactor import (
    experiments as ex,
    factors as fa,
    farey,
    projections as pj,
    serialize as se,
    stallings,
)
from freefactor.errors import (
    NotInOmega,
    NotOverlapping,
    PathTooShort,
    ThresholdViolated,
    UndefinedProjection,
)
from freefactor.words import (
    Alphabet,
    GroupMap,
    Word,
    abc_alphabet,
    automorphism,
    compose_map,
    identity_map,
    invert_automorphism,
    map_power,
    std_alphabet,
    transvection,
    word_from_str,
)
from oracles import (
    compose_with_inverses,
    cover_core,
    cover_shape,
    letter_projection,
    loop_word_projection,
    naive_reduce,
    plain_substitution,
    step_bound_by_steps,
    tree_loops,
    vertex_projection,
)

A3 = abc_alphabet(3)


def w(s):
    return word_from_str(A3, s)


def auto(*images):
    return automorphism(A3, [w(s) for s in images])


ROSE = pj.rose(A3)
FACTOR_AB = fa.free_factor_class(A3, [w("a"), w("b")])
FACTOR_BC = fa.free_factor_class(A3, [w("b"), w("c")])
HYP = auto("a a b", "a b", "c")  # hyperbolic on <a, b>, fixes c


def rand_auto(rng, steps=8):
    f = automorphism(A3, [w("a"), w("b"), w("c")])
    names = ["a", "b", "c"]
    for _ in range(steps):
        i, j = rng.sample(range(3), 2)
        imgs = [w(n) for n in names]
        imgs[i] = w(names[i]) * (w(names[j]) if rng.random() < 0.5 else w(names[j]).inverse())
        f = automorphism(A3, imgs) if f is None else f
        g = automorphism(A3, imgs)
        from freefactor.words import compose_map

        f = compose_map(g, f)
    return f


class TestMarkedGraph:
    def test_rose_shape(self):
        assert ROSE.betti == 3
        assert ROSE.num_edges == 3

    def test_edge_paths_of_letters(self):
        paths = ROSE.to_edge_paths([w("a"), w("b c^-1")])
        assert [str(p) for p in paths] == ["e0", "e1 e2^-1"]

    def test_transform_then_edge_paths_invert_marking(self):
        f = auto("a b", "b", "c")
        T = pj.transform_marked(f, ROSE)
        # the edge e0 reads "a b", so "a" must become e0 e1^-1
        (p,) = T.to_edge_paths([w("a")])
        assert str(p) == "e0 e1^-1"

    def test_marking_must_generate(self):
        from freefactor.errors import InvalidMarking
        from freefactor.words import letter

        edges = (
            (0, 0, w("a")),
            (0, 0, w("a b a^-1")),
            (0, 0, w("a b")),
        )
        with pytest.raises(InvalidMarking):
            pj.MarkedGraph(A3, 1, edges, 0)

    def test_marking_hint_refused(self):
        # the hint comes from the fold of the marking words; a caller's hint
        # is refused, even a certified one, and inverse images that do not
        # invert the images cannot be handed to a map in the first place
        f = auto("a b a", "a b", "c")
        wrong = (w("a"), w("b"), w("c"))
        with pytest.raises(TypeError):
            GroupMap(A3, A3, f.images, wrong)
        with pytest.raises(TypeError):
            GroupMap(A3, A3, f.images, inverse_images=wrong)
        edges = tuple((0, 0, x) for x in f.images)
        with pytest.raises(TypeError):
            pj.MarkedGraph(A3, 1, edges, 0, f)
        with pytest.raises(TypeError):
            pj.MarkedGraph(A3, 1, edges, 0, marking_hint=f)
        T = pj.MarkedGraph(A3, 1, edges, 0)
        assert T.marking_hint.images == f.images
        assert T.marking_hint.inverse_images == f.inverse_images

    def test_checked_refusals_survive_optimize(self, run_optimized):
        # the public constructor keeps every check: a wrong Betti number, a
        # valence-1 vertex, two components, labels that do not generate,
        # labels over another alphabet, and a vertex count, base or edge end
        # that is not an integer, or not in range
        out = run_optimized(
            "from freefactor import projections as pj\n"
            "from freefactor.errors import FreefactorError\n"
            "from freefactor.words import Alphabet, abc_alphabet, word_from_str\n"
            "A = abc_alphabet(2)\n"
            "a, b = (word_from_str(A, s) for s in ('a', 'b'))\n"
            "x, y = (word_from_str(Alphabet(('x', 'y')), s) for s in ('x', 'y'))\n"
            "cases = [\n"
            "    (1, ((0, 0, a),), 0),\n"
            "    (2, ((0, 0, a), (0, 0, b), (0, 1, a)), 0),\n"
            "    (2, ((0, 0, a), (0, 0, b), (1, 1, a)), 0),\n"
            "    (1, ((0, 0, a), (0, 0, a)), 0),\n"
            "    (1, ((0, 0, x), (0, 0, y)), 0),\n"
            "    (1, ((0, 0, a), (0, 0, b)), 5),\n"
            "    (1, ((0, 0, a), (0, 0, b)), -1),\n"
            "    (1, ((0, 0, a), (0, 3, b)), 0),\n"
            "    (1, ((0, 0, a), (-1, 0, b)), 0),\n"
            "    (1, ((0, 0, a), (0, 0, b)), 0.5),\n"
            "    (1, ((0, 0, a), (0, 0, b)), False),\n"
            "    (1, ((0, 0, a), (0.0, 0, b)), 0),\n"
            "    (1.0, ((0, 0, a), (0, 0, b)), 0),\n"
            "]\n"
            "for nv, edges, base in cases:\n"
            "    try:\n"
            "        pj.MarkedGraph(A, nv, edges, base)\n"
            "    except FreefactorError as exc:\n"
            "        print(f'{type(exc).__name__}: {exc}')\n"
        )
        assert out == (
            "InvalidMarking: first Betti number must equal the ambient rank\n"
            "InvalidMarking: every vertex must have valence at least 2\n"
            "InvalidMarking: marked graph must be connected\n"
            "InvalidMarking: edge labels do not generate the ambient group\n"
            "InvalidMarking: edge labels must be words over the ambient alphabet\n"
            "InvalidMarking: base vertex 5 is not an integer in 0..0\n"
            "InvalidMarking: base vertex -1 is not an integer in 0..0\n"
            "InvalidMarking: edge (0, 3): a vertex is not an integer in 0..0\n"
            "InvalidMarking: edge (-1, 0): a vertex is not an integer in 0..0\n"
            "InvalidMarking: base vertex 0.5 is not an integer in 0..0\n"
            "InvalidMarking: base vertex False is not an integer in 0..0\n"
            "InvalidMarking: edge (0.0, 0): a vertex is not an integer in 0..0\n"
            "InvalidMarking: vertex count 1.0 is not an integer\n"
        )

    def test_theta_graph(self):
        # two vertices, three parallel edges: betti 2 over F_2
        A2 = abc_alphabet(2)
        edges = (
            (0, 1, word_from_str(A2, "a")),
            (0, 1, word_from_str(A2, "b")),
            (0, 1, word_from_str(A2, "b a")),
        )
        T = pj.MarkedGraph(A2, 2, edges, 0)
        assert T.betti == 2
        ws = T.marking_words()
        assert len(ws) == 2


class TestTrustedRose:
    """``rose`` skips the checks of ``MarkedGraph``; the checked rose, whose
    marking the fold certifies afresh, is its oracle."""

    @pytest.mark.parametrize("alphabet_of", [abc_alphabet, std_alphabet])
    def test_matches_checked_rose(self, alphabet_of):
        for rank in range(1, 7):
            A = alphabet_of(rank)
            R = pj.rose(A)
            want = pj.MarkedGraph(A, 1, R.edges, 0)
            assert R == want and hash(R) == hash(want)
            assert R._loops == want._loops and R.edge_alphabet == want.edge_alphabet
            assert R.marking_words() == want.marking_words()
            assert R.marking_hint.images == want.marking_hint.images
            assert R.marking_hint.inverse_images == want.marking_hint.inverse_images


class TestHash:
    """Equal marked graphs hash equal however they were built, so the
    ``project_tree`` cache hits on each of them."""

    def equal_graphs(self):
        f = auto("a b", "b c", "c")

        def back(T):
            return pj.transform_marked(invert_automorphism(f), pj.transform_marked(f, T))

        T = subdivide(ex.random_tree(random.Random(9), A3, 6), random.Random(10))
        assert T.num_vertices > 1
        return [
            [ROSE, pj.rose(A3), pj.MarkedGraph(A3, 1, ROSE.edges, 0), se.graph_from_json(se.graph_to_json(ROSE)),
             back(ROSE)],
            [T, pj.MarkedGraph(A3, T.num_vertices, T.edges, T.base), se.graph_from_json(se.graph_to_json(T)),
             back(T), pj.transform_marked(identity_map(A3), T)],
        ]

    def test_equal_graphs_hash_equal(self):
        for group in self.equal_graphs():
            first = group[0]
            assert len({id(T) for T in group}) == len(group)
            for T in group:
                assert T == first and hash(T) == hash(first) == hash(T)

    def test_project_tree_hits_on_equal_graphs(self):
        for group in self.equal_graphs():
            before = pj.project_tree.cache_info()
            sets = {pj.project_tree(FACTOR_BC, T) for T in group}
            after = pj.project_tree.cache_info()
            assert len(sets) == 1
            assert after.misses - before.misses <= 1
            assert after.hits - before.hits >= len(group) - 1

    @pytest.mark.parametrize("hand_built_first", [True, False])
    def test_project_tree_cache_answers_for_equal_graphs(self, hand_built_first):
        # a hand-built graph equal to the library's f(R) shares its cache
        # entry, so whichever is projected first answers for both: each must
        # read what a fresh projection reads.  A caller cannot build a map
        # whose inverse images are wrong, so neither a graph's hint nor a
        # map handed to transform_marked can poison that entry
        f = auto("a b a", "a b", "c")
        wrong = (w("a"), w("b"), w("c"))
        with pytest.raises(TypeError):
            GroupMap(A3, A3, f.images, wrong)
        with pytest.raises(TypeError):
            GroupMap(A3, A3, f.images, inverse_images=wrong)
        hand = pj.MarkedGraph(A3, 1, tuple((0, 0, x) for x in f.images), 0)
        library = pj.transform_marked(f, ROSE)
        assert hand == library
        pj.project_tree.cache_clear()
        order = (hand, library) if hand_built_first else (library, hand)
        want = frozenset({farey.farey_vertex(1, 1), farey.farey_vertex(2, 1)})
        for T in order:
            assert pj.project_tree(FACTOR_AB, T).vertices == want
            assert pj.project_tree.__wrapped__(FACTOR_AB, T).vertices == want


class TestProjectTree:
    def test_rose_projection(self):
        P = pj.project_tree(FACTOR_AB, ROSE)
        assert P.vertices == frozenset({farey.farey_vertex(1, 0), farey.farey_vertex(0, 1)})

    def test_diameter_bound_random(self):
        rng = random.Random(61)
        for _ in range(15):
            T = pj.transform_marked(rand_auto(rng), ROSE)
            P = pj.project_tree(FACTOR_AB, T)
            assert farey.diameter(P.vertices) <= pj.PROJECTION_DIAMETER_BOUND

    def test_reads_h1_without_membership_rewrites(self, monkeypatch):
        # the weighted arc fold carries H₁(A) on the cover's arcs: no letter
        # fold, no BFS tree, no SubgroupGraph basis or H₁ index
        T = pj.transform_marked(map_power(HYP, 4), ROSE)
        T2 = subdivide(T, random.Random(3))
        assert T2.num_vertices > 1
        # the factor's basis and the graphs' loops are built here, before the
        # spies go in
        want = [letter_projection(FACTOR_BC, X) for X in (T, T2)]
        called = []
        for name, prop in vars(stallings.SubgroupGraph).items():
            if isinstance(prop, functools.cached_property):
                monkeypatch.setattr(prop, "func", lambda H, f=prop.func, n=name: called.append(n) or f(H))
        for name in ("from_generators", "fold", "bfs_tree", "_h1_read"):
            fn = getattr(stallings, name)
            monkeypatch.setattr(stallings, name, lambda *args, f=fn, n=name: called.append(n) or f(*args))
        got = [pj.project_tree.__wrapped__(FACTOR_BC, X).vertices for X in (T, T2)]
        assert got == want
        assert called == []

    def test_projection_sets_are_slotted(self):
        # built by the projection from unchecked vertices, or by the public
        # constructors: the same slotted sets either way
        for p in (1, 3, 5):
            got = pj.project_tree.__wrapped__(FACTOR_AB, pj.transform_marked(map_power(HYP, p), ROSE))
            want = pj.ProjectionSet(FACTOR_AB, frozenset(farey.FareyVertex(u.p, u.q) for u in got.vertices))
            assert not hasattr(got, "__dict__") and not any(hasattr(u, "__dict__") for u in got.vertices)
            assert got == want and hash(got) == hash(want)

    def test_invariant_under_inner(self):
        inner = auto("c a c^-1", "c b c^-1", "c")
        T = pj.transform_marked(HYP, ROSE)
        T2 = pj.transform_marked(inner, T)
        assert pj.project_tree(FACTOR_AB, T).vertices == pj.project_tree(FACTOR_AB, T2).vertices


@pytest.fixture
def trees_built(monkeypatch):
    """graph id -> [graph, number of BFS trees built on it] while the test runs."""
    built = {}
    bfs_tree = stallings.bfs_tree

    def spy(root, neighbours):
        caller = sys._getframe(1).f_locals.get("self")
        if isinstance(caller, stallings.SubgroupGraph):
            built.setdefault(id(caller), [caller, 0])[1] += 1
        return bfs_tree(root, neighbours)

    monkeypatch.setattr(stallings, "bfs_tree", spy)
    return built


class TestOneTreePerGraph:
    def test_at_most_one_bfs_tree_per_graph(self, trees_built):
        system = se.load_fixture("pentagon-f5")
        coll = system.collection
        # fresh graphs, on which no tree has been built yet
        facs = [fa.transport(identity_map(A.ambient), A) for A in coll.factors]
        kinds = {kind: (i, j) for i, j, kind in coll.classifications}
        i, j = kinds["overlap"]
        for _ in range(3):
            assert stallings.pullback_components(facs[i].graph, facs[j].graph)
        for kind in ("disjoint", "overlap"):
            i, j = kinds[kind]
            assert fa.classify_pair(facs[i], facs[j])[0] == kind
        T = pj.transform_marked(system.maps[0], pj.rose(coll.factors[0].ambient))
        for A in facs:
            for _ in range(2):
                pj.project_tree.__wrapped__(A, T)
        assert all(id(A.graph) in trees_built for A in facs)
        assert len(trees_built) > len(facs)
        assert max(n for _g, n in trees_built.values()) == 1


def subdivide(T, rng):
    """T with some edges split through a new valence-2 vertex, at a random base."""
    edges, nv = [], T.num_vertices
    for u, v, label in T.edges:
        if len(label) >= 2 and rng.random() < 0.6:
            k = rng.randrange(1, len(label))
            ls = label.letters
            edges += [(u, nv, Word(T.alphabet, ls[:k])), (nv, v, Word(T.alphabet, ls[k:]))]
            nv += 1
        else:
            edges.append((u, v, label))
    return pj.MarkedGraph(T.alphabet, nv, tuple(edges), rng.randrange(nv))


def shuffled(T, rng):
    """T with its edges in a random order, each one reversed (its label
    inverted) at random."""
    edges = [(v, u, label.inverse()) if rng.random() < 0.5 else (u, v, label) for u, v, label in T.edges]
    rng.shuffle(edges)
    return pj.MarkedGraph(T.alphabet, T.num_vertices, tuple(edges), T.base)


def checked_transform(f, T):
    """f(T) through every check of ``MarkedGraph``: f applied to each label,
    then the marking words evaluated afresh and certified by their own fold."""
    edges = tuple((u, v, f(label)) for u, v, label in T.edges)
    return pj.MarkedGraph(f.codomain, T.num_vertices, edges, T.base)


class TestTransformedMarking:
    """``transform_marked`` builds f(T) from the composed marking and skips
    the checks of ``MarkedGraph``; the checked rebuild is its oracle."""

    @pytest.mark.parametrize("fixture", ["overlap-chain-f3", "pentagon-f5", "pentagon-support-f6"])
    def test_matches_checked_rebuild(self, fixture):
        rng = random.Random(67)
        for f in se.load_fixture(fixture).maps:
            # f^±k R for k <= 8, then multi-vertex trees
            steps = [(g, T) for g in (f, invert_automorphism(f)) for T in ex._power_path(g, 7)]
            steps += [(f, subdivide(ex.random_tree(rng, f.domain, 6), rng)) for _ in range(3)]
            assert any(T.num_vertices > 1 for _g, T in steps)
            for g, T in steps:
                got, want = pj.transform_marked(g, T), checked_transform(g, T)
                assert got == want and got.edges == want.edges
                assert got.marking_hint.images == want.marking_hint.images == tuple(want.marking_words())
                assert got.marking_hint.inverse_images == want.marking_hint.inverse_images


def assert_matches_oracle(A, T, loop_words=True):
    """Check π_A(T) against the letter-by-letter projection and, unless the
    paths are too long for its naive fold, against loop words; returns the
    shape of the cover's core and the valence of its base."""
    got = pj.project_tree.__wrapped__(A, T).vertices
    core = cover_core(A, T)
    assert got == letter_projection(A, T, core), (A.key, T)
    if loop_words:
        paths = [p.letters for p in T.to_edge_paths(A.basis)]
        assert {(v.p, v.q) for v in got} == loop_word_projection(paths), (A.key, T)
    return cover_shape(A, T, core)


FIXTURES = ("overlap-chain-f3", "pentagon-f5", "pentagon-support-f6")
# loop words are rewritten in a naive fold, so they are compared only up to
# these powers; overlap-chain-f3's paths grow fastest
LOOP_WORD_POWER = {"overlap-chain-f3": 4, "pentagon-f5": 6, "pentagon-support-f6": 6}


class TestLoopWordOracle:
    """The projection by the weighted arc fold agrees with the letter-by-letter
    projection and with conjugated loop words rewritten in the cover."""

    def test_rose_transforms(self):
        system = se.load_fixture("pentagon-f5")
        R5 = pj.rose(system.collection.factors[0].ambient)
        for f in system.maps:
            for k in range(-6, 7):
                T = pj.transform_marked(map_power(f, k), R5)
                for A in system.collection.factors:
                    assert_matches_oracle(A, T)
        rng = random.Random(71)
        for _ in range(40):
            T = ex.random_tree(rng, A3, 10)
            for A in (FACTOR_AB, FACTOR_BC, fa.transport(rand_auto(rng, 4), FACTOR_AB)):
                assert_matches_oracle(A, T)

    def test_subdivided_graphs(self):
        # the cover's base on a tail (valence 1), inside an arc (2) and on a
        # branch vertex (3 or more), and every core shape
        rng = random.Random(73)
        seen = set()
        for _ in range(120):
            T = subdivide(subdivide(ex.random_tree(rng, A3, 8), rng), rng)
            for A in (FACTOR_AB, FACTOR_BC, fa.transport(rand_auto(rng, 4), FACTOR_BC)):
                shape, valence = assert_matches_oracle(A, T)
                seen |= {shape, min(valence, 3)}
        assert seen == {"rose", "barbell", "theta", 1, 2, 3}

    @pytest.mark.parametrize("fixture", FIXTURES)
    def test_power_paths(self, fixture):
        # f^±k R for k <= 8
        system = se.load_fixture(fixture)
        for f in system.maps:
            for g in (f, invert_automorphism(f)):
                for k, T in enumerate(ex._power_path(g, 8)):
                    for A in system.collection.factors:
                        assert_matches_oracle(A, T, k <= LOOP_WORD_POWER[fixture])

    @pytest.mark.parametrize("fixture", FIXTURES)
    def test_random_trees(self, fixture):
        factors = se.load_fixture(fixture).collection.factors
        rng = random.Random(79)
        for _ in range(20):
            T = ex.random_tree(rng, factors[0].ambient, 12)
            for A in factors:
                assert_matches_oracle(A, T)

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(
        hst.lists(hst.tuples(hst.integers(0, 2), hst.integers(1, 2), hst.sampled_from((1, -1))), max_size=10),
        hst.integers(0, 2**16),
    )
    def test_hypothesis_trees(self, moves, seed):
        f = identity_map(A3)
        for i, d, sign in moves:
            f = compose_map(transvection(A3, i, (i + d) % 3, sign), f)
        rng = random.Random(seed)
        T = pj.transform_marked(f, ROSE)
        if seed % 2:
            T = subdivide(T, rng)
        for A in (FACTOR_AB, FACTOR_BC, fa.transport(rand_auto(rng, 3), FACTOR_AB)):
            assert_matches_oracle(A, T)

    def test_json_graphs(self):
        # another ambient alphabet; the cover reads edge letters e0, e1, ...
        X = Alphabet(("x", "y", "z", "w"))
        factors = [fa.free_factor_class(X, [word_from_str(X, g) for g in gens])
                   for gens in (("x", "y z"), ("z w^-1", "y"))]
        rng = random.Random(83)
        for _ in range(15):
            T0 = subdivide(ex.random_tree(rng, X, 8), rng)
            T = se.graph_from_json(json.loads(json.dumps(se.graph_to_json(T0))))
            assert T == T0 and T.edge_alphabet.names[0] == "e0"
            for A in factors + [fa.transport(ex.random_automorphism(rng, X, 4), B) for B in factors]:
                assert_matches_oracle(A, T)


class TestVertexLevelOracle:
    """``project_tree`` trims and chains on the fold's arc list; the same
    fold read as a vertex adjacency, trimmed by ``stallings._trim`` and
    chained again, is its oracle."""

    @staticmethod
    def assert_matches(A, T):
        assert pj.project_tree.__wrapped__(A, T).vertices == vertex_projection(A, T), (A.key, T)

    @pytest.mark.parametrize("fixture", FIXTURES)
    def test_random_trees(self, fixture):
        factors = se.load_fixture(fixture).collection.factors
        rng = random.Random(97)
        for _ in range(300):
            T = ex.random_tree(rng, factors[0].ambient, ex.NIELSEN_TREE_LENGTH)
            for A in factors:
                self.assert_matches(A, T)

    @pytest.mark.parametrize("fixture", FIXTURES)
    def test_power_paths(self, fixture):
        system = se.load_fixture(fixture)
        R = pj.rose(system.collection.factors[0].ambient)
        for f in system.maps:
            for k in range(-6, 7):
                T = pj.transform_marked(map_power(f, k), R)
                for A in system.collection.factors:
                    self.assert_matches(A, T)

    @pytest.mark.parametrize("fixture", FIXTURES)
    def test_subdivided_shuffled_graphs(self, fixture):
        factors = se.load_fixture(fixture).collection.factors
        rng = random.Random(101)
        for _ in range(40):
            T = ex.random_tree(rng, factors[0].ambient, 8)
            for _ in range(rng.randint(1, 3)):
                T = subdivide(T, rng)
            T = shuffled(T, rng)
            for A in factors:
                self.assert_matches(A, T)

    def test_json_graphs(self):
        X = Alphabet(("x", "y", "z", "w"))
        factors = [fa.free_factor_class(X, [word_from_str(X, g) for g in gens])
                   for gens in (("x", "y z"), ("z w^-1", "y"))]
        rng = random.Random(103)
        for _ in range(15):
            T0 = subdivide(ex.random_tree(rng, X, 8), rng)
            T = se.graph_from_json(json.loads(json.dumps(se.graph_to_json(T0))))
            for A in factors + [fa.transport(ex.random_automorphism(rng, X, 4), B) for B in factors]:
                self.assert_matches(A, T)


class TestBasisLoops:
    """Basis loops, marking words and the marking's inverse images of
    multi-vertex graphs match ``oracles.tree_loops``, order included."""

    @staticmethod
    def assert_matches_tree_loops(T):
        loops = tree_loops(T)
        assert T._loops == tuple(loops)
        labels = [label.letters for _u, _v, label in T.edges]
        words = tuple(naive_reduce(plain_substitution(loop, labels)) for loop in loops)
        assert tuple(m.letters for m in T.marking_words()) == words
        assert tuple(m.letters for m in T.marking_hint.images) == words
        inverse = tuple(m.letters for m in T.marking_hint.inverse_images)
        identity = tuple((i + 1,) for i in range(T.alphabet.rank))
        assert compose_with_inverses(words, None, inverse, None)[0] == identity
        assert compose_with_inverses(inverse, None, words, None)[0] == identity

    @pytest.mark.parametrize("fixture", FIXTURES)
    def test_subdivided_shuffled_graphs(self, fixture):
        # subdivided up to three times at a random base, then shuffled so
        # that loops in edge order differ from loops in discovery order
        alphabet = se.load_fixture(fixture).collection.factors[0].ambient
        rng = random.Random(89)
        multi = 0
        for _ in range(40):
            T = ex.random_tree(rng, alphabet, 8)
            for _ in range(rng.randint(1, 3)):
                T = subdivide(T, rng)
            T = shuffled(T, rng)
            back = se.graph_from_json(json.loads(json.dumps(se.graph_to_json(T))))
            assert back == T
            for G in (T, back):
                self.assert_matches_tree_loops(G)
            multi += T.num_vertices > 1
        assert multi >= 30


class TestPreconditions:
    def test_rank3_factor_refused(self):
        A = fa.free_factor_class(A3, [w("a"), w("b"), w("c")])
        with pytest.raises(UndefinedProjection):
            pj.project_tree(A, ROSE)

    def test_alphabet_mismatch_refused(self):
        with pytest.raises(UndefinedProjection):
            pj.project_tree(FACTOR_AB, pj.rose(abc_alphabet(4)))

    def test_refusals_survive_optimize(self, run_optimized):
        out = run_optimized(
            "from freefactor import factors as fa, projections as pj\n"
            "from freefactor.errors import UndefinedProjection\n"
            "from freefactor.words import abc_alphabet, word_from_str\n"
            "A3 = abc_alphabet(3)\n"
            "w = lambda s: word_from_str(A3, s)\n"
            "A = fa.free_factor_class(A3, [w('a'), w('b'), w('c')])\n"
            "B = fa.free_factor_class(A3, [w('a'), w('b')])\n"
            "for X, T in ((A, pj.rose(A3)), (B, pj.rose(abc_alphabet(4)))):\n"
            "    try:\n"
            "        pj.project_tree(X, T)\n"
            "    except UndefinedProjection as exc:\n"
            "        print(type(exc).__name__)\n"
        )
        assert out.split() == ["UndefinedProjection"] * 2

    def test_rank3_factor_shadow_refused(self):
        # <a, b, c> meets <c, d> in <c>, so only the rank check refuses
        A4 = abc_alphabet(4)
        A = fa.free_factor_class(A4, [word_from_str(A4, x) for x in "abc"])
        B = fa.free_factor_class(A4, [word_from_str(A4, x) for x in "cd"])
        with pytest.raises(UndefinedProjection, match="not rank 3"):
            pj.factor_shadow(A, B)

    def test_rank3_factor_shadow_refused_under_optimize(self, run_optimized):
        out = run_optimized(
            "from freefactor import factors as fa, projections as pj\n"
            "from freefactor.errors import UndefinedProjection\n"
            "from freefactor.words import abc_alphabet, word_from_str\n"
            "A4 = abc_alphabet(4)\n"
            "A = fa.free_factor_class(A4, [word_from_str(A4, x) for x in 'abc'])\n"
            "B = fa.free_factor_class(A4, [word_from_str(A4, x) for x in 'cd'])\n"
            "try:\n"
            "    pj.factor_shadow(A, B)\n"
            "except UndefinedProjection as exc:\n"
            "    print(exc)\n"
        )
        assert out.strip() == "Farey projections are for rank-2 factors, not rank 3"


class TestDistances:
    def test_linear_growth_under_iteration(self):
        # a hyperbolic automorphism of the factor translates along the Farey graph
        dists = []
        for p in (2, 4, 6, 8):
            T = pj.transform_marked(map_power(HYP, p), ROSE)
            dists.append(pj.projection_distance(FACTOR_AB, ROSE, T))
        assert dists == sorted(dists)
        assert dists[-1] - dists[0] >= 4

    def test_factor_projection(self):
        shadow = pj.factor_shadow(FACTOR_AB, FACTOR_BC)
        assert shadow == pj.ProjectionSet(FACTOR_AB, frozenset({farey.farey_vertex(0, 1)}))

    def test_factor_refused(self):
        # a factor's shadow comes from factor_shadow, never from a distance
        with pytest.raises(UndefinedProjection, match="cannot project FreeFactorClass"):
            pj.projection_distance(FACTOR_AB, FACTOR_BC, ROSE)

    def test_behrstock_inequality(self):
        # when T is far from B in A, it is close to A in B
        b_in_a = pj.factor_shadow(FACTOR_AB, FACTOR_BC)
        a_in_b = pj.factor_shadow(FACTOR_BC, FACTOR_AB)
        for p in (4, 6, 8):
            T = pj.transform_marked(map_power(HYP, p), ROSE)
            dA = pj.projection_distance(FACTOR_AB, b_in_a, T)
            dB = pj.projection_distance(FACTOR_BC, a_in_b, T)
            assert dA == farey.diameter(b_in_a.vertices | pj.project_tree(FACTOR_AB, T).vertices)
            assert dB == farey.diameter(a_in_b.vertices | pj.project_tree(FACTOR_BC, T).vertices)
            assert min(dA, dB) <= 4  # one coordinate always stays bounded


def shadows(A, B):
    """(π_A(B), π_B(A)), projected afresh."""
    return pj.factor_shadow(A, B), pj.factor_shadow(B, A)


class TestFactorOrder:
    def test_requires_overlap(self):
        A4 = abc_alphabet(4)
        A = fa.free_factor_class(A4, [word_from_str(A4, "a"), word_from_str(A4, "b")])
        B = fa.free_factor_class(A4, [word_from_str(A4, "c"), word_from_str(A4, "d")])
        R4 = pj.rose(A4)
        with pytest.raises(NotOverlapping):
            pj.factor_order(A, B, R4, R4, 1, shadows(A, B))

    def test_requires_far_endpoints(self):
        with pytest.raises(NotInOmega):
            pj.factor_order(FACTOR_AB, FACTOR_BC, ROSE, ROSE, 1, shadows(FACTOR_AB, FACTOR_BC))

    def test_ordered_by_staggered_displacement(self):
        # A-supported segment first, then a segment supported on the
        # transported class fa(B): the pair (A, fa(B)) is ordered along the path
        fa_big = map_power(HYP, 6)
        hyp_bc = auto("a", "b b c", "b c")
        fb_big = map_power(hyp_bc, 6)
        from freefactor.words import compose_map

        T2 = pj.transform_marked(compose_map(fa_big, fb_big), ROSE)
        B2 = fa.transport(fa_big, FACTOR_BC)
        verdict = pj.factor_order(FACTOR_AB, B2, ROSE, T2, 2, shadows(FACTOR_AB, B2))
        assert verdict.d_A_T_T2 >= 5 and verdict.d_B_T_T2 >= 5
        assert verdict.first_precedes_second
        assert verdict.d_A_T_B >= 3  # B2's shadow in A sits at the far end
        assert verdict.d_B_T_A <= 2  # A's shadow in B2 sits at the near end
        assert verdict.d_B_T2_A >= 3
        assert verdict.d_A_T2_B <= 2
        # the reversed pair is not ordered first
        rev = pj.factor_order(B2, FACTOR_AB, ROSE, T2, 2, shadows(B2, FACTOR_AB))
        assert not rev.first_precedes_second


class TestIntervals:
    def path_through(self, f, steps):
        trees = [ROSE]
        cur = ROSE
        for _ in range(steps):
            cur = pj.transform_marked(f, cur)
            trees.append(cur)
        return pj.TreePath(tuple(trees))

    def test_step_bound_small(self):
        path = self.path_through(HYP, 6)
        assert path.step_bound(FACTOR_AB) <= 3

    @pytest.mark.parametrize("fixture", FIXTURES)
    def test_step_bound_matches_per_step_lookups(self, fixture):
        system = se.load_fixture(fixture)
        for f in system.maps:
            for g in (f, invert_automorphism(f)):
                trees = ex._power_path(g, 4)
                for steps in range(1, 5):
                    path = pj.TreePath(tuple(trees[: steps + 1]))
                    for A in system.collection.factors:
                        assert path.step_bound(A) == step_bound_by_steps(path, A), (A.key, steps)

    def test_interval_brackets_motion(self):
        path = self.path_through(HYP, 14)
        L = path.step_bound(FACTOR_AB)
        rec = pj.interval_of(path, FACTOR_AB, M=1, L=L)
        assert 0 <= rec.a < rec.b <= path.length
        assert rec.d_ends >= 5 * 1 + 3 * L

    @pytest.mark.parametrize("trees", [(), (ROSE,)])
    def test_short_path_refused(self, trees):
        with pytest.raises(PathTooShort):
            pj.TreePath(trees)

    def test_short_path_refused_under_optimize(self, run_optimized):
        out = run_optimized(
            "from freefactor import projections as pj\n"
            "from freefactor.errors import PathTooShort\n"
            "from freefactor.words import abc_alphabet\n"
            "try:\n"
            "    pj.TreePath((pj.rose(abc_alphabet(3)),))\n"
            "except PathTooShort as exc:\n"
            "    print(type(exc).__name__)\n"
        )
        assert out.split() == ["PathTooShort"]

    def test_threshold_violation(self):
        path = self.path_through(HYP, 2)
        with pytest.raises(ThresholdViolated):
            pj.interval_of(path, FACTOR_AB, M=3, L=path.step_bound(FACTOR_AB))
