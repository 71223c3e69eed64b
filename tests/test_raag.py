import itertools
import random

import pytest

from freefactor import raag
from freefactor.errors import (
    InvalidGraph,
    MalformedWord,
    TooLarge,
    UnknownLetter,
)
from oracles import raag_canonical, raag_min_forms, raag_syllable_order

PENT = raag.pentagon()
PENT_ADJ = {frozenset(e) for e in PENT.edges}

TRI = raag.simplicial_graph(["a", "b", "c"], [("a", "b")])
TRI_ADJ = {frozenset(("a", "b"))}


def complete(n):
    vs = [f"u{i}" for i in range(n)]
    return raag.simplicial_graph(vs, [(u, v) for i, u in enumerate(vs) for v in vs[i + 1 :]])


ORACLE_GRAPHS = {
    "path3": raag.simplicial_graph(["a", "b", "c"], [("a", "b"), ("b", "c")]),
    "tri3": raag.simplicial_graph(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")]),
    "k4": complete(4),
    "pentagon": PENT,
}


def rw(graph, s):
    return raag.raag_word_from_str(graph, s)


def linear_extensions(graph, w):
    """Min(g) read off ``syllable_order`` by brute force: every ordering of
    the normal form's syllables that keeps each forced pair in order."""
    order = raag.syllable_order(graph, w)
    sylls = order.word.key()
    out = set()
    for perm in itertools.permutations(order.sids):
        at = {sid: k for k, sid in enumerate(perm)}
        if all(at[i] < at[j] for i, j in order.precedes):
            out.add(tuple(sylls[sid] for sid in perm))
    return out


class TestNormalize:
    def test_commuting_cancellation(self):
        # a b a^-1 -> b with (a,b) commuting
        g = raag.simplicial_graph(["a", "b", "c"], [("a", "b")])
        assert raag.normalize(g, rw(g, "a b a^-1")).key() == (("b", 1),)

    def test_free_cancellation(self):
        assert raag.normalize(TRI, rw(TRI, "a a^-1")).key() == ()

    def test_free_group_case(self):
        g = raag.simplicial_graph(["a", "b"], [])
        assert raag.normalize(g, rw(g, "a b a")).key() == (("a", 1), ("b", 1), ("a", 1))

    def test_unknown_generator(self):
        with pytest.raises(UnknownLetter):
            rw(TRI, "z")

    def test_bad_exponent(self):
        with pytest.raises(MalformedWord, match="a\\^x"):
            rw(TRI, "a^x")

    def test_idempotent_and_matches_oracle_exhaustive_small(self):
        gens = ["a", "b", "c"]
        for n in range(0, 5):
            for combo in itertools.product(gens, repeat=n):
                for exps in itertools.product([1, -1], repeat=n):
                    word = list(zip(combo, exps))
                    got = raag.normalize(TRI, raag.raag_word(TRI, word))
                    assert got.key() == raag_canonical(TRI_ADJ, word, TRI.vertices)
                    again = raag.normalize(TRI, got)
                    assert again.key() == got.key()

    def test_matches_oracle_pentagon_sampled(self):
        rng = random.Random(23)
        vs = PENT.vertices
        for _ in range(300):
            n = rng.randrange(1, 7)
            word = [(rng.choice(vs), rng.choice([-2, -1, 1, 2])) for _ in range(n)]
            got = raag.normalize(PENT, raag.raag_word(PENT, word))
            assert got.key() == raag_canonical(PENT_ADJ, word, vs)


class TestDependenceOrder:
    """normalize and syllable_order against the move-closure oracles."""

    @pytest.mark.parametrize("name", sorted(ORACLE_GRAPHS))
    def test_matches_oracles(self, name):
        g = ORACLE_GRAPHS[name]
        adj = {frozenset(e) for e in g.edges}
        rng = random.Random(f"dependence-{name}")
        for _ in range(150):
            n = rng.randrange(0, 9)
            word = [(rng.choice(g.vertices), rng.choice([-2, -1, 1, 2])) for _ in range(n)]
            w = raag.raag_word(g, word)
            norm = raag.normalize(g, w)
            assert norm.key() == raag_canonical(adj, word, g.vertices)
            order = raag.syllable_order(g, w)
            assert order.word == norm and order.sids == tuple(range(len(norm)))
            precedes, adjacent = raag_syllable_order(adj, word, g.vertices)
            assert order.precedes == precedes
            assert order.precedes_adjacent == adjacent

    def test_clique_of_ten_needs_no_enumeration(self):
        # Min(g) has 10! members here; nothing lists them
        g = complete(10)
        w = raag.raag_word(g, [(v, 1) for v in reversed(g.vertices)])
        assert raag.normalize(g, w).key() == tuple((v, 1) for v in sorted(g.vertices))
        order = raag.syllable_order(g, w)
        assert order.sids == tuple(range(10))
        assert order.precedes == order.precedes_adjacent == frozenset()


class TestMinSet:
    """Min(g) is the set of linear extensions of the syllable order."""

    def test_commuting_pair(self):
        g = raag.simplicial_graph(["a", "b"], [("a", "b")])
        assert linear_extensions(g, rw(g, "a b")) == {(("a", 1), ("b", 1)), (("b", 1), ("a", 1))}

    def test_free_pair(self):
        g = raag.simplicial_graph(["a", "b"], [])
        assert linear_extensions(g, rw(g, "a b")) == {(("a", 1), ("b", 1))}

    def test_three_orbit(self):
        # chain v0-v2-v4 of commutations: orbit of v0 v2 v4 has 3 members
        g = raag.simplicial_graph(["v0", "v2", "v4"], [("v0", "v2"), ("v2", "v4")])
        assert linear_extensions(g, rw(g, "v0 v2 v4")) == {
            (("v0", 1), ("v2", 1), ("v4", 1)),
            (("v2", 1), ("v0", 1), ("v4", 1)),
            (("v0", 1), ("v4", 1), ("v2", 1)),
        }

    def test_matches_oracle(self):
        rng = random.Random(31)
        for _ in range(100):
            n = rng.randrange(1, 7)
            word = [(rng.choice(PENT.vertices), rng.choice([-1, 1])) for _ in range(n)]
            got = linear_extensions(PENT, raag.raag_word(PENT, word))
            assert got == raag_min_forms(PENT_ADJ, word)

    def test_equal_syllable_multisets(self):
        # every member of the oracle's Min(g) names g: same normal form, same syllables
        for name, g in sorted(ORACLE_GRAPHS.items()):
            adj = {frozenset(e) for e in g.edges}
            rng = random.Random(f"min-forms-{name}")
            for _ in range(50):
                word = [(rng.choice(g.vertices), rng.choice([-2, -1, 1, 2])) for _ in range(6)]
                norm = raag.normalize(g, raag.raag_word(g, word)).key()
                members = raag_min_forms(adj, word)
                assert norm in members
                for m in members:
                    assert raag.normalize(g, raag.raag_word(g, m)).key() == norm
                    assert sorted(m) == sorted(norm)


class TestSyllableOrder:
    def test_chain_example(self):
        # only (a,b) commute; g = a c b gives a<c, c<b, a<b with adjacency {ac, cb}
        g = raag.simplicial_graph(["a", "b", "c"], [("a", "b")])
        word = raag.normalize(g, rw(g, "a c b"))
        order = raag.syllable_order(g, word)
        by_gen = {s.gen: k for k, s in enumerate(word.syllables)}
        a, b, c = by_gen["a"], by_gen["b"], by_gen["c"]
        assert order.precedes == frozenset({(a, c), (c, b), (a, b)})
        assert order.precedes_adjacent == frozenset({(a, c), (c, b)})
        assert order.closure_of_adjacent() == order.precedes

    def test_single_syllable(self):
        order = raag.syllable_order(PENT, rw(PENT, "v0^3"))
        assert order.precedes == frozenset()

    def test_commuting_pair_empty(self):
        g = raag.simplicial_graph(["a", "b"], [("a", "b")])
        order = raag.syllable_order(g, rw(g, "a b"))
        assert order.precedes == frozenset()

    def test_closure_property_exhaustive(self):
        # Min-order closure: transitive closure of the adjacent relation is the order
        gens = ["a", "b", "c"]
        for n in range(1, 6):
            for combo in itertools.product(gens, repeat=n):
                word = [(g, 1) for g in combo]
                order = raag.syllable_order(TRI, raag.raag_word(TRI, word))
                assert order.closure_of_adjacent() == order.precedes

    def test_antichain_bounded_by_clique(self):
        rng = random.Random(41)
        s = raag.clique_number(PENT)
        for _ in range(40):
            word = [(rng.choice(PENT.vertices), rng.choice([-1, 1])) for _ in range(6)]
            g = raag.normalize(PENT, raag.raag_word(PENT, word))
            order = raag.syllable_order(PENT, g)
            sids = order.sids
            # largest antichain by brute force over subsets
            best = 0
            for r in range(1, len(sids) + 1):
                for subset in itertools.combinations(sids, r):
                    if all(
                        (i, j) not in order.precedes and (j, i) not in order.precedes
                        for i in subset
                        for j in subset
                        if i != j
                    ):
                        best = max(best, r)
            assert best <= s


class TestSimplicialGraph:
    @pytest.mark.parametrize(
        "vertices, edges",
        [
            (["a", "a"], []), (["a", "b"], [("a", "a")]), (["a", "b"], [("a", "z")]),
            (["a", ""], []), (["a b"], []), (["a^2"], []), (["1", "b"], []),
        ],
    )
    def test_invalid_graph(self, vertices, edges):
        with pytest.raises(InvalidGraph):
            raag.simplicial_graph(vertices, edges)


class TestSyllable:
    def test_words_equal_by_their_syllables(self):
        # a dropped zero exponent leaves no trace in the word
        g = raag.simplicial_graph(["a", "b", "c"], [])
        w1 = raag.raag_word(g, [("a", 1), ("b", 0), ("c", 1)])
        w2 = raag.raag_word(g, [("a", 1), ("c", 1)])
        assert str(w1) == str(w2) == "a c" and w1.key() == w2.key()
        assert w1 == w2 and hash(w1) == hash(w2)
        assert raag.normalize(g, w1) == w1

    def test_zero_exponent_refused(self):
        with pytest.raises(MalformedWord):
            raag.Syllable("a", 0)

    def test_zero_exponent_refusal_survives_optimize(self, run_optimized):
        out = run_optimized(
            "from freefactor import raag\n"
            "from freefactor.errors import FreefactorError\n"
            "try:\n"
            "    raag.Syllable('a', 0)\n"
            "except FreefactorError as exc:\n"
            "    print(f'{type(exc).__name__}: {exc}')\n"
        )
        assert out == "MalformedWord: syllable 'a' has exponent 0\n"


class TestCliqueNumber:
    def test_pentagon(self):
        assert raag.clique_number(PENT) == 2

    def test_complete(self):
        vs = ["a", "b", "c", "d"]
        k4 = raag.simplicial_graph(vs, [(u, v) for i, u in enumerate(vs) for v in vs[i + 1 :]])
        assert raag.clique_number(k4) == 4

    def test_edgeless(self):
        g = raag.simplicial_graph(["a", "b", "c"], [])
        assert raag.clique_number(g) == 1

    def test_matches_networkx(self):
        import networkx as nx

        rng = random.Random(43)
        for _ in range(20):
            n = rng.randrange(2, 12)
            edges = [
                (f"u{i}", f"u{j}")
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < 0.4
            ]
            g = raag.simplicial_graph([f"u{i}" for i in range(n)], edges)
            gx = nx.Graph()
            gx.add_nodes_from(g.vertices)
            gx.add_edges_from(g.edges)
            expect = max(len(c) for c in nx.find_cliques(gx))
            assert raag.clique_number(g) == expect

    def test_too_large(self):
        vs = [f"u{i}" for i in range(41)]
        with pytest.raises(TooLarge):
            raag.clique_number(raag.simplicial_graph(vs, []))
