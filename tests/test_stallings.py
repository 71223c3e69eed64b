import hashlib
import random

import pytest

from hypothesis import given, settings
from hypothesis import strategies as hst

from freefactor import stallings as st
from freefactor.errors import AlphabetMismatch, TrivialSubgroup
from freefactor.words import Word, abc_alphabet, identity, reduce_raw, std_alphabet, word_from_str
from oracles import bfs_code, rewrite_class, subgroup_ball, tree_basis

A3 = abc_alphabet(3)


def w(s, alphabet=A3):
    return word_from_str(alphabet, s)


def graph(*gens, alphabet=A3):
    return st.from_generators(alphabet, [w(s, alphabet) for s in gens])


class TestFromGenerators:
    def test_rose_subgroup(self):
        H = graph("a", "b")
        assert H.num_vertices == 1 and H.rank == 2

    def test_a2_b(self):
        H = graph("a a", "b")
        assert H.num_vertices == 2 and H.rank == 2

    def test_example3_factor(self):
        # <a, b^i c> has an a-loop and a b..b c path; rank 2
        for i in range(5):
            H = graph("a", " ".join(["b"] * i + ["c"]))
            assert H.rank == 2

    def test_empty(self):
        H = st.from_generators(A3, [])
        assert H.num_vertices == 1 and H.rank == 0

    def test_language_matches_closure_oracle(self):
        rng = random.Random(3)
        for _ in range(20):
            gens = []
            for _ in range(rng.randrange(1, 3)):
                raw = [rng.choice([1, -1]) * rng.randrange(1, 4) for _ in range(rng.randrange(1, 5))]
                gens.append(raw)
            H = st.from_generators(A3, [reduce_raw(A3, g) for g in gens])
            ball = subgroup_ball([tuple(g) for g in gens], 6)
            # membership agrees with the brute-force closure on the ball
            import itertools
            for length in range(0, 5):
                for letters in itertools.product([1, -1, 2, -2, 3, -3], repeat=length):
                    word = reduce_raw(A3, list(letters))
                    if len(word.letters) != length:
                        continue
                    in_ball = tuple(word.letters) in ball
                    if in_ball:
                        assert H.trace(word) == H.base


class TestCanonicalCore:
    def test_conjugate_cyclic(self):
        assert st.canonical_core(graph("b a b^-1")) == st.canonical_core(graph("a"))

    def test_distinct_powers(self):
        assert st.canonical_core(graph("a")) != st.canonical_core(graph("a a"))

    def test_generator_order_irrelevant(self):
        assert st.canonical_core(graph("a", "b")) == st.canonical_core(graph("b", "a"))

    def test_conjugate_subgroup_random(self):
        rng = random.Random(9)
        for _ in range(20):
            conj = reduce_raw(A3, [rng.choice([1, -1]) * rng.randrange(1, 4) for _ in range(4)])
            H = graph("a a", "b c")
            gens = [g.conjugate_by(conj) for g in H.basis]
            K = st.from_generators(A3, gens)
            assert st.canonical_core(H) == st.canonical_core(K)

    def test_trivial_errors(self):
        with pytest.raises(TrivialSubgroup):
            st.canonical_core(st.from_generators(A3, []))


class TestPullback:
    def test_shared_letter(self):
        comps = st.pullback_components(graph("a", "b"), graph("b", "c"))
        assert len(comps) == 1
        assert comps[0].rank == 1
        assert st.canonical_core(comps[0].subgroup) == st.canonical_core(graph("b"))

    def test_self_intersection_cyclic(self):
        comps = st.pullback_components(graph("a"), graph("a"))
        assert len(comps) == 1 and comps[0].rank == 1

    def test_example3_contains_a_class(self):
        A = graph("a", "c")
        B = graph("a", "b b b c")
        keys = {st.canonical_core(c.subgroup) for c in st.pullback_components(A, B)}
        assert st.canonical_core(graph("a")) in keys

    def test_diagonal_component(self):
        A = graph("a a", "b c")
        comps = st.pullback_components(A, A)
        tops = [c for c in comps if c.rank == A.rank]
        assert len(tops) == 1
        assert st.canonical_core(tops[0].subgroup) == st.canonical_core(A)

    def test_rank_bound(self):
        A = graph("a a", "b", "c a c^-1")
        B = graph("a", "b b", "c")
        for c in st.pullback_components(A, B):
            assert 1 <= c.rank <= min(A.rank, B.rank)

    def test_disjoint_bases_trivial(self):
        a4 = abc_alphabet(4)
        A = graph("a", "b", alphabet=a4)
        B = graph("c", "d", alphabet=a4)
        assert st.pullback_components(A, B) == []

    def test_alphabet_mismatch_is_typed(self):
        A = graph("a", "b")
        B = st.from_generators(std_alphabet(3), [])
        with pytest.raises(AlphabetMismatch):
            st.pullback_components(A, B)
        with pytest.raises(AlphabetMismatch):
            st.from_generators(A3, [w("a"), word_from_str(std_alphabet(3), "x1")])

    def test_alphabet_mismatch_survives_optimize(self, run_optimized):
        out = run_optimized(
            "from freefactor import stallings as st\n"
            "from freefactor.errors import FreefactorError\n"
            "from freefactor.words import abc_alphabet, std_alphabet, word_from_str\n"
            "A3 = abc_alphabet(3)\n"
            "A = st.from_generators(A3, [word_from_str(A3, 'a')])\n"
            "B = st.from_generators(std_alphabet(3), [])\n"
            "calls = [lambda: st.pullback_components(A, B),\n"
            "         lambda: st.from_generators(A3, [word_from_str(std_alphabet(3), 'x1')])]\n"
            "for call in calls:\n"
            "    try:\n"
            "        call()\n"
            "    except FreefactorError as exc:\n"
            "        print(type(exc).__name__)\n"
        )
        assert out == "AlphabetMismatch\nAlphabetMismatch\n"


def random_pairs(rng, rank, count):
    alphabet = std_alphabet(rank)
    for _ in range(count):
        yield tuple(st.from_generators(alphabet, [
            reduce_raw(alphabet, [rng.choice((1, -1)) * rng.randrange(1, rank + 1)
                                  for _ in range(rng.randrange(1, 6))])
            for _ in range(rng.randrange(1, 4))]) for _ in range(2))


@hst.composite
def pairs(draw):
    """Two subgroup graphs of one free group of rank 2-4."""
    rank = draw(hst.integers(2, 4))
    alphabet = std_alphabet(rank)
    letter = hst.integers(1, rank).flatmap(lambda x: hst.sampled_from((x, -x)))
    gens = hst.lists(hst.lists(letter, min_size=1, max_size=6), min_size=1, max_size=3)
    return tuple(st.from_generators(alphabet, [reduce_raw(alphabet, g) for g in draw(gens)])
                 for _ in range(2))


class TestH1Classes:
    """Each component's classes against rewriting its generators in A's
    basis and abelianizing (``oracles.rewrite_class``)."""

    def check(self, A, B):
        # the generators in ambient letters are what pullback_components
        # folds into each component's subgroup graph, once per component
        seen = []
        fold = st.from_generators
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(st, "from_generators", lambda alphabet, gens: seen.append(gens) or fold(alphabet, gens))
            comps = st.pullback_components(A, B)
        assert len(seen) == len(comps)
        basis = [b.letters for b in A.basis]
        for c, gens in zip(comps, seen):
            assert len(c.classes) == len(gens) == c.rank
            assert all(len(v) == A.rank for v in c.classes)
            assert list(c.classes) == [rewrite_class(basis, g.letters) for g in gens]
        return len(comps)

    def test_seeded_pairs(self):
        rng = random.Random(7)
        assert sum(self.check(A, B) for rank in (2, 3, 4) for A, B in random_pairs(rng, rank, 30)) > 30

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(pairs())
    def test_hypothesis_pairs(self, pair):
        self.check(*pair)

    def test_classes_unchanged_from_the_rewrites(self):
        # the digest was taken by abelianizing the membership rewrites that
        # these classes replace
        rng = random.Random(43)
        lines = [
            " | ".join(str(v) for v in c.classes)
            for rank in (2, 3, 4)
            for A, B in random_pairs(rng, rank, 30)
            for c in st.pullback_components(A, B)
        ]
        assert len(lines) == 39
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
            "fd0ce6c3d583bdc06d7ba1731e802fb09c69d356de2c55baf46aedfd4a00238e"
        )


class TestComponents:
    def test_ordered_by_first_vertex_members_in_given_order(self):
        nbrs = {0: [3], 3: [0], 1: [4], 4: [1, 2], 2: [4], 5: []}
        got = st._components([5, 4, 3, 2, 1, 0], nbrs.__getitem__)
        assert got == [[5], [4, 2, 1], [3, 0]]


def generator_sets(seed, count):
    """Seeded generator lists over ranks 1-5 that mix random words with
    proper powers, conjugates, repeats and empty words."""
    rng = random.Random(seed)
    for rank in range(1, 6):
        alphabet = std_alphabet(rank)

        def word(n):
            return reduce_raw(alphabet, [rng.choice((1, -1)) * rng.randrange(1, rank + 1)
                                         for _ in range(rng.randrange(n + 1))])

        for _ in range(count):
            gens = [word(6) for _ in range(rng.randrange(1, 4))]
            extras = [gens[0] ** rng.randrange(2, 4), gens[-1].conjugate_by(word(3)),
                      rng.choice(gens), identity(alphabet)]
            gens += rng.sample(extras, rng.randrange(len(extras) + 1))
            rng.shuffle(gens)
            yield alphabet, gens


@hst.composite
def graphs(draw):
    """A subgroup graph of a free group of rank 1-4; single letters give loops
    and two-letter words parallel edges."""
    rank = draw(hst.integers(1, 4))
    alphabet = std_alphabet(rank)
    letter = hst.integers(1, rank).flatmap(lambda x: hst.sampled_from((x, -x)))
    gens = draw(hst.lists(hst.lists(letter, max_size=6), max_size=4))
    return st.from_generators(alphabet, [reduce_raw(alphabet, g) for g in gens])


def has_loop(H):
    return any(v in d.values() for v, d in enumerate(H.adj))


def has_parallel_edges(H):
    return any(len(set(d.values()) - {v}) < len([t for t in d.values() if t != v])
               for v, d in enumerate(H.adj))


class TestOneSortedTraversal:
    """Vertex numbering, bases and canonical keys: pinned, and read against
    the traversals the one sorted BFS replaced (``oracles.bfs_code`` and
    ``oracles.tree_basis``)."""

    def test_numbering_bases_and_keys_pinned(self):
        # the digest was taken before one sorted BFS served the spanning
        # tree, the basis and the canonical key
        lines = []
        for alphabet, gens in generator_sets(22, 30):
            H = st.from_generators(alphabet, gens)
            try:
                key = st.canonical_core(H)
            except TrivialSubgroup:
                key = "trivial"
            adj = [sorted(d.items()) for d in H.adj]
            lines.append(f"{H.base} {adj} {[b.letters for b in H.basis]} {key}")
        assert len(lines) == 150
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
            "ca366b69853a563eb804d6ef99c3ccf9ee204b8c44907bdd7f2422eb73371306"
        )

    def check(self, H):
        paths, edges, words = tree_basis(H.adj, H.base)
        assert [H.path_word(v).letters for v in range(H.num_vertices)] == [paths[v] for v in range(H.num_vertices)]
        assert list(H.basis_edges) == edges
        assert [b.letters for b in H.basis] == words
        # every trusted word is one the checked constructor accepts
        for v in range(H.num_vertices):
            p = H.path_word(v)
            assert Word(H.alphabet, p.letters) == p and H.trace(p) == v
        for b in H.basis:
            assert Word(H.alphabet, b.letters) == b and H.trace(b) == H.base
        if H.rank:
            core = st._unbased_core(H)
            assert st.canonical_core(H) == repr(min(bfs_code(core, v) for v in range(len(core))))

    def test_seeded_graphs(self):
        loops = parallel = 0
        for alphabet, gens in generator_sets(5, 20):
            H = st.from_generators(alphabet, gens)
            self.check(H)
            loops += has_loop(H)
            parallel += has_parallel_edges(H)
        assert loops > 10 and parallel > 10

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(graphs())
    def test_hypothesis_graphs(self, H):
        self.check(H)
