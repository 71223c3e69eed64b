import hashlib
import random

import pytest

from freefactor import stallings as st
from freefactor.errors import TrivialSubgroup
from freefactor.words import abc_alphabet, identity, reduce_raw, std_alphabet, word_from_str, word_to_str
from oracles import subgroup_ball

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
                        assert H.contains(word)


class TestMembership:
    def test_direct(self):
        H = graph("a", "b")
        assert word_to_str(st.membership_rewrite(H, w("b"))) == "g1"

    def test_rejects(self):
        H = graph("a a", "b")
        assert st.membership_rewrite(H, w("a b a^-1")) is None

    def test_reads_product(self):
        H = graph("a a", "b")
        expr = st.membership_rewrite(H, w("a a b"))
        assert expr is not None
        assert st.expand_basis_word(H, expr) == w("a a b")

    def test_roundtrip_random(self):
        rng = random.Random(5)
        H = graph("a a", "b a b^-1", "c c a")
        basis = H.basis()
        for _ in range(40):
            word = identity(A3)
            for _ in range(rng.randrange(0, 6)):
                b = rng.choice(basis)
                word = word * (b if rng.random() < 0.5 else b.inverse())
            expr = st.membership_rewrite(H, word)
            assert expr is not None
            assert st.expand_basis_word(H, expr) == word


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
            gens = [g.conjugate_by(conj) for g in H.basis()]
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

    def test_components_lie_in_A(self):
        A = graph("a", "b c")
        B = graph("b", "c a")
        for c in st.pullback_components(A, B):
            # expanding the A-basis expressions recovers subgroup elements of A
            for expr in c.gens_in_A:
                assert A.contains(st.expand_basis_word(A, expr))

    def test_gens_in_A_unchanged_by_the_shared_index(self):
        # the digest was taken when every generator rebuilt A's basis index
        rng = random.Random(43)
        lines = []
        for rank in (2, 3, 4):
            alphabet = std_alphabet(rank)
            for _ in range(30):
                A, B = (st.from_generators(alphabet, [
                    reduce_raw(alphabet, [rng.choice((1, -1)) * rng.randrange(1, rank + 1)
                                          for _ in range(rng.randrange(1, 6))])
                    for _ in range(rng.randrange(1, 4))]) for _ in range(2))
                for c in st.pullback_components(A, B):
                    for expr in c.gens_in_A:
                        assert st.membership_rewrite(A, st.expand_basis_word(A, expr)) == expr
                    lines.append(" | ".join(str(e) for e in c.gens_in_A))
        assert len(lines) == 39
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
            "620f958ed8fa3c7e690ad58d171b72e958e14fa64f232cfb8d4f49c9653a485d"
        )


class TestComponents:
    def test_ordered_by_first_vertex_members_in_given_order(self):
        nbrs = {0: [3], 3: [0], 1: [4], 4: [1, 2], 2: [4], 5: []}
        got = st._components([5, 4, 3, 2, 1, 0], nbrs.__getitem__)
        assert got == [[5], [4, 2, 1], [3, 0]]
