import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freefactor import experiments as ex, factors as fa, serialize as se, stallings, systems as sy
from freefactor.errors import InvalidTransport, RankTooSmall
from freefactor.words import (
    GroupMap,
    Word,
    abc_alphabet,
    automorphism,
    reduce_raw,
    word_from_str,
)
from oracles import (
    coset_search_disjoint,
    mask_descent_is_free_factor,
    mask_letters,
    naive_core,
    naive_reduce,
    trial_fold_is_free_factor,
    whitehead_cuts,
    whitehead_image,
    whitehead_moves,
)

A3 = abc_alphabet(3)
A4 = abc_alphabet(4)


def w3(s):
    return word_from_str(A3, s)


def w4(s):
    return word_from_str(A4, s)


def chain_factors():
    # five rank-2 factors of F_3 sharing the single class [<a>]
    return [
        fa.free_factor_class(A3, [w3("a"), word_from_str(A3, f"{'b ' * i}c")])
        for i in range(5)
    ]


class TestMeet:
    def test_self_meet_empty(self):
        A = fa.free_factor_class(A3, [w3("a"), w3("b")])
        assert fa.meet_projection(A, A) == set()

    def test_shared_cyclic_factor(self):
        A = fa.free_factor_class(A3, [w3("a"), w3("b")])
        B = fa.free_factor_class(A3, [w3("a"), w3("c")])
        classes = fa.meet_projection(A, B)
        assert len(classes) == 1
        mc = next(iter(classes))
        assert mc.rank == 1
        key_a = stallings.canonical_core(stallings.from_generators(A3, [w3("a")]))
        assert mc.in_ambient.key == key_a

    def test_chain_all_pairs_meet_in_a(self):
        facs = chain_factors()
        key_a = stallings.canonical_core(stallings.from_generators(A3, [w3("a")]))
        for i in range(5):
            for j in range(i + 1, 5):
                classes = fa.meet_projection(facs[i], facs[j])
                assert {mc.in_ambient.key for mc in classes} == {key_a}

    def test_symmetry_of_class_keys(self):
        A = fa.free_factor_class(A3, [w3("a"), w3("b")])
        B = fa.free_factor_class(A3, [w3("b a"), w3("c")])
        keys_ab = {mc.in_ambient.key for mc in fa.meet_projection(A, B)}
        keys_ba = {mc.in_ambient.key for mc in fa.meet_projection(B, A)}
        assert keys_ab == keys_ba

    def test_gens_live_in_first_factor(self):
        A = fa.free_factor_class(A3, [w3("a"), w3("b")])
        B = fa.free_factor_class(A3, [w3("a"), w3("c")])
        for mc in fa.meet_projection(A, B):
            for c in mc.classes:
                assert len(c) == A.rank


class TestOverlap:
    def test_chain_pairs_overlap(self):
        facs = chain_factors()
        for i in range(5):
            for j in range(i + 1, 5):
                cert = fa.overlap_check(facs[i], facs[j])
                assert cert is not None
                mc, H = cert
                assert H.rank == 2 + 2 - mc.rank == 3

    def test_disjoint_pair_has_no_overlap(self):
        A = fa.free_factor_class(A4, [w4("a"), w4("b")])
        B = fa.free_factor_class(A4, [w4("c"), w4("d")])
        assert fa.overlap_check(A, B) is None


class TestDisjoint:
    def test_complementary_factors(self):
        A = fa.free_factor_class(A4, [w4("a"), w4("b")])
        B = fa.free_factor_class(A4, [w4("c"), w4("d")])
        assert fa.classify_pair(A, B)[0] == "disjoint"

    def test_sharing_a_generator(self):
        A = fa.free_factor_class(A3, [w3("a"), w3("b")])
        B = fa.free_factor_class(A3, [w3("b"), w3("c")])
        assert fa.classify_pair(A, B)[0] != "disjoint"

    def test_classify_trichotomy(self):
        A = fa.free_factor_class(A4, [w4("a"), w4("b")])
        B = fa.free_factor_class(A4, [w4("c"), w4("d")])
        C = fa.free_factor_class(A4, [w4("b"), w4("c")])
        assert fa.classify_pair(A, B)[0] == "disjoint"
        assert fa.classify_pair(A, C)[0] == "overlap"

    def test_classify_folds_one_pullback(self, monkeypatch):
        calls = []
        pullback = fa.pullback_components
        monkeypatch.setattr(fa, "pullback_components", lambda A, B: calls.append(1) or pullback(A, B))
        A = fa.free_factor_class(A4, [w4("a"), w4("b")])
        B = fa.free_factor_class(A4, [w4("c"), w4("d")])
        C = fa.free_factor_class(A4, [w4("b"), w4("c")])
        D = fa.free_factor_class(A4, [w4("a a"), w4("b")])  # meets A, no certificate
        E = fa.free_factor_class(A4, [w4("c c"), w4("d d")])  # misses A, not a factor
        for X, Y, verdict in ((A, B, "disjoint"), (A, C, "overlap"), (A, D, "none"), (A, E, "none")):
            calls.clear()
            assert fa.classify_pair(X, Y)[0] == verdict
            assert len(calls) == 1


class TestIsFreeFactor:
    def test_subrose(self):
        H = stallings.from_generators(A3, [w3("a"), w3("b")])
        assert fa.is_free_factor(H)

    def test_proper_power(self):
        H = stallings.from_generators(A3, [w3("a a")])
        assert not fa.is_free_factor(H)

    def test_commutator(self):
        H = stallings.from_generators(A3, [w3("a b a^-1 b^-1")])
        assert not fa.is_free_factor(H)

    def test_primitive_product(self):
        H = stallings.from_generators(A3, [w3("a b")])
        assert fa.is_free_factor(H)

    def test_conjugate_of_factor(self):
        H = stallings.from_generators(A3, [w3("c a c^-1"), w3("c b c^-1")])
        assert fa.is_free_factor(H)

    def test_answers_at_ranks_7_and_8(self):
        for n in (7, 8):
            basis = transvected_basis(random.Random(n), n, 16)
            for k in (1, 3, n - 1):
                sub = basis[:k]
                squared = [naive_reduce(sub[0] * 2)] + sub[1:]
                assert fa.is_free_factor(library_graph(n, sub))
                assert not fa.is_free_factor(library_graph(n, squared))


class TestTransport:
    def test_inner_fixes_class(self):
        A = fa.free_factor_class(A3, [w3("a"), w3("b")])
        inner = automorphism(A3, [w3("c a c^-1"), w3("c b c^-1"), w3("c")])
        assert fa.transport(inner, A) == A

    def test_moves_class(self):
        A = fa.free_factor_class(A3, [w3("a"), w3("b")])
        f = automorphism(A3, [w3("a c"), w3("b"), w3("c")])
        assert fa.transport(f, A) != A

    def test_functorial_on_meets(self):
        # transported factors have transported meet classes
        A = fa.free_factor_class(A3, [w3("a"), w3("b")])
        B = fa.free_factor_class(A3, [w3("a"), w3("c")])
        f = automorphism(A3, [w3("a b"), w3("b"), w3("c a")])
        before = {mc.in_ambient.key for mc in fa.meet_projection(A, B)}
        after = {
            mc.in_ambient.key
            for mc in fa.meet_projection(fa.transport(f, A), fa.transport(f, B))
        }
        transported = {
            fa.free_factor_class(
                A3, [f(w) for w in stallings.from_generators(A3, [w3("a")]).basis]
            ).key
        }
        assert len(before) == len(after) == 1
        assert after == transported


class TestPreconditions:
    A = fa.free_factor_class(A3, [w3("a"), w3("b")])
    C = fa.free_factor_class(A3, [w3("c")])

    def test_trivial_class(self):
        with pytest.raises(RankTooSmall):
            fa.free_factor_class(A3, [w3("a a^-1")])

    @pytest.mark.parametrize("check", [fa.overlap_check, fa.classify_pair])
    def test_pair_checks_need_rank_two(self, check):
        with pytest.raises(RankTooSmall):
            check(self.A, self.C)
        with pytest.raises(RankTooSmall):
            check(self.C, self.A)

    def test_meet_needs_rank_two(self):
        with pytest.raises(RankTooSmall):
            fa.meet_projection(self.C, self.A)

    def test_transport_needs_verified_automorphism(self):
        with pytest.raises(InvalidTransport):
            fa.transport(GroupMap(A3, A3, (w3("a c"), w3("b"), w3("c"))), self.A)
        f = automorphism(A4, [w4("a d"), w4("b"), w4("c"), w4("d")])
        with pytest.raises(InvalidTransport):
            fa.transport(f, self.A)

    def test_preconditions_survive_optimize(self, run_optimized):
        out = run_optimized(
            "from freefactor import factors as fa\n"
            "from freefactor.errors import FreefactorError\n"
            "from freefactor.words import GroupMap, abc_alphabet, word_from_str\n"
            "A3 = abc_alphabet(3)\n"
            "w = lambda s: word_from_str(A3, s)\n"
            "A = fa.free_factor_class(A3, [w('a'), w('b')])\n"
            "C = fa.free_factor_class(A3, [w('c')])\n"
            "f = GroupMap(A3, A3, (w('a c'), w('b'), w('c')))\n"
            "calls = [lambda: fa.free_factor_class(A3, []), lambda: fa.meet_projection(C, A),\n"
            "         lambda: fa.overlap_check(A, C), lambda: fa.classify_pair(C, A),\n"
            "         lambda: fa.transport(f, A)]\n"
            "for call in calls:\n"
            "    try:\n"
            "        call()\n"
            "    except FreefactorError as exc:\n"
            "        print(type(exc).__name__)\n"
        )
        assert out.split() == ["RankTooSmall"] * 4 + ["InvalidTransport"]


class TestRandomized:
    def test_meet_classes_are_proper(self):
        rng = random.Random(53)
        letters = ["a", "b", "c", "a^-1", "b^-1", "c^-1"]
        for _ in range(25):
            g1 = " ".join(rng.choice(letters) for _ in range(rng.randrange(1, 4)))
            A = fa.free_factor_class(A3, [w3("a"), w3("b")])
            try:
                B = fa.free_factor_class(A3, [w3(g1), w3("c")])
            except RankTooSmall:
                continue
            if B.rank < 2:
                continue
            for mc in fa.meet_projection(A, B):
                assert 1 <= mc.rank < 2 or mc.rank < min(A.rank, B.rank)
                assert mc.in_ambient.key not in (A.key, B.key)


@st.composite
def subgroups(draw):
    """(n, generators) on ranks 2-5, words as tuples of signed letters."""
    n = draw(st.integers(2, 5))
    letter = st.integers(1, n).flatmap(lambda x: st.sampled_from((x, -x)))
    word = st.lists(letter, min_size=1, max_size=6).map(tuple)
    return n, draw(st.lists(word, min_size=1, max_size=3))


@st.composite
def cores(draw, n):
    """Generators on rank n, with proper powers and commutators."""
    letter = st.integers(1, n).flatmap(lambda x: st.sampled_from((x, -x)))
    word = st.lists(letter, min_size=1, max_size=5).map(tuple)
    gens = []
    for kind, u, w in draw(st.lists(st.tuples(st.sampled_from("wpc"), word, word), min_size=1, max_size=3)):
        if kind == "p":
            u = u * draw(st.integers(2, 3))
        elif kind == "c":
            u = u + w + tuple(-s for s in reversed(u)) + tuple(-s for s in reversed(w))
        gens.append(u)
    return gens


def transvected_basis(rng, n, moves):
    """The image of the standard basis of F_n under ``moves`` random transvections."""
    basis = [(i,) for i in range(1, n + 1)]
    for _ in range(moves):
        i, j = rng.sample(range(n), 2)
        other = basis[j] if rng.random() < 0.5 else tuple(-s for s in reversed(basis[j]))
        basis[i] = naive_reduce(basis[i] + other)
    return basis


def library_graph(n, gens):
    A = abc_alphabet(n)
    return stallings.from_generators(A, [reduce_raw(A, g) for g in gens])


class TestWhiteheadOracle:
    @settings(max_examples=25, derandomize=True, deadline=None)
    @given(subgroups())
    def test_cut_count_is_the_edge_change(self, sub):
        n, gens = sub
        H = library_graph(n, gens)
        core = stallings._unbased_core(H)
        before = len(naive_core(gens, keep_base=False)[1])
        assert before == sum(len(d) for d in core) // 2
        cuts = list(whitehead_cuts(n, core))
        moves = list(whitehead_moves(n))
        assert len(cuts) == len(moves)
        for (v, Y, change), (v_ref, Y_ref) in zip(cuts, moves):
            assert v == v_ref
            assert mask_letters(n, Y) == Y_ref
            images = [whitehead_image(v, Y_ref, g) for g in gens]
            assert change == len(naive_core(images, keep_base=False)[1]) - before

    @pytest.mark.parametrize("n", range(2, 7))
    @settings(max_examples=10, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_best_move_is_a_minimum_cut(self, n, data):
        import networkx as nx

        gens = data.draw(cores(n))
        core = stallings._unbased_core(library_graph(n, gens))
        before = len(naive_core(gens, keep_base=False)[1])
        least = {}
        for v, _, change in whitehead_cuts(n, core):
            least[v] = min(change, least.get(v, change))
        network = nx.DiGraph()
        network.add_nodes_from(least)
        sets = Counter(frozenset(-s for s in d) for d in core)
        for k, (letters, count) in enumerate(sets.items()):
            network.add_edge(("in", k), ("out", k), capacity=count)
            for x in letters:  # no capacity: unbounded
                network.add_edge(x, ("in", k))
                network.add_edge(("out", k), x)
        best = list(fa._best_moves(abc_alphabet(n), core))
        assert [v for v, _, _ in best] == list(least)
        for v, Y, change in best:
            assert change == least[v]
            labelled = sum(1 for d in core for s in d if s == abs(v))
            assert change + labelled == nx.minimum_cut_value(network, v, -v)
            letters = mask_letters(n, Y)
            assert v in letters and -v not in letters
            images = [whitehead_image(v, letters, g) for g in gens]
            assert change == len(naive_core(images, keep_base=False)[1]) - before

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(subgroups())
    def test_agrees_with_trial_fold_descent(self, sub):
        n, gens = sub
        assert fa.is_free_factor(library_graph(n, gens)) == trial_fold_is_free_factor(n, gens)

    def test_agrees_with_mask_descent_at_rank_6(self):
        rng = random.Random(6)
        for _ in range(5):
            basis = transvected_basis(rng, 6, 16)
            sub = basis[: rng.randrange(2, 6)]
            for gens, answer in ((sub, True), ([naive_reduce(sub[0] * 2)] + sub[1:], False)):
                assert fa.is_free_factor(library_graph(6, gens)) == answer
                assert mask_descent_is_free_factor(6, gens) == answer

    def test_descent_from_a_long_primitive(self):
        A4 = abc_alphabet(4)
        f = automorphism(A4, [w4("a b c"), w4("b c"), w4("c d"), w4("d")])
        H = stallings.from_generators(A4, [f(w4("a b a^-1 d")), f(w4("c c d"))])
        assert fa.is_free_factor(H) == trial_fold_is_free_factor(4, [w.letters for w in H.basis])


def random_reduced(rng, alphabet, length):
    letters = []
    while len(letters) < length:
        s = rng.choice([1, -1]) * rng.randint(1, alphabet.rank)
        if not letters or letters[-1] != -s:
            letters.append(s)
    return Word(alphabet, tuple(letters))


def conjugated(A, g):
    return fa.free_factor_class(A.ambient, [w.conjugate_by(g) for w in A.basis])


def fixture_pairs():
    """(name, A, B, verdict) for every pair of every shipped fixture."""
    for name in se.list_fixtures():
        c = se.load_fixture(name).collection
        for i, j, verdict in c.classifications:
            yield name, c.factors[i], c.factors[j], verdict


class TestDisjointExact:
    """The disjoint verdict is read off the classes, not their stored bases."""

    def test_conjugated_complement(self, monkeypatch):
        # F_4 = <a, b> * <c, d>; B is a conjugate of <c, d> that the bounded
        # coset search misses, so verify_admissible used to refuse the pair
        w = w4("b c a c a")
        A = fa.free_factor_class(A4, [w4("a"), w4("b")])
        B = fa.free_factor_class(A4, [w4("c").conjugate_by(w), w4("d").conjugate_by(w)])
        assert not coset_search_disjoint(A, B)
        folds = []
        fold = fa.from_generators
        monkeypatch.setattr(fa, "from_generators", lambda *args: folds.append(1) or fold(*args))
        assert fa.classify_pair(A, B) == ("disjoint", None)
        assert len(folds) <= 4
        assert sy.verify_admissible([A, B], ["A", "B"]).gamma.adjacent("A", "B")

    @pytest.mark.parametrize("length", [6, 10, 16])
    def test_verdict_ignores_conjugated_bases(self, length):
        rng = random.Random(length)
        A = fa.free_factor_class(A4, [w4("a"), w4("b")])
        pairs = [
            (A, fa.free_factor_class(A4, [w4("c"), w4("d")]), "disjoint"),
            (A, fa.free_factor_class(A4, [w4("b"), w4("c")]), "overlap"),
            (A, fa.free_factor_class(A4, [w4("c c"), w4("d d")]), "none"),
        ]
        for k in range(20):
            for X, Y, verdict in pairs:
                g = random_reduced(rng, A4, length)
                X, Y = (conjugated(X, g), Y) if k % 2 else (X, conjugated(Y, g))
                assert fa.classify_pair(X, Y)[0] == verdict
        for name, X, Y, verdict in fixture_pairs():
            g = random_reduced(rng, X.ambient, length)
            assert fa.classify_pair(X, conjugated(Y, g))[0] == verdict, name
            assert fa.classify_pair(conjugated(X, g), Y)[0] == verdict, name

    def test_sound_against_the_coset_search(self):
        # wherever the bounded search finds a common splitting, so does the
        # descent; pairs with a nonempty pullback never reach either
        rng = random.Random(36)
        pairs = []
        for name, X, Y, _ in fixture_pairs():
            pairs.append((X, Y))
            for _ in range(6):
                f = ex.random_automorphism(rng, X.ambient, 8)
                pairs.append((fa.transport(f, X), fa.transport(f, Y)))
        for _ in range(40):
            n = rng.randint(3, 5)
            al = abc_alphabet(n)
            x = [Word(al, (i,)) for i in range(1, n + 1)]
            f = ex.random_automorphism(rng, al, 6)
            # a disjoint pair carried by f, or its second factor carried by
            # an automorphism of its own; then conjugated by a short word
            h = f if rng.random() < 0.5 else ex.random_automorphism(rng, al, 3)
            g = random_reduced(rng, al, rng.randint(0, 3))
            X = fa.free_factor_class(al, [f(x[0]), f(x[1])])
            Y = fa.free_factor_class(al, [h(x[2]).conjugate_by(g), h(x[-1] * x[1]).conjugate_by(g)])
            pairs.append((X, Y))
        searched = found = 0
        for X, Y in pairs:
            if stallings.pullback_components(X.graph, Y.graph):
                continue
            searched += 1
            if coset_search_disjoint(X, Y):
                found += 1
                assert fa.classify_pair(X, Y)[0] == "disjoint"
        assert searched > found >= 80
