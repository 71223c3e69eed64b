import itertools
import json

import pytest

from freefactor import factors as fc, farey, projections as pj, raag, serialize as se, stallings, systems as sy
from freefactor.errors import (
    CommutationViolation,
    LengthMismatch,
    NotAdmissible,
    NotHyperbolicSeed,
    NotSurjective,
    RankMismatch,
    RankTooSmall,
    SupportViolation,
    UndefinedProjection,
)
from freefactor.words import (
    GroupMap,
    abc_alphabet,
    automorphism,
    compose_map,
    identity_map,
    invert_automorphism,
    is_inner,
    letter,
    std_alphabet,
    transvection,
    word_from_str,
)
from oracles import is_onto, raag_min_forms

PENT = raag.pentagon()
F5 = std_alphabet(5)
A2 = std_alphabet(2)
SEED = GroupMap(A2, A2, (word_from_str(A2, "x0 x0 x1"), word_from_str(A2, "x0 x1")))


def pentagon_factors():
    return [
        fc.free_factor_class(F5, [letter(F5, i), letter(F5, (i + 1) % 5)])
        for i in range(5)
    ]


def pentagon_complements():
    return [
        [letter(F5, (i + 2) % 5), letter(F5, (i + 3) % 5), letter(F5, (i + 4) % 5)]
        for i in range(5)
    ]


def pentagon_system(power=1):
    coll = sy.verify_admissible(pentagon_factors())
    return sy.build_generators(coll, [SEED] * 5, power, pentagon_complements())


class TestComplexity:
    def test_pentagon(self):
        assert sy.complexity(PENT) == 6

    def test_two_isolated_vertices(self):
        g = raag.simplicial_graph(["a", "b"], [])
        assert sy.complexity(g) == 3

    def test_single_edge(self):
        g = raag.simplicial_graph(["a", "b"], [("a", "b")])
        assert sy.complexity(g) == 4

    def test_matches_build_exhaustive_small(self):
        import networkx as nx

        for g in nx.graph_atlas_g():
            n = g.number_of_nodes()
            if n < 2 or n > 6:
                continue
            names = [f"u{i}" for i in range(n)]
            sg = raag.simplicial_graph(names, [(f"u{a}", f"u{b}") for a, b in g.edges()])
            built = sy.build_support_graph(sg)
            assert built.ambient_rank == sy.complexity(sg)


class TestSupportGraph:
    def test_pentagon_shape(self):
        G = sy.build_support_graph(PENT)
        assert G.ambient_rank == 6
        assert len(G.vertices) == 10
        assert len(G.edges) == 10
        assert sum(1 for r in G.vertex_ranks if r == 1) == 5
        assert all(G.factor(i).rank == 2 for i in range(5))

    def test_two_vertices_no_edge(self):
        g = raag.simplicial_graph(["a", "b"], [])
        G = sy.build_support_graph(g)
        assert G.ambient_rank == 3
        A, B = G.factor(0), G.factor(1)
        meets = fc.meet_projection(A, B)
        assert len(meets) == 1 and next(iter(meets)).rank == 1

    def test_single_edge_disjoint_summands(self):
        g = raag.simplicial_graph(["a", "b"], [("a", "b")])
        G = sy.build_support_graph(g)
        assert G.ambient_rank == 4
        A, B = G.factor(0), G.factor(1)
        assert not stallings.pullback_components(A.graph, B.graph)
        assert fc.classify_pair(A, B)[0] == "disjoint"

    def test_coincidence_pattern_pentagon(self):
        G = sy.build_support_graph(PENT)
        facs = [G.factor(i) for i in range(5)]
        for i in range(5):
            for j in range(i + 1, 5):
                nonempty = bool(stallings.pullback_components(facs[i].graph, facs[j].graph))
                assert nonempty == (not PENT.adjacent(PENT.vertices[i], PENT.vertices[j]))

    def test_factor_plus_complement_is_basis(self):
        G = sy.build_support_graph(PENT)
        for i in range(5):
            gens = list(G.factor_words[i]) + list(G.complement_words[i])
            assert is_onto(G.ambient.rank, [w.letters for w in gens])


class TestVerifyAdmissible:
    def test_overlapping_family_edgeless(self):
        F3 = abc_alphabet(3)
        facs = [
            fc.free_factor_class(
                F3, [word_from_str(F3, "a"), word_from_str(F3, f"{'b ' * i}c")]
            )
            for i in range(4)
        ]
        coll = sy.verify_admissible(facs)
        assert not coll.gamma.edges
        assert all(v == "overlap" for _, _, v in coll.classifications)

    def test_disjoint_pair_one_edge(self):
        F4 = abc_alphabet(4)
        A = fc.free_factor_class(F4, [word_from_str(F4, "a"), word_from_str(F4, "b")])
        B = fc.free_factor_class(F4, [word_from_str(F4, "c"), word_from_str(F4, "d")])
        coll = sy.verify_admissible([A, B])
        assert len(coll.gamma.edges) == 1

    def test_duplicate_not_admissible(self):
        facs = pentagon_factors()
        with pytest.raises(NotAdmissible):
            sy.verify_admissible([facs[0], facs[0]])

    def test_rank_one_factor_refused(self):
        with pytest.raises(RankTooSmall):
            sy.verify_admissible([fc.free_factor_class(F5, [letter(F5, 0)])])

    def test_rank_refusal_survives_optimize(self, run_optimized):
        out = run_optimized(
            "from freefactor import factors as fc, systems as sy, words as W\n"
            "from freefactor.errors import RankTooSmall\n"
            "F = W.std_alphabet(5)\n"
            "try:\n"
            "    sy.verify_admissible([fc.free_factor_class(F, [W.letter(F, 0)])])\n"
            "except RankTooSmall as exc:\n"
            "    print(exc)\n"
        )
        assert out == "admissible collections need factors of rank >= 2\n"

    def test_example2_coincidence_is_pentagon_complement(self):
        coll = sy.verify_admissible(pentagon_factors())
        edges = set(map(frozenset, coll.gamma.edges))
        assert edges == {
            frozenset((f"v{i}", f"v{(i + 2) % 5}")) for i in range(5)
        }


class TestBuildGenerators:
    def test_certificates_pass(self):
        system = pentagon_system(power=2)
        assert all(system.restriction_hyperbolic)
        f0 = system.maps[0]
        # acts only on the first two letters
        for k in range(2, 5):
            assert f0(letter(F5, k)) == letter(F5, k)

    @pytest.mark.parametrize("power", [1, 2])
    def test_inverses_match_the_fold(self, power):
        # each map is certified by composition; folding its images is the
        # oracle for the inverse it was built with
        for f in pentagon_system(power).maps:
            assert f.inverse_images == automorphism(F5, f.images).inverse_images

    def test_power_zero_identity(self):
        system = pentagon_system(power=0)
        assert not any(system.restriction_hyperbolic)
        assert all(f.is_identity() for f in system.maps)

    def test_parabolic_seed_rejected(self):
        coll = sy.verify_admissible(pentagon_factors())
        parab = GroupMap(A2, A2, (word_from_str(A2, "x0 x1"), word_from_str(A2, "x1")))
        with pytest.raises(NotHyperbolicSeed):
            sy.build_generators(coll, [parab] * 5, 1, pentagon_complements())

    def test_nonlinked_commutator_not_inner(self):
        system = pentagon_system(power=1)
        f0, f1 = system.maps[0], system.maps[1]  # overlapping factors
        comm = compose_map(
            compose_map(f0, f1),
            compose_map(invert_automorphism(f0), invert_automorphism(f1)),
        )
        assert is_inner(comm) is None

    def test_linked_commutator_inner(self):
        system = pentagon_system(power=1)
        f0, f2 = system.maps[0], system.maps[2]  # disjoint factors
        comm = compose_map(
            compose_map(f0, f2),
            compose_map(invert_automorphism(f0), invert_automorphism(f2)),
        )
        assert is_inner(comm) is not None

    def test_support_graph_system(self):
        G = sy.build_support_graph(PENT)
        coll = sy.verify_admissible(
            [G.factor(i) for i in range(5)], names=list(PENT.vertices)
        )
        system = sy.build_generators(
            coll, [SEED] * 5, 1, [list(c) for c in G.complement_words]
        )
        assert all(system.restriction_hyperbolic)

    def test_mismatched_lengths_refused(self):
        coll = sy.verify_admissible(pentagon_factors())
        with pytest.raises(LengthMismatch):
            sy.build_generators(coll, [SEED] * 4, 1, pentagon_complements())
        with pytest.raises(LengthMismatch):
            sy.build_generators(coll, [SEED] * 5, 1, pentagon_complements()[:4])
        short = pentagon_complements()
        short[2] = short[2][:2]
        with pytest.raises(LengthMismatch):
            sy.build_generators(coll, [SEED] * 5, 1, short)

    def test_rank3_factor_refused(self):
        A = fc.free_factor_class(F5, [letter(F5, 0), letter(F5, 1), letter(F5, 2)])
        coll = sy.AdmissibleCollection(("v0",), (A,), raag.simplicial_graph(["v0"], []), ())
        with pytest.raises(RankMismatch):
            sy.build_generators(coll, [SEED], 1, [[letter(F5, 3), letter(F5, 4)]])

    def test_preconditions_survive_optimize(self, run_optimized):
        out = run_optimized(
            "from freefactor import factors as fc, raag, systems as sy\n"
            "from freefactor.errors import FreefactorError\n"
            "from freefactor.words import GroupMap, letter, std_alphabet, word_from_str\n"
            "F5, A2 = std_alphabet(5), std_alphabet(2)\n"
            "seed = GroupMap(A2, A2, (word_from_str(A2, 'x0 x0 x1'), word_from_str(A2, 'x0 x1')))\n"
            "A = fc.free_factor_class(F5, [letter(F5, 0), letter(F5, 1)])\n"
            "B = fc.free_factor_class(F5, [letter(F5, 0), letter(F5, 1), letter(F5, 2)])\n"
            "one = lambda X: sy.AdmissibleCollection(('v0',), (X,), raag.simplicial_graph(['v0'], []), ())\n"
            "rest = [letter(F5, k) for k in (2, 3, 4)]\n"
            "calls = [lambda: sy.build_generators(one(A), [seed, seed], 1, [rest]),\n"
            "         lambda: sy.build_generators(one(B), [seed], 1, [rest[1:]]),\n"
            "         lambda: sy.build_generators(one(A), [seed], 1, [rest[:2]])]\n"
            "for call in calls:\n"
            "    try:\n"
            "        call()\n"
            "    except FreefactorError as exc:\n"
            "        print(type(exc).__name__)\n"
        )
        assert out.split() == ["LengthMismatch", "RankMismatch", "LengthMismatch"]

    def test_bad_complement_raises(self):
        coll = sy.verify_admissible(pentagon_factors())
        bad = pentagon_complements()
        bad[0] = [letter(F5, 0), letter(F5, 3), letter(F5, 4)]  # not a basis
        with pytest.raises(NotSurjective):
            sy.build_generators(coll, [SEED] * 5, 1, bad)

    def test_seed_not_onto_raises(self):
        # trace 3 passes the seed check, but the images generate a proper subgroup
        images = ("x0 x1 x0 x1 x0^-1 x1^-1 x0", "x1 x0")
        seed = GroupMap(A2, A2, tuple([word_from_str(A2, s) for s in images]))
        assert farey.is_fully_irreducible(farey.matrix_of_out(seed))
        coll = sy.verify_admissible(pentagon_factors())
        with pytest.raises(NotSurjective):
            sy.build_generators(coll, [seed] * 5, 1, pentagon_complements())


class TestCertifySupport:
    """Refusals of ``certify_support`` on two linked (disjoint) factors
    A = <x0, x1> and B = <x2, x3> of F_5; x4 lies in neither."""

    @staticmethod
    def linked_pair():
        coll = sy.verify_admissible([
            fc.free_factor_class(F5, [letter(F5, 0), letter(F5, 1)]),
            fc.free_factor_class(F5, [letter(F5, 2), letter(F5, 3)]),
        ])
        assert coll.gamma.adjacent("v0", "v1")
        return coll

    def test_both_identities_pass(self):
        sy.certify_support(self.linked_pair(), [identity_map(F5)] * 2)

    def test_partial_conjugation_passes_without_a_linked_transport(self, monkeypatch):
        # x2 -> x4 x2 x4^-1, x3 -> x4 x3 x4^-1 fixes A and conjugates B by x4:
        # the inner witness on B stands in for B's transport
        x4 = letter(F5, 4)
        images = [letter(F5, k) for k in range(5)]
        images[2], images[3] = images[2].conjugate_by(x4), images[3].conjugate_by(x4)
        partial = automorphism(F5, images)
        coll = self.linked_pair()
        transported = []

        def transport(f, A):
            transported.append(coll.factors.index(A))
            return real_transport(f, A)

        real_transport = fc.transport
        monkeypatch.setattr(fc, "transport", transport)
        sy.certify_support(coll, [partial, identity_map(F5)])
        assert transported == [0, 1]  # each map's own factor only

    def test_map_moving_its_own_factor(self):
        moves_a = transvection(F5, 0, 4, 1)  # x0 -> x0 x4
        with pytest.raises(SupportViolation, match="does not stabilize its own factor"):
            sy.certify_support(self.linked_pair(), [moves_a, identity_map(F5)])

    def test_map_moving_a_linked_factor(self):
        moves_b = transvection(F5, 2, 4, 1)  # x2 -> x2 x4 fixes A
        with pytest.raises(SupportViolation, match="does not stabilize linked factor v1"):
            sy.certify_support(self.linked_pair(), [moves_b, identity_map(F5)])

    def test_map_acting_on_a_linked_factor(self):
        acts_on_b = transvection(F5, 2, 3, 1)  # x2 -> x2 x3 keeps B, not inner-trivially
        with pytest.raises(SupportViolation, match="not inner-trivial on linked factor v1"):
            sy.certify_support(self.linked_pair(), [acts_on_b, identity_map(F5)])

    def test_linked_maps_whose_commutator_is_not_inner(self):
        # x4 -> x4 x0 and x4 -> x4 x2 each fix A and B pointwise, but their
        # commutator sends x4 to x4 x0 x2 x0^-1 x2^-1 and fixes x0, ..., x3
        f, g = transvection(F5, 4, 0, 1), transvection(F5, 4, 2, 1)
        with pytest.raises(CommutationViolation, match=r"\[f_v0, f_v1\] is not inner"):
            sy.certify_support(self.linked_pair(), [f, g])


class TestShadows:
    """The collection's shadows against a fresh projection of every pair."""

    @pytest.mark.parametrize("fixture", ["overlap-chain-f3", "pentagon-f5", "pentagon-support-f6"])
    def test_match_fresh_projection(self, fixture):
        coll = se.load_fixture(fixture).collection
        for i, A in enumerate(coll.factors):
            for j, B in enumerate(coll.factors):
                if i == j:
                    continue
                meets = fc.meet_projection(A, B)
                if meets:
                    want = frozenset(farey.farey_vertex(*mc.classes[0]) for mc in meets)
                    assert coll.shadows[(i, j)] == coll.shadow(i, j) == pj.ProjectionSet(A, want)
                    assert pj.factor_projection_vertices(A, B) == want
                else:
                    assert (i, j) not in coll.shadows
                    with pytest.raises(UndefinedProjection):
                        coll.shadow(i, j)
        assert coll.shadows and all(i != j for i, j in coll.shadows)

    def test_loading_projects_nothing(self):
        text = se.fixture_path("pentagon-f5").read_text()
        system = se.system_from_json(json.loads(text))
        assert "shadows" not in vars(system.collection)
        coll = sy.verify_admissible(pentagon_factors())
        assert "shadows" not in vars(coll)


class TestRestrictsInnerTrivially:
    def test_identity(self):
        from freefactor.words import identity_map

        A = pentagon_factors()[0]
        assert sy.restricts_inner_trivially(identity_map(F5), A)

    def test_conjugation(self):
        from freefactor.words import conjugation_by

        A = pentagon_factors()[0]
        assert sy.restricts_inner_trivially(conjugation_by(word_from_str(F5, "x2 x0")), A)

    def test_genuine_action(self):
        system = pentagon_system(power=1)
        facs = pentagon_factors()
        assert not sy.restricts_inner_trivially(system.maps[0], facs[0])
        assert not sy.restricts_inner_trivially(system.maps[0], facs[1])
        assert sy.restricts_inner_trivially(system.maps[0], facs[2])


class TestPhi:
    def test_single_syllable_active(self):
        system = pentagon_system(power=1)
        facs = pentagon_factors()
        gamma = system.collection.gamma
        g = raag.normalize(gamma, raag.raag_word_from_str(gamma, "v3^2"))
        assert sy.active_factor(system, g, 0) == facs[3]

    def test_linked_prefix_acts_trivially(self):
        system = pentagon_system(power=1)
        facs = pentagon_factors()
        gamma = system.collection.gamma
        g = raag.normalize(gamma, raag.raag_word_from_str(gamma, "v0 v2"))
        assert sy.active_factor(system, g, 1) == facs[2]

    def test_well_defined_across_min_set(self):
        system = pentagon_system(power=1)
        gamma = system.collection.gamma
        g = raag.normalize(gamma, raag.raag_word_from_str(gamma, "v0 v2 v4^-1 v1"))
        adj = {frozenset(e) for e in gamma.edges}
        members = [raag.raag_word(gamma, m) for m in raag_min_forms(adj, g.key())]
        assert len(members) > 1
        reference = {
            (s.gen, s.exp): sy.active_factor(system, g, k).key
            for k, s in enumerate(g.syllables)
        }
        for m in members:
            got = {
                (s.gen, s.exp): sy.active_factor(system, m, k).key
                for k, s in enumerate(m.syllables)
            }
            assert got == reference

    def test_phi_homomorphism_on_commuting_pair(self):
        system = pentagon_system(power=1)
        gamma = system.collection.gamma
        g1 = raag.normalize(gamma, raag.raag_word_from_str(gamma, "v0 v2"))
        g2 = raag.normalize(gamma, raag.raag_word_from_str(gamma, "v2 v0"))
        p1, p2 = sy.apply_phi(system, g1.key()), sy.apply_phi(system, g2.key())
        assert p1.images == p2.images  # disjoint supports commute exactly

    def test_syllable_index_refusal_survives_optimize(self, run_optimized):
        out = run_optimized(
            "from freefactor import raag, serialize as se, systems as sy\n"
            "from freefactor.errors import FreefactorError\n"
            "system = se.load_fixture('pentagon-f5')\n"
            "g = raag.raag_word(system.collection.gamma, [(system.collection.names[0], 2)])\n"
            "for k in (-1, 1):\n"
            "    try:\n"
            "        sy.active_factor(system, g, k)\n"
            "    except FreefactorError as exc:\n"
            "        print(f'{type(exc).__name__}: {exc}')\n"
        )
        assert out == (
            "NoSuchSyllable: no syllable -1 in a word of syllable length 1\n"
            "NoSuchSyllable: no syllable 1 in a word of syllable length 1\n"
        )
