import random
from math import gcd

import pytest

from freefactor import farey
from freefactor.errors import (
    MalformedVertex,
    NonPrimitiveImage,
    NotUnimodular,
    RankMismatch,
)
from freefactor.words import GroupMap, abc_alphabet, identity_map, word_from_str
from oracles import (
    farey_bfs_distances,
    farey_distance_by_descent,
    farey_neighbors,
    farey_norm,
    primitive_pairs,
)

A2 = abc_alphabet(2)


def v(p, q):
    return farey.farey_vertex(p, q)


def act(m, u):
    """The vertex m u, for the matrix m = (a, b, c, d) acting on columns."""
    a, b, c, d = m
    return v(a * u.p + b * u.q, c * u.p + d * u.q)


class TestVertices:
    def test_normalization(self):
        assert v(-1, 2) == farey.FareyVertex(1, -2)
        assert v(0, -3) == farey.FareyVertex(0, 3) if False else v(0, -1) == farey.FareyVertex(0, 1)

    def test_non_primitive(self):
        with pytest.raises(NonPrimitiveImage):
            v(2, 4)
        with pytest.raises(NonPrimitiveImage):
            v(0, 0)

    def test_constructor_refuses_bad_pairs(self):
        for p, q in ((0, 0), (2, 4)):
            with pytest.raises(NonPrimitiveImage):
                farey.FareyVertex(p, q)
        with pytest.raises(MalformedVertex):
            farey.FareyVertex(-1, 2)

    def test_constructor_refusals_survive_optimize(self, run_optimized):
        out = run_optimized(
            "from freefactor import farey\n"
            "from freefactor.errors import FreefactorError\n"
            "for p, q in ((0, 0), (2, 4), (-1, 2)):\n"
            "    try:\n"
            "        farey.FareyVertex(p, q)\n"
            "    except FreefactorError as exc:\n"
            "        print(f'{type(exc).__name__}: {exc}')\n"
        )
        assert out == (
            "NonPrimitiveImage: (0, 0) is not a primitive pair\n"
            "NonPrimitiveImage: (2, 4) is not a primitive pair\n"
            "MalformedVertex: -1/2 is not sign-normalized; farey_vertex normalizes\n"
        )

    def test_str_roundtrip(self):
        u = v(3, -5)
        assert farey.vertex_from_str(str(u)) == u


class TestVertexBuilder:
    """``farey_vertex`` normalizes and the constructor checks, with their
    refusal texts; both build the same slotted vertices."""

    def test_refusals_keep_their_text(self):
        cases = [
            (lambda: farey.FareyVertex(2, 4), NonPrimitiveImage, "(2, 4) is not a primitive pair"),
            (lambda: farey.FareyVertex(-1, 2), MalformedVertex, "-1/2 is not sign-normalized; farey_vertex normalizes"),
            (lambda: farey.farey_vertex(0, 0), NonPrimitiveImage, "zero vector is not a vertex"),
            (lambda: farey.farey_vertex(2, 4), NonPrimitiveImage, "(2, 4) is not primitive"),
        ]
        for build, error, text in cases:
            with pytest.raises(error) as info:
                build()
            assert str(info.value) == text

    def test_built_vertices_match_constructed(self):
        for p, q in primitive_pairs(12):
            for sp, sq in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                got = v(sp * p, sq * q)
                want = farey.FareyVertex(*farey_norm(sp * p, sq * q))
                assert type(got) is farey.FareyVertex and not hasattr(got, "__dict__")
                assert got == want and hash(got) == hash(want) and (got.p, got.q) == (want.p, want.q)
                assert {got: 1}[want] == 1
        with pytest.raises(AttributeError):
            v(1, 2).p = 3


class TestVertexOf:
    def test_first_basis_letter(self):
        assert farey.farey_vertex(*farey.abelianize2(word_from_str(A2, "a"))) == v(1, 0)

    def test_product(self):
        assert farey.farey_vertex(*farey.abelianize2(word_from_str(A2, "a b"))) == v(1, 1)

    def test_conjugation_invisible(self):
        assert farey.farey_vertex(*farey.abelianize2(word_from_str(A2, "b a b^-1"))) == v(1, 0)


class TestDistance:
    def test_basic(self):
        assert farey.farey_distance(v(1, 0), v(0, 1)) == 1
        assert farey.farey_distance(v(1, 0), v(1, 0)) == 0
        assert farey.farey_distance(v(1, 0), v(1, 2)) == 2

    def test_bfs_oracle_small(self):
        dist = farey_bfs_distances((1, 0), 25)
        for p, q in primitive_pairs(8):
            assert farey.farey_distance(v(1, 0), v(p, q)) == dist[farey_norm(p, q)]

    def test_symmetry_and_triangle(self):
        rng = random.Random(17)
        pairs = list(primitive_pairs(30))
        for _ in range(300):
            a, b, c = (v(*rng.choice(pairs)) for _ in range(3))
            dab = farey.farey_distance(a, b)
            assert dab == farey.farey_distance(b, a)
            assert dab <= farey.farey_distance(a, c) + farey.farey_distance(c, b)
            assert (dab == 0) == (a == b)

    def test_isometry_of_action(self):
        rng = random.Random(19)
        m = (2, 1, 1, 1)
        pairs = list(primitive_pairs(20))
        for _ in range(100):
            a, b = v(*rng.choice(pairs)), v(*rng.choice(pairs))
            assert farey.farey_distance(a, b) == farey.farey_distance(act(m, a), act(m, b))


def parents(u):
    """The two Stern-Brocot parents of u = p/q with q >= 2: the vertices
    a/b and (p - a)/(q - b) with p b - q a = 1 and 0 < b < q."""
    p, q = (u.p, u.q) if u.q > 0 else (-u.p, -u.q)
    b = pow(p, -1, q)
    a = (p * b - 1) // q
    return v(a, b), v(p - a, q - b)


def big_vertex(rng, bits):
    while True:
        p, q = (rng.choice((1, -1)) * rng.getrandbits(bits) for _ in range(2))
        if gcd(p, q) == 1 and abs(q) >= 2:
            return v(p, q)


class TestDeterminantFirst:
    """Equal and adjacent pairs are read off the determinant; the descent
    that every unequal pair took before stays the oracle."""

    def test_matches_descent_on_small_pairs(self):
        # every pair with |p|, |q| <= 12, equal pairs and each vertex's
        # Stern-Brocot parents among them
        vs = [v(p, q) for p, q in sorted(primitive_pairs(12))]
        for i, a in enumerate(vs):
            for b in vs[i:]:
                d = farey.farey_distance(a, b)
                assert d == farey.farey_distance(b, a) == farey_distance_by_descent(a, b), (a, b)

    def test_matches_descent_on_200_bit_pairs(self):
        rng = random.Random(23)
        for _ in range(200):
            a, b = big_vertex(rng, 200), big_vertex(rng, 200)
            assert farey.farey_distance(a, a) == farey_distance_by_descent(a, a) == 0
            assert farey.farey_distance(a, b) == farey_distance_by_descent(a, b)
            for w in parents(a):
                assert farey.farey_distance(a, w) == farey_distance_by_descent(a, w) == 1
                assert farey.farey_distance(w, b) == farey_distance_by_descent(w, b)

    def test_equal_and_adjacent_pairs_do_not_descend(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("an equal or adjacent pair reached the descent")

        monkeypatch.setattr(farey, "_bezout", refuse)
        monkeypatch.setattr(farey, "_dist_to_infinity", refuse)
        rng = random.Random(29)
        pairs = [(v(p, q), [v(*w) for w in farey_neighbors((p, q), 12)]) for p, q in primitive_pairs(12)]
        pairs += [(u, parents(u)) for u in (big_vertex(rng, 200) for _ in range(50))]
        for u, neighbours in pairs:
            assert farey.farey_distance(u, u) == 0
            assert neighbours
            for w in neighbours:
                assert farey.farey_distance(u, w) == farey.farey_distance(w, u) == 1


class TestMatrices:
    def test_parabolic(self):
        f = GroupMap(A2, A2, (word_from_str(A2, "a b"), word_from_str(A2, "b")))
        m = farey.matrix_of_out(f)
        assert (m.a, m.b, m.c, m.d) == (1, 0, 1, 1)
        assert not farey.is_fully_irreducible(m)

    def test_hyperbolic(self):
        f = GroupMap(A2, A2, (word_from_str(A2, "a b"), word_from_str(A2, "b a b")))
        m = farey.matrix_of_out(f)
        assert (m.a, m.b, m.c, m.d) == (1, 1, 1, 2)
        assert farey.is_fully_irreducible(m)

    def test_singular_refused(self):
        with pytest.raises(NotUnimodular):
            farey.Matrix2Z(2, 0, 0, 2)

    def test_singular_refusal_survives_optimize(self, run_optimized):
        out = run_optimized(
            "from freefactor import farey\n"
            "from freefactor.errors import NotUnimodular\n"
            "try:\n"
            "    farey.Matrix2Z(2, 0, 0, 2)\n"
            "except NotUnimodular as exc:\n"
            "    print(exc)\n"
        )
        assert out == "determinant 4: the matrix is not in GL(2, Z)\n"

    def test_rank_refused(self):
        with pytest.raises(RankMismatch):
            farey.abelianize2(word_from_str(abc_alphabet(3), "c"))
        with pytest.raises(RankMismatch):
            farey.matrix_of_out(identity_map(abc_alphabet(3)))

    def test_rank_refusals_survive_optimize(self, run_optimized):
        out = run_optimized(
            "from freefactor import farey, words as W\n"
            "from freefactor.errors import FreefactorError\n"
            "A = W.abc_alphabet(3)\n"
            "for call in (\n"
            "    lambda: farey.abelianize2(W.letter(A, 2)),\n"
            "    lambda: farey.matrix_of_out(W.identity_map(A)),\n"
            "):\n"
            "    try:\n"
            "        call()\n"
            "    except FreefactorError as exc:\n"
            "        print(f'{type(exc).__name__}: {exc}')\n"
        )
        assert out == (
            "RankMismatch: abelianize2 needs a rank-2 word, not rank 3\n"
            "RankMismatch: matrix_of_out needs rank 2, not 3 -> 3\n"
        )

    def test_matches_bfs_small_powers(self):
        m = (2, 1, 1, 1)
        dist = farey_bfs_distances((1, 0), 120)
        base = u = v(1, 0)
        for _ in range(5):
            u = act(m, u)
            assert farey.farey_distance(base, u) == dist[(u.p, u.q)]
