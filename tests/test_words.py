import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freefactor import experiments as ex, projections as pj, serialize as se, stallings, words
from freefactor._kernel import concat, reduce_word, substitute
from freefactor.errors import (
    AlphabetMismatch,
    InvalidAlphabet,
    InvalidMarking,
    MalformedWord,
    NotSurjective,
    UnknownLetter,
)
from freefactor.words import (
    Alphabet,
    GroupMap,
    abc_alphabet,
    automorphism,
    compose_map,
    conjugacy_witness,
    conjugation_by,
    identity_map,
    invert_automorphism,
    is_inner,
    letter,
    map_power,
    reduce_raw,
    std_alphabet,
    transvection,
    word_from_str,
    word_to_str,
)
from oracles import (
    compose_with_inverses,
    inner_witness_scan,
    inverts,
    is_onto,
    map_power_by_composition,
    naive_reduce,
    nielsen_inverse,
    peeled_cyclic_reduce,
    plain_substitution,
)

A3 = abc_alphabet(3)


def rand_word(rng, alphabet, length):
    raw = [rng.choice([1, -1]) * rng.randrange(1, alphabet.rank + 1) for _ in range(length)]
    return reduce_raw(alphabet, raw)


def rand_nielsen_auto(rng, alphabet, steps):
    f = identity_map(alphabet)
    n = alphabet.rank
    for _ in range(steps):
        i = rng.randrange(n)
        images = [letter(alphabet, k) for k in range(n)]
        kind = rng.randrange(3)
        if kind == 0:
            images[i] = images[i].inverse()
        elif kind == 1 and n >= 2:
            j = rng.choice([k for k in range(n) if k != i])
            images[i] = images[i] * letter(alphabet, j, rng.choice([1, -1]))
        else:
            j = rng.choice([k for k in range(n) if k != i]) if n >= 2 else i
            images[i], images[j] = images[j], images[i]
        f = compose_map(GroupMap(alphabet, alphabet, tuple(images)), f)
    return f


class TestReduce:
    def test_cancellation(self):
        assert word_to_str(word_from_str(A3, "a b b^-1")) == "a"

    def test_empty(self):
        assert word_from_str(A3, "").is_identity()

    def test_already_reduced(self):
        assert word_to_str(word_from_str(A3, "a b a^-1")) == "a b a^-1"

    def test_unknown_letter(self):
        with pytest.raises(UnknownLetter):
            word_from_str(A3, "z")

    def test_unreduced_word_refused(self):
        with pytest.raises(MalformedWord):
            words.Word(abc_alphabet(2), (1, -1))
        with pytest.raises(MalformedWord):
            letter(A3, 0, 0)

    def test_letter_index_out_of_range(self):
        for raw in ([1, 4], [0], [-4, 2]):
            bad = next(x for x in raw if x == 0 or abs(x) > 3)
            message = f"letter index {bad} invalid for rank 3"
            with pytest.raises(UnknownLetter, match=message):
                reduce_raw(A3, raw)
            with pytest.raises(UnknownLetter, match=message):
                words.Word(A3, tuple(raw))

    def test_invalid_alphabet(self):
        with pytest.raises(InvalidAlphabet, match="rank must be >= 1"):
            Alphabet(())
        with pytest.raises(InvalidAlphabet, match="letter name 'b' repeats"):
            Alphabet(("a", "b", "c", "b"))
        for name in ("", " ", "a b", "\ta", "a^-1", "x^2", "^"):
            with pytest.raises(InvalidAlphabet, match="is empty or holds whitespace or '\\^'"):
                Alphabet(("a", name))

    def test_names_read_back(self):
        A = Alphabet(("a", "1", "b-c", "x,y", "é"))
        for name in A.names:
            assert word_from_str(A, f"{name}^-1 {name}^2").letters == (A.index(name) + 1,)

    def test_alphabet_equality_by_names(self):
        ab = Alphabet(("a", "b"))
        assert ab == abc_alphabet(2) and hash(ab) == hash(abc_alphabet(2))
        assert ab != abc_alphabet(3) and ab != ("a", "b")

    def test_bad_exponent(self):
        for text in ("a^x", "a^", "b a^1.5"):
            with pytest.raises(MalformedWord):
                word_from_str(A3, text)

    @given(st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), max_size=40))
    def test_matches_naive_oracle(self, raw):
        assert reduce_raw(A3, raw).letters == naive_reduce(raw)

    @given(st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), max_size=40))
    def test_idempotent_and_inverse_cancels(self, raw):
        w = reduce_raw(A3, raw)
        assert reduce_raw(A3, w.letters) == w
        assert (w * w.inverse()).is_identity()


@st.composite
def seam_cases(draw):
    """A word over piece indices and reduced pieces: some base words, their
    inverses and the empty word, so whole pieces cancel (w, w^-1, w)."""
    raw = st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), max_size=8)
    base = [naive_reduce(w) for w in draw(st.lists(raw, min_size=1, max_size=4))]
    pieces = base + [tuple(-x for x in reversed(w)) for w in base] + [()]
    index = st.integers(1, len(pieces)).flatmap(lambda i: st.sampled_from([i, -i]))
    return draw(st.lists(index, max_size=12)), pieces


class TestSeamProduct:
    """``substitute`` cancels only at the seams, so it must agree with
    reducing the plain concatenation letter by letter."""

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(seam_cases())
    def test_matches_reduced_concatenation(self, case):
        word, pieces = case
        assert substitute(word, pieces) == reduce_word(plain_substitution(word, pieces))

    def test_whole_pieces_cancel(self):
        w = (1, 2, -3)
        w_inv = (3, -2, -1)
        assert substitute([1, -1, 1], [w]) == list(w)
        assert substitute([1, 2, 1], [w, w_inv]) == list(w)
        assert substitute([1, 2, -1, 1], [w, ()]) == list(w)
        assert substitute([1, 2, 2, -1], [w, w_inv]) == list(w_inv + w_inv)
        assert substitute([], [w]) == []


@st.composite
def kernel_inputs(draw):
    """An alphabet of rank 2 to 5, two raw words over it, and a seed."""
    rank = draw(st.integers(2, 5))
    signed = st.integers(1, rank).flatmap(lambda i: st.sampled_from([i, -i]))
    raw = st.lists(signed, max_size=30)
    return std_alphabet(rank), draw(raw), draw(raw), draw(st.integers(0, 2 ** 32 - 1))


def checked(w):
    """w rebuilt by the checked constructor, which refuses a letter out of
    range or an unreduced word; the rebuilt word must equal w."""
    again = words.Word(w.alphabet, w.letters)
    assert again == w
    return again


class TestTrustedConstruction:
    """Products, inverses and map images skip the constructor's checks.
    Replaying them through the checked constructor is the oracle for that
    trusted path: a kernel that leaves a seam uncancelled fails it."""

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(kernel_inputs())
    def test_kernel_output_passes_the_checks(self, case):
        alphabet, raw_u, raw_v, seed = case
        rng = random.Random(seed)
        u, v = checked(reduce_raw(alphabet, raw_u)), checked(reduce_raw(alphabet, raw_v))
        f = ex.random_automorphism(rng, alphabet, 6)
        g = ex.random_automorphism(rng, alphabet, 6)
        images = [im.letters for im in f.images]
        words.Word(alphabet, tuple(concat(u.letters, v.letters)))
        words.Word(alphabet, tuple(substitute(u.letters, images)))
        words.Word(alphabet, tuple(substitute(v.letters + u.letters, images)))
        for w in (u * v, u.inverse() * v, v * u.inverse(), u.inverse(), f(u), f(v.inverse() * u)):
            checked(w)
        unmarked = GroupMap(alphabet, alphabet, f.images)
        for h in (compose_map(f, g), map_power(f, 3), map_power(g, -2), invert_automorphism(unmarked)):
            for w in h.images + h.inverse_images:
                checked(w)


class TestWordPower:
    @pytest.mark.parametrize("text", ["", "a", "a b^-1", "b a c a^-1", "a b a^-1"])
    def test_matches_repeated_product(self, monkeypatch, text):
        built = []
        mul = words.Word.__mul__

        def recording(u, v):
            built.append(mul(u, v))
            return built[-1]

        monkeypatch.setattr(words.Word, "__mul__", recording)
        w = word_from_str(A3, text)
        for n in range(-9, 10):
            built.clear()
            got = w ** n
            # no square past the last bit: nothing longer than |w| |n| is built
            assert max(map(len, built), default=0) <= len(w) * abs(n)
            want = words.identity(A3)
            for _ in range(abs(n)):
                want = want * (w if n > 0 else w.inverse())
            assert got == want


class TestConjugacy:
    def test_examples(self):
        a, b = word_from_str(A3, "a"), word_from_str(A3, "b")
        assert conjugacy_witness(a, word_from_str(A3, "b a b^-1")) == b
        assert conjugacy_witness(a, a).is_identity()
        assert conjugacy_witness(a, b) is None

    def test_random_conjugates(self):
        rng = random.Random(7)
        for _ in range(50):
            u = rand_word(rng, A3, rng.randrange(0, 8))
            w = rand_word(rng, A3, rng.randrange(0, 8))
            v = u.conjugate_by(w)
            got = conjugacy_witness(u, v)
            assert got is not None
            assert u.conjugate_by(got) == v


class TestCyclicReduce:
    def test_agrees_with_peeling(self):
        # the core is found by index and sliced once; the oracle peels one
        # letter off each end per step
        rng = random.Random(43)
        for rank in (1, 2, 3):
            alphabet = std_alphabet(rank)
            for length in (0, 1, 2, 5, 40, 1000, 2000):
                u = rand_word(rng, alphabet, length)
                w = rand_word(rng, alphabet, rng.randrange(0, length + 2))
                for x in (u, u.conjugate_by(w), w * w.inverse()):
                    core, c = x.cyclic_reduce()
                    assert (core.letters, c.letters) == peeled_cyclic_reduce(x.letters)
                    assert core.conjugate_by(c) == x
                    checked(core)
                    checked(c)


class TestCompose:
    def test_identity_neutral(self):
        f = GroupMap(A3, A3, (word_from_str(A3, "a b"), word_from_str(A3, "b"), word_from_str(A3, "c")))
        assert compose_map(identity_map(A3), f).images == f.images
        assert compose_map(f, identity_map(A3)).images == f.images

    def test_self_composition(self):
        f = GroupMap(A3, A3, (word_from_str(A3, "a b"), word_from_str(A3, "b"), word_from_str(A3, "c")))
        ff = compose_map(f, f)
        assert word_to_str(ff.images[0]) == "a b b"

    @pytest.mark.parametrize("id_certified", [True, False])
    @pytest.mark.parametrize("other_certified", [True, False])
    def test_identity_operand_matches_full_composition(self, id_certified, other_certified):
        # an identity operand is skipped only where the full composition
        # gives the same images and inverse images; a certified one always
        # is, and the factor left is returned as it is
        rng = random.Random(29)
        for rank in (2, 3, 4):
            alphabet = std_alphabet(rank)
            ident = identity_map(alphabet)
            if not id_certified:
                ident = GroupMap(alphabet, alphabet, ident.images)
            for _ in range(4):
                other = _linked_product(rng, alphabet)
                if not other_certified:
                    other = GroupMap(alphabet, alphabet, other.images)
                for factors in ((ident, other), (other, ident), (ident, other, ident)):
                    got = compose_map(*factors)
                    assert (_letters(got), _inverse_letters(got)) == _oracle_product(factors)
                    if not other.is_identity():
                        assert (got is other) == id_certified

    @pytest.mark.parametrize("source", ["fixture", "random", "uncertified"])
    def test_product_matches_left_fold(self, source):
        # one k-factor product against the left fold of binary products and
        # against the oracles' plain substitution, on images and inverses
        for factors in _product_inputs(source, random.Random(31)):
            got = compose_map(*factors)
            fold = factors[0]
            for g in factors[1:]:
                fold = compose_map(fold, g)
            assert _letters(got) == _letters(fold)
            assert _inverse_letters(got) == _inverse_letters(fold)
            assert (_letters(got), _inverse_letters(got)) == _oracle_product(factors)
            certified = all(g.inverse_images is not None for g in factors)
            assert (got.inverse_images is not None) == certified

    @pytest.mark.parametrize("source", ["fixture", "random", "uncertified"])
    def test_one_factor_left_is_returned(self, source):
        rng = random.Random(37)
        for factors in _product_inputs(source, rng):
            g = factors[0]
            assert compose_map(g) is g
            if g.is_identity() and g.inverse_images is not None:
                continue
            ident = identity_map(g.domain)
            padded = [ident] * rng.randrange(0, 3) + [g] + [ident] * rng.randrange(1, 3)
            assert compose_map(*padded) is g
            # an uncertified identity is kept: skipping it would certify
            # the product of a certified g
            bare = GroupMap(ident.domain, ident.codomain, ident.images)
            got = compose_map(g, bare)
            assert got is not g and got.images == g.images and got.inverse_images is None
        ident = identity_map(A3)
        assert compose_map(ident, identity_map(A3)) is ident

    @pytest.mark.parametrize("source", ["fixture", "random", "uncertified"])
    def test_seam_mismatch_refused(self, source):
        rng = random.Random(41)
        for factors in _product_inputs(source, rng):
            other = identity_map(std_alphabet(factors[0].domain.rank, prefix="y"))
            for k in range(len(factors) + 1):
                spliced = factors[:k] + [other] + factors[k:]
                with pytest.raises(AlphabetMismatch, match="codomain is not the outer map's domain"):
                    compose_map(*spliced)


def _oracle_product(factors):
    """Images and inverse images (None unless every factor is certified) of
    f_1 o ... o f_k by the oracles' plain substitution."""
    images, inverse = _letters(factors[0]), _inverse_letters(factors[0])
    for g in factors[1:]:
        images, inverse = compose_with_inverses(images, inverse, _letters(g), _inverse_letters(g))
    return images, inverse


def _product_inputs(source, rng):
    """Lists of one to four factors over one alphabet: the shipped fixtures'
    maps and their inverses, random products of certified maps, or random
    products with uncertified factors, maps that are not onto among them;
    certified identities are mixed in."""
    lists = []
    if source == "fixture":
        for fixture in se.list_fixtures():
            maps = se.load_fixture(fixture).maps
            pool = list(maps) + [f.inverse_hint for f in maps] + [identity_map(maps[0].domain)]
            lists += [[rng.choice(pool) for _ in range(rng.randrange(1, 5))] for _ in range(8)]
        return lists
    for rank in (2, 3, 4, 5):
        alphabet = std_alphabet(rank)
        pool = [identity_map(alphabet)] + [ex.random_automorphism(rng, alphabet, 8) for _ in range(3)]
        pool += [_linked_product(rng, alphabet) for _ in range(3)]
        if source == "uncertified":
            squared = list(identity_map(alphabet).images)
            i = rng.randrange(rank)
            squared[i] = squared[i] ** 2
            pool += [GroupMap(alphabet, alphabet, f.images) for f in pool[1:]]
            pool += [GroupMap(alphabet, alphabet, tuple(squared)), GroupMap(alphabet, alphabet, pool[0].images)]
        for _ in range(10):
            factors = [rng.choice(pool) for _ in range(rng.randrange(1, 5))]
            if source == "uncertified" and all(f.inverse_images is not None for f in factors):
                factors[rng.randrange(len(factors))] = pool[-1]
            lists.append(factors)
    return lists


class TestNoIdentityWork:
    """Marking a rose and powering a map never apply an identity map."""

    @pytest.mark.parametrize("rank", [2, 3, 5])
    def test_map_applications(self, monkeypatch, rank):
        alphabet = std_alphabet(rank)
        f = compose_map(transvection(alphabet, 0, 1, 1), transvection(alphabet, rank - 1, 0, -1, "left"))
        R = pj.rose(alphabet)
        calls = []
        apply = words.GroupMap.__call__

        def counting(g, w):
            calls.append(g)
            return apply(g, w)

        monkeypatch.setattr(words.GroupMap, "__call__", counting)
        pj.transform_marked(f, R)
        # a rose's labels are its marking words, read off the composed
        # marking, and composing with the rose's identity marking returns f
        assert len(calls) == 0
        assert not any(g.is_identity() for g in calls)
        calls.clear()
        map_power(f, 8)
        # the powers are squared on letter lists, so no map is applied
        assert calls == []
        map_power(f, 0)
        assert calls == []


class TestMapPower:
    """Square-and-multiply on letter lists agrees with one composed map per step."""

    def test_agrees_with_composition_oracle(self):
        for fixture in se.list_fixtures():
            for f in se.load_fixture(fixture).maps:
                for g in (f, f.inverse_hint):
                    for k in range(-12, 13):
                        got, want = map_power(g, k), map_power_by_composition(g, k)
                        assert _letters(got) == _letters(want), (fixture, k)
                        assert _inverse_letters(got) == _inverse_letters(want), (fixture, k)

    def test_uncertified_stays_uncertified(self):
        # a -> a^2 is not onto, so no inverse exists to carry
        f = GroupMap(A3, A3, (word_from_str(A3, "a a"), word_from_str(A3, "b"), word_from_str(A3, "c a")))
        for n in range(2, 6):
            p = map_power(f, n)
            assert p.inverse_images is None
            assert _letters(p) == _letters(map_power_by_composition(f, n))
        assert f.inverse_images is None

    def test_power_one_is_the_map(self):
        f = GroupMap(A3, A3, (word_from_str(A3, "a b"), word_from_str(A3, "b"), word_from_str(A3, "c")))
        assert map_power(f, 1) is f
        t = transvection(A3, 0, 2, -1)
        assert map_power(t, 1) is t

    def test_power_zero_is_the_certified_identity(self):
        f = GroupMap(A3, A3, (word_from_str(A3, "a a"), word_from_str(A3, "b"), word_from_str(A3, "c")))
        p = map_power(f, 0)
        assert p.is_identity()
        assert _inverse_letters(p) == ((1,), (2,), (3,))

    def test_refuses_a_non_endomorphism(self):
        f = GroupMap(A3, abc_alphabet(2), (letter(abc_alphabet(2), 0),) * 3)
        for n in (-2, 0, 1, 2):
            with pytest.raises(AlphabetMismatch, match="map_power needs an endomorphism"):
                map_power(f, n)


class TestDeferredInverse:
    """A certified power builds its inverse images on their first read; every
    way of reading them agrees with one composed map per step."""

    @staticmethod
    def _fixture_maps():
        return [f for fixture in se.list_fixtures() for f in se.load_fixture(fixture).maps]

    @pytest.mark.parametrize("read_inner", [False, True])
    def test_power_of_power(self, read_inner):
        for f in self._fixture_maps():
            want = {k: map_power_by_composition(f, k) for k in range(-9, 10)}
            for a in range(-3, 4):
                for b in range(-3, 4):
                    inner = map_power(f, a)
                    if read_inner:
                        assert inner.inverse_images is not None
                    got = map_power(inner, b)
                    assert got.certified
                    assert _letters(got) == _letters(want[a * b]), (a, b)
                    assert _inverse_letters(got) == _inverse_letters(want[a * b]), (a, b)
                    if abs(a * b) <= 4:
                        assert inverts(got), (a, b)

    def test_inverse_hint(self):
        for f in self._fixture_maps():
            for k in (2, 3, 5, -4):
                h = map_power(f, k).inverse_hint
                assert h.certified and _letters(h) == _letters(map_power_by_composition(f, -k)), k
                assert _inverse_letters(h) == _letters(map_power(f, k)), k
                assert inverts(h), k

    def test_products_of_powers(self):
        rng = random.Random(41)
        maps = self._fixture_maps()
        for _ in range(40):
            f, g = rng.choice(maps), rng.choice(maps)
            if f.domain != g.domain:
                continue
            a, b = rng.choice((-3, -2, 2, 3)), rng.choice((-3, -2, 2, 3))
            got = compose_map(map_power(f, a), map_power(g, b))
            fa, gb = map_power_by_composition(f, a), map_power_by_composition(g, b)
            want = compose_with_inverses(_letters(fa), _inverse_letters(fa), _letters(gb), _inverse_letters(gb))
            assert got.certified and (_letters(got), _inverse_letters(got)) == want, (a, b)

    def test_either_read_first(self):
        for f in self._fixture_maps():
            for k in (-5, 2, 4):
                want = map_power_by_composition(f, k)
                inverse_first = map_power(f, k)
                inverse = _inverse_letters(inverse_first)
                assert (_letters(inverse_first), inverse) == (_letters(want), _inverse_letters(want)), k
                images_first = map_power(f, k)
                images = _letters(images_first)
                assert (images, _inverse_letters(images_first)) == (_letters(want), _inverse_letters(want)), k
                assert _inverse_letters(inverse_first) == inverse and images_first.certified

    def test_long_product_loop(self):
        # each factor a fresh power whose inverse is not yet built; a product
        # that kept them as recipes would recurse 3,000 deep on its first read
        t = transvection(std_alphabet(3), 0, 1, 1)
        t_inv = invert_automorphism(t)
        f = identity_map(t.domain)
        for k in range(3001):
            f = compose_map(map_power(t if k % 2 == 0 else t_inv, 2), f)
        assert _letters(f) == _letters(map_power_by_composition(t, 2))
        assert _inverse_letters(f) == _inverse_letters(map_power_by_composition(t, 2))

    def test_nested_powers(self):
        # a map of order 6, so 40 nested powers stay short: a -> b, b -> c,
        # c -> a^-1
        sigma = automorphism(A3, [word_from_str(A3, s) for s in ("b", "c", "a^-1")])
        rng = random.Random(43)
        g, exponent = sigma, 1
        for _ in range(40):
            n = rng.choice((-3, -2, 2, 2, 3))
            g, exponent = map_power(g, n), exponent * n
        want = map_power_by_composition(sigma, exponent % 6)
        assert (_letters(g), _inverse_letters(g)) == (_letters(want), _inverse_letters(want))
        assert inverts(g)


class TestInvert:
    def test_nielsen_example(self):
        f = GroupMap(A3, A3, (word_from_str(A3, "a b"), word_from_str(A3, "b"), word_from_str(A3, "c")))
        finv = invert_automorphism(f)
        assert word_to_str(finv.images[0]) == "a b^-1"
        assert compose_map(f, finv).is_identity()

    def test_identity(self):
        assert invert_automorphism(identity_map(A3)).is_identity()

    def test_not_surjective(self):
        g = GroupMap(A3, A3, (word_from_str(A3, "a a"), word_from_str(A3, "b"), word_from_str(A3, "c")))
        with pytest.raises(NotSurjective):
            invert_automorphism(g)

    def test_roundtrip_random(self):
        rng = random.Random(11)
        for _ in range(40):
            f = rand_nielsen_auto(rng, A3, rng.randrange(1, 8))
            finv = invert_automorphism(f)
            assert compose_map(f, finv).is_identity()
            assert compose_map(finv, f).is_identity()

    def test_uncertified_map_stays_uncertified(self):
        # an automorphism built without its inverse is never certified
        # later, whatever is computed from it
        rng = random.Random(59)
        for rank in (2, 3, 4):
            alphabet = std_alphabet(rank)
            g = ex.random_automorphism(rng, alphabet, 5)
            f = GroupMap(alphabet, alphabet, ex.random_automorphism(rng, alphabet, 5).images)
            assert invert_automorphism(f).inverse_images == f.images
            assert map_power(f, -2).inverse_images is not None
            assert compose_map(f, g).inverse_images is None
            assert f.inverse_images is None
            with pytest.raises(InvalidMarking, match="needs a verified automorphism"):
                pj.transform_marked(f, pj.rose(alphabet))

    def test_automorphism_certifies_a_new_map(self):
        rng = random.Random(61)
        for rank in (2, 3, 4):
            alphabet = std_alphabet(rank)
            f = ex.random_automorphism(rng, alphabet, 6)
            images = list(f.images)
            got = automorphism(alphabet, images)
            assert got.images == f.images and got.inverse_images == f.inverse_images
            images[0] = images[0] ** 2
            with pytest.raises(NotSurjective):
                automorphism(alphabet, images)


# descends to a length plateau, which the Nielsen search widens breadth-first
PLATEAU_IMAGES = ("b a^-1 b^-1", "c b^-1", "c a^-1 a^-1")


def _letters(f):
    return tuple(w.letters for w in f.images)


def _inverse_letters(f):
    if f.inverse_images is None:
        return None
    return tuple(w.letters for w in f.inverse_images)


class TestFoldInverse:
    """One weighted fold inverts what the Nielsen search of the oracles does."""

    def test_plateau_map_inverts(self):
        f = GroupMap(A3, A3, tuple([word_from_str(A3, s) for s in PLATEAU_IMAGES]))
        finv = invert_automorphism(f)
        assert _letters(finv) == nielsen_inverse(3, _letters(f))
        assert compose_map(f, finv).is_identity() and compose_map(finv, f).is_identity()

    def test_transvection_products_match_search(self):
        rng = random.Random(37)
        for rank in range(2, 6):
            alphabet = std_alphabet(rank)
            for _ in range(15):
                f = ex.random_automorphism(rng, alphabet, 6)
                fresh = GroupMap(alphabet, alphabet, f.images)
                inverse = invert_automorphism(fresh)
                assert _letters(inverse) == nielsen_inverse(rank, _letters(f))
                assert inverse.images == f.inverse_images

    def test_not_surjective_agrees_with_search(self):
        rng = random.Random(41)
        onto = 0
        for rank in range(2, 6):
            alphabet = std_alphabet(rank)
            for _ in range(40):
                images = [rand_word(rng, alphabet, rng.randrange(0, 4)) for _ in range(rank)]
                f = GroupMap(alphabet, alphabet, tuple(images))
                expected = nielsen_inverse(rank, _letters(f))
                if expected is None:
                    with pytest.raises(NotSurjective):
                        invert_automorphism(f)
                else:
                    assert _letters(invert_automorphism(f)) == expected
                    onto += 1
        assert 0 < onto < 160

    def test_not_surjective_survives_optimize(self, run_optimized):
        # a b twice: the fold meets two weights on one edge, a kernel element
        out = run_optimized(
            "from freefactor import words as W\n"
            "from freefactor.errors import NotSurjective\n"
            "A = W.abc_alphabet(3)\n"
            f"for images in ({PLATEAU_IMAGES!r}, ('a b', 'a b', 'c'), ('a a', 'b', 'c')):\n"
            "    f = W.GroupMap(A, A, tuple([W.word_from_str(A, s) for s in images]))\n"
            "    try:\n"
            "        print(W.compose_map(f, W.invert_automorphism(f)).is_identity())\n"
            "    except NotSurjective:\n"
            "        print('refused')\n"
        )
        assert out == "True\nrefused\nrefused\n"


def _spelled_out(num_vertices, arcs, alphabet):
    """The based core of a ``fold_arcs`` result, its arcs read one letter per
    edge, as a SubgroupGraph."""
    adj = [{} for _ in range(num_vertices)]
    for u, ls, v, _w in arcs:
        path = [u] + [len(adj) + i for i in range(len(ls) - 1)] + [v]
        adj.extend({} for _ in ls[1:])
        for x, s, y in zip(path, ls, path[1:]):
            assert s not in adj[x] and -s not in adj[y], "the fold left a clash"
            adj[x][s], adj[y][-s] = y, x
    core, index = stallings._trim(adj, 0)
    return stallings.SubgroupGraph(alphabet, tuple(core), index[0])


def _generator_set(rng, alphabet):
    """Up to five generators: plain words, P M P^-1 words, proper powers and
    empty words, some repeated or inverted."""
    gens = []
    for _ in range(rng.randrange(0, 5)):
        g = rand_word(rng, alphabet, rng.randrange(0, 8))
        kind = rng.random()
        if kind < 0.25:
            g = g.conjugate_by(rand_word(rng, alphabet, rng.randrange(1, 5)))
        elif kind < 0.4:
            g = g ** rng.randrange(2, 5)
        gens.append(g)
        if rng.random() < 0.2:
            gens.append(rng.choice((g, g.inverse())))
    return gens


def _trivial(*_):
    return None


class TestFoldArcs:
    """The weighted fold of whole arcs against the letter fold."""

    def test_trivial_weights_match_letter_fold(self):
        rng = random.Random(43)
        ranks = set()
        for _ in range(1500):
            alphabet = std_alphabet(rng.randrange(1, 5))
            gens = _generator_set(rng, alphabet)
            H = stallings.from_generators(alphabet, gens)
            num, arcs = words.fold_arcs([g.letters for g in gens], [None] * len(gens), _trivial, _trivial, None)
            G = _spelled_out(num, arcs, alphabet)
            assert (G.num_vertices, G.num_edges) == (H.num_vertices, H.num_edges)
            assert G.basis == H.basis
            if H.rank:
                assert stallings.canonical_core(G) == stallings.canonical_core(H)
            ranks.add(H.rank)
        assert ranks >= {0, 1, 2, 3, 4}

    def test_long_transvection_products_invert(self):
        rng = random.Random(47)
        alphabet = std_alphabet(6)
        for _ in range(60):
            f = identity_map(alphabet)
            for _ in range(rng.randrange(20, 31)):
                i, j = rng.sample(range(6), 2)
                t = transvection(alphabet, i, j, rng.choice((1, -1)), rng.choice(("right", "left")))
                f = compose_map(t, f)
            fresh = GroupMap(alphabet, alphabet, f.images)
            assert invert_automorphism(fresh).images == f.inverse_hint.images

    def test_squared_or_repeated_images_refused(self):
        rng = random.Random(53)
        alphabet = std_alphabet(6)
        for _ in range(60):
            f = ex.random_automorphism(rng, alphabet, 20)
            images = list(f.images)
            i, j = rng.sample(range(6), 2)
            if rng.random() < 0.5:
                images[i] = images[i] ** 2
            else:
                images[i] = rng.choice((images[j], images[j].inverse()))
            with pytest.raises(NotSurjective):
                invert_automorphism(GroupMap(alphabet, alphabet, tuple(images)))


def _linked_product(rng, alphabet):
    """A seeded product of transvections, conjugations and powers; every
    factor is built already linked to its inverse."""
    n = alphabet.rank
    f = identity_map(alphabet)
    for _ in range(rng.randrange(1, 5)):
        i, j = rng.sample(range(n), 2)
        t = transvection(alphabet, i, j, rng.choice((1, -1)), rng.choice(("right", "left")))
        piece = rng.choice((
            t,
            conjugation_by(rand_word(rng, alphabet, rng.randrange(0, 4))),
            map_power(t, rng.choice((-2, 2, 3))),
        ))
        f = compose_map(piece, f)
    return f


class TestInversesByConstruction:
    """The inverse a map is built with must match the fold it replaces."""

    def test_linked_inverse_matches_search(self):
        rng = random.Random(17)
        for rank in range(2, 6):
            alphabet = std_alphabet(rank)
            for _ in range(8):
                f = _linked_product(rng, alphabet)
                assert f.inverse_hint is not None
                folded = invert_automorphism(GroupMap(alphabet, alphabet, f.images))
                assert f.inverse_hint.images == folded.images
                assert compose_map(f, f.inverse_hint).is_identity()
                assert compose_map(f.inverse_hint, f).is_identity()

    def test_library_maps_skip_the_search(self, monkeypatch):
        def no_fold(f):
            assert f.inverse_hint is not None, "inversion fold started"
            return f.inverse_hint

        monkeypatch.setattr(words, "invert_automorphism", no_fold)
        rng = random.Random(23)
        alphabet = std_alphabet(4)
        f = ex.random_automorphism(rng, alphabet, 6)
        assert compose_map(map_power(f, 3), map_power(f, -3)).is_identity()
        ex.random_tree(rng, alphabet, 6)

    def test_tree_labels_generate(self):
        # MarkedGraph trusts its certified marking instead of folding the labels
        rng = random.Random(19)
        for rank in range(2, 6):
            alphabet = std_alphabet(rank)
            for _ in range(5):
                T = ex.random_tree(rng, alphabet, 8)
                assert is_onto(rank, [w.letters for w in T.marking_words()])


@st.composite
def image_tuples(draw):
    """Images of a product of elementary Nielsen moves spelled on letter
    tuples, so onto, or now and then short arbitrary images, mostly not."""
    n = draw(st.integers(2, 4))
    if not draw(st.integers(0, 4)):
        raw = st.lists(st.integers(1, n).flatmap(lambda x: st.sampled_from([x, -x])), max_size=3)
        return n, [naive_reduce(w) for w in draw(st.lists(raw, min_size=n, max_size=n))]
    images = [(k + 1,) for k in range(n)]
    for _ in range(draw(st.integers(0, 12))):
        i, j = draw(st.permutations(range(n)))[:2]
        kind = draw(st.sampled_from(["right", "left", "invert", "swap"]))
        xj = images[j] if draw(st.booleans()) else tuple(-x for x in reversed(images[j]))
        if kind == "right":
            images[i] = naive_reduce(images[i] + xj)
        elif kind == "left":
            images[i] = naive_reduce(xj + images[i])
        elif kind == "invert":
            images[i] = tuple(-x for x in reversed(images[i]))
        else:
            images[i], images[j] = images[j], images[i]
    return n, images


class TestExactInverse:
    """Every certified map's inverse images invert its images, checked by
    plain substitution in the oracles, not by the kernel: the library checks
    only its certificate, the fold that ends as one-letter loops."""

    def test_fixture_map_powers(self):
        for fixture in se.list_fixtures():
            for f in se.load_fixture(fixture).maps:
                for k in range(-6, 7):
                    assert inverts(map_power(f, k)), (fixture, k)

    def test_maps_certified_from_json(self):
        for fixture in se.list_fixtures():
            obj = json.loads(se.fixture_path(fixture).read_text())
            for f in se.system_from_json(obj).maps:
                assert inverts(f) and inverts(f.inverse_hint), fixture

    def test_built_maps(self):
        rng = random.Random(83)
        for rank in range(2, 7):
            alphabet = std_alphabet(rank)
            for _ in range(20):
                assert inverts(ex.random_automorphism(rng, alphabet, 12))
                assert inverts(_linked_product(rng, alphabet))

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(image_tuples())
    def test_images_automorphism_accepts(self, case):
        n, images = case
        alphabet = std_alphabet(n)
        try:
            f = automorphism(alphabet, [reduce_raw(alphabet, w) for w in images])
        except NotSurjective:
            assert not is_onto(n, images)
            return
        assert inverts(f)

    def test_oracle_refuses_wrong_inverses(self):
        f = automorphism(A3, [word_from_str(A3, s) for s in PLATEAU_IMAGES])
        assert inverts(f)
        assert not inverts(GroupMap(A3, A3, f.images))
        assert not inverts(words._map(A3, A3, f.images, identity_map(A3).images))


class TestIsInner:
    def test_conjugation_detected(self):
        w = word_from_str(A3, "a b")
        got = is_inner(conjugation_by(w))
        assert got == w

    def test_swap_not_inner(self):
        sw = GroupMap(A3, A3, (word_from_str(A3, "b"), word_from_str(A3, "a"), word_from_str(A3, "c")))
        assert is_inner(sw) is None

    def test_identity_inner(self):
        assert is_inner(identity_map(A3)).is_identity()

    def test_witness_is_the_conjugator(self):
        # for rank >= 2 the witness is unique, so it is u itself
        rng = random.Random(29)
        for rank in range(2, 6):
            alphabet = std_alphabet(rank)
            for _ in range(40):
                u = rand_word(rng, alphabet, rng.randrange(0, 12))
                assert is_inner(conjugation_by(u)) == u

    def test_witness_on_rank2_factor_bases(self):
        from freefactor.factors import free_factor_class

        rng = random.Random(31)
        for rank in range(3, 6):
            alphabet = std_alphabet(rank)
            for _ in range(30):
                f = ex.random_automorphism(rng, alphabet, 8)
                basis = free_factor_class(alphabet, f.images[:2]).basis
                u = rand_word(rng, alphabet, rng.randrange(0, 12))
                assert is_inner(conjugation_by(u), basis) == u

    def test_first_basis_word_a_proper_power(self):
        # the centralizer of a^2 is <a>, not <a^2>: the witness may be an odd
        # power of the root, whichever order the basis comes in
        A2 = abc_alphabet(2)
        a, aa, b = (word_from_str(A2, t) for t in ("a", "a a", "b"))
        assert is_inner(conjugation_by(a), [aa, b]) == a
        assert is_inner(conjugation_by(a), [b, aa]) == a
        rng = random.Random(37)
        for rank in range(2, 5):
            alphabet = std_alphabet(rank)
            for _ in range(30):
                r = rand_word(rng, alphabet, rng.randrange(1, 5))
                if r.is_identity():
                    continue
                basis = [r ** rng.randrange(2, 5), rand_word(rng, alphabet, rng.randrange(1, 5))]
                u = rand_word(rng, alphabet, rng.randrange(0, 8))
                w = is_inner(conjugation_by(u), basis)
                assert w is not None
                assert all(b.conjugate_by(w) == b.conjugate_by(u) for b in basis)

    def test_conjugating_power_beyond_the_image_lengths(self):
        # the images a and b are short, but a^-5 is the only witness, and
        # both orders of the basis find it
        A2 = abc_alphabet(2)
        a, conjugated_b = word_from_str(A2, "a"), word_from_str(A2, "a^5 b a^-5")
        want = word_from_str(A2, "a^-5")
        assert is_inner(conjugation_by(want), [a, conjugated_b]) == want
        assert is_inner(conjugation_by(want), [conjugated_b, a]) == want

    def test_trivial_basis_words_impose_nothing(self):
        A2 = abc_alphabet(2)
        a, b, one = word_from_str(A2, "a"), word_from_str(A2, "b"), word_from_str(A2, "")
        swap = GroupMap(A2, A2, (b, a))
        assert is_inner(conjugation_by(a), [one, b]) == a
        assert is_inner(conjugation_by(a), [b, one, a * b]) == a
        for f in (conjugation_by(a), swap):
            assert is_inner(f, []).is_identity()
            assert is_inner(f, [one, one]).is_identity()
        assert is_inner(swap, [one, a]) is None

    def test_agrees_with_exponent_scan(self):
        # 2,500 seeded cases, 500 of each kind.  Where the witness is unique
        # the scan's must be is_inner's; otherwise is_inner's only has to hold.
        rng = random.Random(41)
        mismatches, answers = [], {True: 0, False: 0}
        for case in range(2500):
            kind = INNER_KINDS[case % len(INNER_KINDS)]
            alphabet = std_alphabet(rng.randrange(2, 5))
            f, basis = inner_case(rng, alphabet, kind)
            got = is_inner(f, basis)
            want, unique = inner_witness_scan([b.letters for b in basis], [f(b).letters for b in basis])
            if want is None:
                ok = got is None
            elif unique:
                ok = got is not None and got.letters == want
            else:
                ok = got is not None and all(b.conjugate_by(got) == f(b) for b in basis)
            answers[want is not None] += 1
            if not ok:
                mismatches.append((kind, f, basis, got, want))
        assert mismatches == []
        assert min(answers.values()) > 300

    def test_inverse_agreement(self):
        rng = random.Random(13)
        for _ in range(25):
            w = rand_word(rng, A3, rng.randrange(0, 6))
            f = conjugation_by(w)
            finv = invert_automorphism(f)
            assert (is_inner(f) is None) == (is_inner(finv) is None)


INNER_KINDS = ("power-first", "root-conjugate", "commuting", "trivial", "non-inner")


def inner_case(rng, alphabet, kind):
    """(f, basis) of one kind for the is_inner oracle.  f is conjugation by
    v r^k, r a short word and |k| <= 6, so the witness lies far along the
    coset of the first conjugacy search's.  For "non-inner" a transvection
    follows it, and the basis gets a third word, which the transvection may
    move when it moves no other."""
    def word(lo, hi):
        return rand_word(rng, alphabet, rng.randrange(lo, hi))

    r = word(1, 4)
    while r.is_identity():
        r = word(1, 4)
    s = word(1, 5)
    power = r ** rng.randrange(1, 4)
    if kind == "power-first":
        basis = [r ** rng.randrange(2, 5), s]
    elif kind == "commuting":
        basis = [power, r ** rng.randrange(-3, 4)] + [s] * rng.randrange(0, 2)
    elif kind == "trivial":
        basis = [power, s.conjugate_by(r ** rng.randrange(-6, 7))][: rng.randrange(0, 3)]
        for _ in range(rng.randrange(1, 3)):
            basis.insert(rng.randrange(0, len(basis) + 1), words.identity(alphabet))
    else:
        basis = [power, s.conjugate_by(r ** rng.randrange(-6, 7)), word(1, 4)][: 2 + (kind == "non-inner")]
        rng.shuffle(basis)
    f = conjugation_by(word(0, 4) * r ** rng.randrange(-6, 7))
    if kind == "non-inner":
        i, j = rng.sample(range(alphabet.rank), 2)
        f = compose_map(transvection(alphabet, i, j, rng.choice([1, -1])), f)
    return f, basis


# each public entry point with a typed precondition: (statement, error line)
PRECONDITIONS = {
    "word-product": (
        "W.letter(A, 0) * W.letter(B, 0)",
        "AlphabetMismatch: the two words have different alphabets",
    ),
    "map-call": (
        "W.identity_map(A)(W.letter(B, 0))",
        "AlphabetMismatch: the word is not over the map's domain",
    ),
    "compose": (
        "W.compose_map(W.identity_map(A), W.identity_map(B))",
        "AlphabetMismatch: the inner map's codomain is not the outer map's domain",
    ),
    "map-image-count": (
        "W.GroupMap(A, A, (W.letter(A, 0),) * 2)",
        "ImageCountMismatch: 2 images for a rank-3 domain",
    ),
    "map-image-alphabet": (
        "W.GroupMap(A, A, (W.letter(B, 0),) * 3)",
        "AlphabetMismatch: an image is not over the map's codomain",
    ),
    # inverse images are no argument: only the library's builders give them
    "map-inverse-positional": (
        "W.GroupMap(A, A, W.identity_map(A).images, W.identity_map(A).images)",
        "TypeError: GroupMap.__init__() takes 4 positional arguments but 5 were given",
    ),
    "map-inverse-keyword": (
        "W.GroupMap(A, A, W.identity_map(A).images, inverse_images=W.identity_map(A).images)",
        "TypeError: GroupMap.__init__() got an unexpected keyword argument 'inverse_images'",
    ),
    "map-power": ("W.map_power(P, 2)", "AlphabetMismatch: map_power needs an endomorphism"),
    "invert": ("W.invert_automorphism(P)", "AlphabetMismatch: inversion needs an endomorphism"),
    "is-inner": ("W.is_inner(P)", "AlphabetMismatch: is_inner needs an endomorphism"),
    "abc-alphabet-rank": (
        "W.abc_alphabet(11)",
        "InvalidAlphabet: abc alphabets have rank at most 10, not 11",
    ),
    "conjugacy-witness": (
        "W.conjugacy_witness(W.letter(A, 0), W.letter(B, 0))",
        "AlphabetMismatch: the two words have different alphabets",
    ),
    "unreduced-word": ("W.Word(B, (1, -1))", "MalformedWord: word not freely reduced: (1, -1)"),
    "letter-sign": ("W.letter(A, 0, 2)", "MalformedWord: a letter's sign is 1 or -1, not 2"),
    "transform-marked": (
        "pj.transform_marked(W.GroupMap(A, A, W.identity_map(A).images), pj.rose(A))",
        "InvalidMarking: transform_marked needs a verified automorphism",
    ),
}


class TestTypedPreconditions:
    @pytest.mark.parametrize("name", sorted(PRECONDITIONS))
    def test_refusal_survives_optimize(self, run_optimized, name):
        statement, line = PRECONDITIONS[name]
        out = run_optimized(
            "from freefactor import projections as pj, words as W\n"
            "from freefactor.errors import FreefactorError\n"
            "A, B = W.abc_alphabet(3), W.abc_alphabet(2)\n"
            "P = W.GroupMap(A, B, (W.letter(B, 0),) * 3)\n"
            "try:\n"
            f"    {statement}\n"
            "except (FreefactorError, TypeError) as exc:\n"
            "    print(f'{type(exc).__name__}: {exc}')\n"
        )
        assert out == line + "\n"
