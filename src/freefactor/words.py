"""Free group words, reduction, conjugacy, and maps given by generator images.

Words are stored as flat tuples of signed 1-based letter indices: letter i of
the alphabet is ``i + 1``, its inverse ``-(i + 1)``.  A ``Word`` is always
freely reduced.  Words are checked once, where they enter: the public
``Word(...)`` constructor refuses a letter out of range (``UnknownLetter``)
and an unreduced word (``MalformedWord``), and ``reduce_raw`` checks the
range of raw input before it reduces it.  Products, inverses and map images
are built by the kernel from words already checked, so they are reduced and
in range by construction and go through the private ``_word``, which does
not check them again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, NamedTuple, Optional, Sequence, Tuple, Union

from freefactor._kernel import concat, reduce_word, substitute
from freefactor.errors import (
    AlphabetMismatch,
    ImageCountMismatch,
    InvalidAlphabet,
    MalformedWord,
    NotSurjective,
    TooLarge,
    UnknownLetter,
)

# |e| of a word token x^e: the token is spelled out as |e| letters before the
# word is reduced
MAX_EXPONENT = 10_000


def unreadable_name(names: Iterable[str]) -> Optional[str]:
    """The first name that ``word_from_str`` would not read back as that one
    letter: an empty one, or one holding whitespace or ``^``."""
    return next((n for n in names if n.split() != [n] or "^" in n), None)


@dataclass(frozen=True)
class Alphabet:
    """Ranked alphabet of distinct letter names."""

    names: Tuple[str, ...]

    def __post_init__(self):
        if not self.names:
            raise InvalidAlphabet("rank must be >= 1")
        bad = unreadable_name(self.names)
        if bad is not None:
            raise InvalidAlphabet(f"letter name {bad!r} is empty or holds whitespace or '^'")
        if len(set(self.names)) != len(self.names):
            repeated = next(n for i, n in enumerate(self.names) if n in self.names[:i])
            raise InvalidAlphabet(f"letter name {repeated!r} repeats in {self.names}")

    def __eq__(self, other) -> bool:
        # every product and map application compares alphabets, and almost
        # always an alphabet with itself
        if self is other:
            return True
        if not isinstance(other, Alphabet):
            return NotImplemented
        return self.names == other.names

    @property
    def rank(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise UnknownLetter(f"unknown letter {name!r} for alphabet {self.names}")

    def name_of(self, signed: int) -> str:
        i = abs(signed) - 1
        if not (0 <= i < self.rank):
            raise UnknownLetter(f"letter index {signed} out of range for rank {self.rank}")
        return self.names[i]


def std_alphabet(rank: int, prefix: str = "x") -> Alphabet:
    return Alphabet(tuple(f"{prefix}{i}" for i in range(rank)))


ABC = "abcdefghij"


def abc_alphabet(rank: int) -> Alphabet:
    """Alphabet a, b, c, ... for small ranks."""
    if rank > len(ABC):
        raise InvalidAlphabet(f"abc alphabets have rank at most {len(ABC)}, not {rank}")
    return Alphabet(tuple(ABC[:rank]))


@dataclass(frozen=True)
class Word:
    """Freely reduced word over an alphabet."""

    alphabet: Alphabet
    letters: Tuple[int, ...]

    def __post_init__(self):
        rank = self.alphabet.rank
        for x in self.letters:
            if x == 0 or abs(x) > rank:
                raise UnknownLetter(f"letter index {x} invalid for rank {rank}")
        for a, b in zip(self.letters, self.letters[1:]):
            if a == -b:
                raise MalformedWord(f"word not freely reduced: {self.letters}")

    def __len__(self) -> int:
        return len(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        if self.alphabet != other.alphabet:
            raise AlphabetMismatch("the two words have different alphabets")
        return _word(self.alphabet, tuple(concat(self.letters, other.letters)))

    def inverse(self) -> "Word":
        return _word(self.alphabet, tuple([-x for x in reversed(self.letters)]))

    def __pow__(self, n: int) -> "Word":
        if n < 0:
            return self.inverse() ** (-n)
        result = identity(self.alphabet)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def conjugate_by(self, w: "Word") -> "Word":
        """w * self * w^-1."""
        return w * self * w.inverse()

    def is_identity(self) -> bool:
        return not self.letters

    def cyclic_reduce(self) -> Tuple["Word", "Word"]:
        """Return (core, c) with self = c * core * c^-1 and core cyclically reduced."""
        ls = self.letters
        i, j = 0, len(ls) - 1
        while i < j and ls[i] == -ls[j]:
            i += 1
            j -= 1
        return _word(self.alphabet, ls[i:j + 1]), _word(self.alphabet, ls[:i])

    def __str__(self) -> str:
        return word_to_str(self)

    def __repr__(self) -> str:
        return f"Word({word_to_str(self)!r})"


def _word(alphabet: Alphabet, letters: Tuple[int, ...]) -> Word:
    """A Word of letters that the kernel built from checked words, and so
    reduced and in range: it fills the frozen fields without the checks."""
    w = object.__new__(Word)
    fields = w.__dict__
    fields["alphabet"] = alphabet
    fields["letters"] = letters
    return w


def identity(alphabet: Alphabet) -> Word:
    return Word(alphabet, ())


def letter(alphabet: Alphabet, i: int, sign: int = 1) -> Word:
    """Generator word x_i or its inverse (0-based index)."""
    if sign not in (1, -1):
        raise MalformedWord(f"a letter's sign is 1 or -1, not {sign}")
    return Word(alphabet, (sign * (i + 1),))


def reduce_raw(alphabet: Alphabet, raw: Iterable[int]) -> Word:
    """Freely reduce a raw signed-index sequence into a Word."""
    seq = list(raw)
    rank = alphabet.rank
    for x in seq:
        if x == 0 or abs(x) > rank:
            raise UnknownLetter(f"letter index {x} invalid for rank {rank}")
    return _word(alphabet, tuple(reduce_word(seq)))


def word_to_str(w: Word) -> str:
    """Serialize as whitespace-separated tokens, e.g. "a b^-1 c"."""
    toks = []
    for x in w.letters:
        name = w.alphabet.name_of(x)
        toks.append(name if x > 0 else f"{name}^-1")
    return " ".join(toks)


def parse_power(tok: str) -> Tuple[str, int]:
    """A token ``name`` or ``name^exp`` as (name, exp)."""
    name, caret, exp = tok.partition("^")
    try:
        return name, int(exp) if caret else 1
    except ValueError:
        raise MalformedWord(f"bad exponent in {tok!r}") from None


def word_from_str(alphabet: Alphabet, s: str) -> Word:
    """The word of tokens ``name`` or ``name^exp``.  Every token's exponent
    is read and bounded before any name is resolved or letter spelled out."""
    powers = []
    for tok in s.split():
        name, e = parse_power(tok)
        if abs(e) > MAX_EXPONENT:
            raise TooLarge(f"exponent {e} in {tok!r} is beyond the bound {MAX_EXPONENT}")
        powers.append((name, e))
    raw = []
    for name, e in powers:
        idx = alphabet.index(name) + 1
        raw.extend([idx if e > 0 else -idx] * abs(e))
    return reduce_raw(alphabet, raw)


def conjugacy_witness(u: Word, v: Word) -> Optional[Word]:
    """Some w with w u w^-1 = v, or None when u and v are not conjugate."""
    if u.alphabet != v.alphabet:
        raise AlphabetMismatch("the two words have different alphabets")
    cu, a = u.cyclic_reduce()
    cv, b = v.cyclic_reduce()
    if len(cu) != len(cv):
        return None
    if cu.is_identity():
        return identity(u.alphabet)
    # v-core is a cyclic rotation of the u-core: cu = p q, cv = q p, so
    # cv = p^-1 cu p and w = b p^-1 a^-1.
    n = len(cu)
    for k in range(n):
        if cu.letters[k:] + cu.letters[:k] == cv.letters:
            p = Word(u.alphabet, cu.letters[:k])
            w = b * p.inverse() * a.inverse()
            assert u.conjugate_by(w) == v
            return w
    return None


class _Power(NamedTuple):
    """The inverse images of g^n, not built yet: the letters of g's inverse
    images, already built, and n >= 2."""

    base: Sequence[Sequence[int]]
    n: int


@dataclass(frozen=True)
class GroupMap:
    """Endomorphism of a free group given by generator images.

    ``GroupMap(domain, codomain, images)`` builds an uncertified map.  A map
    is certified, an automorphism that carries the images of its inverse,
    from the moment it is built or never, and only the library's builders
    certify: ``automorphism`` certifies images from outside by a fold, and
    ``identity_map``, ``conjugation_by``, ``transvection``, ``compose_map``
    and ``map_power`` build certified maps from certified ones.
    ``certified`` asks which without building any letters;
    ``inverse_images`` is None exactly on an uncertified map.  A power keeps
    only a recipe for its inverse images until they are first read.
    """

    domain: Alphabet
    codomain: Alphabet
    images: Tuple[Word, ...]
    # the inverse images, or a _Power recipe for them; None when uncertified
    _inverse: Union[None, Tuple[Word, ...], _Power] = field(init=False, default=None, compare=False, repr=False)

    def __post_init__(self):
        if len(self.images) != self.domain.rank:
            raise ImageCountMismatch(f"{len(self.images)} images for a rank-{self.domain.rank} domain")
        for w in self.images:
            if w.alphabet != self.codomain:
                raise AlphabetMismatch("an image is not over the map's codomain")

    @property
    def certified(self) -> bool:
        """Whether f carries its inverse, asked without building its letters."""
        return self._inverse is not None

    @property
    def inverse_images(self) -> Optional[Tuple[Word, ...]]:
        """The images of f^-1, or None when f is not certified.  A power's
        are built on the first read, and replace its recipe."""
        inverse = self._inverse
        if isinstance(inverse, _Power):
            inverse = self.__dict__["_inverse"] = _words(self.domain, _power_letters(*inverse))
        return inverse

    @property
    def inverse_hint(self) -> Optional["GroupMap"]:
        """The inverse automorphism, or None when f is not certified."""
        if not self.certified:
            return None
        return _map(self.codomain, self.domain, self.inverse_images, self.images)

    def __call__(self, w: Word) -> Word:
        if w.alphabet != self.domain:
            raise AlphabetMismatch("the word is not over the map's domain")
        # images are reduced, so only the seams between them can cancel
        images = [im.letters for im in self.images]
        return _word(self.codomain, tuple(substitute(w.letters, images)))

    def is_identity(self) -> bool:
        # a plain loop: ``compose_map`` asks this of every certified factor,
        # and a generator costs more than the few images a map is told by
        if self.domain != self.codomain:
            return False
        for i, w in enumerate(self.images, 1):
            if w.letters != (i,):
                return False
        return True

    def __repr__(self) -> str:
        ims = ", ".join(f"{self.domain.names[i]}->{w}" for i, w in enumerate(self.images))
        return f"GroupMap({ims})"


def _map(domain: Alphabet, codomain: Alphabet, images: Tuple[Word, ...],
         inverse: Union[None, Tuple[Word, ...], _Power]) -> GroupMap:
    """A GroupMap whose images, and inverse images unless None, the library
    built from checked words and certified maps: it fills the frozen fields
    without the checks.  The one place a map is certified: by its inverse
    images, or by a ``_Power`` recipe that ``inverse_images`` builds."""
    f = object.__new__(GroupMap)
    f.__dict__.update(domain=domain, codomain=codomain, images=images, _inverse=inverse)
    return f


def identity_map(alphabet: Alphabet) -> GroupMap:
    images = tuple([_word(alphabet, (i + 1,)) for i in range(alphabet.rank)])
    return _map(alphabet, alphabet, images, images)


def conjugation_by(w: Word) -> GroupMap:
    a = w.alphabet
    wi = w.inverse()
    return _map(
        a, a,
        tuple([letter(a, i).conjugate_by(w) for i in range(a.rank)]),
        tuple([letter(a, i).conjugate_by(wi) for i in range(a.rank)]),
    )


def _compose_letters(factors: Sequence[Sequence[Sequence[int]]]) -> Sequence[Sequence[int]]:
    """Letters of the images of g_1 o g_2 o ... for maps g_k given by the
    letters of their images, multiplied on the right: each step substitutes
    the product so far, copied whole, into the next factor's images.  An
    image that is one positive letter reads its piece as it is, so a factor
    that fixes most generators, a transvection, substitutes only the rest."""
    letters = factors[0]
    for images in factors[1:]:
        letters = [
            letters[w[0] - 1] if len(w) == 1 and w[0] > 0 else substitute(w, letters)
            for w in images
        ]
    return letters


def _words(alphabet: Alphabet, letters: Iterable[Sequence[int]]) -> Tuple[Word, ...]:
    return tuple([_word(alphabet, tuple(ls)) for ls in letters])


def _letters(images: Sequence[Word]) -> List[Tuple[int, ...]]:
    return [w.letters for w in images]


def compose_map(f: GroupMap, *rest: GroupMap) -> GroupMap:
    """f_1 o f_2 o ... o f_k, so (f o g)(x) = f(g(x)): the one product of maps.

    The images are multiplied on the right in one pass, and so are the
    inverse images, f_k^-1 o ... o f_1^-1, when every factor is certified;
    the product is certified exactly then.  Certified identities are
    skipped, and a product left with one factor is that factor as it is.
    A product is built whole, a power's inverse images too, so that no
    recipe refers to another.
    """
    factors = (f,) + rest
    for outer, inner in zip(factors, rest):
        if inner.codomain != outer.domain:
            raise AlphabetMismatch("the inner map's codomain is not the outer map's domain")
    kept = [g for g in factors if not g.certified or not g.is_identity()] or [f]
    if len(kept) == 1:
        return kept[0]
    domain = factors[-1].domain
    inverse = None
    if all(g.certified for g in kept):
        inverse = _words(domain, _compose_letters([_letters(g.inverse_images) for g in reversed(kept)]))
    images = _compose_letters([_letters(g.images) for g in kept])
    return _map(domain, f.codomain, _words(f.codomain, images), inverse)


def _power_letters(images: Sequence[Sequence[int]], n: int) -> Sequence[Sequence[int]]:
    """Letters of the images of g^n, n >= 1, for g given by its images'
    letters, by square-and-multiply.  Powers of g commute, so each multiply
    substitutes the shorter product so far into the longer square."""
    result, base = None, images
    while True:
        if n & 1:
            result = base if result is None else _compose_letters([base, result])
        n >>= 1
        if not n:
            return result
        base = _compose_letters([base, base])


def map_power(f: GroupMap, n: int) -> GroupMap:
    """f^n for an endomorphism f.

    n < 0 gives (f^-1)^-n, with f^-1 from ``invert_automorphism``; n = 0
    gives the certified identity, and n = 1 f itself.
    Otherwise f's images are squared and multiplied on plain letter lists,
    and one map is built at the end, certified exactly when f is.  Its
    inverse images, (f^-1)^n, are kept as a recipe, f's inverse letters
    and n, and built on their first read: most powers are only applied.  A
    power of such a power multiplies the exponents on the same letters.
    """
    if f.domain != f.codomain:
        raise AlphabetMismatch("map_power needs an endomorphism")
    if n < 0:
        return map_power(invert_automorphism(f), -n)
    if n == 0:
        return identity_map(f.domain)
    if n == 1:
        return f
    inverse = f._inverse
    if isinstance(inverse, _Power):
        inverse = _Power(inverse.base, inverse.n * n)
    elif inverse is not None:
        inverse = _Power(_letters(inverse), n)
    images = _words(f.domain, _power_letters(_letters(f.images), n))
    return _map(f.domain, f.domain, images, inverse)


def _transvection_images(alphabet: Alphabet, i: int, j: int, s: int, side: str) -> Tuple[Word, ...]:
    images = [letter(alphabet, k) for k in range(alphabet.rank)]
    xi, xj = images[i], letter(alphabet, j, s)
    images[i] = xi * xj if side == "right" else xj * xi
    return tuple(images)


def transvection(alphabet: Alphabet, i: int, j: int, s: int, side: str = "right") -> GroupMap:
    """x_i -> x_i x_j^s (right) or x_j^s x_i (left), carrying its inverse."""
    return _map(
        alphabet, alphabet,
        _transvection_images(alphabet, i, j, s, side),
        _transvection_images(alphabet, i, j, -s, side),
    )


# --- folds of whole arcs ----------------------------------------------------

def _inverse_letters(w: Sequence[int]) -> List[int]:
    return [-x for x in reversed(w)]


def _common_prefix(a: Tuple[int, ...], b: Tuple[int, ...]) -> int:
    """Length of the longest common prefix of a and b, which share their
    first letter, found by bisecting slices so that C compares the letters."""
    lo, hi = 1, min(len(a), len(b)) + 1  # a[:lo] == b[:lo]; a[:hi] != b[:hi]
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if a[lo:mid] == b[lo:mid]:
            lo = mid
        else:
            hi = mid
    return lo


def fold_arcs(loops: Sequence[Tuple[int, ...]], weights: Sequence, mul, inv, one):
    """Fold reduced ``loops`` at vertex 0, loop i weighted by ``weights[i]``
    in the group that ``mul``, ``inv`` and ``one`` give; returns
    ``(num_vertices, arcs)``, arc ``(u, letters, v, w)`` reading its letters
    with weight w from u to v.

    Labels stay whole: two arc ends that leave a vertex with the same letter
    are cut after their longest common prefix, and the prefixes identified,
    so a loop P M P^-1 becomes a hair P and a loop M.  The result is the
    Stallings graph whatever the order of the folds (Kapovich and Myasnikov
    2002).  Merging v into c re-gauges v by a weight h on the union-find
    link: arcs into v gain h on the right, arcs out of v h^-1 on the left,
    and every path keeps its weight.  Vertex 0 is never re-gauged, so when
    the loops are a free basis, a closed path at 0 carries the weight of the
    element it reads.
    """
    parent, gauge, adj = [0], [one], [{}]
    # arc k is [u, letters u -> v, v, letters v -> u, weight u -> v]; its
    # end 2k leaves u and its end 2k + 1 leaves v
    arcs: List[Optional[list]] = [
        [0, ls, 0, tuple(_inverse_letters(ls)), w] for ls, w in zip(loops, weights) if ls
    ]
    stack = list(range(2 * len(arcs)))

    def root(v):
        """(r, h): an arc into v with weight w enters r with weight w h."""
        path = []
        while parent[v] != v:
            path.append(v)
            v = parent[v]
        h = one
        for x in reversed(path):  # nearest the root first
            h = mul(gauge[x], h)
            parent[x], gauge[x] = v, h
        return v, h

    def view(e):
        """(start, letters, far end) of arc end e, its ends made roots."""
        arc = arcs[e >> 1]
        u, v = arc[0], arc[2]
        if parent[u] != u or parent[v] != v:
            (u, hu), (v, hv) = root(u), root(v)
            arc[0], arc[2], arc[4] = u, v, mul(mul(inv(hu), arc[4]), hv)
        return (v, arc[3], u) if e & 1 else (u, arc[1], v)

    def weight(e):
        w = arcs[e >> 1][4]
        return inv(w) if e & 1 else w

    def reroot(e, y, cut, h=one):
        """End e leaves y instead, without its first ``cut`` letters, which
        read weight h."""
        arc = arcs[e >> 1]
        n = len(arc[1]) - cut
        if e & 1:
            arc[1], arc[2], arc[3], arc[4] = arc[1][:n], y, arc[3][cut:], mul(arc[4], h)
        else:
            arc[0], arc[1], arc[3], arc[4] = y, arc[1][cut:], arc[3][:n], mul(inv(h), arc[4])

    while stack:
        e = stack.pop()
        if arcs[e >> 1] is None:
            continue
        x, la, fa = view(e)
        s = la[0]
        e2 = adj[x].get(s)
        if e2 is None or arcs[e2 >> 1] is None:
            adj[x][s] = e
            continue
        _, lb, fb = view(e2)
        cut = _common_prefix(la, lb)
        if cut < len(la) and cut < len(lb):
            # a new arc with weight one reads the prefix to a new vertex m,
            # where both ends go on; so do the two ends of a loop P M P^-1
            m, k = len(parent), len(arcs)
            parent.append(m)
            gauge.append(one)
            arcs.append([x, lb[:cut], m, tuple(_inverse_letters(lb[:cut])), one])
            reroot(e2, m, cut)
            reroot(e, m, cut)
            adj.append({-lb[cut - 1]: 2 * k + 1, lb[cut]: e2, la[cut]: e})
            adj[x][s] = 2 * k
        elif cut < len(la):  # b is a prefix of a
            reroot(e, fb, cut, weight(e2))
            stack.append(e)
        elif cut < len(lb):  # a is a prefix of b
            reroot(e2, fa, cut, weight(e))
            adj[x][s] = e
            stack.append(e2)
        else:  # a and b read the same letters: drop a, and merge their ends
            wa, wb = weight(e), weight(e2)
            arcs[e >> 1] = None
            if fa == fb:
                continue  # the weights agree unless the loops are not a free basis
            if fa == 0:
                fa, fb, wa, wb = fb, fa, wb, wa
            parent[fa], gauge[fa] = fb, mul(inv(wa), wb)
            stack.extend(adj[fa].values())
            adj[fa] = {}
    index = {0: 0}
    out = []
    for k, arc in enumerate(arcs):
        if arc is not None:
            u, ls, v = view(2 * k)
            out.append((index.setdefault(u, len(index)), ls, index.setdefault(v, len(index)), arc[4]))
    return len(index), out


def automorphism(alphabet: Alphabet, images: Sequence[Word]) -> GroupMap:
    """The automorphism x_i -> images[i], certified by one weighted fold of
    the images: the one way to certify images from outside the library.

    Image loop i carries y_i in F(Y), so a closed path of the fold that
    reads u in F(X) carries some g with f(g) = u.  f is onto iff the fold
    ends as n one-letter loops at the base, and then the loop x_i carries
    f^-1(x_i) (Stallings 1983); an onto endomorphism of F_n is an
    automorphism (Hopficity).  Raises NotSurjective when the images
    generate a proper subgroup.  The n one-letter loops are the whole
    certificate: the inverse images are not applied again here, and the
    tests check both compositions by plain substitution
    (``tests/oracles.py`` ``inverts``).
    """
    f = GroupMap(alphabet, alphabet, tuple(images))
    n = alphabet.rank
    loops = [w.letters for w in f.images]
    _, arcs = fold_arcs(loops, [(i,) for i in range(1, n + 1)], concat, _inverse_letters, ())
    if len(arcs) != n or any(u or v or len(ls) != 1 for u, ls, v, _w in arcs):
        raise NotSurjective(f"images of {f!r} generate a proper subgroup")
    inverse: List[Sequence[int]] = [()] * n
    for _u, (x,), _v, w in arcs:
        inverse[abs(x) - 1] = w if x > 0 else _inverse_letters(w)
    return _map(alphabet, alphabet, f.images, _words(alphabet, inverse))


def invert_automorphism(f: GroupMap) -> GroupMap:
    """Inverse of the automorphism f: the one it carries, or else one that
    ``automorphism`` folds from its images; f itself stays as it was built.
    """
    if f.domain != f.codomain:
        raise AlphabetMismatch("inversion needs an endomorphism")
    return f.inverse_hint or automorphism(f.domain, f.images).inverse_hint


def _conjugating_power(q: Word, B: Word, C: Word) -> Optional[int]:
    """The t with q^t B q^-t = C, or None, for q cyclically reduced and B
    not commuting with q (so t is unique).

    |q^t B q^-t| is B's translation length plus twice the distance from
    q^-t to B's axis, and q^-t runs along q's axis, so the length is convex
    in t: each direction is walked until the length grows past |C|.
    """
    if B == C:
        return 0
    for g, step in ((q, 1), (q.inverse(), -1)):
        gi, X, t = g.inverse(), B, 0
        while True:
            prev, X, t = len(X), g * X * gi, t + step
            if X == C:
                return t
            if len(X) > len(C) and len(X) >= prev:
                break
    return None


def is_inner(f: GroupMap, basis: Optional[Sequence[Word]] = None) -> Optional[Word]:
    """Witness w with f(b) = w b w^-1 for every b in ``basis`` (by default the
    generators), or None.  Trivial basis words impose nothing, so a basis of
    trivial words only, or none, gives the identity.

    The first word b1 is solved by a conjugacy search, w0; every witness is
    then w0 r^t, r = c q c^-1 the root of b1 with q cyclically reduced and
    not a proper power.  In the frame x = w0 c a pair (b, f(b)) reads
    q^t B q^-t = C: a B in <q> needs B = C, and the first other B fixes t
    by a walk along q's axis.
    """
    if f.domain != f.codomain:
        raise AlphabetMismatch("is_inner needs an endomorphism")
    if basis is None:
        basis = [letter(f.domain, i) for i in range(f.domain.rank)]
    pairs = [(b, f(b)) for b in basis if b.letters]
    if not pairs:
        return identity(f.domain)
    (b1, image1), rest = pairs[0], pairs[1:]
    w0 = conjugacy_witness(b1, image1)
    if w0 is None or all(b.conjugate_by(w0) == image for b, image in rest):
        return w0
    core, c = b1.cyclic_reduce()
    n = len(core)
    p = next((p for p in range(1, n) if n % p == 0 and core.letters[p:] == core.letters[:-p]), n)
    q, x = _word(b1.alphabet, core.letters[:p]), w0 * c
    ci, xi = c.inverse(), x.inverse()
    frame = ((b.conjugate_by(ci), image.conjugate_by(xi)) for b, image in rest)
    pair = next(((B, C) for B, C in frame if B * q != q * B), None)
    t = None if pair is None else _conjugating_power(q, *pair)
    if t is None:
        return None
    w = x * q ** t * ci
    return w if all(b.conjugate_by(w) == image for b, image in rest) else None
