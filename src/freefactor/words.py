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
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from freefactor._kernel import concat, reduce_word, substitute
from freefactor.errors import (
    AlphabetMismatch,
    ImageCountMismatch,
    InvalidAlphabet,
    MalformedWord,
    NotSurjective,
    UnknownLetter,
)


@dataclass(frozen=True)
class Alphabet:
    """Ranked alphabet of distinct letter names."""

    names: Tuple[str, ...]

    def __post_init__(self):
        if not self.names:
            raise InvalidAlphabet("rank must be >= 1")
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
            base = base * base
            n >>= 1
        return result

    def conjugate_by(self, w: "Word") -> "Word":
        """w * self * w^-1."""
        return w * self * w.inverse()

    def is_identity(self) -> bool:
        return not self.letters

    def cyclic_reduce(self) -> Tuple["Word", "Word"]:
        """Return (core, c) with self = c * core * c^-1 and core cyclically reduced."""
        ls = list(self.letters)
        prefix = []
        while len(ls) >= 2 and ls[0] == -ls[-1]:
            prefix.append(ls[0])
            ls = ls[1:-1]
        return Word(self.alphabet, tuple(ls)), Word(self.alphabet, tuple(prefix))

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
    raw = []
    for tok in s.split():
        name, e = parse_power(tok)
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


@dataclass(frozen=True)
class GroupMap:
    """Endomorphism of a free group given by generator images.

    It is a certified automorphism exactly when ``inverse_images`` holds the
    images of its inverse: the library builds its own maps with them, and
    ``invert_automorphism`` certifies maps that come from outside.
    """

    domain: Alphabet
    codomain: Alphabet
    images: Tuple[Word, ...]
    inverse_images: Optional[Tuple[Word, ...]] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if len(self.images) != self.domain.rank:
            raise ImageCountMismatch(f"{len(self.images)} images for a rank-{self.domain.rank} domain")
        for w in self.images:
            if w.alphabet != self.codomain:
                raise AlphabetMismatch("an image is not over the map's codomain")

    @property
    def inverse_hint(self) -> Optional["GroupMap"]:
        """The inverse automorphism, or None when f is not certified."""
        if self.inverse_images is None:
            return None
        return GroupMap(self.codomain, self.domain, self.inverse_images, self.images)

    @property
    def kind(self) -> str:
        return "endomorphism" if self.inverse_images is None else "verified-automorphism"

    def __call__(self, w: Word) -> Word:
        if w.alphabet != self.domain:
            raise AlphabetMismatch("the word is not over the map's domain")
        # images are reduced, so only the seams between them can cancel
        images = [im.letters for im in self.images]
        return _word(self.codomain, tuple(substitute(w.letters, images)))

    def is_identity(self) -> bool:
        return self.domain == self.codomain and all(
            w.letters == (i + 1,) for i, w in enumerate(self.images)
        )

    def __repr__(self) -> str:
        ims = ", ".join(f"{self.domain.names[i]}->{w}" for i, w in enumerate(self.images))
        return f"GroupMap({ims})"


def identity_map(alphabet: Alphabet) -> GroupMap:
    images = tuple([letter(alphabet, i) for i in range(alphabet.rank)])
    return GroupMap(alphabet, alphabet, images, images)


def group_map(domain: Alphabet, codomain: Alphabet, images: Sequence[Word]) -> GroupMap:
    return GroupMap(domain, codomain, tuple(images))


def conjugation_by(w: Word) -> GroupMap:
    a = w.alphabet
    wi = w.inverse()
    return GroupMap(
        a, a,
        tuple([letter(a, i).conjugate_by(w) for i in range(a.rank)]),
        tuple([letter(a, i).conjugate_by(wi) for i in range(a.rank)]),
    )


def compose_map(f: GroupMap, g: GroupMap) -> GroupMap:
    """(f o g)(x) = f(g(x)).

    The product carries its inverse exactly when both factors do.  When one
    factor is the identity and skipping it keeps that rule, the other factor
    is returned as it is.
    """
    if g.codomain != f.domain:
        raise AlphabetMismatch("the inner map's codomain is not the outer map's domain")
    if f.is_identity() and (f.inverse_images is not None or g.inverse_images is None):
        return g
    if g.is_identity() and (g.inverse_images is not None or f.inverse_images is None):
        return f
    inverse = None
    if f.inverse_images is not None and g.inverse_images is not None:
        gi = g.inverse_hint
        inverse = tuple([gi(w) for w in f.inverse_images])
    return GroupMap(g.domain, f.codomain, tuple([f(w) for w in g.images]), inverse)


def map_power(f: GroupMap, n: int) -> GroupMap:
    if f.domain != f.codomain:
        raise AlphabetMismatch("map_power needs an endomorphism")
    if n < 0:
        return map_power(invert_automorphism(f), -n)
    result = identity_map(f.domain)
    base = f
    while n:
        if n & 1:
            result = compose_map(result, base)
        n >>= 1
        if n:
            base = compose_map(base, base)
    return result


def _transvection_images(alphabet: Alphabet, i: int, j: int, s: int, side: str) -> Tuple[Word, ...]:
    images = [letter(alphabet, k) for k in range(alphabet.rank)]
    xi, xj = images[i], letter(alphabet, j, s)
    images[i] = xi * xj if side == "right" else xj * xi
    return tuple(images)


def transvection(alphabet: Alphabet, i: int, j: int, s: int, side: str = "right") -> GroupMap:
    """x_i -> x_i x_j^s (right) or x_j^s x_i (left), carrying its inverse."""
    return GroupMap(
        alphabet, alphabet,
        _transvection_images(alphabet, i, j, s, side),
        _transvection_images(alphabet, i, j, -s, side),
    )


# --- inversion by a weighted fold -------------------------------------------

def _inverse_letters(w: Sequence[int]) -> List[int]:
    return [-x for x in reversed(w)]


def _fold_inverse(f: GroupMap) -> Optional[List[List[int]]]:
    """Letters of f^-1(x_i) for every i, or None when f is not onto.

    Folds the wedge of image loops at base 0 with edges that carry a weight
    in F(Y) besides their letter, y_i naming the domain's letter i.  The
    first edge of loop i carries y_i and the others the empty word, so every
    closed path at the base reads some u in F(X) and some g in F(Y) with
    f(g) = u.  Merging vertex v into c re-gauges v by a word h: edges into v
    gain h on the right, edges out of v gain h^-1 on the left, and every
    path keeps its readings.  The union-find keeps h on the parent link; the
    base is never re-gauged.  f is onto iff the fold ends as the one-vertex
    full rose, and then the loop x_i reads f^-1(x_i) (Stallings 1983;
    Kapovich and Myasnikov 2002).
    """
    parent = [0]
    gauge: List[List[int]] = [[]]
    stack = []
    for i, w in enumerate(f.images):
        ls = w.letters
        prev = 0
        for k, s in enumerate(ls):
            nxt = 0 if k == len(ls) - 1 else len(parent)
            if nxt:
                parent.append(nxt)
                gauge.append([])
            y = [i + 1] if k == 0 else []
            stack.append((prev, s, nxt, y))
            stack.append((nxt, -s, prev, _inverse_letters(y)))
            prev = nxt
    adj: List[Dict[int, Tuple[int, List[int]]]] = [{} for _ in parent]

    def root(v):
        """(r, h): an edge into v with weight w enters r with weight w h."""
        path = []
        while parent[v] != v:
            path.append(v)
            v = parent[v]
        h: List[int] = []
        for x in reversed(path):  # nearest the root first
            h = concat(gauge[x], h)
            parent[x], gauge[x] = v, h
        return v, h

    merges = 0
    while stack:
        u, s, v, w = stack.pop()
        u, hu = root(u)
        v, hv = root(v)
        w = concat(concat(_inverse_letters(hu), w), hv)
        cur = adj[u].get(s)
        if cur is None:
            adj[u][s] = (v, w)
            continue
        c, hc = root(cur[0])
        wc = concat(cur[1], hc)
        adj[u][s] = (c, wc)
        if c == v:
            # the weights agree unless f has a kernel, and then f is not onto
            continue
        if v == 0:
            c, v, wc, w = v, c, w, wc
        # v joins c, re-gauged so that the edge u -> v reads wc too
        parent[v], gauge[v] = c, concat(_inverse_letters(w), wc)
        merges += 1
        moved, adj[v] = adj[v], {}
        for sl, (t, wt) in moved.items():
            stack.append((v, sl, t, wt))
    n = f.domain.rank
    if merges != len(parent) - 1 or len(adj[0]) != 2 * n:
        return None
    out = []
    for i in range(1, n + 1):
        t, w = adj[0][i]
        out.append(concat(w, root(t)[1]))
    return out


def invert_automorphism(f: GroupMap) -> GroupMap:
    """Inverse of f, certifying f as an automorphism.

    A map that carries its inverse returns it at once.  Otherwise one
    weighted fold of the image words both decides surjectivity (Hopficity:
    a surjective endomorphism of F_n is an automorphism) and reads off the
    inverse images; it raises NotSurjective when the images generate a
    proper subgroup.
    """
    if f.domain != f.codomain:
        raise AlphabetMismatch("inversion needs an endomorphism")
    if f.inverse_images is not None:
        return f.inverse_hint
    letters = _fold_inverse(f)
    if letters is None:
        raise NotSurjective(f"images of {f!r} generate a proper subgroup")
    object.__setattr__(f, "inverse_images", tuple([_word(f.domain, tuple(ls)) for ls in letters]))
    inv = f.inverse_hint
    assert compose_map(f, inv).is_identity() and compose_map(inv, f).is_identity()
    return inv


def verify_automorphism(f: GroupMap) -> GroupMap:
    """Return f once it carries its inverse, folding its images only when it
    does not; raises NotSurjective when f is not an automorphism."""
    invert_automorphism(f)
    return f


def is_inner(f: GroupMap, basis: Optional[Sequence[Word]] = None) -> Optional[Word]:
    """Witness w with f(b) = w b w^-1 for every b in ``basis`` (by default the
    generators), or None.

    Solves the first basis word by a conjugacy search, then resolves the coset
    ambiguity w in w0<b1> by a bounded exponent scan.
    """
    if f.domain != f.codomain:
        raise AlphabetMismatch("is_inner needs an endomorphism")
    if basis is None:
        basis = [letter(f.domain, i) for i in range(f.domain.rank)]
    images = [f(b) for b in basis]
    b1 = basis[0]
    w0 = conjugacy_witness(b1, images[0])
    if w0 is None or len(basis) == 1:
        return w0
    bound = max(map(len, images)) + 2
    for t in range(-bound, bound + 1):
        w = w0 * (b1 ** t)
        if all(img == b.conjugate_by(w) for b, img in zip(basis[1:], images[1:])):
            return w
    return None
