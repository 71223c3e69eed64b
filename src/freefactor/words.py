"""Free group words, reduction, conjugacy, and maps given by generator images.

Words are stored as flat tuples of signed 1-based letter indices: letter i of
the alphabet is ``i + 1``, its inverse ``-(i + 1)``.  Every constructor
reduces eagerly, so a ``Word`` is always freely reduced.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

from freefactor._kernel import concat, reduce_word
from freefactor.errors import NielsenSearchFailed, NotSurjective, UnknownLetter


@dataclass(frozen=True)
class Alphabet:
    """Ranked alphabet of distinct letter names."""

    names: Tuple[str, ...]

    def __post_init__(self):
        assert len(self.names) >= 1, "rank must be >= 1"
        assert len(set(self.names)) == len(self.names), "letter names must be distinct"

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
    assert rank <= len(ABC)
    return Alphabet(tuple(ABC[:rank]))


@dataclass(frozen=True)
class Word:
    """Freely reduced word over an alphabet."""

    alphabet: Alphabet
    letters: Tuple[int, ...]

    def __post_init__(self):
        for x in self.letters:
            if x == 0 or abs(x) > self.alphabet.rank:
                raise UnknownLetter(f"letter index {x} invalid for rank {self.alphabet.rank}")
        # reduced-form invariant
        for a, b in zip(self.letters, self.letters[1:]):
            assert a != -b, f"word not freely reduced: {self.letters}"

    def __len__(self) -> int:
        return len(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        assert self.alphabet == other.alphabet
        return Word(self.alphabet, tuple(concat(self.letters, other.letters)))

    def inverse(self) -> "Word":
        return Word(self.alphabet, tuple(-x for x in reversed(self.letters)))

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


def identity(alphabet: Alphabet) -> Word:
    return Word(alphabet, ())


def letter(alphabet: Alphabet, i: int, sign: int = 1) -> Word:
    """Generator word x_i or its inverse (0-based index)."""
    assert sign in (1, -1)
    return Word(alphabet, (sign * (i + 1),))


def reduce_raw(alphabet: Alphabet, raw: Iterable[int]) -> Word:
    """Freely reduce a raw signed-index sequence into a Word."""
    seq = list(raw)
    for x in seq:
        if x == 0 or abs(x) > alphabet.rank:
            raise UnknownLetter(f"letter index {x} invalid for rank {alphabet.rank}")
    return Word(alphabet, tuple(reduce_word(seq)))


def word_to_str(w: Word) -> str:
    """Serialize as whitespace-separated tokens, e.g. "a b^-1 c"."""
    toks = []
    for x in w.letters:
        name = w.alphabet.name_of(x)
        toks.append(name if x > 0 else f"{name}^-1")
    return " ".join(toks)


def word_from_str(alphabet: Alphabet, s: str) -> Word:
    raw = []
    for tok in s.split():
        if "^" in tok:
            name, exp = tok.split("^", 1)
            e = int(exp)
        else:
            name, e = tok, 1
        idx = alphabet.index(name) + 1
        raw.extend([idx if e > 0 else -idx] * abs(e))
    return reduce_raw(alphabet, raw)


def conjugacy_witness(u: Word, v: Word) -> Optional[Word]:
    """Some w with w u w^-1 = v, or None when u and v are not conjugate."""
    assert u.alphabet == v.alphabet
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

    It is a certified automorphism exactly when ``inverse_hint`` holds its
    inverse: the library builds its own maps linked to their inverses, and
    ``invert_automorphism`` certifies maps that come from outside.
    """

    domain: Alphabet
    codomain: Alphabet
    images: Tuple[Word, ...]
    inverse_hint: Optional["GroupMap"] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        assert len(self.images) == self.domain.rank
        for w in self.images:
            assert w.alphabet == self.codomain

    @property
    def kind(self) -> str:
        return "endomorphism" if self.inverse_hint is None else "verified-automorphism"

    def __call__(self, w: Word) -> Word:
        assert w.alphabet == self.domain, "alphabet mismatch"
        raw: List[int] = []
        for x in w.letters:
            img = self.images[abs(x) - 1].letters
            raw.extend(img if x > 0 else tuple(-y for y in reversed(img)))
        # images are reduced, so one linear pass reduces the whole product
        return Word(self.codomain, tuple(reduce_word(raw)))

    def is_identity(self) -> bool:
        return self.domain == self.codomain and all(
            w.letters == (i + 1,) for i, w in enumerate(self.images)
        )

    def __repr__(self) -> str:
        ims = ", ".join(f"{self.domain.names[i]}->{w}" for i, w in enumerate(self.images))
        return f"GroupMap({ims})"


def _link_inverses(f: GroupMap, g: GroupMap) -> None:
    object.__setattr__(f, "inverse_hint", g)
    object.__setattr__(g, "inverse_hint", f)


def identity_map(alphabet: Alphabet) -> GroupMap:
    f = GroupMap(alphabet, alphabet, tuple(letter(alphabet, i) for i in range(alphabet.rank)))
    _link_inverses(f, f)
    return f


def group_map(domain: Alphabet, codomain: Alphabet, images: Sequence[Word]) -> GroupMap:
    return GroupMap(domain, codomain, tuple(images))


def conjugation_by(w: Word) -> GroupMap:
    a = w.alphabet
    f = GroupMap(a, a, tuple(letter(a, i).conjugate_by(w) for i in range(a.rank)))
    g = GroupMap(a, a, tuple(letter(a, i).conjugate_by(w.inverse()) for i in range(a.rank)))
    _link_inverses(f, g)
    return f


def compose_map(f: GroupMap, g: GroupMap) -> GroupMap:
    """(f o g)(x) = f(g(x))."""
    assert g.codomain == f.domain, "alphabet mismatch"
    h = GroupMap(g.domain, f.codomain, tuple(f(w) for w in g.images))
    fi, gi = f.inverse_hint, g.inverse_hint
    if fi is not None and gi is not None:
        _link_inverses(h, GroupMap(f.codomain, g.domain, tuple(gi(w) for w in fi.images)))
    return h


def map_power(f: GroupMap, n: int) -> GroupMap:
    assert f.domain == f.codomain
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


# --- inversion via recorded Nielsen reduction ------------------------------

_NIELSEN_BUDGET = 200_000


def _elementary(alphabet: Alphabet, i: int, j: int, s: int, side: str) -> GroupMap:
    # x_i -> x_i x_j^s (right) or x_j^s x_i (left); all other letters fixed
    images = [letter(alphabet, k) for k in range(alphabet.rank)]
    xi, xj = images[i], letter(alphabet, j, s)
    images[i] = xi * xj if side == "right" else xj * xi
    return GroupMap(alphabet, alphabet, tuple(images))


def transvection(alphabet: Alphabet, i: int, j: int, s: int, side: str = "right") -> GroupMap:
    """x_i -> x_i x_j^s (right) or x_j^s x_i (left), linked to its inverse."""
    f = _elementary(alphabet, i, j, s, side)
    _link_inverses(f, _elementary(alphabet, i, j, -s, side))
    return f


def _inversion(alphabet: Alphabet, i: int) -> GroupMap:
    images = [letter(alphabet, k) for k in range(alphabet.rank)]
    images[i] = images[i].inverse()
    return GroupMap(alphabet, alphabet, tuple(images))


def _signed_perm_inverse(alphabet: Alphabet, tup) -> GroupMap:
    # tup[i] = single signed letter: x_i -> that letter; invert the permutation
    images = [None] * alphabet.rank
    for i, (x,) in enumerate(tup):
        images[abs(x) - 1] = letter(alphabet, i, 1 if x > 0 else -1)
    return GroupMap(alphabet, alphabet, tuple(images))


def invert_automorphism(f: GroupMap) -> GroupMap:
    """Inverse of f, certifying f as an automorphism.

    A map that carries its inverse returns it at once.  Otherwise
    surjectivity is certified first by folding the wedge of image words
    (Hopficity: a surjective endomorphism of F_n is an automorphism); the
    inverse is then found by Nielsen-reducing the image tuple while recording
    each elementary move.  Equal-length moves are explored breadth-first so
    length plateaus cannot stall the descent; the search raises
    NielsenSearchFailed past its budget.
    """
    assert f.domain == f.codomain, "inversion requires an endomorphism"
    if f.inverse_hint is not None:
        return f.inverse_hint
    from freefactor import stallings  # deferred: stallings depends on words

    alphabet = f.domain
    n = alphabet.rank
    graph = stallings.from_generators(alphabet, list(f.images))
    if not stallings.is_full_rose(graph):
        raise NotSurjective(f"images of {f!r} generate a proper subgroup")

    start = tuple(w.letters for w in f.images)
    frontier = {start: ()}  # tuple-of-letter-tuples -> recorded move keys
    seen = {start}
    explored = 0

    def moves_of(state):
        for i in range(n):
            ui = state[i]
            for j in range(n):
                if i == j:
                    continue
                uj = state[j]
                for s in (1, -1):
                    w = tuple(uj) if s == 1 else tuple(-y for y in reversed(uj))
                    yield (i, j, s, "right"), tuple(concat(ui, w))
                    yield (i, j, s, "left"), tuple(concat(w, ui))
        for i in range(n):
            yield (i, None, None, "inv"), tuple(-y for y in reversed(state[i]))

    while True:
        # look for a basis state in the frontier
        done = None
        for state in frontier:
            if all(len(u) == 1 for u in state) and len({abs(u[0]) for u in state}) == n:
                done = state
                break
        if done is not None:
            moves = frontier[done]
            break
        # expand: jump on any strict decrease, else widen the plateau
        nxt_better = None
        plateau = {}
        for state, path in frontier.items():
            for key, new_u in moves_of(state):
                i = key[0]
                if key[3] == "inv":
                    new_state = state[:i] + (new_u,) + state[i + 1 :]
                    if new_state not in seen:
                        plateau[new_state] = path + (key,)
                else:
                    if len(new_u) < len(state[i]):
                        new_state = state[:i] + (new_u,) + state[i + 1 :]
                        nxt_better = (new_state, path + (key,))
                        break
                    if len(new_u) == len(state[i]):
                        new_state = state[:i] + (new_u,) + state[i + 1 :]
                        if new_state not in seen:
                            plateau[new_state] = path + (key,)
                explored += 1
            if nxt_better:
                break
        if nxt_better:
            frontier = {nxt_better[0]: nxt_better[1]}
            seen = {nxt_better[0]}
            continue
        if not plateau:
            # exhausted plateau with no descent: contradicts the fold certificate
            raise NielsenSearchFailed("Nielsen descent stalled on a certified automorphism")
        if explored >= _NIELSEN_BUDGET:
            raise NielsenSearchFailed("Nielsen reduction budget exceeded")
        seen.update(plateau)
        frontier = plateau

    # f o rho_1 o ... o rho_k = sigma  =>  f^-1 = rho_1 o ... o rho_k o sigma^-1;
    # the moves stay unlinked: sigma^-1 carries no inverse, so any composed
    # inverses would be dropped
    inv = identity_map(alphabet)
    for i, j, s, side in moves:
        rho = _inversion(alphabet, i) if side == "inv" else _elementary(alphabet, i, j, s, side)
        inv = compose_map(inv, rho)
    inv = compose_map(inv, _signed_perm_inverse(alphabet, done))
    assert compose_map(f, inv).is_identity() and compose_map(inv, f).is_identity()
    _link_inverses(f, inv)
    return inv


def verify_automorphism(f: GroupMap) -> GroupMap:
    """Return f once it carries its inverse, running the Nielsen search only
    when it does not; raises NotSurjective when f is not an automorphism."""
    invert_automorphism(f)
    return f


def is_inner(f: GroupMap, basis: Optional[Sequence[Word]] = None) -> Optional[Word]:
    """Witness w with f(b) = w b w^-1 for every b in ``basis`` (by default the
    generators), or None.

    Solves the first basis word by a conjugacy search, then resolves the coset
    ambiguity w in w0<b1> by a bounded exponent scan.
    """
    assert f.domain == f.codomain
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
