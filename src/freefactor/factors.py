"""Free-factor predicates and projections: meet, overlap, disjoint,
Whitehead free-factor testing, and transport under automorphisms."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Set, Tuple

from freefactor import stallings
from freefactor.errors import InvalidTransport, RankTooSmall
from freefactor.stallings import SubgroupGraph, from_generators, pullback_components
from freefactor.words import Alphabet, GroupMap, Word, identity, reduce_raw

DOUBLE_COSET_SEARCH_LENGTH = 3


@dataclass(frozen=True)
class FreeFactorClass:
    """Conjugacy class of a free factor, keyed by its canonical core."""

    ambient: Alphabet
    graph: SubgroupGraph
    key: str

    @property
    def rank(self) -> int:
        return self.graph.rank

    @property
    def basis(self) -> Tuple[Word, ...]:
        return self.graph.basis

    def __eq__(self, other):
        return isinstance(other, FreeFactorClass) and self.key == other.key and self.ambient == other.ambient

    def __hash__(self):
        return hash((self.ambient, self.key))


def free_factor_class(alphabet: Alphabet, gens: Sequence[Word]) -> FreeFactorClass:
    g = from_generators(alphabet, list(gens))
    if g.rank < 1:
        raise RankTooSmall("factor classes have rank >= 1")
    return FreeFactorClass(alphabet, g, stallings.canonical_core(g))


@dataclass(frozen=True)
class MeetClass:
    """A nontrivial proper intersection class [A ∩ gBg⁻¹], viewed inside A."""

    in_ambient: FreeFactorClass
    classes: Tuple[Tuple[int, ...], ...]  # H₁(A) classes of its generators, in A's basis
    coset_tag: Word
    rank: int


def _require_rank2(*classes: FreeFactorClass) -> None:
    for c in classes:
        if c.rank < 2:
            raise RankTooSmall(f"a factor of rank {c.rank}; this needs rank >= 2")


def _meet_candidates(A: FreeFactorClass, B: FreeFactorClass) -> List[MeetClass]:
    out = []
    for comp in pullback_components(A.graph, B.graph):
        cls = FreeFactorClass(
            A.ambient, comp.subgroup, stallings.canonical_core(comp.subgroup)
        )
        out.append(MeetClass(cls, comp.classes, comp.coset_tag, comp.rank))
    return out


def meet_projection(A: FreeFactorClass, B: FreeFactorClass) -> Set[MeetClass]:
    """π_A(B): double-coset intersection classes, nontrivial and proper in both.

    Properness is tested by rank (1 <= r < min of the two ranks) together with
    canonical-key inequality against A and B.
    """
    _require_rank2(A)
    keep = set()
    seen_keys = set()
    for mc in _meet_candidates(A, B):
        if not (1 <= mc.rank < min(A.rank, B.rank)):
            continue
        if mc.in_ambient.key in (A.key, B.key):
            continue
        if mc.in_ambient.key in seen_keys:
            continue
        seen_keys.add(mc.in_ambient.key)
        keep.add(mc)
    return keep


def overlap_check(A: FreeFactorClass, B: FreeFactorClass):
    """First (x, H) certificate with rank(H) = rank A + rank B - rank x, or None."""
    _require_rank2(A, B)
    return _overlap_certificate(A, B, _meet_candidates(A, B))


def _overlap_certificate(A: FreeFactorClass, B: FreeFactorClass, candidates: List[MeetClass]):
    for mc in sorted(candidates, key=lambda m: (m.rank, m.in_ambient.key)):
        if not (1 <= mc.rank < min(A.rank, B.rank)):
            continue
        g = mc.coset_tag
        H = from_generators(A.ambient, A.basis + tuple(w.conjugate_by(g) for w in B.basis))
        if H.rank == A.rank + B.rank - mc.rank:
            return mc, H
    return None


def _short_words(alphabet: Alphabet, max_len: int) -> Iterator[Word]:
    """Reduced words of length <= max_len, shortest first, made as needed."""
    yield identity(alphabet)
    frontier = [()]
    for _ in range(max_len):
        nxt = []
        for t in frontier:
            for s in range(1, alphabet.rank + 1):
                for sg in (s, -s):
                    if t and t[-1] == -sg:
                        continue
                    u = t + (sg,)
                    nxt.append(u)
                    yield Word(alphabet, u)
        frontier = nxt


def _common_splitting(A: FreeFactorClass, B: FreeFactorClass) -> bool:
    """The disjoint branch of ``classify_pair``, for an empty pullback: true
    iff some short coset representative g makes A and gBg⁻¹ vertex groups of
    a common splitting, certified by rank additivity of the join plus the
    join being a free factor."""
    for g in _short_words(A.ambient, DOUBLE_COSET_SEARCH_LENGTH):
        # the pullback is empty, so A ∩ gBg⁻¹ = 1 for every g
        H = from_generators(A.ambient, A.basis + tuple(w.conjugate_by(g) for w in B.basis))
        if H.rank != A.rank + B.rank:
            continue
        if is_free_factor(H):
            return True
    return False


def _bit(s: int) -> int:
    """Position of a signed letter in a Whitehead set mask: a, a^-1, b, b^-1, ..."""
    return 2 * abs(s) - 2 + (s < 0)


def _residual_bfs(residual: List[Dict[int, int]], source: int, sink: int) -> Dict[int, int]:
    """BFS tree {node: parent} of the arcs with capacity left, grown from
    ``source`` until it reaches ``sink`` or everything it can."""
    parent = {source: source}
    queue = [source]
    for u in queue:
        for w, r in residual[u].items():
            if r and w not in parent:
                parent[w] = u
                queue.append(w)
        if sink in parent:
            break
    return parent


def _best_moves(alphabet: Alphabet, core: Sequence[Dict[int, int]]):
    """Yield (v, Y, change) for v = a, a^-1, b, ...: the type-(ii) Whitehead
    move (Y, v) that shrinks the cyclic core ``core`` most.

    ``Y`` is a mask over the signed letters (see ``_bit``) holding v and not
    -v.  ``change`` is what the move does to the core's edge count: the
    vertices p whose letters L(p) = {-s : s in adj[p]} meet both Y and its
    complement, minus the edges labelled |v| (Gersten 1984; Roig, Ventura and
    Weil 2007).  So the best Y is a minimum cut between v and -v in a network
    with one node per signed letter and, per distinct L(p), an arc whose
    capacity counts the vertices with that set, entered from each letter of
    the set and left to each by arcs no cut can afford.  The cut is at most
    the vertex count, so BFS augmenting paths (Edmonds–Karp) find it, and Y
    is the letters the residual network still reaches from v.
    """
    n = alphabet.rank
    groups: Dict[int, int] = {}
    labelled = [0] * (n + 1)
    for d in core:
        m = 0
        for s in d:
            m |= 1 << _bit(-s)
            if s > 0:
                labelled[s] += 1
        groups[m] = groups.get(m, 0) + 1
    unbounded = len(core) + 1
    network: List[Dict[int, int]] = [{} for _ in range(2 * n)]  # residual capacities
    for m, count in groups.items():
        enter, leave = len(network), len(network) + 1
        network += [{leave: count}, {enter: 0}]
        for x in range(2 * n):
            if m >> x & 1:
                network[x].update({enter: unbounded, leave: 0})
                network[enter][x] = 0
                network[leave][x] = unbounded
    for v in (s for i in range(1, n + 1) for s in (i, -i)):
        source, sink = _bit(v), _bit(-v)
        residual = [dict(arcs) for arcs in network]
        cut = 0
        parent = _residual_bfs(residual, source, sink)
        while sink in parent:
            path = []  # the augmenting path's arcs, from the sink back
            w = sink
            while w != source:
                path.append((parent[w], w))
                w = parent[w]
            push = min(residual[u][w] for u, w in path)
            for u, w in path:
                residual[u][w] -= push
                residual[w][u] += push
            cut += push
            parent = _residual_bfs(residual, source, sink)
        Y = sum(1 << x for x in parent if x < 2 * n)
        yield v, Y, cut - labelled[abs(v)]


def _whitehead_map(alphabet: Alphabet, v: int, Y: int) -> GroupMap:
    """x -> v^-1 x when -x in Y and x -> x v when x in Y; v itself is fixed."""
    images = []
    for x in range(1, alphabet.rank + 1):
        pre = (-v,) if x != abs(v) and Y >> _bit(-x) & 1 else ()
        post = (v,) if x != abs(v) and Y >> _bit(x) & 1 else ()
        images.append(reduce_raw(alphabet, pre + (x,) + post))
    return GroupMap(alphabet, alphabet, tuple(images))


def is_free_factor(H: SubgroupGraph) -> bool:
    """Greedy Whitehead descent on the cyclic core's edge count.

    Each step applies the least-cut move of the first letter v whose least
    cut shrinks the core, so only accepted moves are folded.  Any shrinking
    move leads to a minimal core (Whitehead; Gersten 1984), and a folded
    one-vertex core is a subrose, so H is a free factor iff the descent
    reaches one vertex.
    """
    alphabet = H.alphabet
    core = stallings._unbased_core(H)
    gens = None  # H's basis, built only once a move is applied
    while len(core) > 1:
        move = next((m for m in _best_moves(alphabet, core) if m[2] < 0), None)
        if move is None:
            return False
        v, Y, change = move
        f = _whitehead_map(alphabet, v, Y)
        gens = [f(w) for w in (H.basis if gens is None else gens)]
        expected = sum(map(len, core)) + 2 * change  # directed edges
        core = stallings._unbased_core(from_generators(alphabet, gens))
        assert sum(map(len, core)) == expected, "the cut count must match the fold"
    return True


def transport(f: GroupMap, A: FreeFactorClass) -> FreeFactorClass:
    """Image class f(A); canonical key recomputed."""
    if not f.certified:
        raise InvalidTransport("transport requires a verified automorphism")
    if f.domain != A.ambient:
        raise InvalidTransport("the automorphism and the factor have different alphabets")
    return free_factor_class(f.codomain, [f(w) for w in A.basis])


def classify_pair(A: FreeFactorClass, B: FreeFactorClass):
    """Trichotomy verdict: ("disjoint" | "overlap", witness) or ("none", detail).

    One pullback serves both checks: its components are the overlap
    candidates, and when there are none the coset search runs.
    """
    _require_rank2(A, B)
    candidates = _meet_candidates(A, B)
    if candidates:
        cert = _overlap_certificate(A, B, candidates)
        if cert is not None:
            return "overlap", cert
        return "none", "nontrivial intersections but no amalgam rank certificate"
    if _common_splitting(A, B):
        return "disjoint", None
    return "none", "trivial intersections but no common-splitting certificate"
