"""Right-angled Artin group combinatorics.

Elements are syllable sequences over a defining simplicial graph.  Rewriting
uses three moves: (1) drop a trivial syllable, (2) merge adjacent syllables of
the same generator, (3) swap adjacent syllables of commuting generators.  A
word is syllable-minimal iff no shuffle (move-3 sequence) enables (1) or (2);
the minimal forms of g constitute Min(g), a single move-(3) orbit.

A minimal word fixes a dependence order on its syllables: two depend on each
other when they share a generator or their generators do not commute.  Min(g)
is exactly the set of linear extensions of that order (Green's normal form
theorem; Hermiller-Meier, J. Algebra 1995), so the normal form and the
syllable order are both read off one order, and Min(g) is never listed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Sequence, Set, Tuple

from freefactor.errors import InvalidGraph, MalformedWord, TooLarge, UnknownLetter
from freefactor.words import parse_power, unreadable_name

MAX_CLIQUE_VERTICES = 40


@dataclass(frozen=True)
class SimplicialGraph:
    """Finite simple graph: vertex names plus unordered edges."""

    vertices: Tuple[str, ...]
    edges: FrozenSet[Tuple[str, str]]

    def __post_init__(self):
        if len(set(self.vertices)) != len(self.vertices):
            raise InvalidGraph(f"duplicate vertex in {self.vertices}")
        if "1" in self.vertices:
            raise InvalidGraph("vertex name '1' prints as the identity")
        bad = unreadable_name(self.vertices)
        if bad is not None:
            raise InvalidGraph(f"vertex name {bad!r} is empty or holds whitespace or '^'")
        norm = set()
        for a, b in self.edges:
            if a == b:
                raise InvalidGraph(f"loop at {a!r}")
            if a not in self.vertices or b not in self.vertices:
                raise InvalidGraph(f"edge {(a, b)} has an endpoint outside {self.vertices}")
            norm.add(tuple(sorted((a, b))))
        object.__setattr__(self, "edges", frozenset(norm))

    def adjacent(self, a: str, b: str) -> bool:
        return tuple(sorted((a, b))) in self.edges


def simplicial_graph(vertices: Sequence[str], edges: Sequence[Tuple[str, str]]) -> SimplicialGraph:
    return SimplicialGraph(tuple(vertices), frozenset(tuple(sorted(e)) for e in edges))


def pentagon() -> SimplicialGraph:
    vs = [f"v{i}" for i in range(5)]
    return simplicial_graph(vs, [(vs[i], vs[(i + 1) % 5]) for i in range(5)])


@dataclass(frozen=True)
class Syllable:
    gen: str
    exp: int
    sid: int  # stable id, preserved across moves

    def __post_init__(self):
        if self.exp == 0:
            raise MalformedWord(f"syllable {self.gen!r} has exponent 0")


@dataclass(frozen=True)
class RaagWord:
    graph: SimplicialGraph
    syllables: Tuple[Syllable, ...]

    def __post_init__(self):
        for s in self.syllables:
            if s.gen not in self.graph.vertices:
                raise UnknownLetter(f"unknown generator {s.gen!r}")

    def __len__(self) -> int:
        return len(self.syllables)

    def key(self) -> Tuple[Tuple[str, int], ...]:
        return tuple((s.gen, s.exp) for s in self.syllables)

    def __str__(self) -> str:
        return " ".join(
            s.gen if s.exp == 1 else f"{s.gen}^{s.exp}" for s in self.syllables
        ) or "1"


def raag_word(graph: SimplicialGraph, pairs: Sequence[Tuple[str, int]]) -> RaagWord:
    sylls = [Syllable(g, e, i) for i, (g, e) in enumerate(pairs) if e != 0]
    return RaagWord(graph, tuple(sylls))


def raag_word_from_str(graph: SimplicialGraph, s: str) -> RaagWord:
    return raag_word(graph, [parse_power(tok) for tok in s.split()])


def _dependence(graph: SimplicialGraph, pairs: Sequence[Tuple[str, int]]):
    """Reduce (gen, exp) syllables and return them with their dependence order.

    One left-to-right pass: each new syllable scans back past the syllables
    it commutes with.  If the scan stops at one of its own generator, the two
    merge (both vanish when the exponents cancel); otherwise the new syllable
    is appended.  ``deps[j]`` is the bitmask of the earlier syllables that j
    depends on: those with its generator or a generator it does not commute
    with.
    """
    out: List[Tuple[str, int]] = []
    for gen, exp in pairs:
        i = len(out) - 1
        while i >= 0 and out[i][0] != gen and graph.adjacent(out[i][0], gen):
            i -= 1
        if i < 0 or out[i][0] != gen:
            out.append((gen, exp))
        elif out[i][1] + exp:
            out[i] = (gen, out[i][1] + exp)
        else:
            del out[i]
    deps = [
        sum(1 << i for i, (gi, _) in enumerate(out[:j]) if gi == gj or not graph.adjacent(gi, gj))
        for j, (gj, _) in enumerate(out)
    ]
    return out, deps


def normalize(graph: SimplicialGraph, w: RaagWord) -> RaagWord:
    """Canonical member of Min(g): its least linear extension, comparing
    syllables by (vertex rank, exponent).  Two minimal syllables never share
    a generator, so the greedy choice never ties."""
    sylls, deps = _dependence(graph, w.key())
    rank = {v: i for i, v in enumerate(sorted(graph.vertices))}
    placed, order = 0, []
    while len(order) < len(sylls):
        k = min(
            (i for i, d in enumerate(deps) if not placed >> i & 1 and not d & ~placed),
            key=lambda i: (rank[sylls[i][0]], sylls[i][1]),
        )
        placed |= 1 << k
        order.append(k)
    return RaagWord(graph, tuple(Syllable(*sylls[k], sid) for sid, k in enumerate(order)))


@dataclass(frozen=True)
class SyllableOrder:
    """The strict partial order on syl(g) and its adjacency subrelation.

    ``precedes`` holds (i, j) iff syllable i comes before j in every member of
    Min(g); ``precedes_adjacent`` additionally requires adjacency in some
    member, so it holds the covering pairs.  The transitive closure of the
    latter equals the former.  ``word`` is the normal form of g, whose k-th
    syllable has sid k.
    """

    word: RaagWord
    sids: Tuple[int, ...]
    precedes: FrozenSet[Tuple[int, int]]
    precedes_adjacent: FrozenSet[Tuple[int, int]]

    def closure_of_adjacent(self) -> FrozenSet[Tuple[int, int]]:
        reach: Dict[int, Set[int]] = {i: set() for i in self.sids}
        for i, j in self.precedes_adjacent:
            reach[i].add(j)
        changed = True
        while changed:
            changed = False
            for i in self.sids:
                new = set()
                for j in reach[i]:
                    new |= reach[j]
                if not new <= reach[i]:
                    reach[i] |= new
                    changed = True
        return frozenset((i, j) for i in self.sids for j in reach[i])


def syllable_order(graph: SimplicialGraph, g: RaagWord) -> SyllableOrder:
    """The transitive closure of the dependence order of the normalized form
    and its covering pairs; sids are positions in the normalized form."""
    word = normalize(graph, g)
    _, deps = _dependence(graph, word.key())
    below: List[int] = []  # below[j]: bitmask of the syllables before j in every member
    precedes, covers = set(), set()
    for j, d in enumerate(deps):
        between = 0  # the syllables below those that j depends on
        for i in range(j):
            if d >> i & 1:
                between |= below[i]
        below.append(d | between)
        precedes.update((i, j) for i in range(j) if below[j] >> i & 1)
        covers.update((i, j) for i in range(j) if (d & ~between) >> i & 1)
    return SyllableOrder(word, tuple(range(len(deps))), frozenset(precedes), frozenset(covers))


def clique_number(graph: SimplicialGraph) -> int:
    """Exact maximum clique size by branch and bound."""
    n = len(graph.vertices)
    if n > MAX_CLIQUE_VERTICES:
        raise TooLarge(f"{n} vertices exceeds the bound {MAX_CLIQUE_VERTICES}")
    if n == 0:
        return 0
    idx = {v: i for i, v in enumerate(graph.vertices)}
    nbr = [0] * n
    for a, b in graph.edges:
        nbr[idx[a]] |= 1 << idx[b]
        nbr[idx[b]] |= 1 << idx[a]
    best = 0

    def bb(cand: int, size: int):
        nonlocal best
        if size + bin(cand).count("1") <= best:
            return
        if cand == 0:
            best = max(best, size)
            return
        while cand:
            v = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            if size + bin(cand).count("1") + 1 <= best:
                return
            bb(cand & nbr[v], size + 1)

    bb((1 << n) - 1, 0)
    return best
