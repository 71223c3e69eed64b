"""Marked graphs (spine points), the projection to rank-2 factor complexes,
factor shadows, projection distances, factor ordering, and activity
intervals along bounded-step paths.  π_A(T) folds A's basis paths in T
arc by arc, not letter by letter, and the fold carries H₁(A) classes on the
arcs of the A-cover."""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cached_property, lru_cache
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from freefactor import factors as fa
from freefactor import farey, stallings
from freefactor._kernel import substitute
from freefactor.errors import (
    AlphabetMismatch,
    InvalidMarking,
    NotInOmega,
    NotOverlapping,
    NotSurjective,
    PathTooShort,
    ThresholdViolated,
    UndefinedProjection,
    UnknownLetter,
)
from freefactor.factors import FreeFactorClass
from freefactor.words import (
    Alphabet,
    GroupMap,
    Word,
    _compose_letters,
    _letters,
    _word,
    _words,
    automorphism,
    compose_map,
    fold_arcs,
    identity_map,
    std_alphabet,
)

PROJECTION_DIAMETER_BOUND = 4


@dataclass(frozen=True)
class MarkedGraph:
    """Finite graph with reduced-word edge labels identifying π₁ with F_n.

    ``marking_hint`` maps basis loop t_i to ``marking_words()[i]`` and carries
    its inverse, which proves that the labels generate F_n.  It is not a
    constructor argument: the public constructor (JSON, graphs built by
    hand) checks the graph and always finds the hint by the weighted fold of
    ``automorphism``; ``rose`` and ``transform_marked`` derive loops and hint
    themselves and build through ``_marked`` unchecked.
    """

    alphabet: Alphabet                       # ambient F_n
    num_vertices: int
    edges: Tuple[Tuple[int, int, Word], ...]  # (u, v, label)
    base: int
    marking_hint: GroupMap = dc_field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.betti != self.alphabet.rank:
            raise InvalidMarking("first Betti number must equal the ambient rank")
        deg = [0] * self.num_vertices
        for u, v, w in self.edges:
            if w.alphabet != self.alphabet:
                raise InvalidMarking("edge labels must be words over the ambient alphabet")
            deg[u] += 1
            deg[v] += 1
        if not all(d >= 2 for d in deg):
            raise InvalidMarking("every vertex must have valence at least 2")
        try:
            hint = automorphism(self.alphabet, self.marking_words())
        except NotSurjective as exc:
            raise InvalidMarking("edge labels do not generate the ambient group") from exc
        object.__setattr__(self, "marking_hint", hint)

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        # a Word hashes its whole letter tuple on every call, and labels run
        # to thousands of letters; the fields are frozen, so hash them once
        return hash((self.alphabet, self.num_vertices, self.edges, self.base))

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def betti(self) -> int:
        return self.num_edges - self.num_vertices + 1

    @cached_property
    def edge_alphabet(self) -> Alphabet:
        return std_alphabet(self.num_edges, prefix="e")

    @cached_property
    def _loops(self) -> Tuple[Tuple[int, ...], ...]:
        """The basis loops as signed 1-based edge indices, derived once: the
        spanning-tree basis of the folded graph that reads e_k along edge k,
        sorted by that letter."""
        adj: List[Dict[int, int]] = [{} for _ in range(self.num_vertices)]
        for k, (u, v, _w) in enumerate(self.edges, 1):
            adj[u][k] = v
            adj[v][-k] = u
        if len(stallings._components(range(self.num_vertices), lambda v: adj[v].values())) != 1:
            raise InvalidMarking("marked graph must be connected")
        H = stallings.SubgroupGraph(self.edge_alphabet, tuple(adj), self.base)
        by_letter = sorted(zip(H.basis_edges, H.basis), key=lambda p: p[0][1])
        return tuple(w.letters for _e, w in by_letter)

    def basis_loops(self) -> List[List[int]]:
        """Edge-paths (signed 1-based edge indices) of the non-tree basis loops."""
        return [list(loop) for loop in self._loops]

    def eval_edge_word(self, edge_word: Sequence[int]) -> Word:
        """Label-word of an edge path (signed 1-based edge indices)."""
        m = self.num_edges
        for x in edge_word:
            if x == 0 or abs(x) > m:
                raise UnknownLetter(f"edge letter {x} invalid for a graph of {m} edges")
        return _word(self.alphabet, tuple(substitute(edge_word, self._labels())))

    def _labels(self) -> List[Tuple[int, ...]]:
        return [w.letters for _u, _v, w in self.edges]

    def marking_words(self) -> List[Word]:
        """Images in F_n of the basis loops under the marking."""
        labels = self._labels()
        return [_word(self.alphabet, tuple(substitute(loop, labels))) for loop in self._loops]

    def to_edge_paths(self, words: Sequence[Word]) -> List[Word]:
        """Rewrite ambient words as based edge-path loops (over edge letters),
        each in one pass: x_i becomes its inverse image under the marking,
        read along the basis loops, which on one vertex are the edges."""
        if any(w.alphabet != self.alphabet for w in words):
            raise AlphabetMismatch("a word is not over the marked graph's alphabet")
        images = [w.letters for w in _marking_inverse(self).images]
        if self.num_vertices > 1:
            images = [substitute(im, self._loops) for im in images]
        return [_word(self.edge_alphabet, tuple(substitute(w.letters, images))) for w in words]


@lru_cache(maxsize=0)
def _marking_inverse(T: MarkedGraph) -> GroupMap:
    return T.marking_hint.inverse_hint


def _marked(alphabet: Alphabet, num_vertices: int, edges, base: int, hint: GroupMap,
            loops, edge_alphabet: Alphabet) -> MarkedGraph:
    """A MarkedGraph whose loops and certified hint the library derived
    itself: it fills the frozen fields without the checks."""
    T = object.__new__(MarkedGraph)
    T.__dict__.update(
        alphabet=alphabet, num_vertices=num_vertices, edges=edges, base=base, marking_hint=hint,
        _loops=loops, edge_alphabet=edge_alphabet,
    )
    return T


def rose(alphabet: Alphabet) -> MarkedGraph:
    """One vertex with a loop e_i labelled x_i: the loops are the edges and
    the marking is the identity, so nothing is left to check."""
    hint = identity_map(alphabet)
    edges = tuple([(0, 0, x) for x in hint.images])
    loops = tuple([(k,) for k in range(1, alphabet.rank + 1)])
    return _marked(alphabet, 1, edges, 0, hint, loops, std_alphabet(alphabet.rank, prefix="e"))


def transform_marked(f: GroupMap, T: MarkedGraph) -> MarkedGraph:
    """Relabel every edge word w by f(w).

    The basis loops of f(T) are those of T, so its marking words are f of
    T's: the composed hint is certified onto them, and the graph is built
    without evaluating them again; f(T) shares T's loops and edge alphabet.
    On a one-vertex graph the labels are the marking words, so they are read
    off the composed hint.
    """
    if f.inverse_images is None:
        raise InvalidMarking("transform_marked needs a verified automorphism")
    hint = compose_map(f, T.marking_hint)
    if T.num_vertices == 1:
        edges = tuple([(u, v, w) for (u, v, _), w in zip(T.edges, hint.images)])
    else:
        labels = _compose_letters([_letters(f.images), [w.letters for *_, w in T.edges]])
        edges = tuple([(u, v, w) for (u, v, _), w in zip(T.edges, _words(f.codomain, labels))])
    return _marked(f.codomain, T.num_vertices, edges, T.base, hint, T._loops, T.edge_alphabet)


# --- the projection ---------------------------------------------------------

@dataclass(frozen=True)
class ProjectionSet:
    """π_A(T): vertex-group classes of 1-edge collapses of the A-cover core."""

    factor: FreeFactorClass
    vertices: FrozenSet[farey.FareyVertex]

    def __post_init__(self):
        assert self.vertices, "projection set must be nonempty"
        assert farey.diameter(self.vertices) <= PROJECTION_DIAMETER_BOUND


def _arcs(adj, branch: Sequence[bool]):
    """Maximal chains of a folded graph through its non-``branch`` vertices,
    each of which has valence 2, as ``(u, letters, v)`` with the letters
    read from u to v."""
    arcs = []
    seen = set()  # the far ends of the chains listed so far
    for b, d in enumerate(adj):
        if not branch[b]:
            continue
        for s in d:
            if (b, s) in seen:
                continue
            letters, u, back = [s], d[s], -s
            while not branch[u]:
                nxt = adj[u]
                t, other = nxt
                if t == back:
                    t = other
                letters.append(t)
                u, back = nxt[t], -t
            seen.add((u, back))
            arcs.append((b, letters, u))
    return arcs


@lru_cache(maxsize=4096)
def project_tree(A: FreeFactorClass, T: MarkedGraph) -> ProjectionSet:
    """π_A(T) via the A-cover core of T, per natural-edge 1-edge collapses.

    A vertex group is kept only as its class in H₁(A) = Z², which ignores
    conjugation.  The fold of A's basis paths, arc by arc, carries e_1 and
    e_2 on them, so each arc of the cover carries its class in A's basis.
    Its unbased core chains into at most three natural edges, a rose, a
    barbell or a theta, and each collapse leaves loops, which give their
    classes, or two parallel edges, which give their difference.
    """
    if A.rank != 2:
        raise UndefinedProjection(f"Farey projections are for rank-2 factors, not rank {A.rank}")
    if A.ambient != T.alphabet:
        raise UndefinedProjection("the factor and the marked graph have different alphabets")
    num_vertices, arcs = fold_arcs(
        [path.letters for path in T.to_edge_paths(A.basis)], ((1, 0), (0, 1)),
        lambda c, d: (c[0] + d[0], c[1] + d[1]), lambda c: (-c[0], -c[1]), (0, 0),
    )
    adj: List[Dict[int, int]] = [{} for _ in range(num_vertices)]
    h1 = {}
    for k, (u, _letters, v, (p, q)) in enumerate(arcs, 1):
        adj[u][k], adj[v][-k] = v, u
        h1[k], h1[-k] = (p, q), (-p, -q)
    # unbased core of the cover, chained through its valence-2 vertices
    core, _ = stallings._trim(adj)
    ends = [len(d) != 2 for d in core]
    edges = [(x, y, tuple(map(sum, zip(*(h1[k] for k in word))))) for x, word, y in _arcs(core, ends)]
    shape = (sum(ends), sum(x == y for x, y, _c in edges))
    assert shape in ((1, 2), (2, 2), (2, 0)), \
        "a rank-2 core is a rose, a barbell or a theta, so collapses leave rank-1 components"

    vertices = set()
    for e in edges:
        rest = [f for f in edges if f is not e]
        cycles = [c for x, y, c in rest if x == y]
        links = [(x, c) for x, y, c in rest if x != y]
        if len(links) == 2:  # two parallel edges; a lone bridge closes no loop
            (x1, (p1, q1)), (x2, (p2, q2)) = links
            cycles.append((p1 - p2, q1 - q2) if x1 == x2 else (p1 + p2, q1 + q2))
        vertices.update(farey.farey_vertex(p, q) for p, q in cycles)
    return ProjectionSet(A, frozenset(vertices))


# --- distances --------------------------------------------------------------

def factor_shadow(A: FreeFactorClass, B: FreeFactorClass) -> Optional[ProjectionSet]:
    """π_A(B) (A rank 2), or None when the factors do not meet."""
    if A.rank != 2:
        raise UndefinedProjection(f"Farey projections are for rank-2 factors, not rank {A.rank}")
    verts = set()
    for mc in fa.meet_projection(A, B):
        assert mc.rank == 1
        verts.add(farey.farey_vertex(*mc.classes[0]))
    return ProjectionSet(A, frozenset(verts)) if verts else None


def _vertices_of(A: FreeFactorClass, X) -> FrozenSet[farey.FareyVertex]:
    if isinstance(X, MarkedGraph):
        return project_tree(A, X).vertices
    if isinstance(X, ProjectionSet):
        return X.vertices
    raise UndefinedProjection(f"cannot project {type(X).__name__}")


def projection_distance(A: FreeFactorClass, X, Y) -> int:
    """d_A(X, Y): Farey diameter of π_A(X) ∪ π_A(Y) for marked graphs and
    projections; a factor's shadow comes from ``factor_shadow`` or the
    collection that holds it, and a factor itself is refused."""
    return farey.diameter(_vertices_of(A, X) | _vertices_of(A, Y))


# --- factor order (the five diagnostic quantities) -------------------------

@dataclass(frozen=True)
class OrderVerdict:
    first_precedes_second: bool
    d_A_T_B: int
    d_B_T_A: int
    d_B_T2_A: int
    d_A_T2_B: int
    d_A_T_T2: int
    d_B_T_T2: int


def factor_order(
    A: FreeFactorClass, B: FreeFactorClass, T: MarkedGraph, T2: MarkedGraph, M: int,
    shadows: Tuple[Optional[ProjectionSet], Optional[ProjectionSet]],
) -> OrderVerdict:
    """Order two overlapping factors at distance >= K = 2M + 1 from both
    trees: A ≺ B iff d_A(T, B) >= M + 1.  Returns every diagnostic quantity.

    ``shadows`` is (π_A(B), π_B(A)), as ``factor_shadow`` gives them or an
    ``AdmissibleCollection`` holds them; a None in it means the factors do
    not meet.
    """
    K = 2 * M + 1
    if None in shadows:
        raise NotOverlapping("factors do not meet")
    dA = projection_distance(A, T, T2)
    dB = projection_distance(B, T, T2)
    if dA < K or dB < K:
        raise NotInOmega(f"d_A(T,T')={dA}, d_B(T,T')={dB} below K={K}")
    pa_b, pb_a = (shadow.vertices for shadow in shadows)
    d_A_T_B = farey.diameter(project_tree(A, T).vertices | pa_b)
    d_B_T_A = farey.diameter(project_tree(B, T).vertices | pb_a)
    d_B_T2_A = farey.diameter(project_tree(B, T2).vertices | pb_a)
    d_A_T2_B = farey.diameter(project_tree(A, T2).vertices | pa_b)
    return OrderVerdict(d_A_T_B >= M + 1, d_A_T_B, d_B_T_A, d_B_T2_A, d_A_T2_B, dA, dB)


# --- intervals along bounded-step paths ------------------------------------

@dataclass(frozen=True)
class TreePath:
    """A path of marked graphs standing in for a spine geodesic."""

    trees: Tuple[MarkedGraph, ...]

    def __post_init__(self):
        if len(self.trees) < 2:
            raise PathTooShort(f"a tree path needs at least 2 trees, not {len(self.trees)}")

    @property
    def length(self) -> int:
        return len(self.trees) - 1

    def step_bound(self, A: FreeFactorClass) -> int:
        """L_path for this factor: max per-step projection displacement."""
        return max(
            projection_distance(A, self.trees[k], self.trees[k + 1])
            for k in range(self.length)
        )


@dataclass(frozen=True)
class IntervalRecord:
    factor_key: str
    a: int
    b: int
    M: int
    L: int
    d_ends: int


def interval_of(path: TreePath, A: FreeFactorClass, M: int, L: int) -> IntervalRecord:
    """I_A = [a_A, b_A] with thresholds 2M + L, under the Ω precondition."""
    K = 5 * M + 3 * L
    thresh = 2 * M + L
    sets = [project_tree(A, t).vertices for t in path.trees]
    N = path.length
    d0N = farey.diameter(sets[0] | sets[N])
    if d0N < K:
        raise ThresholdViolated(f"d_A(T_0, T_N) = {d0N} < K = {K}")
    a = max(k for k in range(N + 1) if farey.diameter(sets[0] | sets[k]) <= thresh)
    later = [k for k in range(a, N + 1) if farey.diameter(sets[k] | sets[N]) <= thresh]
    if not later:
        raise ThresholdViolated("interval endpoint must exist under the Ω precondition")
    b = min(later)
    if not 0 <= a < b <= N:
        raise ThresholdViolated("interval must be nondegenerate")
    return IntervalRecord(A.key, a, b, M, L, d0N)
