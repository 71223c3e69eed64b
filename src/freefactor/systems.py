"""Support graphs, their complexity, admissible factor collections, and the
generator systems that induce a homomorphism from a right-angled Artin group
into outer automorphisms of a free group."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from freefactor import factors as fa, farey, stallings
from freefactor.errors import (
    CommutationViolation,
    InvalidGraph,
    LengthMismatch,
    NoSuchSyllable,
    NotAdmissible,
    NotHyperbolicSeed,
    RankMismatch,
    RankTooSmall,
    SupportViolation,
    UndefinedProjection,
)
from freefactor.factors import FreeFactorClass, free_factor_class
from freefactor.projections import ProjectionSet, factor_shadow
from freefactor.raag import RaagWord, SimplicialGraph, simplicial_graph
from freefactor.words import (
    Alphabet,
    GroupMap,
    Word,
    automorphism,
    compose_map,
    identity_map,
    invert_automorphism,
    is_inner,
    letter,
    map_power,
    std_alphabet,
)


# --- support graphs ---------------------------------------------------------

@dataclass(frozen=True)
class GraphOfGroups:
    """Graph of free groups with trivial edge groups realizing a collection.

    Vertex names: ``v|i`` for an original vertex i of the complement graph,
    ``e|i|j`` for the subdivision vertex of a complement edge (i < j).
    """

    gamma: SimplicialGraph
    vertices: Tuple[str, ...]
    edges: Tuple[Tuple[str, str], ...]
    vertex_ranks: Tuple[int, ...]
    ambient: Alphabet
    vertex_words: Tuple[Tuple[Word, ...], ...]   # ambient gens per vertex group
    factor_words: Tuple[Tuple[Word, ...], ...]   # basis of G_i per Γ vertex
    complement_words: Tuple[Tuple[Word, ...], ...]  # completes G_i to a basis

    @property
    def ambient_rank(self) -> int:
        return self.ambient.rank

    def factor(self, i: int) -> FreeFactorClass:
        return free_factor_class(self.ambient, list(self.factor_words[i]))


def _complement_components(gamma: SimplicialGraph) -> Tuple[List[List[str]], Dict[str, Set[str]]]:
    """Components of the complement graph, sorted, and its adjacency."""
    comp_adj = {v: set() for v in gamma.vertices}
    for u in gamma.vertices:
        for v in gamma.vertices:
            if u < v and not gamma.adjacent(u, v):
                comp_adj[u].add(v)
                comp_adj[v].add(u)
    return stallings._components(sorted(gamma.vertices), comp_adj.__getitem__), comp_adj


def complexity(gamma: SimplicialGraph) -> int:
    """Ambient rank of the support graph, from the complement-graph formula."""
    comps, comp_adj = _complement_components(gamma)
    total = 0
    for comp in comps:
        if len(comp) == 1:
            total += 2  # degenerate component: rank-2 free summand
            continue
        es = sum(len(comp_adj[v]) for v in comp) // 2
        val1 = sum(1 for v in comp if len(comp_adj[v]) == 1)
        total += 1 + 2 * es - len(comp) + val1
    return total


def build_support_graph(gamma: SimplicialGraph) -> GraphOfGroups:
    """Barycentric-subdivision construction of the support graph.

    Each complement-graph component is subdivided; subdivision vertices and
    valence-1 original vertices carry rank-1 groups; single-vertex components
    carry a rank-2 group; components are joined by a wedge of intervals, so
    the ambient rank is the underlying Betti number plus the vertex ranks.
    """
    if len(gamma.vertices) < 2:
        raise InvalidGraph("a support graph needs at least two vertices")
    comps, comp_adj = _complement_components(gamma)

    vertices: List[str] = []
    edges: List[Tuple[str, str]] = []
    ranks: Dict[str, int] = {}
    for comp in comps:
        if len(comp) == 1:
            name = f"v|{comp[0]}"
            vertices.append(name)
            ranks[name] = 2
            continue
        for v in comp:
            name = f"v|{v}"
            vertices.append(name)
            ranks[name] = 1 if len(comp_adj[v]) == 1 else 0
        for u in comp:
            for v in sorted(comp_adj[u]):
                if u < v:
                    name = f"e|{u}|{v}"
                    vertices.append(name)
                    ranks[name] = 1
                    edges.append((f"v|{u}", name))
                    edges.append((f"v|{v}", name))
    # wedge of intervals joining component basepoints
    for first, later in zip(comps, comps[1:]):
        edges.append((f"v|{first[0]}", f"v|{later[0]}"))

    # spanning tree of the whole underlying graph, to orient non-tree edges
    adj: Dict[str, List[Tuple[str, int]]] = {v: [] for v in vertices}
    for k, (u, v) in enumerate(edges):
        adj[u].append((v, k))
        adj[v].append((u, k))
    tree_edges = set()
    seen = {vertices[0]}
    stack = [vertices[0]]
    while stack:
        x = stack.pop()
        for t, k in sorted(adj[x]):
            if t not in seen:
                seen.add(t)
                tree_edges.add(k)
                stack.append(t)
    assert seen == set(vertices), "support graph must be connected"
    nontree = [k for k in range(len(edges)) if k not in tree_edges]

    # ambient letters: vertex-group generators in vertex order, then loops
    n = sum(ranks[v] for v in vertices) + len(nontree)
    ambient = std_alphabet(n)
    assert n == complexity(gamma), "rank bookkeeping"
    idx = 0
    vertex_words: Dict[str, List[Word]] = {}
    for v in vertices:
        vertex_words[v] = [letter(ambient, idx + r) for r in range(ranks[v])]
        idx += ranks[v]
    loop_letters = {k: letter(ambient, idx + a) for a, k in enumerate(nontree)}

    # G_i = star of v_i: its own group plus adjacent subdivision groups, each
    # conjugated by the connecting edge's loop letter when that edge is untree
    factor_words: List[Tuple[Word, ...]] = []
    used: List[set] = []
    for gv in gamma.vertices:
        name = f"v|{gv}"
        gens: List[Word] = list(vertex_words[name])
        support_letters = {w.letters[0] for w in vertex_words[name]}
        for t, k in sorted(adj[name]):
            if not t.startswith("e|"):
                continue
            conj = loop_letters.get(k)
            for g in vertex_words[t]:
                support_letters.add(g.letters[0])
                gens.append(g if conj is None else g.conjugate_by(conj))
        factor_words.append(tuple(gens))
        used.append(support_letters)
    complement_words = tuple(
        tuple(
            letter(ambient, i)
            for i in range(n)
            if (i + 1) not in used[k]
        )
        for k in range(len(gamma.vertices))
    )

    return GraphOfGroups(
        gamma=gamma,
        vertices=tuple(vertices),
        edges=tuple(edges),
        vertex_ranks=tuple(ranks[v] for v in vertices),
        ambient=ambient,
        vertex_words=tuple(tuple(vertex_words[v]) for v in vertices),
        factor_words=tuple(factor_words),
        complement_words=complement_words,
    )


# --- admissible collections -------------------------------------------------

@dataclass(frozen=True)
class AdmissibleCollection:
    """Pairwise classified factors with their coincidence graph.

    The coincidence graph has an edge (i, j) exactly when A_i and A_j are
    disjoint (sit in a common splitting); overlapping pairs are non-edges.

    The factor shadows π_{A_i}(A_j) depend on no tree, so ``shadows`` projects
    them on first use and keeps them; building or loading a collection
    computes none of them.
    """

    names: Tuple[str, ...]
    factors: Tuple[FreeFactorClass, ...]
    gamma: SimplicialGraph
    classifications: Tuple[Tuple[int, int, str], ...]

    def index(self, name: str) -> int:
        return self.names.index(name)

    @cached_property
    def shadows(self) -> Dict[Tuple[int, int], ProjectionSet]:
        """π_{A_i}(A_j) for each ordered pair (i, j) of factors that meet,
        from one ``meet_projection`` per ordered pair.  Like every Farey
        projection, it raises UndefinedProjection on a factor of rank other
        than 2."""
        return {
            (i, j): shadow
            for i, A in enumerate(self.factors)
            for j, B in enumerate(self.factors)
            if i != j and (shadow := factor_shadow(A, B)) is not None
        }

    def shadow(self, i: int, j: int) -> ProjectionSet:
        """π_{A_i}(A_j); UndefinedProjection when the two do not meet."""
        try:
            return self.shadows[(i, j)]
        except KeyError:
            raise UndefinedProjection("factors do not meet") from None


def verify_admissible(
    factors: Sequence[FreeFactorClass], names: Optional[Sequence[str]] = None
) -> AdmissibleCollection:
    """Classify every pair; the verdict must be disjoint or overlap."""
    if any(A.rank < 2 for A in factors):
        raise RankTooSmall("admissible collections need factors of rank >= 2")
    if names is None:
        names = [f"v{i}" for i in range(len(factors))]
    names = list(names)
    edges = []
    classifications = []
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            verdict, detail = fa.classify_pair(factors[i], factors[j])[:2]
            if verdict == "none":
                raise NotAdmissible((names[i], names[j]), str(detail))
            classifications.append((i, j, verdict))
            if verdict == "disjoint":
                edges.append((names[i], names[j]))
    gamma = simplicial_graph(names, edges)
    return AdmissibleCollection(tuple(names), tuple(factors), gamma, tuple(classifications))


# --- generator systems ------------------------------------------------------

def restricts_inner_trivially(f: GroupMap, A: FreeFactorClass) -> bool:
    """True when f agrees on A with conjugation by a single element."""
    return is_inner(f, A.basis) is not None


@dataclass(frozen=True)
class AdmissibleSystem:
    collection: AdmissibleCollection
    maps: Tuple[GroupMap, ...]
    power: int
    restriction_hyperbolic: Tuple[bool, ...]

    def map_of(self, name: str) -> GroupMap:
        return self.maps[self.collection.index(name)]


def _extend_seed(
    ambient: Alphabet,
    basis_pair: Sequence[Word],
    complement: Sequence[Word],
    seed: GroupMap,
    power: int,
) -> GroupMap:
    """Automorphism acting by seed^power on the pair, fixing the complement.

    The pair plus complement must form a basis; the action is conjugated back
    to the standard letters through that basis change.  The block map S is
    built with its inverse, the block of seed^-power, so the product is
    certified by composition; seed^power is squared once and carries that
    inverse when the seed is certified.
    """
    n = ambient.rank
    full = list(basis_pair) + list(complement)
    if len(full) != n:
        raise LengthMismatch(f"a factor basis and complement of {len(full)} words in rank {n}")
    C = automorphism(ambient, full)
    fixed = [letter(ambient, k) for k in range(2, n)]
    P = map_power(seed, power)
    block, inverse = [
        tuple([Word(ambient, w.letters) for w in g.images] + fixed)
        for g in (P, invert_automorphism(P))
    ]
    # rewrite the block through the basis: x_k -> C(block_k(C^{-1} coords))
    S = GroupMap(ambient, ambient, block, inverse)
    return compose_map(compose_map(C, S), C.inverse_hint)


def build_generators(
    collection: AdmissibleCollection,
    seeds: Sequence[GroupMap],
    power: int,
    complements: Sequence[Sequence[Word]],
) -> AdmissibleSystem:
    """Assemble and certify the generator system {f_i}.

    Each f_i is the i-th seed raised to ``power`` on A_i's basis, extended by
    the identity on the designated complement basis.  Certificates: every
    seed's abelianization is hyperbolic; f_i stabilizes each linked A_j with
    inner-trivial restriction; linked pairs commute up to inner.
    """
    factors = collection.factors
    if not len(seeds) == len(factors) == len(complements):
        raise LengthMismatch(
            f"{len(factors)} factors, {len(seeds)} seeds and {len(complements)} complements"
        )
    maps: List[GroupMap] = []
    hyp: List[bool] = []
    for A, seed, comp in zip(factors, seeds, complements):
        if A.rank != 2:
            raise RankMismatch(f"seed extension needs rank-2 factors, not rank {A.rank}")
        m = farey.matrix_of_out(seed)
        if not farey.is_fully_irreducible(m):
            raise NotHyperbolicSeed(f"seed abelianization has trace {m.trace}")
        f = _extend_seed(A.ambient, A.basis, comp, seed, power)
        maps.append(f)
        hyp.append(power != 0)

    certify_support(collection, maps)
    return AdmissibleSystem(collection, tuple(maps), power, tuple(hyp))


def _commutator(f: GroupMap, g: GroupMap) -> GroupMap:
    """[f, g] = f o g o f^-1 o g^-1, as its images only: ``is_inner`` reads
    nothing else."""
    f_inv, g_inv = invert_automorphism(f), invert_automorphism(g)
    return GroupMap(f.domain, f.domain, tuple([f(g(f_inv(w))) for w in g_inv.images]))


def certify_support(collection: AdmissibleCollection, maps: Sequence[GroupMap]) -> None:
    """Check every support certificate, raising on the first failure."""
    factors = collection.factors
    gamma = collection.gamma
    for i, name_i in enumerate(collection.names):
        fi = maps[i]
        if fa.transport(fi, factors[i]) != factors[i]:
            raise SupportViolation(f"f_{name_i} does not stabilize its own factor")
        for j, name_j in enumerate(collection.names):
            if i == j or not gamma.adjacent(name_i, name_j):
                continue
            # f_i(b) = w b w^-1 on A_j's basis gives f_i(A_j) = w A_j w^-1,
            # the same class, so the transport runs only to name a refusal
            if restricts_inner_trivially(fi, factors[j]):
                continue
            if fa.transport(fi, factors[j]) != factors[j]:
                raise SupportViolation(
                    f"f_{name_i} does not stabilize linked factor {name_j}"
                )
            raise SupportViolation(
                f"f_{name_i} is not inner-trivial on linked factor {name_j}"
            )
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            if not gamma.adjacent(collection.names[i], collection.names[j]):
                continue
            if is_inner(_commutator(maps[i], maps[j])) is None:
                raise CommutationViolation(
                    f"[f_{collection.names[i]}, f_{collection.names[j]}] is not inner"
                )


# --- the homomorphism and active factors -----------------------------------

def apply_phi(system: AdmissibleSystem, syllables: Iterable[Tuple[str, int]]) -> GroupMap:
    """φ of a word given as (generator, exponent) pairs, such as
    ``RaagWord.key()``: the left-to-right product of the generator powers."""
    out = identity_map(system.collection.factors[0].ambient)
    for gen, exp in syllables:
        out = compose_map(out, map_power(system.map_of(gen), exp))
    return out


def active_factor(system: AdmissibleSystem, g: RaagWord, k: int) -> FreeFactorClass:
    """A^g(k): the k-th syllable's factor transported by the prefix map."""
    syls = g.key()
    if not 0 <= k < len(syls):
        raise NoSuchSyllable(f"no syllable {k} in a word of syllable length {len(syls)}")
    A = system.collection.factors[system.collection.index(syls[k][0])]
    return fa.transport(apply_phi(system, syls[:k]), A)
