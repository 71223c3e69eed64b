"""Stallings subgroup graphs: folding, canonical cores, pullbacks.

A graph is stored as an adjacency list ``adj[v][s] = w`` where ``s`` is a
signed letter index; folded form means at most one outgoing edge per signed
letter at each vertex, and the two directions of an edge are always both
present (``adj[w][-s] = v``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from freefactor.errors import AlphabetMismatch, TrivialSubgroup
from freefactor.words import Alphabet, Word, _word


def _find(parent: List[int], x: int) -> int:
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def fold(nv: int, raw_edges: Sequence[Tuple[int, int, int]], base: int):
    """Fold a raw edge list (u, s, v); returns (adjacency, base) on 0..m-1.

    Worklist of label conflicts with union-find vertex merging; the absorbed
    vertex's edges are re-queued, so the loop is near-linear in total edges.
    ``from_generators`` folds here, not by ``words.fold_arcs``: the pinned
    report bytes survive a BFS renumbering, but this numbering (roots in
    order) picks each pullback component's base, its least product state,
    and so the bases the CLI's ``intersect``, ``meet`` and ``overlap`` print
    and the classes ``TestH1Classes`` pins; ``TestFoldNumberingOutputs``
    pins those outputs and ``TestOneSortedTraversal`` the numbering itself.
    """
    parent = list(range(nv))
    adj: List[Dict[int, int]] = [dict() for _ in range(nv)]
    stack: List[Tuple[int, int, int]] = []
    for u, s, v in raw_edges:
        stack.append((u, s, v))
        stack.append((v, -s, u))
    while stack:
        u, s, v = stack.pop()
        u, v = _find(parent, u), _find(parent, v)
        cur = adj[u].get(s)
        if cur is None:
            adj[u][s] = v
            continue
        cur = _find(parent, cur)
        adj[u][s] = cur
        if cur != v:
            parent[v] = cur
            moved = adj[v]
            adj[v] = {}
            for sl, t in moved.items():
                stack.append((cur, sl, t))
    root = [_find(parent, v) for v in range(nv)]
    reps = [v for v in range(nv) if root[v] == v and (adj[v] or v == root[base])]
    index = {r: i for i, r in enumerate(reps)}
    out = [{s: index[root[t]] for s, t in adj[r].items()} for r in reps]
    return out, index[root[base]]


def _letter_order(adj: Sequence[Dict[int, int]]) -> List[List[Tuple[int, int]]]:
    """Each vertex's (letter, target) pairs, each letter before its inverse:
    a, a^-1, b, b^-1, ..."""
    return [sorted(d.items(), key=lambda e: (abs(e[0]), e[0] < 0)) for d in adj]


def bfs_tree(root: int, neighbours: Callable[[int], Iterable[Tuple[Hashable, int]]]):
    """Breadth-first spanning tree from ``root``.

    ``neighbours(v)`` yields ``(label, t)`` pairs in tie-break order.  Returns
    the discovery order and ``parent[t] = (v, label)`` for every non-root t.
    """
    order = [root]
    parent: Dict[int, Tuple[int, Hashable]] = {}
    for v in order:  # grows while it is scanned: a FIFO queue
        for label, t in neighbours(v):
            if t != root and t not in parent:
                parent[t] = (v, label)
                order.append(t)
    return order, parent


def _components(vertices: Sequence[Hashable], neighbours: Callable[[Hashable], Iterable[Hashable]]):
    """Connected components in the order of their first vertex, each listing
    its members in the order of ``vertices``."""
    comp: Dict[Hashable, int] = {}
    count = 0
    for v in vertices:
        if v in comp:
            continue
        comp[v] = count
        stack = [v]
        while stack:
            for t in neighbours(stack.pop()):
                if t not in comp:
                    comp[t] = count
                    stack.append(t)
        count += 1
    out: List[List[Hashable]] = [[] for _ in range(count)]
    for v in vertices:
        out[comp[v]].append(v)
    return out


def _trim(adj: List[Dict[int, int]], keep: Optional[int] = None):
    """Iteratively delete valence-1 vertices (except ``keep``) in place.

    Returns the core's adjacency renumbered 0..m-1 and the old -> new index
    of the surviving vertices.
    """
    alive = [True] * len(adj)
    degree = [len(d) for d in adj]
    queue = deque(v for v in range(len(adj)) if degree[v] <= 1 and v != keep)
    while queue:
        v = queue.popleft()
        if not alive[v] or degree[v] > 1:
            continue
        alive[v] = False
        for s, t in list(adj[v].items()):
            if alive[t]:
                del adj[t][-s]
                degree[t] -= 1
                if degree[t] <= 1 and t != keep:
                    queue.append(t)
        adj[v] = {}
    kept = [v for v in range(len(adj)) if alive[v]]
    index = {v: i for i, v in enumerate(kept)}
    return [{s: index[t] for s, t in adj[v].items()} for v in kept], index


@dataclass(frozen=True)
class SubgroupGraph:
    """Folded based core graph of a finitely generated subgroup."""

    alphabet: Alphabet
    adj: Tuple[Dict[int, int], ...]
    base: int

    @property
    def num_vertices(self) -> int:
        return len(self.adj)

    @property
    def num_edges(self) -> int:
        n = sum(len(d) for d in self.adj)
        # each non-loop edge contributes two directed entries; a loop also two
        assert n % 2 == 0
        return n // 2

    @property
    def rank(self) -> int:
        return self.num_edges - self.num_vertices + 1

    def trace(self, w: Word, start: Optional[int] = None) -> Optional[int]:
        """Endpoint of the path reading w, or None when the path dies."""
        v = self.base if start is None else start
        for s in w.letters:
            nxt = self.adj[v].get(s)
            if nxt is None:
                return None
            v = nxt
        return v

    @cached_property
    def _rows(self) -> List[List[Tuple[int, int]]]:
        """``_letter_order`` rows, sorted once for every traversal."""
        return _letter_order(self.adj)

    @cached_property
    def spanning_tree(self):
        """The one BFS tree from base, built on first use: (order, parent_edge)
        with parent_edge[v] = (u, s)."""
        order, parent_edge = bfs_tree(self.base, self._rows.__getitem__)
        assert len(order) == self.num_vertices, "graph must be connected"
        return order, parent_edge

    def path_word(self, v: int) -> Word:
        """Label word of the BFS-tree path base -> v, reduced since a tree
        path never backtracks."""
        parent_edge = self.spanning_tree[1]
        letters: List[int] = []
        while v != self.base:
            v, s = parent_edge[v]
            letters.append(s)
        return _word(self.alphabet, tuple(reversed(letters)))

    @cached_property
    def basis_edges(self) -> Tuple[Tuple[int, int, int], ...]:
        """Non-tree edges (u, s, v) oriented by their positive letter, each met
        from its earlier end in BFS order, a loop at its positive letter."""
        order, parent_edge = self.spanning_tree
        position = {v: i for i, v in enumerate(order)}
        out = []
        for v in order:
            for s, t in self._rows[v]:
                if parent_edge.get(t) == (v, s) or parent_edge.get(v) == (t, -s):
                    continue  # tree edge
                if position[v] < position[t] or (v == t and s > 0):
                    out.append((v, s, t) if s > 0 else (t, -s, v))
        return tuple(out)

    @cached_property
    def basis(self) -> Tuple[Word, ...]:
        """Spanning-tree free basis, as words in the ambient alphabet; each
        path(u) s path(v)^-1 is reduced, or (u, s, v) would be a tree edge."""
        p = self.path_word
        return tuple(
            _word(self.alphabet, p(u).letters + (s,) + p(v).inverse().letters)
            for u, s, v in self.basis_edges
        )

    @cached_property
    def _h1_index(self) -> Dict[Tuple[int, int], Tuple[int, ...]]:
        """Signed H₁ basis vector of every directed non-tree edge ``(u, s)``:
        the k-th of ``basis_edges`` reads +e_k, its reverse -e_k, and tree
        edges read 0."""
        edges = self.basis_edges
        index: Dict[Tuple[int, int], Tuple[int, ...]] = {}
        for k, (u, s, v) in enumerate(edges):
            e = tuple(int(i == k) for i in range(len(edges)))
            index[(u, s)] = e
            index[(v, -s)] = tuple(-x for x in e)
        return index


def from_generators(alphabet: Alphabet, gens: Sequence[Word]) -> SubgroupGraph:
    """Folded based core graph of <gens> (single vertex when gens is empty)."""
    nv = 1
    raw: List[Tuple[int, int, int]] = []
    for g in gens:
        if g.alphabet != alphabet:
            raise AlphabetMismatch("a generator is not a word over the given alphabet")
        ls = g.letters
        if not ls:
            continue
        prev = 0
        for i, s in enumerate(ls):
            nxt = 0 if i == len(ls) - 1 else nv
            if nxt != 0:
                nv += 1
            raw.append((prev, s, nxt))
            prev = nxt
    adj, base = fold(nv, raw, 0)
    adj, index = _trim(adj, base)
    return SubgroupGraph(alphabet, tuple(adj), index[base])


def _h1_read(H: SubgroupGraph, start: int, w: Word) -> Tuple[int, ...]:
    """H₁ class of the path that reads w in H from ``start``, summed over
    H's edge index."""
    index = H._h1_index
    c = (0,) * H.rank
    u = start
    for s in w.letters:
        e = index.get((u, s))
        if e is not None:
            c = tuple(x + y for x, y in zip(c, e))
        u = H.adj[u][s]
    return c


# --- canonical conjugacy-class cores ---------------------------------------

def _unbased_core(H: SubgroupGraph) -> List[Dict[int, int]]:
    adj, _ = _trim([dict(d) for d in H.adj])
    return adj


def canonical_core(H: SubgroupGraph) -> str:
    """Stable conjugacy-class key: minimal BFS code of the unbased core.

    Folded cores are unique up to label-preserving isomorphism, and BFS from a
    fixed start with a fixed letter order is deterministic, so minimizing the
    code over start vertices canonicalizes the isomorphism class.
    """
    adj = _unbased_core(H)
    if not adj or not any(adj):
        raise TrivialSubgroup("trivial subgroup has no core")
    rows = _letter_order(adj)

    def code(start):
        # each vertex's row, its targets numbered in discovery order
        order, _ = bfs_tree(start, rows.__getitem__)
        number = {v: i for i, v in enumerate(order)}
        return tuple(tuple((s, number[t]) for s, t in rows[v]) for v in order)

    return repr(min(code(v) for v in range(len(adj))))


# --- fiber products ---------------------------------------------------------

@dataclass(frozen=True)
class PullbackComponent:
    """One rank >= 1 component of the fiber product of two subgroup graphs."""

    subgroup: SubgroupGraph          # representative of [A ∩ gBg⁻¹], in ambient letters
    classes: Tuple[Tuple[int, ...], ...]  # its generators' H₁(A) classes, in A's basis
    coset_tag: Word                  # g, a double-coset representative
    rank: int


def pullback_components(A: SubgroupGraph, B: SubgroupGraph) -> List[PullbackComponent]:
    """Rank >= 1 components of the product automaton, one per double coset.

    A generator pA·loop·pA⁻¹ reads only tree edges of A along pA, so its
    H₁(A) class is that of the loop read from pA's end u0.
    """
    if A.alphabet != B.alphabet:
        raise AlphabetMismatch("the two subgroup graphs have different alphabets")
    # product state (u, v) is u * |B| + v; edges where both graphs read a letter
    nb = B.num_vertices
    adj = [{s: tu * nb + B.adj[v][s] for s, tu in A.adj[u].items() if s in B.adj[v]}
           for u in range(A.num_vertices) for v in range(nb)]
    out = []
    # connected components (undirected; adj is already symmetric)
    for verts in _components(range(len(adj)), lambda i: adj[i].values()):
        local = {i: k for k, i in enumerate(verts)}
        sub_adj = [{s: local[t] for s, t in adj[i].items()} for i in verts]
        core_adj, core_index = _trim(sub_adj)
        if not core_adj:
            continue  # a tree; a non-empty core has no leaves, so rank >= 1
        # base: the core's least product state (verts ascend)
        base_local = min(core_index)
        u0, v0 = divmod(verts[base_local], nb)
        graph = SubgroupGraph(A.alphabet, tuple(core_adj), core_index[base_local])
        pA = A.path_word(u0)
        g = pA * B.path_word(v0).inverse()
        loops = graph.basis
        sub = from_generators(A.alphabet, [loop.conjugate_by(pA) for loop in loops])
        classes = tuple(_h1_read(A, u0, loop) for loop in loops)
        out.append(PullbackComponent(sub, classes, g, graph.rank))
    return out
