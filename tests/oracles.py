"""Independent reference implementations used as test oracles.

Everything here is deliberately naive and self-contained: plain tuples and
dicts, brute-force closures, BFS.  Frozen before the library code was tuned;
the library must agree with these, not the other way around.
"""

from collections import deque
from fractions import Fraction
from itertools import product
from math import gcd


# --- free words -------------------------------------------------------------

def naive_reduce(seq):
    """Quadratic free reduction by repeated scanning."""
    word = list(seq)
    changed = True
    while changed:
        changed = False
        for i in range(len(word) - 1):
            if word[i] == -word[i + 1]:
                del word[i : i + 2]
                changed = True
                break
    return tuple(word)


def subgroup_ball(gens, max_len):
    """All reduced words of length <= max_len in the subgroup <gens>."""
    gens = [naive_reduce(g) for g in gens]
    gens = [g for g in gens if g]
    closure = {(): True}
    frontier = [()]
    while frontier:
        nxt = []
        for w in frontier:
            for g in gens:
                for gg in (g, tuple(-x for x in reversed(g))):
                    prod = naive_reduce(w + gg)
                    if len(prod) <= max_len and prod not in closure:
                        closure[prod] = True
                        nxt.append(prod)
        frontier = nxt
    return set(closure)


# --- Farey graph ------------------------------------------------------------

def farey_norm(p, q):
    lead = p if p != 0 else q
    if lead < 0:
        p, q = -p, -q
    return (p, q)


def farey_neighbors(v, bound):
    """All primitive neighbours (|det| = 1) of v with coordinates <= bound."""
    p, q = v
    # solve p*y - q*x = +-1 : one solution via extended gcd, rest differ by t*(p,q)
    x0, x1, y0, y1, a, b = 1, 0, 0, 1, p, q
    while b:
        k = a // b
        a, b = b, a - k * b
        x0, x1 = x1, x0 - k * x1
        y0, y1 = y1, y0 - k * y1
    assert a in (1, -1)
    # p*x0 + q*y0 = a ; base solution of p*y - q*x = a: (x, y) = (-y0, x0)
    bx, by = -y0 * a, x0 * a
    out = set()
    for sign in (1, -1):
        sx, sy = sign * bx, sign * by
        # walk t until out of the box in both directions
        for step in (1, -1):
            t = 0
            while True:
                x, y = sx + t * p, sy + t * q
                if abs(x) > bound or abs(y) > bound:
                    if t != 0:
                        break
                else:
                    out.add(farey_norm(x, y))
                t += step
                if abs(t) > 4 * bound + 8:
                    break
    out.discard(farey_norm(p, q))
    return out


def farey_bfs_distances(source, bound):
    """BFS distances from source over vertices with |p|, |q| <= bound."""
    source = farey_norm(*source)
    dist = {source: 0}
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for w in farey_neighbors(v, bound):
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def primitive_pairs(bound):
    out = set()
    for p in range(-bound, bound + 1):
        for q in range(-bound, bound + 1):
            if (p, q) != (0, 0) and gcd(abs(p), abs(q)) == 1:
                out.add(farey_norm(p, q))
    return out


# --- RAAG rewriting ---------------------------------------------------------

def raag_closure(adjacency, word):
    """Full closure of a syllable tuple under moves (1), (2), (3).

    ``adjacency`` is a set of frozensets {a, b}; ``word`` a tuple of
    (generator, exponent) pairs with nonzero exponents.
    """
    word = tuple((g, e) for g, e in word if e != 0)
    seen = {word}
    queue = [word]
    while queue:
        cur = queue.pop()
        for i in range(len(cur) - 1):
            (g1, e1), (g2, e2) = cur[i], cur[i + 1]
            cands = []
            if g1 == g2:
                e = e1 + e2
                merged = () if e == 0 else ((g1, e),)
                cands.append(cur[:i] + merged + cur[i + 2 :])
            elif frozenset((g1, g2)) in adjacency:
                cands.append(cur[:i] + ((g2, e2), (g1, e1)) + cur[i + 2 :])
            for nxt in cands:
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
    return seen


def raag_min_forms(adjacency, word):
    closure = raag_closure(adjacency, word)
    m = min(len(w) for w in closure)
    return {w for w in closure if len(w) == m}


def raag_canonical(adjacency, word, vertex_order, memo=None):
    """The least minimal form in the closure of ``word``.

    Every member of a closure names the same group element, so one closure
    answers every later input found in it: a caller that asks about many
    words of one graph passes one ``memo`` dict for them all.  It keeps only
    the members as long as ``word``, which is its move-(3) orbit since the
    other moves shorten a word; on criterion 4's words they give the same
    hits as every member, with 40% of the entries.
    """
    word = tuple((g, e) for g, e in word if e != 0)
    if memo is not None and word in memo:
        return memo[word]
    closure = raag_closure(adjacency, word)
    m = min(len(w) for w in closure)
    rank = {v: i for i, v in enumerate(sorted(vertex_order))}
    best = min((w for w in closure if len(w) == m), key=lambda w: tuple((rank[g], e) for g, e in w))
    if memo is not None:
        memo.update(dict.fromkeys([w for w in closure if len(w) == len(word)], best))
    return best


def raag_syllable_order(adjacency, word, vertex_order):
    """(precedes, precedes_adjacent) on the syllables of g, read off Min(g).

    Syllables of one generator never swap, so "the k-th syllable of v" names
    the same syllable in every minimal form.  Syllables are numbered by their
    position in the canonical form, as ``raag.syllable_order`` numbers them.
    """

    def names(w):
        seen = {}
        out = []
        for g, _ in w:
            out.append((g, seen.get(g, 0)))
            seen[g] = seen.get(g, 0) + 1
        return out

    pos = {x: i for i, x in enumerate(names(raag_canonical(adjacency, word, vertex_order)))}
    n = len(pos)
    before = {(i, j) for i in range(n) for j in range(n) if i != j}
    adjacent = set()
    for w in raag_min_forms(adjacency, word):
        seq = [pos[x] for x in names(w)]
        at = {i: k for k, i in enumerate(seq)}
        before = {(i, j) for i, j in before if at[i] < at[j]}
        adjacent |= set(zip(seq, seq[1:]))
    return before, before & adjacent


# --- Whitehead descent by trial folds ---------------------------------------

def naive_core(gens, keep_base=True):
    """Folded core of <gens> as (vertices, edges), edges (u, x, v) with x > 0.

    Words are tuples of signed letters.  Every generator is a petal at the
    base 0; two edges leaving one vertex with one label are merged until none
    are left, then valence-<=1 vertices are deleted (the base only when
    ``keep_base`` is false).
    """
    edges = set()
    fresh = 1
    for g in gens:
        g = naive_reduce(g)
        prev = 0
        for i, s in enumerate(g):
            nxt = 0 if i == len(g) - 1 else fresh
            fresh += nxt != 0
            edges.add((prev, s, nxt) if s > 0 else (nxt, -s, prev))
            prev = nxt
    vertices = {0} | {u for u, _, _ in edges} | {v for _, _, v in edges}
    while True:
        out = {}
        clash = None
        for u, x, v in sorted(edges):
            for key, end in (((u, x), v), ((v, -x), u)):
                if key in out and out[key] != end:
                    clash = (out[key], end)
                    break
                out[key] = end
            if clash:
                break
        if clash is None:
            break
        keep, gone = min(clash), max(clash)
        edges = {(keep if u == gone else u, x, keep if v == gone else v) for u, x, v in edges}
        vertices.discard(gone)
    while True:
        degree = {w: 0 for w in vertices}
        for u, _, v in edges:
            degree[u] += 1
            degree[v] += 1
        leaves = {w for w, d in degree.items() if d <= 1 and (w != 0 or not keep_base)}
        if not leaves:
            return vertices, edges
        vertices -= leaves
        edges = {e for e in edges if e[0] not in leaves and e[2] not in leaves}


def whitehead_moves(n):
    """Every type-(ii) Whitehead move (v, Y) of F_n: v in Y, -v not in Y."""
    signed = [s for i in range(1, n + 1) for s in (i, -i)]
    for v in signed:
        others = [s for s in signed if s != v and s != -v]
        for mask in range(1 << len(others)):
            yield v, frozenset({v} | {s for k, s in enumerate(others) if mask >> k & 1})


def whitehead_image(v, Y, word):
    """Image of a word under (Y, v): x -> v^-1 x if -x in Y, x -> x v if x in Y."""
    out = []
    for s in word:
        x = abs(s)
        img = (x,) if x == abs(v) else ((-v,) if -x in Y else ()) + (x,) + ((v,) if x in Y else ())
        out.extend(img if s > 0 else tuple(-y for y in reversed(img)))
    return naive_reduce(out)


def trial_fold_is_free_factor(n, gens):
    """Greedy descent on the based core's edge count, folding every move.

    Free factor iff the local minimum has one vertex: a folded one-vertex
    graph is a subrose.
    """
    vertices, edges = naive_core(gens)
    improved = True
    while improved:
        improved = False
        for v, Y in whitehead_moves(n):
            cand = [whitehead_image(v, Y, g) for g in gens]
            cand_vertices, cand_edges = naive_core(cand)
            if len(cand_edges) < len(edges):
                gens, vertices, edges = cand, cand_vertices, cand_edges
                improved = True
                break
    return len(vertices) == 1


def whitehead_bit(s):
    """Position of a signed letter in a Whitehead set mask: a, a^-1, b, b^-1, ..."""
    return 2 * abs(s) - 2 + (s < 0)


def whitehead_cuts(n, core):
    """Yield (v, Y, change) for every type-(ii) Whitehead move (Y, v) of F_n.

    ``core`` is a cyclic core as rows {s: target}, one per vertex.  ``Y`` is
    a mask over the signed letters (see ``whitehead_bit``) holding v and not
    -v; moves come v = a, a^-1, b, ... and then by the mask of the other
    letters, as in ``whitehead_moves``.  ``change`` is what the move does to
    the core's edge count: the vertices p whose letters L(p) = {-s : s in
    row p} meet both Y and its complement, minus the edges labelled |v|
    (Gersten 1984; Roig, Ventura and Weil 2007).
    """
    groups = {}
    labelled = [0] * (n + 1)
    for d in core:
        m = 0
        for s in d:
            m |= 1 << whitehead_bit(-s)
            if s > 0:
                labelled[s] += 1
        groups[m] = groups.get(m, 0) + 1
    rows = list(groups.items())
    for v in (s for i in range(1, n + 1) for s in (i, -i)):
        p = 2 * abs(v) - 2
        low = (1 << p) - 1
        own = 1 << whitehead_bit(v)
        edges_v = labelled[abs(v)]
        for others in range(1 << (2 * n - 2)):
            Y = own | (others & low) | (others >> p) << (p + 2)
            cut = sum(c for m, c in rows if m & Y and m & ~Y)
            yield v, Y, cut - edges_v


def mask_letters(n, Y):
    """The signed letters of a Whitehead set mask."""
    return frozenset(s for i in range(1, n + 1) for s in (i, -i) if Y >> whitehead_bit(s) & 1)


def core_rows(edges):
    """Rows {s: target}, one per vertex, of ``naive_core``'s edges."""
    rows = {}
    for u, x, w in edges:
        rows.setdefault(u, {})[x] = w
        rows.setdefault(w, {})[-x] = u
    return list(rows.values())


def mask_descent_is_free_factor(n, gens):
    """Greedy descent on the cyclic core's edge count over ``whitehead_cuts``.

    Each step applies the first move whose cut count is negative and folds
    it with ``naive_core``.  Free factor iff the descent reaches a core of
    at most one vertex.
    """
    vertices, edges = naive_core(gens, keep_base=False)
    while len(vertices) > 1:
        move = next((m for m in whitehead_cuts(n, core_rows(edges)) if m[2] < 0), None)
        if move is None:
            return False
        v, Y, change = move
        gens = [whitehead_image(v, mask_letters(n, Y), g) for g in gens]
        expected = len(edges) + change
        vertices, edges = naive_core(gens, keep_base=False)
        assert len(edges) == expected, "the cut count must match the fold"
    return True


# --- projections to rank-2 factors by loop words ----------------------------

def loop_word_projection(paths):
    """π_A(T) as sign-normalized pairs (p, q), from loop words in the A-cover.

    ``paths`` are A's two basis elements as edge paths of T (tuples of signed
    edge letters).  For every natural edge of the cover's unbased core, each
    rank-1 component of the core minus that open edge gives a loop.  The
    loop is conjugated back to the cover's base along the BFS tree, rewritten
    in the cover's spanning-tree basis, abelianized, and carried to A's basis
    by the inverse of the matrix whose columns are the rewritten ``paths``.
    """
    vertices, edges = naive_core(paths)  # the based cover, base 0
    adj = {v: {} for v in vertices}
    for u, x, v in edges:
        adj[u][x] = v
        adj[v][-x] = u
    parent = {0: None}
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for x in sorted(adj[u]):
            if adj[u][x] not in parent:
                parent[adj[u][x]] = (u, x)
                queue.append(adj[u][x])

    def from_base(v):
        out = []
        while parent[v] is not None:
            v, x = parent[v]
            out.append(x)
        return tuple(reversed(out))

    basis = [e for e in sorted(edges) if parent[e[2]] != e[:2] and parent[e[0]] != (e[2], -e[1])]
    assert len(basis) == 2

    def h1(word):  # rewrite a closed word at the base, then abelianize
        count = [0, 0]
        v = 0
        for x in word:
            t = adj[v][x]
            for k, e in enumerate(basis):
                if e == (v, x, t) or e == (t, -x, v):
                    count[k] += 1 if x > 0 else -1
            v = t
        assert v == 0
        return tuple(count)

    (m00, m10), (m01, m11) = (h1(naive_reduce(p)) for p in paths)
    det = m00 * m11 - m01 * m10
    assert det in (1, -1)

    core_vertices, core_edges = naive_core(paths, keep_base=False)
    assert core_edges <= edges
    degree = {v: 0 for v in core_vertices}
    for u, _, v in core_edges:
        degree[u] += 1
        degree[v] += 1
    out = set()
    arcs = set()
    for b in sorted(w for w in core_vertices if degree[w] != 2):
        for start in sorted(core_edges):
            for u, x, v in (start, (start[2], -start[1], start[0])):
                if u != b:
                    continue
                arc, interior = {start}, set()
                while degree[v] == 2:
                    interior.add(v)
                    step = next(e for e in core_edges if v in (e[0], e[2]) and e not in arc)
                    arc.add(step)
                    v = step[2] if step[0] == v else step[0]
                arcs.add((frozenset(arc), frozenset(interior)))
    for arc, interior in arcs:
        rest = core_edges - arc
        seen = set()
        for r in sorted(core_vertices - interior):
            if r in seen:
                continue
            comp, tree, stack = {r}, {r: ()}, [r]
            while stack:  # DFS tree of the component, paths from r
                u = stack.pop()
                for a, x, c in rest:
                    for s, t, y in ((a, c, x), (c, a, -x)):
                        if s == u and t not in comp:
                            comp.add(t)
                            tree[t] = tree[u] + (y,)
                            stack.append(t)
            seen |= comp
            comp_edges = [e for e in rest if e[0] in comp]
            if len(comp_edges) - len(comp) + 1 != 1:
                continue
            u, x, v = next(e for e in comp_edges if tree.get(e[2]) != tree[e[0]] + (e[1],)
                           and tree.get(e[0]) != tree[e[2]] + (-e[1],))
            loop = tree[u] + (x,) + tuple(-y for y in reversed(tree[v]))
            c = from_base(r)
            pt, qt = h1(naive_reduce(c + loop + tuple(-y for y in reversed(c))))
            p, q = det * (m11 * pt - m01 * qt), det * (-m10 * pt + m00 * qt)
            out.add((p, q) if (p or q) > 0 else (-p, -q))
    return frozenset(out)


# --- pullback classes by membership rewrites -------------------------------

def rewrite_class(basis, word):
    """Coordinates of ``word``'s class in H₁(<basis>) = Z^r, in ``basis``.

    Words are tuples of signed letters and ``basis`` is a free basis of its
    subgroup.  The word is read through the folded core of <basis>, each
    non-tree edge of a BFS tree from the base writing its own basis letter;
    the rewrite is freely reduced and abelianized, and the result is carried
    to ``basis`` by solving M x = h with exact fractions, where the columns
    of M are the rewritten and abelianized basis words.
    """
    vertices, edges = naive_core(basis)
    adj = {v: {} for v in vertices}
    for u, x, v in edges:
        adj[u][x] = v
        adj[v][-x] = u
    parent = {0: None}
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for x in sorted(adj[u]):
            if adj[u][x] not in parent:
                parent[adj[u][x]] = (u, x)
                queue.append(adj[u][x])
    own = [e for e in sorted(edges) if parent[e[2]] != e[:2] and parent[e[0]] != (e[2], -e[1])]
    r = len(own)
    assert r == len(basis), "the basis must be free"

    def h1(w):
        expr = []
        v = 0
        for x in naive_reduce(w):
            t = adj[v][x]  # a KeyError here: w is not in the subgroup
            for k, e in enumerate(own):
                if e == (v, x, t):
                    expr.append(k + 1)
                elif e == (t, -x, v):
                    expr.append(-(k + 1))
            v = t
        assert v == 0, "the word must lie in the subgroup"
        expr = naive_reduce(expr)
        return [expr.count(k + 1) - expr.count(-(k + 1)) for k in range(r)]

    columns = [h1(b) for b in basis]
    rows = [[Fraction(columns[j][i]) for j in range(r)] + [Fraction(h)] for i, h in enumerate(h1(word))]
    for c in range(r):
        p = next(i for i in range(c, r) if rows[i][c])
        rows[c], rows[p] = rows[p], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for i in range(r):
            if i != c and rows[i][c]:
                rows[i] = [a - rows[i][c] * b for a, b in zip(rows[i], rows[c])]
    assert all(row[r].denominator == 1 for row in rows), "the basis change must be unimodular"
    return tuple(int(row[r]) for row in rows)


# --- automorphism inversion by Nielsen search -------------------------------

def _cat(a, b):
    """Concatenate two reduced words, cancelling at the seam."""
    i, j = len(a), 0
    while i > 0 and j < len(b) and a[i - 1] == -b[j]:
        i -= 1
        j += 1
    return a[:i] + b[j:]


def _inv(w):
    return tuple(-x for x in reversed(w))


def _compose(f, g):
    """(f o g)(x_i) = f(g(x_i)) for maps given as tuples of image words."""
    out = []
    for w in g:
        img = ()
        for s in w:
            img = _cat(img, f[s - 1] if s > 0 else _inv(f[-s - 1]))
        out.append(img)
    return tuple(out)


def left_multiplied_automorphism(rng, n, max_len):
    """Images and inverse images of t_m o ... o t_1, with the right
    transvections t drawn from ``rng`` as ``random_automorphism`` draws them:
    the length first, then each move in turn from the n(n - 1) pairs (i, j),
    each with s = 1 and s = -1.  Each draw is multiplied in on the left, so
    every image of the product is rewritten at every step."""
    identity = tuple((k + 1,) for k in range(n))
    moves = []
    for i in range(n):
        for j in range(n):
            if i != j:
                for s in (1, -1):
                    t, t_inv = list(identity), list(identity)
                    t[i], t_inv[i] = (i + 1, s * (j + 1)), (i + 1, -s * (j + 1))
                    moves.append((tuple(t), tuple(t_inv)))
    f, f_inv = identity, identity
    for _ in range(rng.randint(0, max_len)):
        t, t_inv = rng.choice(moves)
        f, f_inv = _compose(t, f), _compose(f_inv, t_inv)
    return f, f_inv


def plain_substitution(word, pieces):
    """The unreduced concatenation of pieces[x - 1] (x > 0) or of its
    inverse (x < 0) over the letters x of word."""
    out = ()
    for x in word:
        out += tuple(pieces[x - 1]) if x > 0 else _inv(pieces[-x - 1])
    return out


def compose_with_inverses(f, f_inv, g, g_inv):
    """Images of f o g, and of its inverse g_inv o f_inv when both inverses
    are given (else None); maps are tuples of image words."""
    inverse = None
    if f_inv is not None and g_inv is not None:
        inverse = _compose(g_inv, f_inv)
    return _compose(f, g), inverse


def is_onto(n, images):
    """Whether the images generate F_n: their folded core is the full rose."""
    vertices, edges = naive_core(images)
    return len(vertices) == 1 and len(edges) == n


def nielsen_inverse(n, images, budget=200_000):
    """Images of f^-1 for f: x_i -> images[i], or None when f is not onto.

    Nielsen-reduces the image tuple while recording each elementary move.
    Equal-length moves are explored breadth-first, so length plateaus cannot
    stall the descent; raises RuntimeError past ``budget`` moves.
    """
    images = tuple(naive_reduce(w) for w in images)
    if not is_onto(n, images):
        return None

    def moves_of(state):
        for i in range(n):
            for j in range(n):
                if i != j:
                    for s in (1, -1):
                        w = state[j] if s == 1 else _inv(state[j])
                        yield (i, j, s, "right"), _cat(state[i], w)
                        yield (i, j, s, "left"), _cat(w, state[i])
        for i in range(n):
            yield (i, None, None, "inv"), _inv(state[i])

    frontier = {images: ()}  # state -> recorded moves
    seen = {images}
    explored = 0
    while True:
        done = next((state for state in frontier
                     if all(len(u) == 1 for u in state) and len({abs(u[0]) for u in state}) == n), None)
        if done is not None:
            break
        better = None
        plateau = {}
        for state, path in frontier.items():
            for key, new_u in moves_of(state):
                i = key[0]
                new_state = state[:i] + (new_u,) + state[i + 1:]
                if key[3] != "inv" and len(new_u) < len(state[i]):
                    better = (new_state, path + (key,))
                    break
                if (key[3] == "inv" or len(new_u) == len(state[i])) and new_state not in seen:
                    plateau[new_state] = path + (key,)
                explored += key[3] != "inv"
            if better:
                break
        if better:
            frontier = {better[0]: better[1]}
            seen = {better[0]}
            continue
        if not plateau:
            raise RuntimeError("Nielsen descent stalled on an automorphism")
        if explored >= budget:
            raise RuntimeError("Nielsen reduction budget exceeded")
        seen.update(plateau)
        frontier = plateau

    # f o rho_1 o ... o rho_k = sigma, so f^-1 = rho_1 o ... o rho_k o sigma^-1
    identity = tuple((k + 1,) for k in range(n))
    inverse = identity
    for i, j, s, side in frontier[done]:
        rho = list(identity)
        if side == "inv":
            rho[i] = (-(i + 1),)
        else:
            rho[i] = (i + 1, s * (j + 1)) if side == "right" else (s * (j + 1), i + 1)
        inverse = _compose(inverse, tuple(rho))
    sigma_inverse = [None] * n
    for i, (x,) in enumerate(done):
        sigma_inverse[abs(x) - 1] = (i + 1,) if x > 0 else (-(i + 1),)
    return _compose(inverse, tuple(sigma_inverse))


# --- inner automorphisms by exponent scan ------------------------------------

def peeled_cyclic_reduce(w):
    """(core, c) with w = c core c^-1 and core cyclically reduced, peeling
    one letter off each end per step."""
    ls, prefix = list(w), []
    while len(ls) >= 2 and ls[0] == -ls[-1]:
        prefix.append(ls[0])
        ls = ls[1:-1]
    return tuple(ls), tuple(prefix)


def _conjugate(w, u):
    """w u w^-1."""
    return _cat(_cat(w, u), _inv(w))


def _conjugator(u, v):
    """Some w with w u w^-1 = v, or None, by trying every rotation of u's
    cyclic core against v's."""
    cu, a = peeled_cyclic_reduce(u)
    cv, b = peeled_cyclic_reduce(v)
    if len(cu) != len(cv):
        return None
    for k in range(max(len(cu), 1)):
        if cu[k:] + cu[:k] == cv:  # cv = p^-1 cu p with p = cu[:k]
            return _cat(_cat(b, _inv(cu[:k])), _inv(a))
    return None


def inner_witness_scan(basis, images):
    """(w, unique) with w b w^-1 = images[k] for every non-trivial b =
    basis[k], or (None, None); ``unique`` says whether w is the only witness.

    The witnesses of the first pair are w0 c q^t c^-1, where b1 = c q^k c^-1
    with q cyclically reduced and not a proper power.  In the frame x = w0 c
    a pair reads q^t B q^-t = C with B = c^-1 b c and C = x^-1 f(b) x, and
    t is scanned over |t| <= 1 + (2|B| + |C|) // |q| for every pair.  The
    bound: the base vertex 1 lies on q's axis, so q^-t lies on it at
    distance |t||q| from 1.  |g B g^-1| = l(B) + 2 d(g^-1, axis(B)), with l
    the translation length, so d(1, axis(B)) <= |B|/2 and a solution has
    d(q^-t, axis(B)) <= |C|/2.  The points of q's axis within D =
    max(|B|, |C|)/2 of B's axis form a segment of length below
    l(q) + l(B) + 2D, because axes that share a segment of length
    l(q) + l(B) belong to commuting elements (Culler and Morgan 1987), and
    a B that commutes with q allows every t.  So |t||q| < |q| + 2|B| + |C|.
    """
    pairs = [(b, im) for b, im in zip(basis, images) if b]
    if not pairs:
        return (), False
    (b1, im1), rest = pairs[0], pairs[1:]
    w0 = _conjugator(b1, im1)
    if w0 is None:
        return None, None
    core, c = peeled_cyclic_reduce(b1)
    p = next(p for p in range(1, len(core) + 1) if core == core[:p] * (len(core) // p))
    q, x = core[:p], _cat(w0, c)
    frame = [(_conjugate(_inv(c), b), _conjugate(_inv(x), im)) for b, im in rest]
    unique = any(_cat(B, q) != _cat(q, B) for B, _ in frame)
    bound = max([1 + (2 * len(B) + len(C)) // len(q) for B, C in frame], default=0)
    for t in range(-bound, bound + 1):
        qt = q * t if t >= 0 else _inv(q) * -t
        w = _cat(_cat(x, qt), _inv(c))
        if all(_conjugate(w, b) == im for b, im in rest):
            return w, unique
    return None, None


# --- coset representatives --------------------------------------------------

def short_words(n, max_len):
    """Every reduced word of length <= max_len over n letters, by length,
    then by the letter order a, a^-1, b, b^-1, ... position by position."""
    letters = [s for i in range(1, n + 1) for s in (i, -i)]
    out = [()]
    for length in range(1, max_len + 1):
        out.extend(w for w in product(letters, repeat=length)
                   if all(a != -b for a, b in zip(w, w[1:])))
    return out


# --- powers of maps, one composed map per step ------------------------------
#
# Not naive like the rest: it reuses the library's maps and their
# application.  It is ``words.map_power`` as it was before it squared on
# letter lists: every squaring and every multiply builds a composed map,
# applying the outer map to each image of the inner one.

def _compose_by_application(f, g):
    """f o g, applying f to each image of g, and g^-1 to each inverse image
    of f when both carry their inverses."""
    from freefactor.words import GroupMap

    inverse = None
    if f.inverse_images is not None and g.inverse_images is not None:
        gi = g.inverse_hint
        inverse = tuple([gi(w) for w in f.inverse_images])
    return GroupMap(g.domain, f.codomain, tuple([f(w) for w in g.images]), inverse)


def map_power_by_composition(f, n):
    """f^n by squaring, one composed map per step; n < 0 inverts f first."""
    from freefactor.words import identity_map, invert_automorphism

    if n < 0:
        return map_power_by_composition(invert_automorphism(f), -n)
    result = identity_map(f.domain)
    base = f
    while n:
        if n & 1:
            result = _compose_by_application(result, base)
        n >>= 1
        if n:
            base = _compose_by_application(base, base)
    return result


# --- order audit in the frame where it is defined ---------------------------
#
# Not naive like the rest: it reuses the library's projections.  It keeps the
# direct order-audit computation, which transports A_j by f_i^m and projects
# the tree f_i^m f_j^m T, so the audit's pulled-back frame (A_i, A_j) on
# (f_i^-m T, f_j^m T) can be checked against it.

def direct_order_distances(system, i, j, T, m, M):
    """The six order-audit distances of the pair (A_i, f_i^m A_j) on
    (T, f_i^m f_j^m T), and whether A_i precedes f_i^m A_j (d_A(T, B) >= M + 1);
    None when the two factors do not meet."""
    from freefactor import factors as fa, projections as pj
    from freefactor.words import compose_map, map_power

    fi = map_power(system.maps[i], m)
    fj = map_power(system.maps[j], m)
    T2 = pj.transform_marked(compose_map(fi, fj), T)
    A = system.collection.factors[i]
    B2 = fa.transport(fi, system.collection.factors[j])
    b_in_a, a_in_b = pj.factor_shadow(A, B2), pj.factor_shadow(B2, A)
    if b_in_a is None:
        return None
    d = pj.projection_distance
    out = {
        "d_A_T_T2": d(A, T, T2),
        "d_B_T_T2": d(B2, T, T2),
        "d_A_T_B": d(A, T, b_in_a),
        "d_B_T_A": d(B2, T, a_in_b),
        "d_B_T2_A": d(B2, T2, a_in_b),
        "d_A_T2_B": d(A, T2, b_in_a),
    }
    out["first_precedes_second"] = out["d_A_T_B"] >= M + 1
    return out


# --- projections letter by letter on the whole cover ------------------------
#
# Not naive like the rest: it reuses the library's folds, spanning trees and
# H₁ index.  It is the projection as the library computed it before its fold
# carried H₁ classes on whole arcs: every H₁ read walks single letters of the
# cover, and every natural edge's collapse rebuilds the core around it.

def _natural_edges(adj):
    """Maximal arcs through valence-2 vertices of an unbased core graph, as
    lists of directed (u, s, v) steps; each natural edge appears once."""
    arcs, used = [], set()
    for b in (v for v in range(len(adj)) if len(adj[v]) != 2):
        for s in sorted(adj[b], key=_letter_key):
            if (b, s) in used:
                continue
            arc, u, sl = [], b, s
            while True:
                v = adj[u][sl]
                arc.append((u, sl, v))
                used.update({(u, sl), (v, -sl)})
                if len(adj[v]) != 2:
                    break
                (sl,) = [t for t in adj[v] if t != -sl]
                u = v
            arcs.append(arc)
    return arcs


def _cover_core(A, T):
    from freefactor import stallings

    cover = stallings.from_generators(T.edge_alphabet, T.to_edge_paths(A.basis))
    core_adj, core_index = stallings._trim([dict(d) for d in cover.adj])
    return cover, core_adj, core_index


def letter_projection(A, T):
    """π_A(T) as Farey vertices, read letter by letter on the A-cover of T.

    The cover's BFS tree gives H₁ coordinates; both basis paths are read
    through its H₁ index for the basis change, and for every natural edge of
    the unbased core, each rank-1 component of the core minus that open edge
    gives the class of the cycle its own BFS tree closes.
    """
    from freefactor import farey, stallings

    cover, core_adj, core_index = _cover_core(A, T)
    assert cover.rank == 2
    (m00, m10), (m01, m11) = (
        stallings._h1_read(cover, cover.base, path) for path in T.to_edge_paths(A.basis)
    )
    det = m00 * m11 - m01 * m10
    assert det in (1, -1)
    coord = {(core_index[u], s): c for (u, s), c in cover._h1_index.items()}

    def cycle_h1(tree, u, s, v):
        p, q = coord.get((u, s), (0, 0))
        for x, sign in ((u, 1), (v, -1)):
            while x in tree:
                x, t = tree[x]
                dp, dq = coord.get((x, t), (0, 0))
                p, q = p + sign * dp, q + sign * dq
        return p, q

    vertices = set()
    for arc in _natural_edges(core_adj):
        removed = {(u, s) for u, s, _v in arc} | {(v, -s) for _u, s, v in arc}
        interior = {v for _u, _s, v in arc[:-1]} - {arc[0][0]}
        remaining = [v for v in range(len(core_adj)) if v not in interior]
        rem_adj = {
            v: {s: t for s, t in core_adj[v].items() if (v, s) not in removed and t not in interior}
            for v in remaining
        }
        for verts in stallings._components(remaining, lambda v: rem_adj[v].values()):
            rank = sum(len(rem_adj[v]) for v in verts) // 2 - len(verts) + 1
            if rank < 1:
                continue
            assert rank == 1
            _, tree = stallings.bfs_tree(verts[0], lambda v: sorted(rem_adj[v].items()))
            u, s, v = next(
                (u, s, v)
                for u in verts
                for s, v in rem_adj[u].items()
                if tree.get(v) != (u, s) and tree.get(u) != (v, -s)
            )
            pt, qt = cycle_h1(tree, u, s, v)
            vertices.add(farey.farey_vertex(det * (m11 * pt - m01 * qt), det * (-m10 * pt + m00 * qt)))
    return frozenset(vertices)


def cover_shape(A, T):
    """The shape of the A-cover's unbased core ("rose", "barbell" or
    "theta") and the valence of the cover's base."""
    cover, core_adj, _ = _cover_core(A, T)
    if sum(len(d) != 2 for d in core_adj) == 1:
        shape = "rose"
    elif any(arc[0][0] == arc[-1][2] for arc in _natural_edges(core_adj)):
        shape = "barbell"
    else:
        shape = "theta"
    return shape, len(cover.adj[cover.base])


# --- basis loops of a marked graph -----------------------------------------
#
# The derivation `projections.MarkedGraph` had before it took its loops from
# a `SubgroupGraph` read over its edge letters.

def tree_loops(T):
    """Basis loops of a marked graph as tuples of signed 1-based edge
    indices: a BFS tree from the base that scans each vertex's edge ends in
    index order, then one loop per non-tree edge, in edge order, through the
    tree paths to its two ends."""
    ends = [[] for _ in range(T.num_vertices)]
    for idx, (u, v, _w) in enumerate(T.edges):
        ends[u].append(((idx, 1), v))
        ends[v].append(((idx, -1), u))
    parent, queue = {}, deque([T.base])
    while queue:
        u = queue.popleft()
        for (idx, d), t in sorted(ends[u]):
            if t != T.base and t not in parent:
                parent[t] = (u, d * (idx + 1))
                queue.append(t)
    assert len(parent) == T.num_vertices - 1, "marked graph must be connected"

    def path(v):
        out = []
        while v != T.base:
            v, x = parent[v]
            out.append(x)
        return out[::-1]

    tree_edges = {abs(x) - 1 for _u, x in parent.values()}
    return [
        naive_reduce(path(u) + [idx + 1] + [-x for x in reversed(path(v))])
        for idx, (u, v, _w) in enumerate(T.edges)
        if idx not in tree_edges
    ]


# --- spanning trees, bases and codes of a Stallings graph --------------------
#
# The traversals `stallings` had before one sorted BFS served them all: its
# own BFS for canonical codes, a seen set that keeps one direction of each
# non-tree edge, and basis words built as reduced products of tree paths.
# Graphs are adjacency lists ``adj[v][s] = t`` of folded graphs.

def _letter_key(s):
    return abs(s), s < 0


def bfs_code(adj, start):
    """BFS code of ``adj`` from ``start``: each vertex's (letter, number)
    row in discovery order, numbering vertices as they are found."""
    order = [start]
    number = {start: 0}
    qi = 0
    code = []
    while qi < len(order):
        v = order[qi]
        qi += 1
        row = []
        for s in sorted(adj[v], key=_letter_key):
            t = adj[v][s]
            if t not in number:
                number[t] = len(order)
                order.append(t)
            row.append((s, number[t]))
        code.append(tuple(row))
    return tuple(code)


def tree_basis(adj, base):
    """Spanning-tree free basis from a BFS tree at ``base`` that scans each
    vertex's letters as a, a^-1, b, b^-1, ...: (paths, edges, words) with
    ``paths[v]`` the tree path's letters, ``edges`` the non-tree edges
    (u, s, v) oriented by their positive letter and listed where the scan
    first meets them, and ``words`` the reduced products path(u) s path(v)^-1."""
    parent = {base: None}
    queue = deque([base])
    order = []
    while queue:
        v = queue.popleft()
        order.append(v)
        for s in sorted(adj[v], key=_letter_key):
            t = adj[v][s]
            if t not in parent:
                parent[t] = (v, s)
                queue.append(t)

    def path(v):
        out = []
        while parent[v] is not None:
            v, s = parent[v]
            out.append(s)
        return tuple(reversed(out))

    edges, seen = [], set()
    for v in order:
        for s in sorted(adj[v], key=_letter_key):
            t = adj[v][s]
            if parent[t] == (v, s) or parent[v] == (t, -s):
                continue  # tree edge
            if (v, s, t) in seen or (t, -s, v) in seen:
                continue
            seen.add((v, s, t))
            edges.append((v, s, t) if s > 0 else (t, -s, v))
    words = [naive_reduce(path(u) + (s,) + tuple(-x for x in reversed(path(v)))) for u, s, v in edges]
    return {v: path(v) for v in order}, edges, words
