"""Graph primitives on neighbour functions and integer adjacency.

Every BFS, DFS, heap-ordered and augmenting-path search of the package
runs here; the module imports nothing from the package.
"""

from __future__ import annotations

import heapq
from collections import deque


def bfs_path(nbrs, s, t):
    """Shortest path from s to t as a vertex list, or None.  `nbrs(v)`
    lists the neighbours of v in the order the search tries them."""
    prev = {s: None}
    q = deque([s])
    while q:
        v = q.popleft()
        if v == t:
            path = []
            while v is not None:
                path.append(v)
                v = prev[v]
            return path[::-1]
        for w in nbrs(v):
            if w not in prev:
                prev[w] = v
                q.append(w)
    return None


def _bfs_colouring(nbrs, s, colour, parent):
    """2-colour the component of s by BFS from s, which gets colour 0;
    `nbrs` is as for bfs_path.  `colour` and `parent` are the caller's
    lists, indexed by vertex, with colour -1 on every vertex not yet
    reached: each vertex reached gets its colour and its BFS parent
    (None for s).  Returns (order, clash): the vertices reached in
    visiting order, and the first edge (v, w) scanned with both ends of
    one colour, or None when the component is bipartite."""
    colour[s], parent[s], clash = 0, None, None
    order = [s]
    for v in order:  # grows while it is read
        c = colour[v]
        for w in nbrs(v):
            if colour[w] < 0:
                colour[w] = 1 - c
                parent[w] = v
                order.append(w)
            elif clash is None and colour[w] == c:
                clash = v, w
    return order, clash


def _lex_bfs(adj, out=None):
    """Lexicographic BFS by partition refinement (Habib, McConnell, Paul
    and Viennot, TCS 234, 2000) on the graph whose neighbour sets are
    `adj`.  Returns the vertices in reverse order of visit: the vertex
    visited first is last.  The unvisited vertices are kept in classes
    of equal label, in decreasing label order; visiting v moves its
    unvisited neighbours out of each class into a new class just before
    it.  The next vertex is the smallest in the first class.  With `out`
    (the out-neighbour sets of a digraph on the same vertices), the
    smallest vertex of the first class without an out-neighbour still
    unvisited is taken when there is one.  Each class keeps its members
    sorted as of its creation, read past the ones that have left, and
    with `out` a heap of its members without unvisited out-neighbours,
    so the search costs O((n + m) log n)."""
    n = len(adj)
    members, first, size, prev, nxt = [list(range(n))], [0], [n], [-1], [-1]
    cls = [0] * n  # class of each unvisited vertex, -1 once visited
    if out is not None:
        left = [len(o) for o in out]  # out-neighbours not yet visited
        quiet = [[v for v in range(n) if not left[v]]]  # sorted: a heap
        inn = [[] for _ in range(n)]
        for u, o in enumerate(out):
            for w in o:
                inn[w].append(u)
    head, seq = 0, [0] * n
    for i in range(n - 1, -1, -1):
        while not size[head]:
            head = nxt[head]
        c, v = head, -1
        if out is not None:
            q = quiet[c]
            while q and cls[q[0]] != c:
                heapq.heappop(q)
            if q:
                v = heapq.heappop(q)
        if v < 0:
            ms, k = members[c], first[c]
            while cls[ms[k]] != c:
                k += 1
            v, first[c] = ms[k], k + 1
        seq[i], cls[v] = v, -1
        size[c] -= 1
        if out is not None:
            for u in inn[v]:
                left[u] -= 1
                if not left[u] and cls[u] >= 0:
                    heapq.heappush(quiet[cls[u]], u)
        split = {}  # class -> the class split off it by v, just before it
        for w in adj[v]:
            c = cls[w]
            if c < 0:
                continue
            d = split.get(c)
            if d is None:
                d = split[c] = len(members)
                p = prev[c]
                members.append([])
                prev.append(p)
                nxt.append(c)
                prev[c] = d
                if p >= 0:
                    nxt[p] = d
                if c == head:
                    head = d
            cls[w] = d
            members[d].append(w)
        for c, d in split.items():
            ms = members[d]
            ms.sort()
            first.append(0)
            size.append(len(ms))
            size[c] -= len(ms)
            if out is not None:
                quiet.append([w for w in ms if not left[w]])
    return seq


def _matching(left, nbrs):
    """Bipartite matching by augmenting paths (Kuhn): each vertex u of
    `left` takes its first free right vertex in `nbrs(u)` order, then each
    one still free gets one `_augment` search.  Returns (match, hall):
    match maps matched right vertices to left vertices; hall is None when
    every left vertex is matched, else the sorted left vertices that the
    first failed search reached (the search stops there).  Every right
    vertex that search reached is matched to another of them, so their
    neighbours number len(hall) - 1 (Hall, Koenig)."""
    match, free = {}, []
    for u in left:
        for w in nbrs(u):
            if w not in match:
                match[w] = u
                break
        else:
            free.append(u)
    for u in free:
        reached = _augment(u, nbrs, match)
        if reached is not None:
            return match, sorted(reached)
    return match, None


def _augment(u, nbrs, match):
    """BFS from the free left vertex u over left vertices, each scanning
    its right vertices in `nbrs` order; a matched right vertex w leads to
    match[w].  par[w] is the left vertex that reached w, via[y] the
    matched right vertex through which y was reached.  At the first free
    right vertex found the search stops and flips the path back to u in
    `match`, returning None; it is the one a FIFO over both sides would
    pop first, as right vertices are popped in the order they are found.
    A search that runs out returns the left vertices it reached."""
    par, via, reached = {}, {u: None}, [u]
    for x in reached:  # grows while it is read
        for w in nbrs(x):
            if w in par:
                continue
            par[w] = x
            if w not in match:
                while w is not None:
                    x = par[w]
                    match[w], w = x, via[x]
                return None
            y = match[w]
            via[y] = w
            reached.append(y)
    return reached


def topological_order(verts, succ):
    """Topological order of the digraph that `succ(v)` spans on verts,
    taking the smallest ready vertex first, or None on a directed
    cycle.  Successors outside verts are ignored."""
    indeg = dict.fromkeys(verts, 0)
    for v in indeg:
        for w in succ(v):
            if w in indeg:
                indeg[w] += 1
    ready = [v for v, d in indeg.items() if d == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        v = heapq.heappop(ready)
        order.append(v)
        for w in succ(v):
            if w in indeg:
                indeg[w] -= 1
                if indeg[w] == 0:
                    heapq.heappush(ready, w)
    return order if len(order) == len(indeg) else None

def _reach(nbrs, s):
    """The set of vertices reachable from s; `nbrs(v)` lists the
    neighbours (or successors) of v."""
    seen = {s}
    stack = [s]
    while stack:
        for w in nbrs(stack.pop()):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def _components(verts, nbrs):
    """Connected components of the graph `nbrs` (as for _reach) spans,
    each sorted, listed in the order of their first vertex in verts."""
    comps, seen = [], set()
    for s in verts:
        if s not in seen:
            comp = _reach(nbrs, s)
            seen |= comp
            comps.append(sorted(comp))
    return comps


def _lowlink(n, nbrs, two_way=None):
    """Tarjan's lowlink DFS over vertices 0..n-1, roots in order and the
    neighbours of v in `nbrs(v)` order.  Returns (comp, cut, num,
    parent): num[v] is v's preorder number, parent[v] its tree parent
    (None for a root), cut lists the tree edges (parent[v], v) into the
    vertices v that are not roots and whose lowpoint is their own number
    when they finish, in finishing order, and comp[v] numbers the
    component v is popped with, in the order components close.

    `two_way(p, v)` says whether the tree edge p -> v is one of two
    opposite arcs that stand for one undirected edge.  The search never
    steps back along such an edge, and a vertex in cut under one closes
    no component: its vertices stay on the stack, where later arcs into
    them still lower lowpoints, until a vertex below closes.  Without
    `two_way`, the components are the strong components, sinks first.
    On the doubled digraph of a mixed graph, with `two_way` true on its
    edges, they are still that digraph's strong components, sinks
    first, and complete_to_strong reads the mixed graph's bridges and
    orients its edges from num, parent and cut."""
    num, low, comp, parent = [-1] * n, [0] * n, [-1] * n, [None] * n
    stack, cut, count, ncomp = [], [], 0, 0
    for root in range(n):
        if num[root] >= 0:
            continue
        num[root] = low[root] = count
        count += 1
        stack.append(root)
        work = [(root, -1, iter(nbrs(root)))]
        while work:
            v, back, it = work[-1]  # the search never steps from v to back
            for w in it:
                if num[w] < 0:
                    num[w] = low[w] = count
                    count += 1
                    parent[w] = v
                    stack.append(w)
                    work.append((w, v if two_way and two_way(v, w) else -1,
                                 iter(nbrs(w))))
                    break
                if comp[w] < 0 and w != back:
                    low[v] = min(low[v], num[w])
            else:
                work.pop()
                p = parent[v]
                if low[v] < num[v]:
                    low[p] = min(low[p], low[v])
                    continue
                if p is not None:
                    cut.append((p, v))
                if back < 0:
                    while comp[v] < 0:
                        comp[stack.pop()] = ncomp
                    ncomp += 1
    return comp, cut, num, parent


def _separates(nbrs, u, v):
    """True when u cannot reach v without using the pair uv in either
    direction; `nbrs` is as for _reach.  On UG(P), with `nbrs` =
    P.adj.__getitem__, that makes uv a bridge."""
    pair = {u, v}
    return v not in _reach(
        lambda x: [y for y in nbrs(x) if y not in pair] if x in pair
        else nbrs(x), u)
