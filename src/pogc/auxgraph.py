"""Auxiliary graph on ordered adjacent pairs, 2-colouring, closures.

Each adjacent pair {u, v} of the underlying graph contributes two
vertices (u, v) and (v, u).  Adjacency couples orientation choices:
picking one endpoint of an auxiliary edge forces rejecting the other.
Orientations inside the target class correspond to colour classes of
the components, so orientability reduces to bipartiteness.
"""

from __future__ import annotations

from functools import cached_property

from .errors import InvariantError
from .graph import _bfs_colouring, bfs_path
from .pog import Certificate, _norm, _Record

MODES = ("local_tournament", "quasi_transitive")


def aux_adjacent(P, a, b, mode="local_tournament"):
    """Adjacency of two ordered pairs in the auxiliary graph of UG(P)."""
    if mode not in MODES:
        raise ValueError("unknown aux mode %r" % mode)
    if a == b:
        return False
    if a == (b[1], b[0]):
        return True
    if mode == "local_tournament":
        if a[0] == b[0] and not P.adjacent(a[1], b[1]):
            return True
        if a[1] == b[1] and not P.adjacent(a[0], b[0]):
            return True
        return False
    # quasi-transitive: (x, y) ~ (y, z) whenever x, z are non-adjacent
    for p, q in ((a, b), (b, a)):
        if p[1] == q[0] and p[0] != q[1] and not P.adjacent(p[0], q[1]):
            return True
    return False


class AuxGraph(_Record):
    names: tuple          # the vertex names of the pog it was built from
    mode: str
    verts: tuple          # ordered pairs, sorted
    adj: tuple            # tuple of sorted tuples of vertex ids
    comp: tuple           # component id per vertex, numbered by smallest pair
    comp_members: tuple   # sorted vertex ids per component
    colours: tuple        # 0 (red) / 1 (blue) per vertex; smallest pair red
    odd: tuple            # per component, the odd closed walk through its
                          # first conflict edge, or None when bipartite

    @cached_property
    def vid(self):
        return {p: k for k, p in enumerate(self.verts)}

    @property
    def ncomp(self):
        return len(self.comp_members)

    def is_thin(self, c):
        """A thin component is just an edge pair {(u, v), (v, u)}."""
        return len(self.comp_members[c]) == 2

    def pair_names(self, vidx):
        i, j = self.verts[vidx]
        return [self.names[i], self.names[j]]

    def class_pairs(self, c, colour):
        """The pairs of component c that take `colour`."""
        return [self.verts[k] for k in self.comp_members[c]
                if self.colours[k] == colour]


def build_aux(P, mode="local_tournament"):
    """The aux graph of UG(P) in `mode`, a view like `Pog.adj`: built on
    first request, kept on P and shared with the pogs `Pog._trusted(like=P)`
    derives.  It holds P's names, not P, so P stays free of cycles."""
    if mode not in MODES:
        raise ValueError("unknown aux mode %r" % mode)
    views = P.__dict__.setdefault("_aux", {})  # mode -> AuxGraph
    X = views.get(mode)
    if X is None:
        X = views[mode] = _build_aux(P, mode)
    return X


def _build_aux(P, mode):
    """The aux graph of UG(P) in `mode`, each component labelled and
    2-coloured by one BFS from its smallest pair.

    Every pair (u, v) is adjacent to its reverse (v, u).  Besides, for
    every vertex u and non-adjacent a, b in N(u): in local_tournament
    mode (u, a) ~ (u, b) and (a, u) ~ (b, u); in quasi_transitive mode
    (a, u) ~ (u, b) and (b, u) ~ (u, a).  These are exactly the pairs
    `aux_adjacent` accepts, enumerated per neighbourhood in
    O(m + sum of deg(v)^2).  The pairs (u, .) get the consecutive ids
    from start[u] in neighbour order, which is the sorted order of all
    pairs, so no pair is ever hashed; rev[x] is the id of the reverse
    of pair x."""
    nbr = [sorted(a) for a in P.adj]
    start = [0]
    for ns in nbr:
        start.append(start[-1] + len(ns))
    verts = [(u, v) for u, ns in enumerate(nbr) for v in ns]
    m = len(verts)
    # the pairs (v, u) are met in increasing order of u, which is their
    # id order, so a counter per v gives each one's id
    rev, at = [], start[:-1]
    for u, ns in enumerate(nbr):
        for v in ns:
            rev.append(at[v])
            at[v] += 1
    adj = [[y] for y in rev]
    lt = mode == "local_tournament"
    for u, ns in enumerate(nbr):
        s, k = start[u], len(ns)
        for i in range(k - 1):
            na, x = P.adj[ns[i]], s + i
            for j in range(i + 1, k):
                if ns[j] not in na:  # link p ~ q and r ~ t
                    y = s + j
                    p, q, r, t = (x, y, rev[x], rev[y]) if lt else (rev[x], y, rev[y], x)
                    adj[p].append(q)
                    adj[q].append(p)
                    adj[r].append(t)
                    adj[t].append(r)
    for nbrs in adj:
        nbrs.sort()
    comp, colours, parent = [-1] * m, [-1] * m, [None] * m
    members, odd = [], []
    for root in range(m):
        if comp[root] >= 0:
            continue
        order, clash = _bfs_colouring(adj.__getitem__, root, colours, parent)
        c_id = len(members)
        for v in order:
            comp[v] = c_id
        order.sort()
        members.append(tuple(order))
        odd.append(None if clash is None else _odd_closed_walk(parent, *clash))
    return AuxGraph(P.names, mode, tuple(verts), tuple(map(tuple, adj)),
                    tuple(comp), tuple(members), tuple(colours), tuple(odd))


def two_colour(X):
    """X itself, whose colours make the lexicographically smallest pair
    of each component red, or an OddClosedWalkAux certificate for the
    first component that is not bipartite."""
    for walk in X.odd:
        if walk is not None:
            return Certificate("OddClosedWalkAux", {
                "walk": [X.pair_names(k) for k in walk],
                "mode": X.mode,
            })
    return X


def _odd_closed_walk(parent, v, w):
    """Closed odd walk through the conflict edge vw of a BFS tree: from
    the meeting point of the tree paths of v and w down to v, across to
    w and back up."""
    up_v, up_w = [v], [w]
    while parent[up_v[-1]] is not None:
        up_v.append(parent[up_v[-1]])
    at = {x: t for t, x in enumerate(up_v)}
    while up_w[-1] not in at:
        up_w.append(parent[up_w[-1]])
    return up_v[at[up_w[-1]]::-1] + up_w


def aux_path(X, a, b):
    """Shortest path between two aux vertices (given as pairs)."""
    path = bfs_path(X.adj.__getitem__, X.vid[a], X.vid[b])
    if path is None:
        raise InvariantError("aux vertices lie in different components")
    return [X.verts[k] for k in path]


def _arc_classes(P, mode="local_tournament", mates=False):
    """The colour that the arcs of P fix in each aux component in `mode`
    (None for a component without arcs), or an OrientationConflict
    certificate for the first component holding arcs where that fails:
    the component is not bipartite, its arcs take both colours
    (`odd_pair`) or, with `mates`, an unoriented pair shares the arcs'
    colour (`unoriented_mate`).  A walk starts at the component's first
    arc; an `odd_pair` walk runs from its first red arc to its first
    blue one."""
    X = build_aux(P, mode)
    colours, odd = X.colours, X.odd
    fixed = []
    for c, members in enumerate(X.comp_members):
        arcs = [k for k in members if X.verts[k] in P.arcs]
        if not arcs:
            fixed.append(None)
            continue
        first, colour = X.verts[arcs[0]], colours[arcs[0]]
        red = [X.verts[k] for k in arcs if colours[k] == 0]
        blue = [X.verts[k] for k in arcs if colours[k] == 1]
        if odd[c] is not None:
            # to the odd closed walk, round it and back: odd in length
            loop = [X.verts[k] for k in odd[c]]
            path = aux_path(X, first, loop[0])
            kind, walk = "odd_pair", path + loop[1:] + path[-2::-1]
        elif red and blue:
            kind, walk = "odd_pair", aux_path(X, red[0], blue[0])
        else:
            mate = next((X.verts[k] for k in members if colours[k] == colour
                         and _norm(*X.verts[k]) in P.edges), None) if mates else None
            if mate is None:
                fixed.append(colour)
                continue
            kind, walk = "unoriented_mate", aux_path(X, first, mate)
        return Certificate("OrientationConflict", {
            "kind": kind,
            "walk": [[P.names[i], P.names[j]] for i, j in walk],
            "mode": X.mode,
        })
    return fixed


def _orient_classes(P, mode="local_tournament", fill=None):
    """Orient, in every aux component in `mode` holding arcs, the colour
    class those arcs fix.  With `fill`, a key on pairs, every other
    component orients the class of its pair with the smallest key.
    Returns the oriented pog, or a certificate when the aux graph is not
    bipartite or two arcs of one component take different colours."""
    X = two_colour(build_aux(P, mode))
    if isinstance(X, Certificate):
        return X
    fixed = _arc_classes(P, mode)
    if isinstance(fixed, Certificate):
        return fixed
    to_orient = []
    for c, members in enumerate(X.comp_members):
        colour = fixed[c]
        if colour is None and fill is not None:
            colour = X.colours[min(members, key=lambda k: fill(X.verts[k]))]
        if colour is not None:
            to_orient.extend(p for p in X.class_pairs(c, colour)
                             if _norm(*p) in P.edges)
    return P.orient(to_orient)


def consentaneous_closure(P):
    """Smallest consentaneous pog containing P.

    In every aux component touched by an arc, the whole colour class of
    that arc is oriented.  Returns a certificate when UG(P) is not
    orientable in the class (odd walk) or two arcs disagree (odd pair).
    """
    return _orient_classes(P)


def complete_via_aux(P, mode="local_tournament"):
    """Complete P inside the class tied to `mode`.

    Components containing arcs keep their forced colour class; untouched
    components take the class of their lexicographically smallest pair.
    Returns the completion or a certificate.
    """
    return _orient_classes(P, mode, fill=lambda pair: pair)
